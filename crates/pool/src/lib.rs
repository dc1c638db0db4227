//! `dvicl-pool` — a hand-rolled scoped work-stealing thread pool for
//! the parallel AutoTree build (ROADMAP item 1, DESIGN.md §14).
//!
//! The divide-&-conquer recursion of Algorithm 1 makes sibling subtrees
//! independent by construction: `CombineST` consumes only the
//! children's finished certificates, in child order. That is exactly
//! the fork/join shape, and this crate supplies the scheduling half of
//! it, in the house style — no external dependencies, `std` threads and
//! locks only:
//!
//! * one [`Pool`] per parallel build, with **one deque per worker**;
//! * a worker pushes and pops its own deque LIFO (newest first — the
//!   task whose data is hottest in cache), and steals from other
//!   workers FIFO (oldest first — the biggest unstarted subtree, which
//!   is the classic work-stealing heuristic for keeping steal counts
//!   low);
//! * idle workers park on a condvar and are woken by [`Pool::spawn`]
//!   and [`Pool::shut_down`];
//! * [`scope`] wires the pool to `std::thread::scope`, so worker
//!   closures may borrow the caller's stack (graph, coloring, budget)
//!   without any `'static` gymnastics.
//!
//! The pool is deliberately *policy-free*: it moves opaque task values
//! of type `T` and never interprets them. What a task means, how its
//! result rejoins the parent, and how errors propagate is the caller's
//! contract (`core::build` joins fragments in deterministic child
//! order; see DESIGN.md §14 for the ownership and determinism
//! argument). Two hooks tie the pool into the pipeline's governance
//! and observability:
//!
//! * every [`Pool::spawn`] passes the `pool.spawn` fault checkpoint
//!   (DESIGN.md §11), so the fault sweep can trip or cancel a build at
//!   the moment a subtree leaves its parent's call stack;
//! * spawns bump the `pool_tasks` counter, cross-worker acquisitions
//!   bump `pool_steals`, and per-worker task/steal/busy-time tallies
//!   are kept for the `--stats` report ([`Pool::worker_stats`]).
//!
//! # Example
//!
//! A parallel sum: the leader spawns one task per addend, workers and
//! leader drain the deques, and the scope exit proves quiescence.
//!
//! ```
//! use dvicl_pool::{scope, Pool};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let total = AtomicU64::new(0);
//! let mut worker_states = [(), ()]; // two helper workers, no state
//! scope(
//!     &mut worker_states,
//!     |wid, pool: &Pool<u64>, _state| loop {
//!         match pool.try_acquire(wid) {
//!             Some(x) => { total.fetch_add(x, Ordering::Relaxed); }
//!             None => if !pool.park(wid) { return },
//!         }
//!     },
//!     |pool| {
//!         for x in 1..=100u64 {
//!             pool.spawn(0, x)?;
//!         }
//!         // The leader helps until every deque is empty.
//!         while let Some(x) = pool.try_acquire(0) {
//!             total.fetch_add(x, Ordering::Relaxed);
//!         }
//!         Ok::<(), dvicl_govern::DviclError>(())
//!     },
//! )
//! .unwrap();
//! // scope() returns only after every worker thread has exited, so
//! // all 100 tasks have run.
//! assert_eq!(total.load(Ordering::Relaxed), 5050);
//! ```

#![deny(missing_docs)]

use dvicl_govern::fault::Site;
use dvicl_govern::DviclError;
use dvicl_obs::{self as obs, Counter, Phase};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Per-worker scheduling tallies, surfaced by [`Pool::worker_stats`]
/// and reported as `pool_worker` events under `--stats` /
/// `--trace-json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed (own pops plus steals).
    pub tasks: u64,
    /// Tasks this worker acquired from *another* worker's deque.
    pub steals: u64,
    /// Nanoseconds this worker spent inside task bodies (its span
    /// self-time, summed) — only tallied while obs timing is enabled.
    pub busy_ns: u64,
}

/// The shared state of one parallel region: per-worker deques, the
/// parking lot, and the shutdown latch. Created by [`scope`] (or
/// [`Pool::new`] in tests); workers address it by their worker id,
/// with id 0 conventionally the leader (the thread that called
/// [`scope`]).
#[derive(Debug)]
pub struct Pool<T> {
    /// Task deques, one per worker. `Mutex<VecDeque>` beats a lock-free
    /// deque here: spawns are coarse (whole subtrees, thresholded by
    /// the caller), so contention is negligible and the implementation
    /// stays obviously correct and dependency-free.
    deques: Vec<Mutex<VecDeque<T>>>,
    /// Per-worker tallies, parallel to `deques`.
    stats: Vec<WorkerStatCell>,
    /// Parking lot: parked workers wait here; spawns and shutdown
    /// notify. The mutex guards nothing but the wait itself — the
    /// queues have their own locks — but waiters re-check
    /// [`Pool::has_work`] *while holding it*, and wakers notify while
    /// holding it, which closes the lost-wakeup race.
    lot: Mutex<()>,
    wake: Condvar,
    /// Set once by [`Pool::shut_down`]; parked workers observe it and
    /// exit their loops.
    done: AtomicBool,
}

/// The atomic cells behind one worker's [`WorkerStats`].
#[derive(Debug, Default)]
struct WorkerStatCell {
    tasks: AtomicU64,
    steals: AtomicU64,
    busy_ns: AtomicU64,
}

impl<T: Send> Pool<T> {
    /// A pool for `threads` workers (ids `0..threads`), all deques
    /// empty. [`scope`] calls this; tests may drive a pool directly.
    pub fn new(threads: usize) -> Pool<T> {
        let threads = threads.max(1);
        Pool {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            stats: (0..threads).map(|_| WorkerStatCell::default()).collect(),
            lot: Mutex::new(()),
            wake: Condvar::new(),
            done: AtomicBool::new(false),
        }
    }

    /// Number of workers this pool schedules (including the leader).
    pub fn threads(&self) -> usize {
        self.deques.len()
    }

    /// Pushes `task` onto worker `wid`'s own deque and wakes a parked
    /// worker. Passes the `pool.spawn` fault checkpoint first: under an
    /// installed fault plan the spawn can fail with a typed error
    /// (budget trip, cancellation) *before* the task is queued — the
    /// task is dropped and the caller aborts its build, exactly like
    /// any other checkpointed failure.
    pub fn spawn(&self, wid: usize, task: T) -> Result<(), DviclError> {
        dvicl_govern::fault::checkpoint(Site::PoolSpawn)?;
        obs::bump(Counter::PoolTasks);
        self.deques[wid]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(task);
        // Notify under the lot lock so a worker that just re-checked
        // `has_work` and is about to wait cannot miss this push.
        let _lot = self.lot.lock().unwrap_or_else(PoisonError::into_inner);
        self.wake.notify_all();
        Ok(())
    }

    /// Takes one task: worker `wid`'s own deque newest-first (LIFO),
    /// else another worker's oldest-first (FIFO steal, round-robin from
    /// `wid + 1`). `None` means every deque was empty at the time each
    /// was inspected. Steals bump `pool_steals` and the per-worker
    /// tally; every acquisition bumps the worker's task count.
    pub fn try_acquire(&self, wid: usize) -> Option<T> {
        let n = self.deques.len();
        if let Some(task) = self.deques[wid]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_back()
        {
            self.stats[wid].tasks.fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
        for off in 1..n {
            let victim = (wid + off) % n;
            if let Some(task) = self.deques[victim]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
            {
                obs::bump(Counter::PoolSteals);
                self.stats[wid].tasks.fetch_add(1, Ordering::Relaxed);
                self.stats[wid].steals.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    /// Parks worker `wid` until new work may exist or the pool shuts
    /// down. Returns `false` when the worker should exit (shutdown and
    /// nothing left to run); `true` means "look again" — spurious
    /// wakeups are allowed and harmless, the caller loops on
    /// [`Pool::try_acquire`] anyway.
    pub fn park(&self, _wid: usize) -> bool {
        let lot = self.lot.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-check under the lot lock: a spawn that happened after our
        // last failed acquire notifies under this same lock, so either
        // we see its work here or the wait sees its notification.
        if self.has_work() {
            return true;
        }
        if self.done.load(Ordering::Acquire) {
            return false;
        }
        drop(
            self.wake
                .wait(lot)
                .unwrap_or_else(PoisonError::into_inner),
        );
        !self.done.load(Ordering::Acquire) || self.has_work()
    }

    /// Whether any deque currently holds a task.
    pub fn has_work(&self) -> bool {
        self.deques.iter().any(|d| {
            !d.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty()
        })
    }

    /// Flags shutdown and wakes every parked worker. Call at
    /// quiescence — after the caller's joins have all completed — so
    /// workers exit instead of parking forever. ([`scope`] does this
    /// when the leader closure returns.)
    pub fn shut_down(&self) {
        self.done.store(true, Ordering::Release);
        let _lot = self.lot.lock().unwrap_or_else(PoisonError::into_inner);
        self.wake.notify_all();
    }

    /// Adds `ns` nanoseconds to worker `wid`'s busy-time tally. The
    /// caller times its task bodies (only when obs timing is enabled)
    /// and reports here; the pool itself never reads clocks.
    pub fn note_busy(&self, wid: usize, ns: u64) {
        self.stats[wid].busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// The per-worker tallies accumulated so far, indexed by worker id.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.stats
            .iter()
            .map(|s| WorkerStats {
                tasks: s.tasks.load(Ordering::Relaxed),
                steals: s.steals.load(Ordering::Relaxed),
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// An RAII span for one task body: opens the `pool.task` phase, so a
/// `--stats` report shows how much wall time ran *inside* pool tasks
/// (and, via self-time, how much of it was leaf work). Returned by a
/// function so the label literal lives in this crate, next to the
/// naming convention it must follow.
pub fn task_span() -> obs::Span {
    obs::span(Phase::PoolTask)
}

/// Runs a parallel region: spawns one scoped thread per entry of
/// `states` (workers `1..=states.len()`, each receiving exclusive
/// access to its state), runs `leader` on the calling thread as worker
/// `0`, then shuts the pool down and joins every worker before
/// returning the leader's result.
///
/// The `worker` closure is the drain loop: it must keep acquiring
/// until [`Pool::park`] returns `false`. The `leader` closure owns the
/// work: it spawns tasks, helps drain, and must not return before its
/// own joins have completed — [`Pool::shut_down`] fires as soon as it
/// does. Worker threads may borrow from the caller's stack (the pool
/// is built on `std::thread::scope`).
///
/// Panic note: the pipeline's task bodies are panic-free by policy
/// (the workspace's clippy panic denials); injected faults surface as typed
/// `DviclError`s through the caller's join results, never as unwinds.
/// Should a task body panic anyway, `std::thread::scope` re-raises it
/// after the region ends.
pub fn scope<T, W, R>(
    states: &mut [W],
    worker: impl Fn(usize, &Pool<T>, &mut W) + Sync,
    leader: impl FnOnce(&Pool<T>) -> R,
) -> R
where
    T: Send,
    W: Send,
{
    let pool = Pool::new(states.len() + 1);
    std::thread::scope(|s| {
        for (i, state) in states.iter_mut().enumerate() {
            let pool = &pool;
            let worker = &worker;
            s.spawn(move || worker(i + 1, pool, state));
        }
        let out = leader(&pool);
        pool.shut_down();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_govern::fault::{self, FaultPlan};
    use dvicl_govern::FaultAction;
    use std::sync::Mutex as StdMutex;

    /// Fault state is process-global; serialize every test that passes
    /// the `pool.spawn` checkpoint with the one that installs a plan
    /// (same pattern as `govern::fault`'s own tests). Unserialized, a
    /// plan counts their hits, or fails one of their spawns — and a
    /// panicking leader never shuts its scope down, so the test hangs.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn lifo_own_pop_fifo_steal() {
        let _g = lock();
        let pool: Pool<u32> = Pool::new(2);
        pool.spawn(0, 1).unwrap();
        pool.spawn(0, 2).unwrap();
        pool.spawn(0, 3).unwrap();
        // Owner pops newest first...
        assert_eq!(pool.try_acquire(0), Some(3));
        // ...a thief steals oldest first.
        assert_eq!(pool.try_acquire(1), Some(1));
        assert_eq!(pool.try_acquire(1), Some(2));
        assert_eq!(pool.try_acquire(0), None);
        let stats = pool.worker_stats();
        assert_eq!(stats[0].tasks, 1);
        assert_eq!(stats[0].steals, 0);
        assert_eq!(stats[1].tasks, 2);
        assert_eq!(stats[1].steals, 2);
    }

    #[test]
    fn scope_drains_everything_and_joins() {
        let _g = lock();
        use std::sync::atomic::{AtomicU64, Ordering};
        let total = AtomicU64::new(0);
        let mut states = [(), (), ()];
        scope(
            &mut states,
            |wid, pool: &Pool<u64>, _| loop {
                match pool.try_acquire(wid) {
                    Some(x) => {
                        total.fetch_add(x, Ordering::Relaxed);
                    }
                    None => {
                        if !pool.park(wid) {
                            return;
                        }
                    }
                }
            },
            |pool| {
                for x in 1..=1000u64 {
                    pool.spawn(0, x).unwrap();
                }
                while let Some(x) = pool.try_acquire(0) {
                    total.fetch_add(x, Ordering::Relaxed);
                }
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), 500_500);
    }

    #[test]
    fn single_worker_scope_runs_on_the_leader() {
        let _g = lock();
        let mut none: [(); 0] = [];
        let got = scope(
            &mut none,
            |_wid, _pool: &Pool<u8>, _| panic!("no worker threads"),
            |pool| {
                pool.spawn(0, 7).unwrap();
                pool.try_acquire(0)
            },
        );
        assert_eq!(got, Some(7));
    }

    #[test]
    fn spawn_checkpoint_injects_typed_faults() {
        let _g = lock();
        fault::install(FaultPlan::one(FaultAction::Cancel, Site::PoolSpawn, 2));
        let pool: Pool<u32> = Pool::new(1);
        assert!(pool.spawn(0, 1).is_ok());
        assert_eq!(pool.spawn(0, 2), Err(DviclError::Cancelled));
        // The failed spawn queued nothing; the first task is intact.
        assert_eq!(pool.try_acquire(0), Some(1));
        assert_eq!(pool.try_acquire(0), None);
        fault::clear();
    }

    #[test]
    fn park_returns_false_only_after_shutdown() {
        let _g = lock();
        let pool: Pool<u32> = Pool::new(1);
        pool.spawn(0, 9).unwrap();
        // Work pending: park refuses to sleep.
        assert!(pool.park(0));
        assert_eq!(pool.try_acquire(0), Some(9));
        pool.shut_down();
        assert!(!pool.park(0));
    }
}
