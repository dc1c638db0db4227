//! The [`Budget`] handle and cooperative [`CancelToken`].

use crate::error::{DviclError, Resource};
use dvicl_obs::Counter;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many work units pass between wall-clock checks in
/// [`Budget::spend`]. Work caps and cancellation are enforced on every
/// call; the clock is only consulted at stride boundaries because
/// `Instant::now` costs far more than an atomic add. Callers spend one
/// unit per refinement split or search node, both of which run in
/// microseconds, so deadline overshoot stays well under a millisecond.
pub const STRIDE: u64 = 256;

/// Counts a budget trip in the thread's `budget_trips` counter; the
/// unit's owner reports it with the rest of its counters. Off the hot
/// path by construction: this only runs when the computation is already
/// being aborted.
#[cold]
#[inline(never)]
fn count_trip() {
    dvicl_obs::bump(Counter::BudgetTrips);
}

/// Cooperative cancellation flag, cheaply cloneable and shareable
/// across threads. Cancelling is sticky: once triggered, every budget
/// holding the token fails its next check.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, untriggered token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation of every computation holding this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[derive(Debug)]
struct Inner {
    started: Instant,
    deadline: Option<Instant>,
    max_work: Option<u64>,
    work: AtomicU64,
    cancel: CancelToken,
}

/// A handle describing how much a computation may do: an optional
/// wall-clock deadline, an optional work cap, and a shared
/// [`CancelToken`]. Clones share the same counters, so one budget can
/// govern an entire pipeline (build + leaf searches + enumeration) as a
/// single global allowance.
///
/// Every limit means the same thing: when it runs out, the computation
/// holding the budget aborts with [`DviclError::BudgetExceeded`] or
/// [`DviclError::Cancelled`]. Nothing retries under a relaxed limit, so
/// a work cap bounds the work done, as a deadline bounds the time.
#[derive(Clone, Debug)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Budget {
    /// Builds a budget with an optional timeout (measured from now), an
    /// optional work cap, and a caller-provided cancel token.
    pub fn with_cancel(
        timeout: Option<Duration>,
        max_work: Option<u64>,
        cancel: CancelToken,
    ) -> Budget {
        let started = Instant::now();
        Budget {
            inner: Arc::new(Inner {
                started,
                deadline: timeout.map(|t| started + t),
                max_work,
                work: AtomicU64::new(0),
                cancel,
            }),
        }
    }

    /// Builds a budget with an optional timeout and work cap.
    pub fn new(timeout: Option<Duration>, max_work: Option<u64>) -> Budget {
        Budget::with_cancel(timeout, max_work, CancelToken::new())
    }

    /// A fresh budget with no limits at all: its own work counter and
    /// cancel token, so computations that each take one never share an
    /// allowance.
    pub fn unlimited() -> Budget {
        Budget::new(None, None)
    }

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(timeout: Duration) -> Budget {
        Budget::new(Some(timeout), None)
    }

    /// A budget with only a work cap.
    pub fn with_max_work(max_work: u64) -> Budget {
        Budget::new(None, Some(max_work))
    }

    /// A clone of the cancel token, for handing to whoever may abort
    /// this computation from outside.
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// Total work units spent so far across all clones.
    pub fn work_spent(&self) -> u64 {
        self.inner.work.load(Ordering::Relaxed)
    }

    /// Records `n` units of work and fails if any limit is exhausted.
    /// The work cap and the cancel flag are enforced on every call; the
    /// wall clock is consulted every [`STRIDE`] units (and always when
    /// `n >= STRIDE`), because `Instant::now` costs far more than an
    /// atomic load.
    #[inline]
    pub fn spend(&self, n: u64) -> Result<(), DviclError> {
        if self.inner.cancel.is_cancelled() {
            count_trip();
            return Err(DviclError::Cancelled);
        }
        let before = self.inner.work.fetch_add(n, Ordering::Relaxed);
        let spent = before + n;
        if let Some(max) = self.inner.max_work {
            if spent > max {
                count_trip();
                return Err(DviclError::BudgetExceeded {
                    resource: Resource::WorkUnits,
                    spent,
                });
            }
        }
        if before / STRIDE != spent / STRIDE {
            self.check()?;
        }
        Ok(())
    }

    /// Immediately checks the cancel flag and the deadline (not the
    /// work cap — spending is what moves that counter).
    pub fn check(&self) -> Result<(), DviclError> {
        if self.inner.cancel.is_cancelled() {
            count_trip();
            return Err(DviclError::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            let now = Instant::now();
            if now > deadline {
                let elapsed = now.duration_since(self.inner.started).as_millis();
                let spent = u64::try_from(elapsed).unwrap_or(u64::MAX);
                count_trip();
                return Err(DviclError::BudgetExceeded {
                    resource: Resource::WallClock,
                    spent,
                });
            }
        }
        Ok(())
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{DviclError, Resource};

    #[test]
    fn unlimited_budget_never_fails() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.spend(1).unwrap();
        }
        b.check().unwrap();
        assert_eq!(b.work_spent(), 10_000);
        assert_eq!(
            Budget::unlimited().work_spent(),
            0,
            "each unlimited budget counts its own work"
        );
    }

    #[test]
    fn work_cap_is_exact() {
        let b = Budget::with_max_work(5);
        for _ in 0..5 {
            b.spend(1).unwrap();
        }
        let err = b.spend(1).unwrap_err();
        assert_eq!(
            err,
            DviclError::BudgetExceeded {
                resource: Resource::WorkUnits,
                spent: 6
            }
        );
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn clones_share_one_allowance() {
        let a = Budget::with_max_work(10);
        let b = a.clone();
        for _ in 0..5 {
            a.spend(1).unwrap();
            b.spend(1).unwrap();
        }
        assert!(b.spend(1).is_err());
        assert_eq!(a.work_spent(), 11);
    }

    #[test]
    fn deadline_fires_even_mid_stride() {
        let b = Budget::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        // check() sees it immediately...
        assert!(matches!(
            b.check(),
            Err(DviclError::BudgetExceeded {
                resource: Resource::WallClock,
                ..
            })
        ));
        // ...and spend() sees it within one stride of work.
        let mut failed = false;
        for _ in 0..=STRIDE {
            if b.spend(1).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "deadline must fire within one stride");
    }

    #[test]
    fn large_spends_check_the_clock_immediately() {
        let b = Budget::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.spend(STRIDE).is_err());
    }

    #[test]
    fn cancellation_is_sticky_and_shared() {
        let b = Budget::new(None, None);
        let token = b.cancel_token();
        b.check().unwrap();
        token.cancel();
        assert_eq!(b.check(), Err(DviclError::Cancelled));
        assert_eq!(b.spend(STRIDE), Err(DviclError::Cancelled));
    }
}
