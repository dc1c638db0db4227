//! Counters and the phase table belong to the thread that does the
//! work: bumps and spans on one thread never show in another thread's
//! `snapshot()` or `phases()`, in either direction. Plain spawn plus
//! exact-total assertions.

use dvicl_obs::{self as obs, Counter, Phase};

const BUMPS: u64 = 10_000;

/// Bumps `RefineRounds` `BUMPS` times and `SearchNodes` by `2 * BUMPS`,
/// closing one `CoreBuild` span around the loop.
fn count_some_work() {
    let _g = obs::span(Phase::CoreBuild);
    for _ in 0..BUMPS {
        obs::bump(Counter::RefineRounds);
        obs::add(Counter::SearchNodes, 2);
    }
}

fn calls(table: &[(&'static str, obs::PhaseStat)], label: &str) -> u64 {
    table
        .iter()
        .find(|(l, _)| *l == label)
        .map_or(0, |(_, st)| st.calls)
}

#[test]
fn work_on_other_threads_never_shows_in_this_threads_counters_or_phases() {
    obs::set_timing(true);
    let before = obs::snapshot();

    // Spawned thread -> spawning thread.
    let (child_delta, child_phases) = std::thread::spawn(|| {
        let start = obs::snapshot();
        count_some_work();
        (obs::snapshot().diff(&start), obs::phases())
    })
    .join()
    .expect("counting thread");
    assert_eq!(child_delta.get(Counter::RefineRounds), BUMPS);
    assert_eq!(child_delta.get(Counter::SearchNodes), 2 * BUMPS);
    assert_eq!(calls(&child_phases, "core.build"), 1);
    assert_eq!(
        obs::snapshot(),
        before,
        "a spawned thread's bumps leaked into its parent"
    );
    assert_eq!(
        calls(&obs::phases(), "core.build"),
        0,
        "a spawned thread's span leaked"
    );

    // Spawning thread -> spawned thread.
    count_some_work();
    count_some_work();
    let mine = obs::snapshot().diff(&before);
    assert_eq!(mine.get(Counter::RefineRounds), 2 * BUMPS);
    assert_eq!(calls(&obs::phases(), "core.build"), 2);
    let (fresh, fresh_phases) = std::thread::spawn(|| (obs::snapshot(), obs::phases()))
        .join()
        .expect("observing thread");
    assert_eq!(
        fresh,
        obs::Snapshot::default(),
        "a new thread starts at zero"
    );
    assert!(
        fresh_phases.is_empty(),
        "a new thread starts with no phases"
    );
}

#[test]
fn counters_are_monotone_while_bumping() {
    let mut last = obs::get(Counter::SsmStates);
    for _ in 0..1_000 {
        obs::bump(Counter::SsmStates);
        let now = obs::get(Counter::SsmStates);
        assert!(now > last, "counter went backwards: {last} -> {now}");
        last = now;
    }
}
