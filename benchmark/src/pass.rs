//! The set-up and pass loop every workload shares: set up several times,
//! repeat passes until the run has measured long enough, keep each item's
//! fastest time, and report.

use crate::alloc;
use crate::report::Report;
use crate::stats::{self, BestOf};
use crate::trace::{self, Tracer};
use crate::Opts;
use std::time::Instant;

/// The fewest passes a run makes: every item is built under at least two
/// relabelings, and a traced run has a traced and an untraced pass.
const MIN_PASSES: u64 = 2;

/// Set-up repetitions. The first makes the inputs the run measures. The
/// others are spread over the measuring window, one after the pass that
/// crosses its share of `--seconds` (the rest after the last pass), so a
/// slow spell of the host lasting a few seconds slows one repetition
/// rather than all of them. Their inputs are dropped at once.
pub struct SetUps {
    times: Vec<f64>,
}

impl SetUps {
    /// Sets up for the first time.
    pub fn first<T>(make: impl FnOnce() -> T) -> (SetUps, T) {
        let t0 = Instant::now();
        let made = make();
        let times = vec![t0.elapsed().as_secs_f64()];
        (SetUps { times }, made)
    }

    /// Called after each pass, `elapsed` seconds into the measuring.
    pub fn after_pass<T>(
        &mut self,
        opts: &Opts,
        elapsed: f64,
        last: bool,
        mut make: impl FnMut() -> T,
    ) {
        let reps = opts.setup_reps();
        let due = |done: usize| elapsed >= opts.seconds * done as f64 / (reps - 1) as f64;
        while self.times.len() < reps && (last || due(self.times.len())) {
            let t0 = Instant::now();
            drop(make());
            self.times.push(t0.elapsed().as_secs_f64());
            if !last {
                break;
            }
        }
    }

    /// The median set-up time in seconds.
    pub fn median(&self) -> f64 {
        stats::median(&self.times)
    }
}

/// The pass loop's timings: best-of-k per item for the untraced and the
/// traced passes, and the peak heap of any timed operation.
pub struct Passes {
    untraced: BestOf,
    traced: BestOf,
    peak: usize,
    baseline: usize,
    done: u64,
    traced_done: u64,
    file_spans: usize,
    start: Instant,
}

impl Passes {
    /// Starts the clock for a workload of `items` items.
    pub fn new(items: usize) -> Passes {
        Passes {
            untraced: BestOf::new(items),
            traced: BestOf::new(items),
            peak: 0,
            baseline: 0,
            done: 0,
            traced_done: 0,
            file_spans: 0,
            start: Instant::now(),
        }
    }

    /// Starts a pass and returns whether it is traced. A traced run
    /// alternates traced and untraced passes, so both halves see the same
    /// host drift; its first pass is traced. The live heap now is the
    /// baseline of the pass's peak.
    pub fn begin(&mut self, opts: &Opts, tracer: &mut Tracer) -> bool {
        let tracing = opts.trace && self.done.is_multiple_of(2);
        tracer.set(tracing);
        self.baseline = alloc::live_bytes();
        tracing
    }

    /// Times one operation on item `i` and meters its peak heap.
    pub fn time<R>(&mut self, tracing: bool, i: usize, op: impl FnOnce() -> R) -> R {
        alloc::reset_peak();
        let t0 = Instant::now();
        let out = op();
        let dt = t0.elapsed().as_secs_f64();
        self.peak = self
            .peak
            .max(alloc::peak_bytes().saturating_sub(self.baseline));
        if tracing {
            &mut self.traced
        } else {
            &mut self.untraced
        }
        .record(i, dt);
        out
    }

    /// Ends a pass; returns whether another should follow.
    pub fn end(&mut self, tracing: bool, opts: &Opts, tracer: &mut Tracer) -> bool {
        if tracing {
            self.traced.end_pass();
            self.traced_done += 1;
            if self.traced_done == 1 {
                self.file_spans = tracer.spans().len();
            }
        } else {
            self.untraced.end_pass();
        }
        self.done += 1;
        let more = self.done < MIN_PASSES || self.start.elapsed().as_secs_f64() < opts.seconds;
        if !more {
            tracer.set(false);
        }
        more
    }

    /// Seconds since the measuring started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// How many traced passes ran.
    pub fn traced_passes(&self) -> u64 {
        self.traced_done
    }

    /// Each item's fastest untraced time, in seconds.
    pub fn best(&self) -> &[f64] {
        self.untraced.best()
    }

    /// Sets the end-to-end metrics from the untraced passes. In a traced
    /// run, also sets the tracing overhead, checks the spans' self time
    /// and writes the trace file, so call this after every other metric.
    pub fn report(&self, report: &mut Report, tracer: &Tracer, opts: &Opts) {
        let best = self.untraced.best();
        report.info("passes", self.done as f64, "count");
        report.info("pass_median_ms", self.untraced.median_pass() * 1e3, "ms");
        report.set("pass_ms", self.untraced.pass() * 1e3);
        report.set("op_p50_us", stats::median(best) * 1e6);
        report.set("op_tail_us", stats::tail(best) * 1e6);
        report.set("peak_heap_mb", self.peak as f64 / (1024.0 * 1024.0));
        if !opts.trace {
            return;
        }
        report.set(
            "obs.trace_overhead_frac",
            self.traced.pass() / self.untraced.pass() - 1.0,
        );
        trace::check_self_time(report, tracer);
        match trace::write_file(report, tracer, self.file_spans, opts.seed) {
            Ok(path) => eprintln!("{}: trace written to {}", report.workload, path.display()),
            Err(e) => report.fail(format!("writing the trace file: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_repetitions_spread_over_the_window() {
        let opts = Opts {
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
        };
        let mut made = 0;
        let (mut setups, ()) = SetUps::first(|| made += 1);
        // With 5 repetitions, the 2nd..5th are due at 5, 10, 15 and 20 s.
        for (elapsed, want) in [(4.0, 1), (6.0, 2), (7.0, 2), (16.0, 3), (17.0, 4)] {
            setups.after_pass(&opts, elapsed, false, || made += 1);
            assert_eq!(made, want, "after a pass ending at {elapsed} s");
        }
        setups.after_pass(&opts, 21.0, true, || made += 1);
        assert_eq!((made, setups.times.len()), (5, 5));
        let smoke = Opts {
            smoke: true,
            ..opts
        };
        let (mut once, ()) = SetUps::first(|| ());
        once.after_pass(&smoke, 30.0, true, || panic!("smoke sets up once"));
    }
}
