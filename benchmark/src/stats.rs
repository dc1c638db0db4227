//! Order statistics for the timed metrics.
//!
//! Every timed end-to-end metric starts from *best-of-k*: each item's
//! fastest time over the run's repetitions. On a shared VM whose speed
//! drifts in spells, the fastest of k samples is the reading the spells
//! disturb least (README.md, "Timing rule").

/// Per-item fastest time (any unit) over repetitions, plus the total of
/// each whole pass. Nothing grows after the first pass, so the tracker
/// allocates nothing while the heap is metered.
#[derive(Clone, Debug)]
pub struct BestOf {
    best: Vec<f64>,
    pass_totals: Vec<f64>,
    current: f64,
}

impl BestOf {
    /// Tracks `items` items, none timed yet.
    pub fn new(items: usize) -> BestOf {
        BestOf {
            best: vec![f64::INFINITY; items],
            pass_totals: Vec::new(),
            current: 0.0,
        }
    }

    /// Records one repetition of item `i`.
    pub fn record(&mut self, i: usize, t: f64) {
        self.best[i] = self.best[i].min(t);
        self.current += t;
    }

    /// Closes the current pass.
    pub fn end_pass(&mut self) {
        self.pass_totals.push(std::mem::take(&mut self.current));
    }

    /// Each item's fastest time, in item order.
    pub fn best(&self) -> &[f64] {
        &self.best
    }

    /// The sum over items of each item's fastest time: one pass over the
    /// fixed items at their best.
    pub fn pass(&self) -> f64 {
        self.best.iter().sum()
    }

    /// The median over passes of the pass total (reported for
    /// information; not gated).
    pub fn median_pass(&self) -> f64 {
        median(&self.pass_totals)
    }
}

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank quantile at `per_mille`/1000 (1000 = the maximum);
/// 0 for no samples.
pub fn quantile(xs: &[f64], per_mille: usize) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * per_mille).div_ceil(1000).max(1);
    v[rank - 1]
}

/// Samples strictly beyond the nearest-rank quantile at `per_mille`.
fn beyond(n: usize, per_mille: usize) -> usize {
    n - (n * per_mille).div_ceil(1000)
}

/// The tail quantile to report for `n` samples, in per mille: the
/// highest of p99 and p90 that leaves at least ten samples beyond it,
/// else the maximum (1000). With fewer than ten samples beyond it, a
/// percentile is set by a handful of values; the maximum of a small,
/// fixed item set is the slowest item's best time, a defined quantity.
pub fn tail_per_mille(n: usize) -> usize {
    [990, 900]
        .into_iter()
        .find(|&q| beyond(n, q) >= 10)
        .unwrap_or(1000)
}

/// The reported tail of `xs`: see [`tail_per_mille`].
pub fn tail(xs: &[f64]) -> f64 {
    quantile(xs, tail_per_mille(xs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_keeps_each_items_minimum() {
        let mut b = BestOf::new(2);
        for (t0, t1) in [(5.0, 12.0), (3.0, 14.0), (4.0, 10.0)] {
            b.record(0, t0);
            b.record(1, t1);
            b.end_pass();
        }
        assert_eq!(b.best(), &[3.0, 10.0]);
        assert_eq!(b.pass(), 13.0);
        assert_eq!(b.median_pass(), 17.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 500), 50.0);
        assert_eq!(quantile(&xs, 990), 99.0);
        assert_eq!(quantile(&xs, 1000), 100.0);
        assert_eq!(quantile(&[7.0], 990), 7.0);
        assert_eq!(quantile(&[], 500), 0.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // The service's lookups and inserts: p99 leaves 96 and 24 beyond.
        assert_eq!(tail_per_mille(9600), 990);
        assert_eq!(tail_per_mille(2400), 990);
        // p99 of 1000 leaves exactly 10; of 999 only 9, so p90 (99 beyond).
        assert_eq!(tail_per_mille(1000), 990);
        assert_eq!(tail_per_mille(999), 900);
        // p90 of 100 leaves 10; of 99 only 9.
        assert_eq!(tail_per_mille(100), 900);
        assert_eq!(tail_per_mille(99), 1000);
        // The build workloads' item sets (22, 6, 1) report their maximum.
        assert_eq!(tail_per_mille(22), 1000);
        assert_eq!(tail_per_mille(1), 1000);
        for n in 1..3000 {
            let q = tail_per_mille(n);
            assert!(q == 1000 || beyond(n, q) >= 10, "n={n} q={q}");
        }
        let xs: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&xs), 22.0);
    }
}
