//! Per-operation time tables and the estimators built on them.
//!
//! The host's CPU speed swings by up to 2x over seconds to minutes, so a
//! rate taken as operations / wall time follows the host rather than the
//! code. Each operation of a corpus is therefore timed once per pass, and
//! its time is estimated across passes: the best pass for in-process
//! workloads (the least-disturbed execution), the median pass over TCP
//! (where the best pass catches rare lucky wake-ups). Percentiles and
//! rates are then taken over the corpus operations' estimates.

/// Nanoseconds stored per sample (saturating at ~4.3 s).
fn to_ns(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Best-over-passes table: per operation, the fastest time seen and the
/// host-speed factor of the pass it was seen in. The best pass is chosen
/// on the time as measured, then scaled by its own pass's factor, so
/// noise in the factors cannot steer which pass is chosen.
#[derive(Debug, Clone)]
pub struct BestTable {
    best: Vec<u32>,
    factor: Vec<f64>,
    passes: usize,
}

impl BestTable {
    /// A table for `ops` operations.
    pub fn new(ops: usize) -> Self {
        BestTable {
            best: vec![u32::MAX; ops],
            factor: vec![1.0; ops],
            passes: 0,
        }
    }

    /// Records operation `op`'s time in a pass whose host-speed factor
    /// is `factor`.
    pub fn record(&mut self, op: usize, elapsed: std::time::Duration, factor: f64) {
        let ns = to_ns(elapsed);
        if ns < self.best[op] {
            self.best[op] = ns;
            self.factor[op] = factor;
        }
    }

    /// Marks the end of a pass.
    pub fn end_pass(&mut self) {
        self.passes += 1;
    }

    /// Completed passes.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Per-operation estimates in µs, scaled by their pass's factor or as
    /// measured (operations never recorded are skipped).
    pub fn estimates_us(&self, scaled: bool) -> Vec<f64> {
        self.best
            .iter()
            .zip(&self.factor)
            .filter(|(&ns, _)| ns != u32::MAX)
            .map(|(&ns, &f)| ns as f64 / 1e3 * if scaled { f } else { 1.0 })
            .collect()
    }

    /// The estimate of one operation in µs, as measured, if recorded.
    pub fn get_us(&self, op: usize) -> Option<f64> {
        (self.best[op] != u32::MAX).then(|| self.best[op] as f64 / 1e3)
    }
}

/// Median-over-passes table: every sample of up to `max_passes` passes,
/// preallocated so the table's memory does not depend on how fast the
/// host ran, plus each pass's host-speed factor.
#[derive(Debug, Clone)]
pub struct MedianTable {
    ops: usize,
    max_passes: usize,
    samples: Vec<u32>,
    factors: Vec<f64>,
}

impl MedianTable {
    /// A table for `ops` operations and at most `max_passes` passes.
    pub fn new(ops: usize, max_passes: usize) -> Self {
        MedianTable {
            ops,
            max_passes,
            samples: vec![u32::MAX; ops * max_passes],
            factors: Vec::with_capacity(max_passes),
        }
    }

    /// Whether another pass fits.
    pub fn full(&self) -> bool {
        self.factors.len() == self.max_passes
    }

    /// Records operation `op`'s time in the current pass.
    pub fn record(&mut self, op: usize, elapsed: std::time::Duration) {
        self.samples[self.factors.len() * self.ops + op] = to_ns(elapsed);
    }

    /// Marks the end of a pass whose host-speed factor is `factor`.
    pub fn end_pass(&mut self, factor: f64) {
        self.factors.push(factor);
    }

    /// Completed passes.
    pub fn passes(&self) -> usize {
        self.factors.len()
    }

    /// Per-operation median over the completed passes, in µs, of the
    /// times scaled by their pass's factor or as measured.
    pub fn estimates_us(&self, scaled: bool) -> Vec<f64> {
        let mut column = Vec::with_capacity(self.factors.len());
        (0..self.ops)
            .map(|op| {
                column.clear();
                column.extend(self.factors.iter().enumerate().map(|(p, &f)| {
                    self.samples[p * self.ops + op] as f64 / 1e3 * if scaled { f } else { 1.0 }
                }));
                column.sort_by(f64::total_cmp);
                column[column.len() / 2]
            })
            .collect()
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether the `q`-percentile of `sorted` sits on a gap between two
/// clusters of operation times: the values `window` of the ranks below
/// and above it differ by more than `ratio`x. A percentile on a gap
/// jumps between clusters when a few operations shift, so the corpus mix
/// must keep p50 and p99 inside a cluster (a mix with p50 = 3.6 µs
/// and p90 = 112 µs, nothing in between, is the case this guards).
pub fn on_gap(sorted: &[f64], q: f64, window: f64, ratio: f64) -> bool {
    let lo = percentile(sorted, (q - window).max(1.0 / sorted.len() as f64));
    let hi = percentile(sorted, (q + window).min(1.0));
    hi > ratio * lo
}

/// The gap test every reported percentile must pass: within ±2% of the
/// ranks (±0.5% at p99, which has only 1% above it) the time may not
/// grow by more than 2x.
pub fn percentile_on_gap(sorted: &[f64], q: f64) -> bool {
    let window = if q > 0.95 { 0.005 } else { 0.02 };
    on_gap(sorted, q, window, 2.0)
}

/// The end-to-end summary of one workload's estimates.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median operation time, µs.
    pub p50_us: f64,
    /// 99th-percentile operation time, µs.
    pub p99_us: f64,
    /// Operations per second of estimated operation time.
    pub rate_per_s: f64,
    /// Whether p50 or p99 sits on a gap between operation clusters.
    pub on_gap: bool,
}

impl Summary {
    /// Summarizes per-operation estimates (µs).
    pub fn of(estimates_us: &[f64]) -> Self {
        let s = sorted(estimates_us);
        let total_s: f64 = s.iter().sum::<f64>() / 1e6;
        Summary {
            p50_us: percentile(&s, 0.5),
            p99_us: percentile(&s, 0.99),
            rate_per_s: s.len() as f64 / total_s,
            on_gap: percentile_on_gap(&s, 0.5) || percentile_on_gap(&s, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn two_separated_clusters_put_the_median_on_a_gap() {
        // Two clusters: half the operations near 3.6 µs,
        // half near 112 µs.
        let mut v: Vec<f64> = (0..500).map(|i| 3.5 + 0.001 * i as f64).collect();
        v.extend((0..500).map(|i| 110.0 + 0.01 * i as f64));
        let s = sorted(&v);
        assert!(percentile_on_gap(&s, 0.5));
        assert!(!percentile_on_gap(&s, 0.25));
        assert!(!percentile_on_gap(&s, 0.99));
    }

    #[test]
    fn a_continuous_spread_has_no_gap() {
        let v: Vec<f64> = (0..1000).map(|i| 2.0 * 1.004f64.powi(i)).collect();
        let s = sorted(&v);
        assert!(!percentile_on_gap(&s, 0.5));
        assert!(!percentile_on_gap(&s, 0.99));
    }

    #[test]
    fn median_table_takes_the_middle_pass() {
        let mut t = MedianTable::new(2, 4);
        for (pass, us) in [5u64, 1, 3].into_iter().enumerate() {
            t.record(0, std::time::Duration::from_micros(us));
            t.record(1, std::time::Duration::from_micros(10 * (pass as u64 + 1)));
            t.end_pass(2.0);
        }
        assert_eq!(t.estimates_us(false), vec![3.0, 20.0]);
        assert_eq!(t.estimates_us(true), vec![6.0, 40.0]);
    }

    #[test]
    fn best_table_scales_the_fastest_pass_by_its_own_factor() {
        let mut t = BestTable::new(1);
        for (us, factor) in [(7u64, 0.5), (4, 0.9), (9, 0.1)] {
            t.record(0, std::time::Duration::from_micros(us), factor);
            t.end_pass();
        }
        assert_eq!(t.estimates_us(false), vec![4.0]);
        assert!((t.estimates_us(true)[0] - 3.6).abs() < 1e-9);
        assert_eq!(t.passes(), 3);
    }
}
