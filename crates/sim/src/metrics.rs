//! Simulation reports: latency/period extraction and utilization.

use std::collections::BTreeMap;

/// Everything measured during one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// `start[d]`: when data set `d` began entering the pipeline (start of
    /// its first transfer).
    pub start: Vec<f64>,
    /// `completion[d]`: when data set `d` fully left the pipeline (end of
    /// its final transfer).
    pub completion: Vec<f64>,
    /// Per-processor busy time, keyed by processor id.
    pub busy: BTreeMap<usize, f64>,
    /// Total simulated time (completion of the last data set).
    pub makespan: f64,
}

impl SimReport {
    /// Number of data sets processed.
    pub fn n_datasets(&self) -> usize {
        self.completion.len()
    }

    /// Response time of data set `d` (paper: "time elapsed between the
    /// beginning and the end of the execution of a given data set").
    pub fn latency(&self, d: usize) -> f64 {
        self.completion[d] - self.start[d]
    }

    /// All response times.
    pub fn latencies(&self) -> Vec<f64> {
        (0..self.n_datasets()).map(|d| self.latency(d)).collect()
    }

    /// The paper's latency: the maximum response time over all data sets.
    pub fn max_latency(&self) -> f64 {
        self.latencies()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Inter-completion times `c_{d+1} − c_d`.
    fn inter_completion_times(&self) -> Vec<f64> {
        self.completion.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Steady-state period estimate: the mean inter-completion time over
    /// the second half of the run (the first half is warm-up). `None`
    /// with fewer than four data sets.
    pub fn steady_period(&self) -> Option<f64> {
        let gaps = self.inter_completion_times();
        if gaps.len() < 3 {
            return None;
        }
        let tail = &gaps[gaps.len() / 2..];
        Some(tail.iter().sum::<f64>() / tail.len() as f64)
    }

    /// Largest inter-completion gap in the second half — a stricter
    /// steady-state period witness than the mean.
    pub fn steady_period_max(&self) -> Option<f64> {
        let gaps = self.inter_completion_times();
        if gaps.len() < 3 {
            return None;
        }
        let tail = &gaps[gaps.len() / 2..];
        Some(tail.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    /// Utilization of processor `u` over the makespan, in `[0, 1]`.
    pub fn utilization(&self, u: usize) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.busy.get(&u).copied().unwrap_or(0.0) / self.makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            start: vec![0.0, 2.0, 4.0, 6.0],
            completion: vec![10.0, 12.0, 14.0, 16.0],
            busy: [(0, 8.0), (1, 16.0)].into_iter().collect(),
            makespan: 16.0,
        }
    }

    #[test]
    fn latencies_and_max() {
        let r = report();
        assert_eq!(r.n_datasets(), 4);
        assert_eq!(r.latency(0), 10.0);
        assert_eq!(r.latencies(), vec![10.0; 4]);
        assert_eq!(r.max_latency(), 10.0);
    }

    #[test]
    fn period_estimates() {
        let r = report();
        assert_eq!(r.inter_completion_times(), vec![2.0; 3]);
        assert!((r.steady_period().unwrap() - 2.0).abs() < 1e-12);
        assert!((r.steady_period_max().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn too_few_datasets_no_period() {
        let r = SimReport {
            start: vec![0.0, 1.0],
            completion: vec![5.0, 6.0],
            busy: BTreeMap::new(),
            makespan: 6.0,
        };
        assert!(r.steady_period().is_none());
        assert!(r.steady_period_max().is_none());
    }

    #[test]
    fn utilization_bounds() {
        let r = report();
        assert!((r.utilization(0) - 0.5).abs() < 1e-12);
        assert!((r.utilization(1) - 1.0).abs() < 1e-12);
        assert_eq!(r.utilization(99), 0.0);
    }

    #[test]
    fn warmup_excluded_from_steady_period() {
        let r = SimReport {
            // Warm-up gap of 9, steady gaps of 2.
            start: vec![0.0; 6],
            completion: vec![1.0, 10.0, 12.0, 14.0, 16.0, 18.0],
            busy: BTreeMap::new(),
            makespan: 18.0,
        };
        // Gaps: [9, 2, 2, 2, 2]; tail (len 5 → last 3): [2, 2, 2].
        assert!((r.steady_period().unwrap() - 2.0).abs() < 1e-12);
    }
}
