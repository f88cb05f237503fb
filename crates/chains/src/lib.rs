//! Chains-to-chains (1D array partitioning) algorithms.
//!
//! Given `n` non-negative weights `a_1..a_n`, the classical
//! **chains-to-chains** problem partitions the array into `p` consecutive
//! intervals minimizing the largest interval sum — load balancing `n`
//! ordered computations over `p` *identical* processors (Bokhari 88;
//! Hansen & Lih 92; Olstad & Manne 95; survey by Pinar & Aykanat 04).
//!
//! The paper generalizes it to **Hetero-1D-Partition**: intervals must now
//! match `p` prescribed processor speeds, the objective becoming
//! `max_k Σ_{i∈I_k} a_i / s_σ(k)` over both the partition *and* the
//! permutation `σ`. Theorem 1 of the paper proves this NP-complete by
//! reduction from NUMERICAL MATCHING WITH TARGET SUMS; the reduction is
//! implemented — and executable in both directions — in [`nmwts`].
//!
//! Contents:
//!
//! * identical processors — the exact DP [`min_bottleneck_dp`], the
//!   probe-based searches ([`min_bottleneck_probe_search`],
//!   [`min_bottleneck_nicol`], [`min_bottleneck_iqbal`]) and the
//!   [`recursive_bisection`] heuristic;
//! * heterogeneous processors — the ordering heuristic
//!   [`hetero_best_order_heuristic`] over a fixed-processor-order exact
//!   solver (greedy probe + threshold search), and the exact
//!   branch-and-bound [`hetero_exact_bnb`] for small instances;
//! * [`nmwts`] — the NP-hardness gadget of Theorem 1.

mod hetero;
mod homogeneous;
mod nicol;
pub mod nmwts;

pub use hetero::{hetero_best_order_heuristic, hetero_exact_bnb, HeteroSolution};
pub use homogeneous::{min_bottleneck_dp, min_bottleneck_probe_search, probe, recursive_bisection};
pub use nicol::{min_bottleneck_iqbal, min_bottleneck_nicol};

/// A partition of `[0, n)` into consecutive, possibly fewer than `p`,
/// non-empty intervals.
///
/// Stored as the strictly increasing boundary vector
/// `0 = b_0 < b_1 < … < b_m = n`; interval `k` is `[b_k, b_{k+1})`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPartition {
    bounds: Vec<usize>,
}

impl ChainPartition {
    /// Builds a partition from its boundary vector. Panics unless the
    /// bounds start at 0, are strictly increasing, and end at `n`.
    pub fn from_bounds(bounds: Vec<usize>, n: usize) -> Self {
        assert!(!bounds.is_empty(), "bounds must not be empty");
        assert_eq!(bounds[0], 0, "partition must start at 0");
        assert_eq!(*bounds.last().unwrap(), n, "partition must end at n");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        ChainPartition { bounds }
    }

    /// The whole array as a single interval.
    pub fn single(n: usize) -> Self {
        assert!(n > 0);
        ChainPartition { bounds: vec![0, n] }
    }

    /// Number of intervals `m`.
    #[inline]
    pub fn n_parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The boundary vector.
    #[inline]
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Iterator over `(start, end)` half-open interval bounds.
    pub fn intervals(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.bounds.windows(2).map(|w| (w[0], w[1]))
    }

    /// Per-interval sums of `a`.
    pub(crate) fn part_sums(&self, a: &[f64]) -> Vec<f64> {
        self.intervals()
            .map(|(s, e)| a[s..e].iter().sum())
            .collect()
    }

    /// The homogeneous objective: the largest interval sum.
    pub fn bottleneck(&self, a: &[f64]) -> f64 {
        self.part_sums(a)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The heterogeneous objective for interval `k` executed at speed
    /// `speeds[k]` (speeds listed *in interval order*, i.e. already
    /// permuted).
    pub fn weighted_bottleneck(&self, a: &[f64], speeds_in_order: &[f64]) -> f64 {
        assert_eq!(speeds_in_order.len(), self.n_parts());
        self.part_sums(a)
            .iter()
            .zip(speeds_in_order)
            .map(|(w, s)| w / s)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_accessors() {
        let p = ChainPartition::from_bounds(vec![0, 2, 5], 5);
        assert_eq!(p.n_parts(), 2);
        let ivs: Vec<_> = p.intervals().collect();
        assert_eq!(ivs, vec![(0, 2), (2, 5)]);
    }

    #[test]
    fn sums_and_bottlenecks() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let p = ChainPartition::from_bounds(vec![0, 1, 4], 4);
        assert_eq!(p.part_sums(&a), vec![1.0, 9.0]);
        assert_eq!(p.bottleneck(&a), 9.0);
        // Weighted: 1/0.5 = 2, 9/9 = 1 → bottleneck 2.
        assert_eq!(p.weighted_bottleneck(&a, &[0.5, 9.0]), 2.0);
    }

    #[test]
    fn single_partition() {
        let p = ChainPartition::single(3);
        assert_eq!(p.n_parts(), 1);
        assert_eq!(p.bottleneck(&[1.0, 1.0, 1.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_bounds_panic() {
        let _ = ChainPartition::from_bounds(vec![0, 3, 2, 5], 5);
    }

    #[test]
    #[should_panic(expected = "end at n")]
    fn wrong_end_panics() {
        let _ = ChainPartition::from_bounds(vec![0, 2], 5);
    }
}
