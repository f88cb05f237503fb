//! Nicol's exact parametric-search algorithm for the homogeneous
//! chains-to-chains problem, plus Iqbal's ε-approximate bisection —
//! the classical algorithms the paper cites ([10, 11, 13] / survey \[14\]).
//!
//! Unlike the value-bisection of
//! [`crate::homogeneous::min_bottleneck_probe_search`], Nicol's method
//! searches over *cut positions*: give the first processor the smallest
//! prefix whose weight makes the remaining suffix feasible, compare with
//! the alternative where the first processor stays just below the
//! bottleneck, and recurse on the suffix. One recursive call per
//! processor gives O(p²·log²n) probe work in total — exact, with no
//! floating-point convergence argument needed.

use crate::ChainPartition;
use pipeline_model::util::PrefixSums;

/// Can the suffix `[start, n)` be covered by at most `k` intervals of sum
/// ≤ `bound` each? Greedy maximal prefixes, O(k log n).
fn suffix_feasible(ps: &PrefixSums, start: usize, k: usize, bound: f64) -> bool {
    let n = ps.len();
    let mut at = start;
    for _ in 0..k {
        if at == n {
            return true;
        }
        let next = ps.max_prefix_within(at, bound);
        if next == at {
            return false; // single element exceeds the bound
        }
        at = next;
    }
    at == n
}

/// Exact optimal bottleneck for the suffix `[start, n)` using at most `k`
/// intervals (Nicol's recursion).
fn nicol_opt(ps: &PrefixSums, start: usize, k: usize) -> f64 {
    let n = ps.len();
    debug_assert!(start < n);
    if k == 1 {
        return ps.range(start, n);
    }
    // Smallest j ∈ [start+1, n] such that the rest is feasible under
    // W(start, j): monotone in j (bound grows, suffix shrinks).
    let (mut lo, mut hi) = (start + 1, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if suffix_feasible(ps, mid, k - 1, ps.range(start, mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let j = lo;
    // Candidate 1: cut at j — feasible overall with bottleneck W(start, j).
    let b1 = ps.range(start, j);
    // Candidate 2: cut just below the crossing — the first interval is no
    // longer the bottleneck; the suffix optimum decides. Valid only when a
    // non-empty first part remains.
    if j > start + 1 {
        let b2 = ps.range(start, j - 1).max(nicol_opt(ps, j - 1, k - 1));
        b1.min(b2)
    } else {
        b1
    }
}

/// Exact chains-to-chains optimum via Nicol's algorithm. Returns the
/// bottleneck value and a partition achieving it.
pub fn min_bottleneck_nicol(a: &[f64], p: usize) -> (f64, ChainPartition) {
    let n = a.len();
    assert!(n > 0 && p > 0, "empty instance");
    let ps = PrefixSums::new(a);
    let parts = p.min(n);
    let value = nicol_opt(&ps, 0, parts);
    // Reconstruct greedily at the optimal bound.
    let partition = crate::homogeneous::probe(&ps, parts, value)
        .expect("the optimal bound is feasible by construction");
    (partition.bottleneck(a), partition)
}

/// Iqbal's ε-approximate bisection (ref \[11\]): plain value bisection down
/// to an absolute tolerance `eps`, returning a feasible partition whose
/// bottleneck is within `eps` of optimal. Kept as the historical baseline
/// the exact methods improved on.
pub fn min_bottleneck_iqbal(a: &[f64], p: usize, eps: f64) -> (f64, ChainPartition) {
    let n = a.len();
    assert!(n > 0 && p > 0, "empty instance");
    assert!(eps > 0.0, "tolerance must be positive");
    let ps = PrefixSums::new(a);
    let max_elem = a.iter().copied().fold(0.0_f64, f64::max);
    let mut lo = (ps.total() / p as f64).max(max_elem) - eps;
    let mut hi = ps.total();
    let mut best = crate::homogeneous::probe(&ps, p, hi).expect("total weight is always feasible");
    while hi - lo > eps {
        let mid = 0.5 * (lo + hi);
        match crate::homogeneous::probe(&ps, p, mid) {
            Some(part) => {
                hi = mid;
                best = part;
            }
            None => lo = mid,
        }
    }
    (best.bottleneck(a), best)
}

/// Exact O(n²·p) dynamic program for the **heterogeneous fixed-order**
/// problem: interval `k` runs at `speeds_order[k]`; minimize the largest
/// `W_k / s_k`. An independent cross-check for
/// [`crate::hetero::min_bottleneck_fixed_order`]'s probe bisection.
///
/// `dp[k][j]` = best bottleneck placing the first `j` elements on the
/// first `k` order positions (empty intervals allowed — a position may be
/// skipped).
pub fn hetero_fixed_order_dp(a: &[f64], speeds_order: &[f64]) -> f64 {
    let n = a.len();
    let p = speeds_order.len();
    assert!(n > 0 && p > 0);
    let ps = PrefixSums::new(a);
    let mut prev = vec![f64::INFINITY; n + 1]; // k = 0
    prev[0] = 0.0;
    let mut cur = vec![f64::INFINITY; n + 1];
    for &s in speeds_order.iter().take(p) {
        for (j, cur_j) in cur.iter_mut().enumerate() {
            // Position k takes [i, j) (possibly empty when i == j).
            let mut best = f64::INFINITY;
            for (i, &prev_i) in prev.iter().enumerate().take(j + 1) {
                if prev_i.is_finite() {
                    let load = ps.range(i, j) / s;
                    best = best.min(prev_i.max(load));
                }
            }
            *cur_j = best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::min_bottleneck_fixed_order;
    use crate::homogeneous::{brute_force_min_bottleneck, min_bottleneck_dp};

    #[test]
    fn nicol_matches_dp_on_fixed_cases() {
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (vec![1.0, 2.0, 3.0, 4.0, 5.0], 2),
            (vec![5.0, 1.0, 1.0, 1.0, 5.0], 3),
            (vec![2.0; 8], 3),
            (vec![10.0, 1.0, 1.0, 1.0, 1.0, 10.0], 4),
            (vec![7.0], 3),
            (vec![1.0, 1.0], 5),
        ];
        for (a, p) in cases {
            let (nv, npart) = min_bottleneck_nicol(&a, p);
            let (dv, _) = min_bottleneck_dp(&a, p);
            assert!(
                (nv - dv).abs() < 1e-9,
                "nicol {nv} != dp {dv} on {a:?} p={p}"
            );
            assert!(npart.n_parts() <= p);
            assert!((npart.bottleneck(&a) - nv).abs() < 1e-12);
        }
    }

    #[test]
    fn iqbal_within_tolerance() {
        let a = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let p = 3;
        let (exact, _) = min_bottleneck_dp(&a, p);
        for eps in [1.0, 0.1, 1e-6] {
            let (approx, part) = min_bottleneck_iqbal(&a, p, eps);
            assert!(approx >= exact - 1e-9, "approximation below optimum");
            assert!(
                approx <= exact + eps + 1e-9,
                "eps={eps}: {approx} not within tolerance of {exact}"
            );
            assert!(part.n_parts() <= p);
        }
    }

    #[test]
    fn fixed_order_dp_matches_probe_bisection() {
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![4.0, 4.0, 2.0], vec![4.0, 2.0]),
            (vec![1.0, 9.0], vec![1.0, 9.0]),
            (vec![1.0, 9.0], vec![9.0, 1.0]),
            (vec![6.0, 6.0, 2.0, 8.0, 1.0], vec![3.0, 1.0, 5.0]),
            (vec![2.0; 10], vec![1.0, 2.0, 3.0, 4.0]),
        ];
        for (a, speeds) in cases {
            let order: Vec<usize> = (0..speeds.len()).collect();
            let probe = min_bottleneck_fixed_order(&a, &speeds, &order);
            let dp = hetero_fixed_order_dp(&a, &speeds);
            assert!(
                (probe.objective - dp).abs() < 1e-6 * (1.0 + dp),
                "probe {} != dp {dp} on {a:?} / {speeds:?}",
                probe.objective
            );
        }
    }

    #[test]
    fn single_processor_degenerate() {
        let a = vec![2.0, 3.0];
        let (v, part) = min_bottleneck_nicol(&a, 1);
        assert_eq!(v, 5.0);
        assert_eq!(part.n_parts(), 1);
    }

    proptest::proptest! {
        #[test]
        fn prop_nicol_equals_dp(
            a in proptest::collection::vec(0.0_f64..100.0, 1..24),
            p in 1_usize..8,
        ) {
            let (nv, part) = min_bottleneck_nicol(&a, p);
            let (dv, _) = min_bottleneck_dp(&a, p);
            proptest::prop_assert!((nv - dv).abs() < 1e-6 * (1.0 + dv),
                "nicol {} vs dp {}", nv, dv);
            proptest::prop_assert!(part.n_parts() <= p);
        }

        #[test]
        fn prop_nicol_equals_brute_force(
            a in proptest::collection::vec(0.0_f64..50.0, 1..9),
            p in 1_usize..5,
        ) {
            let (nv, _) = min_bottleneck_nicol(&a, p);
            let bf = brute_force_min_bottleneck(&a, p);
            proptest::prop_assert!((nv - bf).abs() < 1e-9);
        }

        #[test]
        fn prop_fixed_order_dp_equals_probe(
            a in proptest::collection::vec(0.1_f64..50.0, 1..12),
            speeds in proptest::collection::vec(1.0_f64..10.0, 1..5),
        ) {
            let order: Vec<usize> = (0..speeds.len()).collect();
            let probe = min_bottleneck_fixed_order(&a, &speeds, &order);
            let dp = hetero_fixed_order_dp(&a, &speeds);
            proptest::prop_assert!((probe.objective - dp).abs() < 1e-6 * (1.0 + dp));
        }

        #[test]
        fn prop_iqbal_bounded_by_exact_plus_eps(
            a in proptest::collection::vec(0.1_f64..50.0, 1..16),
            p in 1_usize..6,
        ) {
            let (exact, _) = min_bottleneck_dp(&a, p);
            let (approx, _) = min_bottleneck_iqbal(&a, p, 1e-3);
            proptest::prop_assert!(approx >= exact - 1e-9);
            proptest::prop_assert!(approx <= exact + 1e-3 + 1e-9);
        }
    }
}
