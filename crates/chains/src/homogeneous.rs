//! Classical chains-to-chains algorithms for identical processors.

use crate::ChainPartition;
use pipeline_model::util::PrefixSums;

/// Exact O(n²·p) dynamic program (Bokhari-style).
///
/// `dp[k][j]` = minimal bottleneck splitting the first `j` elements into
/// `k` intervals; transition over the start of the last interval. Returns
/// the optimal bottleneck and one optimal partition using at most `p`
/// parts (fewer when `p > n`: intervals must be non-empty).
pub fn min_bottleneck_dp(a: &[f64], p: usize) -> (f64, ChainPartition) {
    let n = a.len();
    assert!(n > 0, "empty array");
    assert!(p > 0, "need at least one processor");
    let parts = p.min(n);
    let ps = PrefixSums::new(a);

    // dp[j] for the current k; parent pointers for reconstruction.
    let mut dp = vec![f64::INFINITY; n + 1];
    let mut parent = vec![vec![0usize; n + 1]; parts + 1];
    for (j, slot) in dp.iter_mut().enumerate().skip(1) {
        *slot = ps.range(0, j); // one interval
    }
    dp[0] = f64::INFINITY; // zero elements in ≥1 interval is invalid
    let mut prev = dp.clone();
    for (k, parent_k) in parent.iter_mut().enumerate().take(parts + 1).skip(2) {
        let mut cur = vec![f64::INFINITY; n + 1];
        for j in k..=n {
            // Last interval is [i, j); first i elements use k-1 intervals.
            let mut best = f64::INFINITY;
            let mut arg = k - 1;
            for (i, &prev_i) in prev.iter().enumerate().take(j).skip(k - 1) {
                let cand = prev_i.max(ps.range(i, j));
                if cand < best {
                    best = cand;
                    arg = i;
                }
                // The last-interval term grows as i decreases; once it
                // alone exceeds the best we can stop scanning backwards —
                // but we scan forward here, so no early exit. Kept simple:
                // n ≤ a few thousand in this workspace.
            }
            cur[j] = best;
            parent_k[j] = arg;
        }
        prev = cur;
    }

    // Choose the best number of parts (using more identical processors
    // never hurts, but reconstruct whichever k attains the optimum).
    let mut best_k = 1;
    let mut best = ps.range(0, n);
    // Recompute dp per k to find the arg (prev currently holds k = parts).
    // Cheaper: the bottleneck is non-increasing in k, so k = parts is
    // optimal; still compare against k = 1 for the parts == 1 case.
    if parts >= 2 && prev[n] <= best {
        best = prev[n];
        best_k = parts;
    }
    let mut bounds = vec![n];
    let mut j = n;
    let mut k = best_k;
    while k > 1 {
        let i = parent[k][j];
        bounds.push(i);
        j = i;
        k -= 1;
    }
    bounds.push(0);
    bounds.reverse();
    bounds.dedup();
    (best, ChainPartition::from_bounds(bounds, n))
}

/// Greedy probe: can the array be split into at most `p` intervals of sum
/// ≤ `bound` each? Returns the greedy partition when feasible.
///
/// Greedily extends each interval to the largest prefix fitting in
/// `bound`; this is the classical feasibility oracle, exact because
/// weights are non-negative. O(p log n) via binary search on prefix sums.
pub fn probe(ps: &PrefixSums, p: usize, bound: f64) -> Option<ChainPartition> {
    let n = ps.len();
    assert!(n > 0);
    let mut bounds = vec![0usize];
    let mut start = 0;
    for _ in 0..p {
        if start == n {
            break;
        }
        let end = ps.max_prefix_within(start, bound);
        if end == start {
            return None; // single element exceeds the bound
        }
        bounds.push(end);
        start = end;
    }
    if start == n {
        Some(ChainPartition::from_bounds(bounds, n))
    } else {
        None
    }
}

/// Exact bottleneck via bisection over the bound with the greedy
/// [`probe`] as oracle (the Nicol/Iqbal parametric-search family).
///
/// The optimum is an interval sum, so after bisecting the real bound down
/// to machine precision we *snap* to the achieved bottleneck of the last
/// feasible probe, which is exact: the achieved value is feasible, and no
/// smaller interval-sum is (it would lie below the infeasible `lo`).
pub fn min_bottleneck_probe_search(a: &[f64], p: usize) -> (f64, ChainPartition) {
    let n = a.len();
    assert!(n > 0 && p > 0);
    let ps = PrefixSums::new(a);
    let max_elem = a.iter().copied().fold(0.0_f64, f64::max);
    let mut lo = (ps.total() / p as f64).max(max_elem); // classical lower bound, feasible or not
    let mut hi = ps.total();
    // The lower bound itself may be feasible.
    if let Some(part) = probe(&ps, p, lo) {
        let achieved = part.bottleneck(a);
        return (achieved, part);
    }
    let mut best = probe(&ps, p, hi).expect("total sum is always feasible");
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // float exhaustion
        }
        match probe(&ps, p, mid) {
            Some(part) => {
                hi = mid;
                best = part;
            }
            None => lo = mid,
        }
    }
    let achieved = best.bottleneck(a);
    // Re-probe at the achieved value: the greedy partition for the snapped
    // bound may use fewer parts / be canonical.
    let final_part = probe(&ps, p, achieved).unwrap_or(best);
    (final_part.bottleneck(a), final_part)
}

/// Recursive-bisection heuristic: split the array near the weight median
/// into two halves receiving half the processors each. O(n log p); not
/// optimal but a classical fast baseline.
pub fn recursive_bisection(a: &[f64], p: usize) -> ChainPartition {
    let n = a.len();
    assert!(n > 0 && p > 0);
    let ps = PrefixSums::new(a);
    let mut cuts = Vec::new();
    bisect(&ps, 0, n, p, &mut cuts);
    let mut bounds = vec![0];
    bounds.extend(cuts);
    bounds.push(n);
    bounds.sort_unstable();
    bounds.dedup();
    ChainPartition::from_bounds(bounds, n)
}

fn bisect(ps: &PrefixSums, start: usize, end: usize, p: usize, cuts: &mut Vec<usize>) {
    if p <= 1 || end - start <= 1 {
        return;
    }
    let p_left = p / 2;
    let target = ps.range(start, end) * (p_left as f64) / (p as f64);
    // Smallest cut with left weight ≥ target, clamped to keep both sides
    // non-empty.
    let mut cut = ps.max_prefix_within(start, target).max(start + 1);
    if cut >= end {
        cut = end - 1;
    }
    cuts.push(cut);
    bisect(ps, start, cut, p_left, cuts);
    bisect(ps, cut, end, p - p_left, cuts);
}

/// Brute-force reference minimizing the bottleneck over *all* partitions
/// into at most `p` parts. Exponential — tests only.
#[cfg(test)]
pub(crate) fn brute_force_min_bottleneck(a: &[f64], p: usize) -> f64 {
    let n = a.len();
    assert!(n > 0 && p > 0);
    let mut best = f64::INFINITY;
    // Enumerate subsets of the n-1 possible cut positions with < p cuts.
    let cuts_max = (p - 1).min(n - 1);
    let positions: Vec<usize> = (1..n).collect();
    let mut chosen: Vec<usize> = Vec::new();
    fn rec(
        a: &[f64],
        positions: &[usize],
        from: usize,
        left: usize,
        chosen: &mut Vec<usize>,
        best: &mut f64,
    ) {
        // Evaluate the current cut set.
        let n = a.len();
        let mut bounds = vec![0];
        bounds.extend_from_slice(chosen);
        bounds.push(n);
        let bn = ChainPartition::from_bounds(bounds, n).bottleneck(a);
        if bn < *best {
            *best = bn;
        }
        if left == 0 {
            return;
        }
        for i in from..positions.len() {
            chosen.push(positions[i]);
            rec(a, positions, i + 1, left - 1, chosen, best);
            chosen.pop();
        }
    }
    rec(a, &positions, 0, cuts_max, &mut chosen, &mut best);
    best
}

/// Checks that `part` is a valid ≤ `p`-way partition with bottleneck
/// within `tol` of `value`.
#[cfg(test)]
fn validate_solution(a: &[f64], p: usize, part: &ChainPartition, value: f64, tol: f64) {
    assert!(part.n_parts() <= p, "{} parts > {p}", part.n_parts());
    assert_eq!(*part.bounds().last().unwrap(), a.len());
    let bn = part.bottleneck(a);
    assert!(
        (bn - value).abs() <= tol,
        "partition bottleneck {bn} disagrees with reported {value}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_on_known_instance() {
        // [1,2,3,4,5] into 2 parts: best is [1..4 | 5..] wait —
        // sums: {1+2+3+4, 5} = 10; {1+2+3, 4+5} = 9; {1+2, 3+4+5} = 12.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let (v, part) = min_bottleneck_dp(&a, 2);
        assert_eq!(v, 9.0);
        assert_eq!(part.bounds(), &[0, 3, 5]);
    }

    #[test]
    fn dp_single_processor_and_excess_processors() {
        let a = [4.0, 4.0];
        let (v1, p1) = min_bottleneck_dp(&a, 1);
        assert_eq!(v1, 8.0);
        assert_eq!(p1.n_parts(), 1);
        let (v5, p5) = min_bottleneck_dp(&a, 5);
        assert_eq!(v5, 4.0);
        assert_eq!(p5.n_parts(), 2);
    }

    #[test]
    fn probe_feasibility_boundary() {
        let a = [3.0, 1.0, 4.0, 1.0, 5.0];
        let ps = PrefixSums::new(&a);
        assert!(probe(&ps, 3, 5.0).is_some()); // [3,1][4,1][5]
        assert!(probe(&ps, 3, 4.9).is_none());
        assert!(probe(&ps, 5, 4.9).is_none()); // element 5.0 alone exceeds
        assert!(probe(&ps, 1, 14.0).is_some());
        assert!(probe(&ps, 1, 13.9).is_none());
    }

    #[test]
    fn probe_search_matches_dp_and_brute_force() {
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (vec![1.0, 2.0, 3.0, 4.0, 5.0], 2),
            (vec![5.0, 1.0, 1.0, 1.0, 5.0], 3),
            (vec![2.0; 8], 3),
            (vec![10.0, 1.0, 1.0, 1.0, 1.0, 10.0], 4),
            (vec![0.5, 7.5, 0.25, 3.25, 1.0, 1.0, 2.0], 3),
            (vec![1.0], 4),
        ];
        for (a, p) in cases {
            let (dp_v, dp_part) = min_bottleneck_dp(&a, p);
            let (pr_v, pr_part) = min_bottleneck_probe_search(&a, p);
            let bf = brute_force_min_bottleneck(&a, p);
            assert!(
                (dp_v - bf).abs() < 1e-9,
                "dp {dp_v} != brute {bf} on {a:?} p={p}"
            );
            assert!(
                (pr_v - bf).abs() < 1e-9,
                "probe {pr_v} != brute {bf} on {a:?} p={p}"
            );
            validate_solution(&a, p, &dp_part, dp_v, 1e-9);
            validate_solution(&a, p, &pr_part, pr_v, 1e-9);
        }
    }

    #[test]
    fn recursive_bisection_is_valid_and_reasonable() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let part = recursive_bisection(&a, 4);
        assert!(part.n_parts() <= 4);
        let opt = brute_force_min_bottleneck(&a, 4);
        let heur = part.bottleneck(&a);
        assert!(heur >= opt - 1e-12);
        // RB is known to stay within 2× of optimal on such inputs.
        assert!(
            heur <= 2.0 * opt + 1e-12,
            "RB bottleneck {heur} vs optimal {opt}"
        );
    }

    #[test]
    fn zero_weights_are_fine() {
        let a = [0.0, 0.0, 5.0, 0.0];
        let (v, part) = min_bottleneck_dp(&a, 2);
        assert_eq!(v, 5.0);
        validate_solution(&a, 2, &part, v, 1e-12);
        let (v2, _) = min_bottleneck_probe_search(&a, 2);
        assert_eq!(v2, 5.0);
    }

    #[test]
    fn uniform_chain_splits_evenly() {
        let a = vec![1.0; 12];
        let (v, part) = min_bottleneck_probe_search(&a, 4);
        assert_eq!(v, 3.0);
        assert_eq!(part.n_parts(), 4);
        assert!(part.part_sums(&a).iter().all(|&s| s == 3.0));
    }

    proptest::proptest! {
        #[test]
        fn prop_dp_equals_probe_search(
            a in proptest::collection::vec(0.0_f64..100.0, 1..14),
            p in 1_usize..6,
        ) {
            let (dp_v, dp_part) = min_bottleneck_dp(&a, p);
            let (pr_v, pr_part) = min_bottleneck_probe_search(&a, p);
            proptest::prop_assert!((dp_v - pr_v).abs() < 1e-6 * (1.0 + dp_v.abs()),
                "dp {} vs probe {}", dp_v, pr_v);
            validate_solution(&a, p, &dp_part, dp_v, 1e-9);
            validate_solution(&a, p, &pr_part, pr_v, 1e-9);
        }

        #[test]
        fn prop_dp_matches_brute_force(
            a in proptest::collection::vec(0.0_f64..50.0, 1..9),
            p in 1_usize..5,
        ) {
            let (dp_v, _) = min_bottleneck_dp(&a, p);
            let bf = brute_force_min_bottleneck(&a, p);
            proptest::prop_assert!((dp_v - bf).abs() < 1e-9);
        }

        #[test]
        fn prop_rb_upper_bounds_optimal(
            a in proptest::collection::vec(0.01_f64..50.0, 2..12),
            p in 1_usize..5,
        ) {
            let part = recursive_bisection(&a, p);
            let (opt, _) = min_bottleneck_dp(&a, p);
            proptest::prop_assert!(part.bottleneck(&a) >= opt - 1e-9);
            proptest::prop_assert!(part.n_parts() <= p);
        }
    }
}
