//! Hetero-1D-Partition: chains-to-chains with prescribed processor speeds
//! (paper Section 3). NP-hard in general (Theorem 1); this module provides
//!
//! * an **exact solver for a fixed processor order** — for a fixed
//!   permutation the greedy maximal-prefix probe is an exact feasibility
//!   oracle, so the optimum over partitions is found by threshold search;
//! * **ordering heuristics** that try a small set of permutations
//!   (fastest-first, slowest-first) refined by adjacent-swap local search;
//! * an **exact branch-and-bound** for small instances, used as ground
//!   truth in tests and by the NMWTS gadget verification.

use crate::ChainPartition;
use pipeline_model::util::PrefixSums;

/// A solution of the heterogeneous problem: a partition, the processor
/// (speed index) executing each interval, and the achieved objective
/// `max_k W_k / s_{proc_of[k]}`.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroSolution {
    /// The interval partition.
    pub partition: ChainPartition,
    /// `proc_of[k]` = index into the original `speeds` slice for interval
    /// `k`. Indices are distinct.
    pub proc_of: Vec<usize>,
    /// The weighted bottleneck.
    pub objective: f64,
}

impl HeteroSolution {
    /// Recomputes the objective from scratch and asserts consistency
    /// (test helper).
    pub fn validate(&self, a: &[f64], speeds: &[f64], tol: f64) {
        assert_eq!(self.proc_of.len(), self.partition.n_parts());
        let mut seen = vec![false; speeds.len()];
        for &u in &self.proc_of {
            assert!(!seen[u], "processor {u} reused");
            seen[u] = true;
        }
        let in_order: Vec<f64> = self.proc_of.iter().map(|&u| speeds[u]).collect();
        let obj = self.partition.weighted_bottleneck(a, &in_order);
        assert!(
            (obj - self.objective).abs() <= tol * (1.0 + obj.abs()),
            "objective {} disagrees with recomputed {obj}",
            self.objective
        );
    }
}

/// Greedy feasibility probe for a **fixed** processor order: interval `k`
/// is the maximal prefix with `W_k ≤ bound * speeds_order[k]`.
///
/// Exact for a fixed order by the usual exchange argument: any feasible
/// partition can be transformed into the greedy one without shrinking any
/// prefix. Processors whose maximal prefix is empty simply receive no
/// interval (the final mapping uses fewer intervals). Returns the interval
/// bounds *and* which order positions received work.
fn probe_fixed_order(
    ps: &PrefixSums,
    speeds_order: &[f64],
    bound: f64,
) -> Option<(ChainPartition, Vec<usize>)> {
    let n = ps.len();
    let mut bounds = vec![0usize];
    let mut used_positions = Vec::new();
    let mut start = 0;
    for (pos, &s) in speeds_order.iter().enumerate() {
        if start == n {
            break;
        }
        let end = ps.max_prefix_within(start, bound * s);
        if end > start {
            bounds.push(end);
            used_positions.push(pos);
            start = end;
        }
        // An empty maximal prefix just skips this processor: a later,
        // possibly faster, processor may still take the next element.
    }
    if start == n {
        Some((ChainPartition::from_bounds(bounds, n), used_positions))
    } else {
        None
    }
}

/// Exact optimum over partitions for a **fixed** processor order, by
/// bisection over the bound with [`probe_fixed_order`] as the oracle.
///
/// `order` maps position → index into `speeds`. The returned solution's
/// `proc_of` refers to the original speed indices.
pub(crate) fn min_bottleneck_fixed_order(
    a: &[f64],
    speeds: &[f64],
    order: &[usize],
) -> HeteroSolution {
    let n = a.len();
    assert!(n > 0, "empty array");
    assert!(!order.is_empty(), "empty processor order");
    let ps = PrefixSums::new(a);
    let speeds_order: Vec<f64> = order.iter().map(|&u| speeds[u]).collect();
    let s_max = speeds_order.iter().copied().fold(0.0_f64, f64::max);
    assert!(s_max > 0.0, "need a positive speed");

    // Bounds on the objective: everything on the fastest processor of the
    // order is always feasible.
    let mut hi = ps.total()
        / speeds_order
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
    // ... but the greedy probe may not produce it if slower processors come
    // first; widen until feasible (at most a few doublings).
    let mut feasible = probe_fixed_order(&ps, &speeds_order, hi);
    while feasible.is_none() {
        hi *= 2.0;
        feasible = probe_fixed_order(&ps, &speeds_order, hi);
        assert!(hi.is_finite(), "runaway bound search");
    }
    let mut best = feasible.expect("feasible at hi");
    let mut lo = 0.0_f64;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        match probe_fixed_order(&ps, &speeds_order, mid) {
            Some(sol) => {
                hi = mid;
                best = sol;
            }
            None => lo = mid,
        }
    }
    let (partition, used_positions) = best;
    let proc_of: Vec<usize> = used_positions.iter().map(|&pos| order[pos]).collect();
    let in_order: Vec<f64> = proc_of.iter().map(|&u| speeds[u]).collect();
    let objective = partition.weighted_bottleneck(a, &in_order);
    HeteroSolution {
        partition,
        proc_of,
        objective,
    }
}

/// Ordering heuristic: solve the fixed-order problem for fastest-first and
/// slowest-first orders, then improve the better one by adjacent-swap
/// local search (first-improvement, bounded passes).
///
/// Polynomial: O(passes · p · n log n)-ish. Not optimal — Theorem 1 —
/// but a strong practical baseline used by the experiment harness.
pub fn hetero_best_order_heuristic(a: &[f64], speeds: &[f64]) -> HeteroSolution {
    assert!(!a.is_empty() && !speeds.is_empty());
    let mut desc: Vec<usize> = (0..speeds.len()).collect();
    desc.sort_by(|&x, &y| {
        speeds[y]
            .partial_cmp(&speeds[x])
            .expect("finite")
            .then(x.cmp(&y))
    });
    let asc: Vec<usize> = desc.iter().rev().copied().collect();

    let sol_desc = min_bottleneck_fixed_order(a, speeds, &desc);
    let sol_asc = min_bottleneck_fixed_order(a, speeds, &asc);
    let (mut order, mut best) = if sol_desc.objective <= sol_asc.objective {
        (desc, sol_desc)
    } else {
        (asc, sol_asc)
    };

    // Adjacent-swap local search over the *order* (the partition re-solves
    // exactly for each candidate order).
    let max_passes = 4;
    for _ in 0..max_passes {
        let mut improved = false;
        for i in 0..order.len().saturating_sub(1) {
            order.swap(i, i + 1);
            let cand = min_bottleneck_fixed_order(a, speeds, &order);
            if cand.objective < best.objective * (1.0 - 1e-12) {
                best = cand;
                improved = true;
            } else {
                order.swap(i, i + 1); // revert
            }
        }
        if !improved {
            break;
        }
    }
    best
}

/// Exact branch-and-bound for small instances.
///
/// Branches on (next interval length, processor for that interval); prunes
/// with the bound `remaining work / Σ remaining speeds` and the incumbent.
/// Exponential — intended for `n ≲ 30`, `p ≲ 10` (tests, gadget
/// verification). `node_limit` caps the search; `None` is returned if the
/// limit is hit before the search space is exhausted (the incumbent may
/// then be suboptimal).
pub fn hetero_exact_bnb(a: &[f64], speeds: &[f64], node_limit: u64) -> Option<HeteroSolution> {
    let n = a.len();
    let p = speeds.len();
    assert!(n > 0 && p > 0);
    let ps = PrefixSums::new(a);

    // Start from the ordering heuristic as the incumbent.
    let mut incumbent = hetero_best_order_heuristic(a, speeds);

    struct Ctx<'c> {
        ps: &'c PrefixSums,
        speeds: &'c [f64],
        n: usize,
        nodes: u64,
        node_limit: u64,
        exhausted: bool,
        best_obj: f64,
        best: Option<(Vec<usize>, Vec<usize>)>, // (bounds, proc_of)
    }

    fn dfs(
        ctx: &mut Ctx<'_>,
        start: usize,
        used: &mut Vec<bool>,
        bounds: &mut Vec<usize>,
        proc_of: &mut Vec<usize>,
        current_max: f64,
        remaining_speed: f64,
    ) {
        if ctx.nodes >= ctx.node_limit {
            ctx.exhausted = false;
            return;
        }
        ctx.nodes += 1;
        if start == ctx.n {
            if current_max < ctx.best_obj {
                ctx.best_obj = current_max;
                ctx.best = Some((bounds.clone(), proc_of.clone()));
            }
            return;
        }
        // Lower bound: remaining work spread perfectly over every unused
        // processor.
        let rem_work = ctx.ps.range(start, ctx.n);
        if remaining_speed <= 0.0 {
            return;
        }
        let lb = current_max.max(rem_work / remaining_speed);
        if lb >= ctx.best_obj {
            return;
        }
        // Branch on the processor taking the next interval; skip duplicate
        // speeds at the same depth (symmetric subtrees).
        let mut tried = Vec::new();
        for u in 0..ctx.speeds.len() {
            if used[u] || tried.iter().any(|&s: &f64| s == ctx.speeds[u]) {
                continue;
            }
            tried.push(ctx.speeds[u]);
            used[u] = true;
            proc_of.push(u);
            // Branch on the interval end, longest first (tends to reach
            // good incumbents earlier).
            for end in (start + 1..=ctx.n).rev() {
                let load = ctx.ps.range(start, end) / ctx.speeds[u];
                let new_max = current_max.max(load);
                if new_max >= ctx.best_obj {
                    // Longer intervals on this processor only get worse:
                    // loads shrink as `end` decreases, so do NOT break —
                    // shorter ones may still fit. (Loads are monotone
                    // increasing in `end`; iterating in reverse lets us
                    // continue to smaller, cheaper intervals.)
                    continue;
                }
                bounds.push(end);
                dfs(
                    ctx,
                    end,
                    used,
                    bounds,
                    proc_of,
                    new_max,
                    remaining_speed - ctx.speeds[u],
                );
                bounds.pop();
            }
            proc_of.pop();
            used[u] = false;
        }
    }

    let mut ctx = Ctx {
        ps: &ps,
        speeds,
        n,
        nodes: 0,
        node_limit,
        exhausted: true,
        best_obj: incumbent.objective * (1.0 + 1e-12),
        best: None,
    };
    let total_speed: f64 = speeds.iter().sum();
    let mut used = vec![false; p];
    let mut bounds = vec![0usize];
    let mut proc_of = Vec::new();
    dfs(
        &mut ctx,
        0,
        &mut used,
        &mut bounds,
        &mut proc_of,
        0.0,
        total_speed,
    );

    if !ctx.exhausted {
        return None;
    }
    if let Some((bounds, proc_of)) = ctx.best {
        let partition = ChainPartition::from_bounds(bounds, n);
        let in_order: Vec<f64> = proc_of.iter().map(|&u| speeds[u]).collect();
        let objective = partition.weighted_bottleneck(a, &in_order);
        incumbent = HeteroSolution {
            partition,
            proc_of,
            objective,
        };
    }
    Some(incumbent)
}

/// Brute force over every partition and every injective processor
/// assignment. Super-exponential; only for cross-checking the
/// branch-and-bound on tiny cases.
#[cfg(test)]
fn brute_force_hetero(a: &[f64], speeds: &[f64]) -> f64 {
    let n = a.len();
    let p = speeds.len();
    assert!(n > 0 && p > 0);
    let ps = PrefixSums::new(a);
    let mut best = f64::INFINITY;
    fn rec(
        ps: &PrefixSums,
        speeds: &[f64],
        n: usize,
        start: usize,
        used: &mut Vec<bool>,
        current_max: f64,
        best: &mut f64,
    ) {
        if start == n {
            *best = (*best).min(current_max);
            return;
        }
        for u in 0..speeds.len() {
            if used[u] {
                continue;
            }
            used[u] = true;
            for end in start + 1..=n {
                let m = current_max.max(ps.range(start, end) / speeds[u]);
                if m < *best {
                    rec(ps, speeds, n, end, used, m, best);
                }
            }
            used[u] = false;
        }
    }
    let mut used = vec![false; p];
    rec(&ps, speeds, n, 0, &mut used, 0.0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_order_probe_respects_speeds() {
        // a = [4, 4, 2], speeds in order [4, 2]; bound 1.5:
        // P(speed 4) takes prefix ≤ 6 → [4] (4+4=8 > 6)... wait 4 ≤ 6,
        // 4+4 = 8 > 6 → takes [4]; P(speed 2) needs ≤ 3 but next is 4 →
        // infeasible.
        let ps = PrefixSums::new(&[4.0, 4.0, 2.0]);
        assert!(probe_fixed_order(&ps, &[4.0, 2.0], 1.5).is_none());
        // Bound 2: P4 ≤ 8 → [4,4]; P2 ≤ 4 → [2]. Feasible.
        let (part, pos) = probe_fixed_order(&ps, &[4.0, 2.0], 2.0).unwrap();
        assert_eq!(part.bounds(), &[0, 2, 3]);
        assert_eq!(pos, vec![0, 1]);
    }

    #[test]
    fn probe_skips_too_slow_processors() {
        // First processor too slow for the first element: skipped, second
        // takes everything.
        let ps = PrefixSums::new(&[10.0]);
        let (part, pos) = probe_fixed_order(&ps, &[1.0, 20.0], 0.6).unwrap();
        assert_eq!(part.n_parts(), 1);
        assert_eq!(pos, vec![1]);
    }

    #[test]
    fn fixed_order_exact_on_hand_case() {
        let a = [6.0, 6.0, 2.0];
        let speeds = [3.0, 1.0];
        // Order fastest-first: optimal split [6,6 | 2] → max(12/3, 2/1) = 4.
        let sol = min_bottleneck_fixed_order(&a, &speeds, &[0, 1]);
        assert!(
            (sol.objective - 4.0).abs() < 1e-9,
            "objective {}",
            sol.objective
        );
        sol.validate(&a, &speeds, 1e-9);
    }

    #[test]
    fn order_matters() {
        // a = [1, 9]; speeds {1, 9}. Slow-first order gives max(1/1, 9/9)=1;
        // fast-first gives... P9 maximal prefix at bound 1: sums 1,10 → [1];
        // then P1 gets 9 → 9. So fast-first optimum is worse than 1 until
        // bound reaches ~1.111 ([1,9] on P9 → 10/9). Exact per order:
        let a = [1.0, 9.0];
        let speeds = [1.0, 9.0];
        let fast_first = min_bottleneck_fixed_order(&a, &speeds, &[1, 0]);
        let slow_first = min_bottleneck_fixed_order(&a, &speeds, &[0, 1]);
        assert!((slow_first.objective - 1.0).abs() < 1e-9);
        assert!((fast_first.objective - 10.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn heuristic_finds_good_orders() {
        let a = [1.0, 9.0];
        let speeds = [1.0, 9.0];
        let sol = hetero_best_order_heuristic(&a, &speeds);
        assert!((sol.objective - 1.0).abs() < 1e-9);
        sol.validate(&a, &speeds, 1e-9);
    }

    #[test]
    fn bnb_matches_brute_force_on_small_cases() {
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 2.0]),
            (vec![5.0, 1.0, 5.0, 1.0, 5.0], vec![3.0, 2.0, 1.0]),
            (vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0], vec![1.0, 1.0, 4.0]),
            (vec![1.0, 9.0], vec![1.0, 9.0]),
            (vec![7.0], vec![2.0, 3.0]),
            (vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0], vec![5.0, 5.0, 2.0]),
        ];
        for (a, s) in cases {
            let sol = hetero_exact_bnb(&a, &s, 10_000_000).expect("within node budget");
            let bf = brute_force_hetero(&a, &s);
            assert!(
                (sol.objective - bf).abs() < 1e-9,
                "bnb {} != brute {bf} on a={a:?} s={s:?}",
                sol.objective
            );
            sol.validate(&a, &s, 1e-9);
        }
    }

    #[test]
    fn bnb_node_limit_returns_none() {
        let a: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let s = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert!(hetero_exact_bnb(&a, &s, 3).is_none());
    }

    #[test]
    fn heuristic_never_beats_exact() {
        let a = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let s = [4.0, 2.0, 7.0];
        let h = hetero_best_order_heuristic(&a, &s);
        let e = hetero_exact_bnb(&a, &s, 10_000_000).unwrap();
        assert!(h.objective >= e.objective - 1e-9);
    }

    #[test]
    fn identical_speeds_reduce_to_homogeneous() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = [2.0, 2.0];
        let sol = hetero_exact_bnb(&a, &s, 10_000_000).unwrap();
        let (hom, _) = crate::homogeneous::min_bottleneck_dp(&a, 2);
        assert!((sol.objective - hom / 2.0).abs() < 1e-9);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_bnb_equals_brute_force(
            a in proptest::collection::vec(0.1_f64..20.0, 1..7),
            s in proptest::collection::vec(1.0_f64..10.0, 1..4),
        ) {
            let sol = hetero_exact_bnb(&a, &s, 50_000_000).expect("node budget");
            let bf = brute_force_hetero(&a, &s);
            proptest::prop_assert!((sol.objective - bf).abs() < 1e-6 * (1.0 + bf));
        }

        #[test]
        fn prop_heuristic_is_feasible_and_dominated(
            a in proptest::collection::vec(0.1_f64..20.0, 1..10),
            s in proptest::collection::vec(1.0_f64..10.0, 1..5),
        ) {
            let h = hetero_best_order_heuristic(&a, &s);
            h.validate(&a, &s, 1e-9);
            let bf = brute_force_hetero(&a, &s);
            proptest::prop_assert!(h.objective >= bf - 1e-9);
        }
    }
}
