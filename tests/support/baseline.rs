//! The Subhlok–Vondran baseline, kept as a test oracle: optimal interval
//! mapping on **homogeneous** platforms (identical speeds and links), the
//! setting the paper extends (PPoPP'95 / SPAA'96, refs \[19, 20\]).
//!
//! With identical processors the interval→processor assignment is
//! irrelevant, and dynamic programming over (stage prefix, interval
//! count) is exact in polynomial time:
//!
//! * latency minimization under a period bound — O(n²·p);
//! * period minimization — binary search over the O(n²) candidate cycle
//!   values with an O(n²) feasibility DP;
//! * the full Pareto front — one latency DP per candidate period.
//!
//! On heterogeneous platforms these functions panic: the paper's Theorem 2
//! shows period minimization becomes NP-hard there. Being polynomial and
//! independent of `pipeline_core::exact`, they are its oracle on the
//! homogeneous sub-class at every `n` the exact solver accepts (the
//! differential tests below).
//!
//! Compiled with the facade's unit tests (`src/lib.rs`), so it is
//! written against the member crates' public APIs only.

use pipeline_core::ParetoFront;
use pipeline_model::prelude::*;
use pipeline_model::util::EPS;

fn require_homogeneous(cm: &CostModel<'_>) -> (f64, f64) {
    let pf = cm.platform();
    assert!(
        pf.is_comm_homogeneous(),
        "Subhlok–Vondran baseline requires homogeneous links"
    );
    let s0 = pf.speed(0);
    assert!(
        pf.speeds().iter().all(|&s| (s - s0).abs() <= EPS),
        "Subhlok–Vondran baseline requires identical processor speeds"
    );
    let b = match pf.links() {
        LinkModel::Homogeneous(b) => *b,
        LinkModel::Heterogeneous { .. } => unreachable!("checked above"),
    };
    (s0, b)
}

/// Cycle time of `[i, j)` on a speed-`s` processor with bandwidth `b`.
fn cycle(app: &Application, s: f64, b: f64, i: usize, j: usize) -> f64 {
    app.input_volume(i) / b + app.interval_work(i, j) / s + app.output_volume(j) / b
}

/// Latency term (`t_in + t_comp`) of `[i, j)`.
fn lat_term(app: &Application, s: f64, b: f64, i: usize, j: usize) -> f64 {
    app.input_volume(i) / b + app.interval_work(i, j) / s
}

/// Optimal latency under `period ≤ period_bound` on a homogeneous
/// platform; `None` when infeasible. Also returns the optimal mapping
/// (processors assigned in platform order).
pub fn sv_min_latency_for_period(
    cm: &CostModel<'_>,
    period_bound: f64,
) -> Option<(f64, IntervalMapping)> {
    let (s, b) = require_homogeneous(cm);
    let app = cm.app();
    let n = app.n_stages();
    let p = cm.platform().n_procs();
    let parts = p.min(n);

    // dp[k][i] = min Σ latency terms covering [0, i) with exactly k
    // intervals of cycle ≤ bound.
    let mut dp = vec![vec![f64::INFINITY; n + 1]; parts + 1];
    let mut parent = vec![vec![usize::MAX; n + 1]; parts + 1];
    dp[0][0] = 0.0;
    for k in 1..=parts {
        for i in k..=n {
            for j in (k - 1)..i {
                if dp[k - 1][j].is_finite() && approx_le(cycle(app, s, b, j, i), period_bound) {
                    let cand = dp[k - 1][j] + lat_term(app, s, b, j, i);
                    if cand < dp[k][i] {
                        dp[k][i] = cand;
                        parent[k][i] = j;
                    }
                }
            }
        }
    }
    let tail = app.delta(n) / b;
    let mut best: Option<(usize, f64)> = None;
    for (k, dp_k) in dp.iter().enumerate().take(parts + 1).skip(1) {
        if dp_k[n].is_finite() {
            let lat = dp_k[n] + tail;
            if best.is_none_or(|(_, v)| lat < v) {
                best = Some((k, lat));
            }
        }
    }
    let (k_best, lat) = best?;
    // Reconstruct the partition.
    let mut bounds = vec![n];
    let mut i = n;
    let mut k = k_best;
    while k > 0 {
        let j = parent[k][i];
        bounds.push(j);
        i = j;
        k -= 1;
    }
    bounds.reverse();
    let intervals: Vec<Interval> = bounds
        .windows(2)
        .map(|w| Interval::new(w[0], w[1]))
        .collect();
    let procs: Vec<ProcId> = (0..intervals.len()).collect();
    let mapping = IntervalMapping::new(app, cm.platform(), intervals, procs)
        .expect("DP reconstruction is valid");
    Some((lat, mapping))
}

/// Optimal period on a homogeneous platform (polynomial, unlike the
/// heterogeneous case).
pub fn sv_min_period(cm: &CostModel<'_>) -> (f64, IntervalMapping) {
    let (s, b) = require_homogeneous(cm);
    let app = cm.app();
    let n = app.n_stages();
    let p = cm.platform().n_procs();

    // Candidate periods: the distinct cycle values of every interval.
    let mut candidates = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..n {
        for j in i + 1..=n {
            candidates.push(cycle(app, s, b, i, j));
        }
    }
    candidates.sort_by(|a, c| a.partial_cmp(c).expect("finite"));
    candidates.dedup_by(|a, c| (*a - *c).abs() <= EPS);

    // Feasibility: min #intervals covering [0, n) with cycles ≤ bound.
    let feasible = |bound: f64| -> bool {
        let mut f = vec![usize::MAX; n + 1];
        f[0] = 0;
        for i in 1..=n {
            for j in 0..i {
                if f[j] != usize::MAX && f[j] < p && approx_le(cycle(app, s, b, j, i), bound) {
                    f[i] = f[i].min(f[j] + 1);
                }
            }
        }
        f[n] <= p
    };

    let (mut lo, mut hi) = (0usize, candidates.len() - 1);
    debug_assert!(
        feasible(candidates[hi]),
        "single interval is always feasible"
    );
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible(candidates[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let period = candidates[lo];
    let (_, mapping) = sv_min_latency_for_period(cm, period).expect("period verified feasible");
    (cm.period(&mapping), mapping)
}

/// Exact Pareto front on a homogeneous platform: one latency DP per
/// candidate period threshold.
pub fn sv_pareto_front(cm: &CostModel<'_>) -> ParetoFront<IntervalMapping> {
    let (s, b) = require_homogeneous(cm);
    let app = cm.app();
    let n = app.n_stages();
    let mut candidates = Vec::new();
    for i in 0..n {
        for j in i + 1..=n {
            candidates.push(cycle(app, s, b, i, j));
        }
    }
    candidates.sort_by(|a, c| a.partial_cmp(c).expect("finite"));
    candidates.dedup_by(|a, c| (*a - *c).abs() <= EPS);

    let mut front = ParetoFront::new();
    for &t in &candidates {
        if let Some((lat, mapping)) = sv_min_latency_for_period(cm, t) {
            let achieved = cm.period(&mapping);
            front.offer(achieved, lat, mapping);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_core::exact::{
        exact_min_latency_for_period_in, exact_min_period_in, exact_pareto_front_in,
    };
    use pipeline_core::SolveWorkspace;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_hom_instance(seed: u64, n: usize, p: usize) -> (Application, Platform) {
        let mut rng = StdRng::seed_from_u64(seed);
        let works: Vec<f64> = (0..n).map(|_| rng.random_range(1.0..20.0)).collect();
        let deltas: Vec<f64> = (0..=n).map(|_| rng.random_range(1.0..20.0)).collect();
        let app = Application::new(works, deltas).unwrap();
        let pf = Platform::homogeneous(p, 5.0, 10.0).unwrap();
        (app, pf)
    }

    /// The exact solver against Subhlok–Vondran on one random homogeneous
    /// instance: the optimal period, the optimal latency at three period
    /// bounds, and every front coordinate agree.
    fn assert_exact_matches_sv(seed: u64, n: usize, p: usize, ws: &mut SolveWorkspace) {
        let (app, pf) = random_hom_instance(seed, n, p);
        let cm = CostModel::new(&app, &pf);
        let (sv_p, sv_map) = sv_min_period(&cm);
        let (ex_p, _) = exact_min_period_in(&cm, ws);
        assert!(
            (sv_p - ex_p).abs() < 1e-9,
            "seed {seed} n={n} p={p}: SV {sv_p} vs exact {ex_p}"
        );
        assert!((cm.period(&sv_map) - sv_p).abs() < 1e-9);

        for factor in [1.0, 1.3, 2.0] {
            let bound = sv_p * factor;
            let sv = sv_min_latency_for_period(&cm, bound).expect("feasible");
            let ex = exact_min_latency_for_period_in(&cm, bound, ws).expect("feasible");
            assert!(
                (sv.0 - ex.0).abs() < 1e-9,
                "seed {seed} n={n} p={p} ×{factor}: SV latency {} vs exact {}",
                sv.0,
                ex.0
            );
            assert!(cm.period(&sv.1) <= bound + 1e-9);
        }

        let sv_front = sv_pareto_front(&cm);
        let ex_front = exact_pareto_front_in(&cm, ws);
        assert_eq!(sv_front.len(), ex_front.len(), "seed {seed} n={n} p={p}");
        for ((sp, sl, _), (ep, el, _)) in sv_front.iter().zip(ex_front.iter()) {
            assert!(
                (sp - ep).abs() < 1e-9 && (sl - el).abs() < 1e-9,
                "seed {seed} n={n} p={p}: SV point ({sp}, {sl}) vs exact ({ep}, {el})"
            );
        }
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        let mut ws = SolveWorkspace::new();
        for seed in 0..5 {
            assert_exact_matches_sv(seed, 7, 3, &mut ws);
        }
    }

    /// Up to the exact solver's `n = 30` limit: one speed class, so the
    /// dominance DP routes every size.
    #[test]
    fn exact_solver_matches_sv_up_to_thirty_stages() {
        let mut ws = SolveWorkspace::new();
        for n in [8, 16, 24, 30] {
            for p in [4, 8, 16] {
                assert_exact_matches_sv((100 * n + p) as u64, n, p, &mut ws);
            }
        }
    }

    #[test]
    fn infeasible_period_bound_returns_none() {
        let (app, pf) = random_hom_instance(1, 6, 3);
        let cm = CostModel::new(&app, &pf);
        let (p_opt, _) = sv_min_period(&cm);
        assert!(sv_min_latency_for_period(&cm, p_opt * 0.9).is_none());
    }

    #[test]
    fn unconstrained_latency_is_single_interval() {
        let (app, pf) = random_hom_instance(2, 6, 3);
        let cm = CostModel::new(&app, &pf);
        let (lat, mapping) = sv_min_latency_for_period(&cm, f64::INFINITY).unwrap();
        assert_eq!(mapping.n_intervals(), 1);
        assert!((lat - cm.optimal_latency()).abs() < 1e-9);
    }

    #[test]
    fn pareto_front_is_consistent() {
        let (app, pf) = random_hom_instance(3, 6, 3);
        let cm = CostModel::new(&app, &pf);
        let front = sv_pareto_front(&cm);
        assert!(!front.is_empty());
        for (period, latency, payload) in front.iter() {
            let (p, l) = cm.evaluate(payload);
            assert!((p - period).abs() < 1e-9);
            assert!((l - latency).abs() < 1e-9);
        }
        // Extremes agree with the dedicated solvers.
        let (p_opt, _) = sv_min_period(&cm);
        assert!((front.periods()[0] - p_opt).abs() < 1e-9);
    }

    #[test]
    fn heuristics_cannot_beat_sv_on_homogeneous_platforms() {
        // On homogeneous platforms the paper's heuristics are heuristics
        // for a polynomial problem; SV is optimal.
        for seed in 0..4 {
            let (app, pf) = random_hom_instance(seed + 10, 8, 4);
            let cm = CostModel::new(&app, &pf);
            let (p_opt, _) = sv_min_period(&cm);
            let h1 = pipeline_core::sp_mono_p_in(&cm, 0.0, &mut SolveWorkspace::new());
            assert!(h1.period >= p_opt - 1e-9, "H1 beat the optimal period");
        }
    }

    #[test]
    #[should_panic(expected = "identical processor speeds")]
    fn heterogeneous_speeds_rejected() {
        let app = Application::uniform(3, 1.0, 1.0).unwrap();
        let pf = Platform::comm_homogeneous(vec![1.0, 2.0], 1.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let _ = sv_min_period(&cm);
    }
}
