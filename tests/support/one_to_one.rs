//! One-to-one mappings: the restricted class the paper introduces before
//! generalizing to interval mappings (Section 2, "for the sake of
//! simplicity... each stage mapped onto a distinct processor").
//!
//! With the partition fixed to singletons, heterogeneity stops hurting:
//! on Communication Homogeneous platforms the cycle time of stage `k` on
//! processor `u` is `δ_{k-1}/b + w_k/s_u + δ_k/b`, independent of where
//! the neighbours run. Both optimization problems become polynomial
//! assignment problems:
//!
//! * minimum **period** — a bottleneck assignment over the `n × p` cycle
//!   matrix;
//! * minimum **latency** under a period bound — a min-sum (Hungarian)
//!   assignment over the computation times with too-slow pairs forbidden
//!   (the communication part of the latency is the same constant
//!   `Σ_k δ_k/b` for every one-to-one mapping).
//!
//! This gives an exact polynomial solver for a sub-class, kept as a test
//! oracle: every one-to-one mapping is an interval mapping, so the exact
//! interval optimum of `pipeline_core::exact` must weakly dominate it
//! (the differential tests below).
//!
//! Compiled with the facade's unit tests (`src/lib.rs`), so it is
//! written against the member crates' public APIs only.

use pipeline_assign::{bottleneck_assignment, hungarian_in, CostMatrix, HungarianScratch};
use pipeline_model::prelude::*;

fn require_shape(cm: &CostModel<'_>) {
    assert!(
        cm.platform().is_comm_homogeneous(),
        "one-to-one solvers require a Communication Homogeneous platform"
    );
    assert!(
        cm.app().n_stages() <= cm.platform().n_procs(),
        "one-to-one mappings need n <= p"
    );
}

/// Cycle time of stage `k` on processor `u` under a one-to-one mapping.
fn stage_cycle(cm: &CostModel<'_>, k: usize, u: ProcId) -> f64 {
    cm.interval_cost(Interval::new(k, k + 1), u, None, None)
        .cycle_time()
}

/// Exact minimum-period one-to-one mapping (polynomial: bottleneck
/// assignment). Requires `n ≤ p`.
pub fn one_to_one_min_period(cm: &CostModel<'_>) -> (f64, IntervalMapping) {
    require_shape(cm);
    let n = cm.app().n_stages();
    let p = cm.platform().n_procs();
    let costs = CostMatrix::from_fn(n, p, |k, u| stage_cycle(cm, k, u));
    let a = bottleneck_assignment(&costs).expect("finite costs always match");
    let mapping = IntervalMapping::one_to_one(cm.app(), cm.platform(), a.assigned)
        .expect("assignment is injective");
    (cm.period(&mapping), mapping)
}

/// Exact minimum-latency one-to-one mapping under `period ≤ bound`
/// (polynomial: Hungarian with forbidden pairs). `None` when no
/// one-to-one mapping satisfies the bound.
pub fn one_to_one_min_latency_for_period(
    cm: &CostModel<'_>,
    period_bound: f64,
) -> Option<(f64, IntervalMapping)> {
    require_shape(cm);
    let app = cm.app();
    let n = app.n_stages();
    let p = cm.platform().n_procs();
    let speeds = cm.platform().speeds();
    let costs = CostMatrix::from_fn(n, p, |k, u| {
        if approx_le(stage_cycle(cm, k, u), period_bound) {
            app.work(k) / speeds[u]
        } else {
            f64::INFINITY
        }
    });
    let a = hungarian_in(&costs, &mut HungarianScratch::default())?;
    let mapping = IntervalMapping::one_to_one(app, cm.platform(), a.assigned)
        .expect("assignment is injective");
    Some((cm.latency(&mapping), mapping))
}

/// Greedy one-to-one heuristic for comparison: fastest processors to
/// heaviest stages. Optimal for the *computation part* by the
/// rearrangement argument, but blind to the communication terms — the
/// straw man the exact bottleneck solver must never lose to.
pub fn one_to_one_greedy(cm: &CostModel<'_>) -> IntervalMapping {
    require_shape(cm);
    let app = cm.app();
    let mut stages: Vec<usize> = (0..app.n_stages()).collect();
    stages.sort_by(|&a, &b| {
        app.work(b)
            .partial_cmp(&app.work(a))
            .expect("finite")
            .then(a.cmp(&b))
    });
    let order = cm.platform().procs_by_speed_desc();
    let mut procs = vec![0; app.n_stages()];
    for (rank, &stage) in stages.iter().enumerate() {
        procs[stage] = order[rank];
    }
    IntervalMapping::one_to_one(app, cm.platform(), procs).expect("injective by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_core::exact::{exact_min_latency_for_period_in, exact_min_period_in};
    use pipeline_core::SolveWorkspace;

    fn instance(seed: u64) -> (Application, Platform) {
        InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 6, 9)).instance(seed, 0)
    }

    #[test]
    fn min_period_is_optimal_among_one_to_one() {
        // Exhaustive check over all injections on a tiny case.
        let app = Application::new(vec![4.0, 9.0, 2.0], vec![1.0, 2.0, 3.0, 1.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 5.0, 3.0, 7.0], 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let (opt, mapping) = one_to_one_min_period(&cm);
        assert!(mapping.is_one_to_one());
        let mut best = f64::INFINITY;
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    let m = IntervalMapping::one_to_one(&app, &pf, vec![a, b, c]).unwrap();
                    best = best.min(cm.period(&m));
                }
            }
        }
        assert!(
            (opt - best).abs() < 1e-9,
            "bottleneck solver {opt} vs exhaustive {best}"
        );
    }

    /// Every one-to-one mapping is an interval mapping, so over every
    /// paper experiment family with `n ≤ p` the exact interval optimum is
    /// no worse in period, nor in latency at the one-to-one period bounds.
    #[test]
    fn interval_mappings_weakly_dominate_one_to_one() {
        let mut ws = SolveWorkspace::new();
        for kind in [
            ExperimentKind::E1,
            ExperimentKind::E2,
            ExperimentKind::E3,
            ExperimentKind::E4,
        ] {
            for (n, p) in [(3, 10), (6, 9), (10, 10)] {
                let gen = InstanceGenerator::new(InstanceParams::paper(kind, n, p));
                for seed in 0..4 {
                    let (app, pf) = gen.instance(seed, 0);
                    let cm = CostModel::new(&app, &pf);
                    let at = format!("{kind:?} n={n} p={p} seed {seed}");
                    let (p_121, _) = one_to_one_min_period(&cm);
                    let (p_iv, _) = exact_min_period_in(&cm, &mut ws);
                    assert!(
                        p_iv <= p_121 + 1e-9,
                        "{at}: interval period {p_iv} worse than one-to-one {p_121}"
                    );
                    for factor in [1.0, 1.3, 2.0] {
                        let bound = p_121 * factor;
                        let (l_121, _) =
                            one_to_one_min_latency_for_period(&cm, bound).expect("bound ≥ optimum");
                        let (l_iv, _) = exact_min_latency_for_period_in(&cm, bound, &mut ws)
                            .expect("a one-to-one mapping meets the bound");
                        assert!(
                            l_iv <= l_121 + 1e-9,
                            "{at} ×{factor}: interval latency {l_iv} worse than one-to-one {l_121}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn latency_constrained_solver_respects_bound_and_matches_exact_class() {
        let (app, pf) = instance(5);
        let cm = CostModel::new(&app, &pf);
        let (p_opt, _) = one_to_one_min_period(&cm);
        for factor in [1.0, 1.3, 2.0] {
            let bound = p_opt * factor;
            let (lat, mapping) =
                one_to_one_min_latency_for_period(&cm, bound).expect("bound ≥ optimum");
            assert!(cm.period(&mapping) <= bound + 1e-9);
            assert!((cm.latency(&mapping) - lat).abs() < 1e-9);
            // The interval-mapping exact optimum can only be ≤.
            let (lat_iv, _) =
                exact_min_latency_for_period_in(&cm, bound, &mut SolveWorkspace::new())
                    .expect("feasible");
            assert!(lat_iv <= lat + 1e-9);
        }
        assert!(one_to_one_min_latency_for_period(&cm, p_opt * 0.99).is_none());
    }

    #[test]
    fn one_to_one_latency_comm_part_is_constant() {
        // Every one-to-one mapping pays the same Σ δ_k / b.
        let (app, pf) = instance(7);
        let cm = CostModel::new(&app, &pf);
        let b = 10.0;
        let comm: f64 = app.deltas().iter().sum::<f64>() / b;
        let greedy = one_to_one_greedy(&cm);
        let comp: f64 = (0..app.n_stages())
            .map(|k| app.work(k) / pf.speed(greedy.proc_of(k)))
            .sum();
        assert!((cm.latency(&greedy) - (comm + comp)).abs() < 1e-9);
    }

    #[test]
    fn greedy_dominated_by_exact_bottleneck() {
        for seed in 0..5 {
            let (app, pf) = instance(seed + 20);
            let cm = CostModel::new(&app, &pf);
            let greedy = one_to_one_greedy(&cm);
            let (opt, _) = one_to_one_min_period(&cm);
            assert!(cm.period(&greedy) >= opt - 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "n <= p")]
    fn too_few_processors_panics() {
        let app = Application::uniform(4, 1.0, 1.0).unwrap();
        let pf = Platform::comm_homogeneous(vec![1.0, 2.0], 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let _ = one_to_one_min_period(&cm);
    }
}
