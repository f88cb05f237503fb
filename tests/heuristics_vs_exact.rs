//! The heuristics against ground truth: constraint satisfaction, never
//! beating the exact optimum, and property-based stress over random
//! instances.

use pipeline_workflows::core::{exact, HeuristicKind};
use pipeline_workflows::core::{
    Objective, PreparedInstance, SolveRequest, SolveWorkspace, Strategy,
};
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::CostModel;
use proptest::prelude::*;

fn small_instance(
    kind: ExperimentKind,
    seed: u64,
) -> (
    pipeline_workflows::model::Application,
    pipeline_workflows::model::Platform,
) {
    InstanceGenerator::new(InstanceParams::paper(kind, 7, 4)).instance(seed, 0)
}

#[test]
fn heuristic_periods_bounded_below_by_exact_optimum() {
    let mut ws = SolveWorkspace::new();
    for kind in ExperimentKind::ALL {
        for seed in 0..3 {
            let (app, pf) = small_instance(kind, seed);
            let cm = CostModel::new(&app, &pf);
            let (p_opt, _) = exact::exact_min_period_in(&cm, &mut ws);
            for h in HeuristicKind::ALL
                .into_iter()
                .filter(|h| h.is_period_fixed())
            {
                let res = h.run_in(&cm, 0.0, &mut ws); // run to the floor
                assert!(
                    res.period >= p_opt - 1e-9,
                    "{kind}/{h} seed {seed}: floor {} beats optimum {p_opt}",
                    res.period
                );
            }
        }
    }
}

#[test]
fn latency_fixed_heuristics_bounded_by_exact_counterpart() {
    for seed in 0..3 {
        let (app, pf) = small_instance(ExperimentKind::E2, seed);
        let cm = CostModel::new(&app, &pf);
        let l_budget = 1.8 * cm.optimal_latency();
        let request =
            SolveRequest::new(Objective::MinPeriodForLatency(l_budget)).strategy(Strategy::Exact);
        let p_star = PreparedInstance::new(app.clone(), pf.clone())
            .solve_in(&request, &mut SolveWorkspace::new())
            .expect("budget ≥ L_opt")
            .result
            .period;
        for h in [HeuristicKind::SpMonoL, HeuristicKind::SpBiL] {
            let res = h.run_in(&cm, l_budget, &mut SolveWorkspace::new());
            assert!(res.feasible);
            assert!(
                res.latency <= l_budget + 1e-9,
                "{h}: latency budget violated"
            );
            assert!(
                res.period >= p_star - 1e-9,
                "{h} seed {seed}: period {} beats constrained optimum {p_star}",
                res.period
            );
        }
    }
}

#[test]
fn feasible_results_respect_their_constraint_everywhere() {
    for kind in ExperimentKind::ALL {
        let (app, pf) = small_instance(kind, 11);
        let cm = CostModel::new(&app, &pf);
        let p0 = cm.single_proc_period();
        let l0 = cm.optimal_latency();
        for h in HeuristicKind::ALL {
            for factor in [0.4, 0.7, 1.0, 1.5] {
                let target = if h.is_period_fixed() {
                    factor * p0
                } else {
                    factor.max(1.0) * l0
                };
                let res = h.run_in(&cm, target, &mut SolveWorkspace::new());
                if res.feasible {
                    if h.is_period_fixed() {
                        assert!(res.period <= target + 1e-9, "{kind}/{h}@{factor}");
                    } else {
                        assert!(res.latency <= target + 1e-9, "{kind}/{h}@{factor}");
                    }
                }
                // Reported metrics always match a re-evaluation.
                let (p, l) = cm.evaluate(&res.mapping);
                assert!((p - res.period).abs() < 1e-9);
                assert!((l - res.latency).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn lemma_1_lower_bound_on_latency_holds_for_all_heuristics() {
    let (app, pf) = small_instance(ExperimentKind::E3, 5);
    let cm = CostModel::new(&app, &pf);
    let l_opt = cm.optimal_latency();
    for h in HeuristicKind::ALL {
        let target = if h.is_period_fixed() {
            0.5 * cm.single_proc_period()
        } else {
            3.0 * l_opt
        };
        let res = h.run_in(&cm, target, &mut SolveWorkspace::new());
        assert!(
            res.latency >= l_opt - 1e-9,
            "{h} beat the Lemma-1 latency bound"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random tiny instances: the trajectory floors of the period-fixed
    /// heuristics are all ≥ the exact minimum period, and the heuristics'
    /// reported metrics are self-consistent.
    #[test]
    fn prop_heuristics_dominated_by_exact(
        works in proptest::collection::vec(0.5_f64..50.0, 2..7),
        deltas_seed in 0u64..1000,
        speeds in proptest::collection::vec(1.0_f64..20.0, 2..5),
    ) {
        let mut ws = SolveWorkspace::new();
        use pipeline_workflows::model::{Application, Platform};
        let n = works.len();
        // Derive deltas deterministically from the seed to keep the
        // strategy space small.
        let deltas: Vec<f64> =
            (0..=n).map(|i| ((deltas_seed + i as u64 * 37) % 100) as f64 / 7.0).collect();
        let app = Application::new(works, deltas).unwrap();
        let pf = Platform::comm_homogeneous(speeds, 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let (p_opt, opt_mapping) = exact::exact_min_period_in(&cm, &mut ws);
        prop_assert!((cm.period(&opt_mapping) - p_opt).abs() < 1e-9);
        for h in HeuristicKind::ALL.into_iter().filter(|h| h.is_period_fixed()) {
            let res = h.run_in(&cm, 0.0, &mut ws);
            prop_assert!(res.period >= p_opt - 1e-9,
                "{} floor {} beats exact {}", h, res.period, p_opt);
        }
    }

    /// The exact Pareto front weakly dominates every heuristic outcome at
    /// every target.
    #[test]
    fn prop_exact_front_dominates_heuristics(
        seed in 0u64..500,
        factor in 0.3_f64..1.2,
    ) {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = small_instance(ExperimentKind::E2, seed);
        let cm = CostModel::new(&app, &pf);
        let front = exact::exact_pareto_front_in(&cm, &mut ws);
        let p0 = cm.single_proc_period();
        let l0 = cm.optimal_latency();
        for h in HeuristicKind::ALL {
            let target = if h.is_period_fixed() { factor * p0 } else { (1.0 + factor) * l0 };
            let res = h.run_in(&cm, target, &mut ws);
            prop_assert!(
                front.dominated(res.period + 1e-9, res.latency + 1e-9),
                "{} produced a point outside the exact front", h
            );
        }
    }
}
