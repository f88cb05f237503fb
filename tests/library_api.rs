//! Integration of the library-facing APIs: instance I/O, the
//! solver-service API (`PreparedInstance` + `SolveRequest`), workload
//! presets, bounds, and refinement — the paths the `pwsched` CLI
//! exercises.

use pipeline_workflows::core::service::{PreparedInstance, SolveRequest, SolverId};
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::core::{bounds, refine::refine_mapping, Objective, Strategy};
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::io::{format_instance, parse_instance};
use pipeline_workflows::model::workload::WorkloadShape;
use pipeline_workflows::model::{CostModel, Platform};
use proptest::prelude::*;

#[test]
fn scheduler_pipeline_from_serialized_instance() {
    // Serialize → parse → prepare → solve → verify, the full CLI path.
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 9, 6));
    let (app, pf) = gen.instance(21, 0);
    let text = format_instance(&app, &pf);
    let (app2, pf2) = parse_instance(&text).expect("round trip");
    let prepared = PreparedInstance::new(app2, pf2);
    let report = prepared
        .solve(&SolveRequest::new(Objective::MinPeriod))
        .expect("min period solvable");
    let cm = prepared.cost_model();
    assert!((cm.period(&report.result.mapping) - report.result.period).abs() < 1e-9);
    // The instance is small: Auto must have picked the exact solver, so
    // the certified lower bound is tight.
    assert_eq!(report.solver, SolverId::Exact);
    let lb = bounds::period_lower_bound(&cm, 10_000_000);
    assert!(lb.value <= report.result.period + 1e-9);
}

#[test]
fn workload_presets_schedule_end_to_end() {
    let pf = Platform::comm_homogeneous(vec![12.0, 9.0, 7.0, 4.0, 2.0], 10.0).unwrap();
    for shape in WorkloadShape::ALL {
        let app = shape.build(10, 20.0, 8.0);
        let cm = CostModel::new(&app, &pf);
        let bound = 0.7 * cm.single_proc_period();
        let request =
            SolveRequest::new(Objective::MinLatencyForPeriod(bound)).strategy(Strategy::BestOfAll);
        let report = PreparedInstance::new(app.clone(), pf.clone()).solve(&request);
        if let Ok(report) = report {
            assert!(report.result.period <= bound + 1e-9, "{shape}");
            // Refinement under the same latency as budget can only help
            // the period.
            let refined = refine_mapping(&cm, &report.result.mapping, report.result.latency);
            assert!(refined.period <= report.result.period + 1e-9, "{shape}");
        }
    }
}

#[test]
fn hotspot_workloads_benefit_from_replication() {
    use pipeline_workflows::core::replication::replicate_bottlenecks;
    use pipeline_workflows::core::sp_mono_p_in;
    // A dominant middle stage caps splitting; the deal skeleton breaks
    // the cap.
    let app = WorkloadShape::Hotspot.build(7, 10.0, 1.0);
    let pf = Platform::comm_homogeneous(vec![5.0; 10], 10.0).unwrap();
    let cm = CostModel::new(&app, &pf);
    let floor = sp_mono_p_in(&cm, 0.0, &mut SolveWorkspace::new());
    let rep = replicate_bottlenecks(&cm, &floor.mapping, 0.6 * floor.period);
    assert!(
        rep.period < floor.period - 1e-9,
        "replication must beat the splitting floor on hotspot workloads"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serialization round-trips exactly for random paper instances.
    #[test]
    fn prop_io_round_trip(seed in 0u64..5_000, kind_idx in 0usize..4, n in 1usize..20, p in 1usize..12) {
        let kind = ExperimentKind::ALL[kind_idx];
        let gen = InstanceGenerator::new(InstanceParams::paper(kind, n, p));
        let (app, pf) = gen.instance(seed, 0);
        let text = format_instance(&app, &pf);
        let (app2, pf2) = parse_instance(&text).expect("round trip parses");
        prop_assert_eq!(app, app2);
        prop_assert_eq!(pf, pf2);
    }

    /// The service never returns an infeasible "feasible" result,
    /// respects the objective's constraint, and reports a floor the
    /// instance can actually meet when it refuses a bound.
    #[test]
    fn prop_service_contract(seed in 0u64..2_000, factor in 0.4_f64..1.5) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 8, 6));
        let (app, pf) = gen.instance(seed, 0);
        let prepared = PreparedInstance::new(app, pf);
        let bound = factor * prepared.single_proc_period();
        match prepared.solve(&SolveRequest::new(Objective::MinLatencyForPeriod(bound))) {
            Ok(report) => {
                prop_assert!(report.result.feasible);
                prop_assert!(report.result.period <= bound + 1e-9);
                prop_assert!(report.result.latency >= prepared.optimal_latency() - 1e-9);
            }
            Err(pipeline_workflows::core::SolveError::BoundBelowFloor { bound: b, floor }) => {
                prop_assert_eq!(b, bound);
                prop_assert!(floor > bound);
                // Re-asking at the reported floor must succeed.
                let retry = prepared
                    .solve(&SolveRequest::new(Objective::MinLatencyForPeriod(floor)));
                prop_assert!(retry.is_ok(), "floor {floor} not satisfiable: {retry:?}");
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Refinement is monotone in the period and honours the latency
    /// budget, for arbitrary heuristic outputs.
    #[test]
    fn prop_refinement_contract(seed in 0u64..2_000, slack in 1.0_f64..1.5) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 10, 8));
        let (app, pf) = gen.instance(seed, 0);
        let cm = CostModel::new(&app, &pf);
        let base = pipeline_workflows::core::sp_mono_p_in(&cm, 0.0, &mut SolveWorkspace::new());
        let budget = base.latency * slack;
        let refined = refine_mapping(&cm, &base.mapping, budget);
        prop_assert!(refined.period <= base.period + 1e-9);
        prop_assert!(refined.latency <= budget + 1e-9);
    }
}
