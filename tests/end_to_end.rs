//! End-to-end integration: generator → heuristics → simulator → metrics,
//! across every experiment regime of the paper.

use pipeline_workflows::core::HeuristicKind;
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::CostModel;
use pipeline_workflows::sim::{InputPolicy, PipelineSim, SimConfig};

#[test]
fn every_regime_schedules_and_simulates() {
    for kind in ExperimentKind::ALL {
        let gen = InstanceGenerator::new(InstanceParams::paper(kind, 10, 10));
        let (app, pf) = gen.instance(0xE2E, 0);
        let cm = CostModel::new(&app, &pf);
        let target = 0.6 * cm.single_proc_period();
        let res = pipeline_workflows::core::sp_mono_p_in(&cm, target, &mut SolveWorkspace::new());
        // Whether or not the target was met, the mapping must simulate
        // consistently with the analytic model.
        let out = PipelineSim::new(&cm, &res.mapping, SimConfig::default()).run(40);
        let steady = out.report.steady_period().expect("40 data sets");
        assert!(
            (steady - res.period).abs() < 1e-6 * res.period,
            "{kind}: simulated steady period {steady} vs analytic {}",
            res.period
        );
        assert!(
            (out.report.latency(0) - res.latency).abs() < 1e-6 * res.latency.max(1.0),
            "{kind}: unloaded latency mismatch"
        );
    }
}

#[test]
fn all_heuristics_round_trip_through_the_simulator() {
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 12, 10));
    let (app, pf) = gen.instance(7, 0);
    let cm = CostModel::new(&app, &pf);
    let p0 = cm.single_proc_period();
    let l0 = cm.optimal_latency();
    for kind in HeuristicKind::ALL {
        let target = if kind.is_period_fixed() {
            0.7 * p0
        } else {
            2.0 * l0
        };
        let res = kind.run_in(&cm, target, &mut SolveWorkspace::new());
        let out = PipelineSim::new(
            &cm,
            &res.mapping,
            SimConfig {
                input: InputPolicy::Periodic(res.period),
                record_trace: false,
            },
        )
        .run(25);
        // Throttled to the analytic period, the observed latency must be
        // exactly the analytic latency for every data set.
        assert!(
            (out.report.max_latency() - res.latency).abs() < 1e-6 * res.latency.max(1.0),
            "{kind}: throttled max latency {} vs analytic {}",
            out.report.max_latency(),
            res.latency
        );
    }
}

#[test]
fn throughput_scales_with_processors() {
    // More processors → the best reachable period shrinks (weakly), for
    // every regime. Statistical sanity over a few seeds.
    let mut ws = SolveWorkspace::new();
    for kind in [ExperimentKind::E1, ExperimentKind::E3] {
        let mut mean_small = 0.0;
        let mut mean_large = 0.0;
        let seeds = 5;
        for seed in 0..seeds {
            let (app_s, pf_s) =
                InstanceGenerator::new(InstanceParams::paper(kind, 20, 5)).instance(seed, 0);
            let (app_l, pf_l) =
                InstanceGenerator::new(InstanceParams::paper(kind, 20, 40)).instance(seed, 0);
            let cm_s = CostModel::new(&app_s, &pf_s);
            let cm_l = CostModel::new(&app_l, &pf_l);
            mean_small += pipeline_workflows::core::sp_mono_p_in(&cm_s, 0.0, &mut ws).period;
            mean_large += pipeline_workflows::core::sp_mono_p_in(&cm_l, 0.0, &mut ws).period;
        }
        assert!(
            mean_large <= mean_small * 1.01,
            "{kind}: 40 procs ({mean_large}) should beat 5 procs ({mean_small})"
        );
    }
}

#[test]
fn mapping_survives_instance_clone_and_revalidation() {
    // The mapping produced on one instance validates against an
    // identically regenerated instance (generator determinism end to end).
    let params = InstanceParams::paper(ExperimentKind::E4, 15, 10);
    let (app1, pf1) = InstanceGenerator::new(params).instance(9, 3);
    let (app2, pf2) = InstanceGenerator::new(params).instance(9, 3);
    let cm1 = CostModel::new(&app1, &pf1);
    let res = pipeline_workflows::core::sp_mono_l_in(
        &cm1,
        2.0 * cm1.optimal_latency(),
        &mut SolveWorkspace::new(),
    );
    let cm2 = CostModel::new(&app2, &pf2);
    let rebuilt = pipeline_workflows::model::IntervalMapping::new(
        &app2,
        &pf2,
        res.mapping.intervals().to_vec(),
        res.mapping.procs().to_vec(),
    )
    .expect("mapping must validate on the regenerated instance");
    assert!((cm2.period(&rebuilt) - res.period).abs() < 1e-12);
    assert!((cm2.latency(&rebuilt) - res.latency).abs() < 1e-12);
}
