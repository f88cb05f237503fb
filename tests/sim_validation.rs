//! Cross-crate validation of the discrete-event simulator against the
//! analytic cost model, over random instances and mappings from every
//! heuristic — the "real experiments" the paper leaves as future work,
//! run in silico.

use pipeline_workflows::core::HeuristicKind;
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::CostModel;
use pipeline_workflows::sim::{InputPolicy, PipelineSim, SimConfig};
use proptest::prelude::*;

#[test]
fn analytic_period_is_operationally_achievable_everywhere() {
    // eq. 1 is not just a formula: the saturating greedy schedule
    // *achieves* it, for all regimes, sizes and heuristics.
    for kind in ExperimentKind::ALL {
        for (n, p) in [(5, 4), (12, 8), (20, 10)] {
            let gen = InstanceGenerator::new(InstanceParams::paper(kind, n, p));
            let (app, pf) = gen.instance(0x51u64, 0);
            let cm = CostModel::new(&app, &pf);
            let res = pipeline_workflows::core::three_explo_bi_in(
                &cm,
                0.5 * cm.single_proc_period(),
                &mut SolveWorkspace::new(),
            );
            let out = PipelineSim::new(&cm, &res.mapping, SimConfig::default()).run(60);
            let steady = out.report.steady_period().unwrap();
            assert!(
                (steady - res.period).abs() < 1e-6 * res.period,
                "{kind} n={n} p={p}: steady {steady} vs analytic {}",
                res.period
            );
            // The strict witness too: no late gap exceeds the period.
            assert!(
                out.report.steady_period_max().unwrap() <= res.period + 1e-6 * res.period,
                "{kind} n={n} p={p}: max steady gap exceeds the period"
            );
        }
    }
}

#[test]
fn one_port_serialization_holds_under_all_heuristics() {
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 10, 8));
    let (app, pf) = gen.instance(3, 0);
    let cm = CostModel::new(&app, &pf);
    for kind in HeuristicKind::ALL {
        let target = if kind.is_period_fixed() {
            0.6 * cm.single_proc_period()
        } else {
            2.0 * cm.optimal_latency()
        };
        let res = kind.run_in(&cm, target, &mut SolveWorkspace::new());
        let out = PipelineSim::new(
            &cm,
            &res.mapping,
            SimConfig {
                input: InputPolicy::Saturating,
                record_trace: true,
            },
        )
        .run(20);
        // No processor ever has two overlapping activity spans.
        for &u in res.mapping.procs() {
            let mut spans: Vec<(f64, f64)> = out
                .trace
                .iter()
                .filter(|e| e.proc == u)
                .map(|e| (e.start, e.end))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                assert!(
                    w[0].1 <= w[1].0 + 1e-9,
                    "{kind}: P{u} overlapping spans {w:?}"
                );
            }
        }
    }
}

#[test]
fn busy_time_accounts_for_all_service_demand() {
    // Conservation: a processor's total busy time equals
    // n_datasets × (its receive + compute + send times).
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 8, 6));
    let (app, pf) = gen.instance(17, 0);
    let cm = CostModel::new(&app, &pf);
    let res = pipeline_workflows::core::sp_mono_p_in(
        &cm,
        0.7 * cm.single_proc_period(),
        &mut SolveWorkspace::new(),
    );
    let n_data = 12usize;
    let out = PipelineSim::new(&cm, &res.mapping, SimConfig::default()).run(n_data);
    for (j, (iv, u)) in res.mapping.assignments().enumerate() {
        let c = cm.cycle_time(&res.mapping, j);
        let _ = iv;
        let expected = c * n_data as f64;
        let got = out.report.busy.get(&u).copied().unwrap_or(0.0);
        assert!(
            (got - expected).abs() < 1e-6 * expected,
            "P{u}: busy {got} vs expected {expected}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// For random instances and random period-fixed targets, the
    /// simulator reproduces both analytic metrics.
    #[test]
    fn prop_simulator_matches_cost_model(
        seed in 0u64..10_000,
        factor in 0.35_f64..1.0,
        kind_idx in 0usize..4,
    ) {
        let kind = ExperimentKind::ALL[kind_idx];
        let gen = InstanceGenerator::new(InstanceParams::paper(kind, 9, 6));
        let (app, pf) = gen.instance(seed, 0);
        let cm = CostModel::new(&app, &pf);
        let res = pipeline_workflows::core::sp_mono_p_in(&cm, factor * cm.single_proc_period(), &mut SolveWorkspace::new());
        let out = PipelineSim::new(&cm, &res.mapping, SimConfig::default()).run(30);
        let steady = out.report.steady_period().unwrap();
        prop_assert!((steady - res.period).abs() < 1e-6 * res.period);
        prop_assert!((out.report.latency(0) - res.latency).abs() < 1e-6 * res.latency.max(1.0));
    }

    /// Throttling at or above the period keeps every latency at the
    /// analytic value; throttling *below* the period cannot (queues
    /// build), so the max latency grows.
    #[test]
    fn prop_throttling_behaviour(
        seed in 0u64..10_000,
    ) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 8, 6));
        let (app, pf) = gen.instance(seed, 0);
        let cm = CostModel::new(&app, &pf);
        let res = pipeline_workflows::core::sp_mono_p_in(&cm, 0.6 * cm.single_proc_period(), &mut SolveWorkspace::new());
        if res.mapping.n_intervals() < 2 {
            // Single station: no queueing distinction to observe.
            return Ok(());
        }
        let at_period = PipelineSim::new(
            &cm,
            &res.mapping,
            SimConfig { input: InputPolicy::Periodic(res.period), record_trace: false },
        ).run(25);
        prop_assert!(
            (at_period.report.max_latency() - res.latency).abs()
                < 1e-6 * res.latency.max(1.0)
        );
        let overdriven = PipelineSim::new(
            &cm,
            &res.mapping,
            SimConfig { input: InputPolicy::Periodic(res.period * 0.5), record_trace: false },
        ).run(25);
        prop_assert!(overdriven.report.max_latency() >= res.latency - 1e-9);
    }
}
