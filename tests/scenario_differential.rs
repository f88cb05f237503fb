//! Differential test across the scenario zoo: for **every registered
//! family**, execute each applicable heuristic's mapping in the
//! discrete-event simulator and check the simulated period and latency
//! against the analytic cost model (eqs. 1–2).
//!
//! This is the operational proof that the zoo's new workloads — including
//! the degenerate zero-communication `adversarial` family and the fully
//! heterogeneous `two-tier`/`comm-dominant` platforms — still describe
//! realizable schedules: the analytic numbers every sweep reports are
//! what a one-port execution actually achieves.

use pipeline_workflows::core::HeuristicKind;
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_workflows::model::{CostModel, IntervalMapping};
use pipeline_workflows::sim::{InputPolicy, PipelineSim, SimConfig};

/// Relative tolerance in the spirit of the model's `EPS`: the simulator
/// only adds and divides the same quantities as the cost model, so
/// agreement must be at rounding-noise level.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Every heuristic mapping to cross-check on this instance: the paper's
/// six on Communication Homogeneous platforms, plus the §7 extension
/// everywhere (it is the only one applicable to heterogeneous links).
fn mappings_under_test(cm: &CostModel<'_>) -> Vec<(String, IntervalMapping)> {
    let p_init = cm.single_proc_period();
    let l_opt = cm.optimal_latency();
    let mut out = Vec::new();
    for kind in HeuristicKind::ALL
        .into_iter()
        .chain([HeuristicKind::HeteroSplit])
    {
        if !kind.applicable_to(cm.platform()) {
            continue;
        }
        let targets = if kind.is_period_fixed() {
            [0.6 * p_init, 1.5 * p_init]
        } else {
            [1.5 * l_opt, 3.0 * l_opt]
        };
        for (t, target) in targets.into_iter().enumerate() {
            // The mapping is valid whether or not the target was met.
            let res = kind.run_in(cm, target, &mut SolveWorkspace::new());
            out.push((format!("{kind}@t{t}"), res.mapping));
        }
    }
    out
}

#[test]
fn simulated_period_and_latency_match_analytic_for_every_family() {
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(family.params(8, 6));
        for index in 0..2 {
            let (app, pf) = gen.instance(2026, index);
            let cm = CostModel::new(&app, &pf);
            for (name, mapping) in mappings_under_test(&cm) {
                let period = cm.period(&mapping);
                let latency = cm.latency(&mapping);

                // Saturating source: the steady-state inter-completion
                // time is eq. 1's period, and the first data set (which
                // never waits) sees exactly eq. 2's latency.
                let out = PipelineSim::new(&cm, &mapping, SimConfig::default()).run(40);
                let steady = out.report.steady_period().expect("40 data sets");
                assert!(
                    close(steady, period),
                    "{family}/{name} #{index}: steady period {steady} vs analytic {period}"
                );
                assert!(
                    close(out.report.latency(0), latency),
                    "{family}/{name} #{index}: first latency {} vs analytic {latency}",
                    out.report.latency(0)
                );

                // Source throttled at the analytic period: every data set
                // experiences exactly the analytic latency.
                let throttled = PipelineSim::new(
                    &cm,
                    &mapping,
                    SimConfig {
                        input: InputPolicy::Periodic(period),
                        record_trace: false,
                    },
                )
                .run(16);
                for (d, l) in throttled.report.latencies().into_iter().enumerate() {
                    assert!(
                        close(l, latency),
                        "{family}/{name} #{index}: data set {d} latency {l} vs analytic {latency}"
                    );
                }
            }
        }
    }
}

#[test]
fn zoo_class_split_matches_heuristic_applicability() {
    // The registry's platform-class flag is what gates which heuristics
    // the differential loop exercises — it must match the instances.
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(family.params(5, 4));
        let (_, pf) = gen.instance(1, 0);
        assert_eq!(pf.is_comm_homogeneous(), family.comm_homogeneous());
        assert!(HeuristicKind::HeteroSplit.applicable_to(&pf));
        assert_eq!(
            HeuristicKind::SpMonoP.applicable_to(&pf),
            family.comm_homogeneous()
        );
    }
}
