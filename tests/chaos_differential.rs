//! Differential tests for the fault simulator (`pipeline_sim::faults`):
//! with an **empty fault plan** it must be a bit-for-bit drop-in for the
//! steady-state one-port simulator — same starts, completions, busy
//! times and makespan, on every registered scenario family, under both
//! source policies. The fault hooks are structured so the no-fault
//! branch evaluates exactly the original expressions in the original
//! event order; these tests pin that claim operationally, first on the
//! zoo, then on proptest-generated instances.

use proptest::prelude::*;

use pipeline_workflows::core::HeuristicKind;
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_workflows::model::{Application, CostModel, IntervalMapping, Platform};
use pipeline_workflows::sim::{
    FaultPlan, FaultedSim, InputPolicy, PipelineSim, SimConfig, SimReport,
};

/// Bitwise equality of two simulation reports.
fn assert_reports_identical(a: &SimReport, b: &SimReport, ctx: &str) {
    assert_eq!(a.start.len(), b.start.len(), "{ctx}: start length");
    for (i, (x, y)) in a.start.iter().zip(&b.start).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: start[{i}]");
    }
    assert_eq!(
        a.completion.len(),
        b.completion.len(),
        "{ctx}: completion length"
    );
    for (i, (x, y)) in a.completion.iter().zip(&b.completion).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: completion[{i}]");
    }
    assert_eq!(
        a.busy.keys().collect::<Vec<_>>(),
        b.busy.keys().collect::<Vec<_>>(),
        "{ctx}: busy processors"
    );
    for (proc, x) in &a.busy {
        assert_eq!(
            x.to_bits(),
            b.busy[proc].to_bits(),
            "{ctx}: busy time of P{proc}"
        );
    }
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{ctx}: makespan"
    );
}

/// Runs both simulators on `mapping` and asserts bitwise identity.
fn check_identity(cm: &CostModel<'_>, mapping: &IntervalMapping, config: SimConfig, ctx: &str) {
    let base = PipelineSim::new(cm, mapping, config.clone()).run(40).report;
    let faulted = FaultedSim::new(cm, mapping, config, FaultPlan::empty())
        .run(40)
        .degraded;
    assert_eq!(faulted.offered, 40, "{ctx}: offered");
    assert_eq!(faulted.completed, 40, "{ctx}: completed");
    assert_eq!(faulted.dropped, 0, "{ctx}: dropped");
    assert_reports_identical(&base, &faulted.report, ctx);
}

#[test]
fn empty_fault_plan_is_bit_identical_on_every_zoo_family() {
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(family.params(8, 6));
        for index in 0..2u64 {
            let (app, pf) = gen.instance(1007, index);
            let cm = CostModel::new(&app, &pf);
            for kind in HeuristicKind::ALL
                .into_iter()
                .chain([HeuristicKind::HeteroSplit])
            {
                if !kind.applicable_to(cm.platform()) {
                    continue;
                }
                let target = if kind.is_period_fixed() {
                    0.6 * cm.single_proc_period()
                } else {
                    2.0 * cm.optimal_latency()
                };
                let res = kind.run_in(&cm, target, &mut SolveWorkspace::new());
                let period = cm.period(&res.mapping);
                for (policy_name, policy) in [
                    ("saturating", InputPolicy::Saturating),
                    ("periodic", InputPolicy::Periodic(period)),
                ] {
                    let config = SimConfig {
                        input: policy,
                        record_trace: false,
                    };
                    check_identity(
                        &cm,
                        &res.mapping,
                        config,
                        &format!("{family} #{index} {kind} {policy_name}"),
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random zoo instances: the family index, generator seed and
    /// instance index are all drawn, so shrinking walks toward the
    /// smallest family/seed pair that breaks identity.
    #[test]
    fn empty_fault_plan_is_bit_identical_on_random_zoo_instances(
        family_idx in 0usize..ScenarioFamily::ALL.len(),
        seed in 0u64..1000,
        index in 0u64..4,
    ) {
        let family = ScenarioFamily::ALL[family_idx];
        let gen = ScenarioGenerator::new(family.params(6, 4));
        let (app, pf) = gen.instance(seed, index);
        let cm = CostModel::new(&app, &pf);
        let mapping = IntervalMapping::all_on_fastest(&app, &pf);
        let config = SimConfig { input: InputPolicy::Saturating, record_trace: false };
        check_identity(&cm, &mapping, config, &format!("{family} seed {seed} #{index}"));
    }

    /// Hand-rolled instances (not via the zoo generator) with a
    /// multi-interval mapping: identity must hold for any valid shape,
    /// not just generator output.
    #[test]
    fn empty_fault_plan_is_bit_identical_on_random_two_interval_instances(
        works in proptest::collection::vec(0.5f64..20.0, 4..8),
        speeds in proptest::collection::vec(1.0f64..10.0, 2..4),
        bandwidth in 1.0f64..10.0,
        cut_frac in 0.2f64..0.8,
    ) {
        let n = works.len();
        let deltas = vec![1.0; n + 1];
        let app = Application::new(works, deltas).unwrap();
        let pf = Platform::comm_homogeneous(speeds, bandwidth).unwrap();
        let cut = ((n as f64 * cut_frac) as usize).clamp(1, n - 1);
        let mapping = IntervalMapping::new(
            &app,
            &pf,
            vec![
                pipeline_workflows::model::Interval::new(0, cut),
                pipeline_workflows::model::Interval::new(cut, n),
            ],
            vec![0, 1],
        )
        .unwrap();
        let cm = CostModel::new(&app, &pf);
        let config = SimConfig { input: InputPolicy::Saturating, record_trace: false };
        check_identity(&cm, &mapping, config, "two-interval");
    }
}
