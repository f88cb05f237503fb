//! Differential tests for the simulator's one event loop
//! (`pipeline_sim::faults`). With an **empty fault plan** it must
//! reproduce the fault-free reference loop (`support/clean_sim.rs`) bit
//! for bit — same starts, completions, busy times, makespan and trace —
//! through both entry points: `PipelineSim` and an empty-plan
//! `FaultedSim`. The fault hooks return their nominal inputs when the
//! plan is empty; these tests pin that claim operationally on every
//! registered scenario family under saturating, periodic and explicit
//! release-time sources, on best-of-all mappings at the chaos-replan
//! sizes (n = 60 and 120, p = n/2, where a mapping has tens of stations
//! and the loop's event-local greedy must still start exactly what the
//! oracle's full scan starts), on the hand-computed two-interval fixture,
//! and on proptest-generated instances.

#[path = "support/chaos_incumbents.rs"]
mod chaos_incumbents;
#[path = "support/clean_sim.rs"]
mod clean_sim;

use chaos_incumbents::for_each_chaos_incumbent;
use clean_sim::clean_sim;
use proptest::prelude::*;

use pipeline_workflows::core::{HeuristicKind, SolveWorkspace};
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_workflows::model::{Application, CostModel, Interval, IntervalMapping, Platform};
use pipeline_workflows::sim::{
    FaultPlan, FaultedSim, InputPolicy, PipelineSim, SimConfig, SimReport, TraceEvent,
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

/// Bitwise equality of two traces.
fn assert_traces_identical(a: &[TraceEvent], b: &[TraceEvent], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: trace length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.proc == y.proc
                && x.kind == y.kind
                && x.dataset == y.dataset
                && x.start.to_bits() == y.start.to_bits()
                && x.end.to_bits() == y.end.to_bits(),
            "{ctx}: trace[{i}]: {x:?} vs {y:?}"
        );
    }
}

/// Runs the reference loop, `PipelineSim` and an empty-plan `FaultedSim`
/// on `mapping` with tracing on, and asserts bitwise identity.
fn check_identity(cm: &CostModel<'_>, mapping: &IntervalMapping, input: InputPolicy, ctx: &str) {
    const N: usize = 40;
    let config = SimConfig {
        input,
        record_trace: true,
    };
    let (oracle, oracle_trace) = clean_sim(cm, mapping, &config, N);
    assert!(!oracle_trace.is_empty(), "{ctx}: trace recorded");

    let base = PipelineSim::new(cm, mapping, config.clone()).run(N);
    let ctx_base = format!("{ctx} [PipelineSim]");
    assert_reports_identical(&oracle, &base.report, &ctx_base);
    assert_traces_identical(&oracle_trace, &base.trace, &ctx_base);

    let faulted = FaultedSim::new(cm, mapping, config, FaultPlan::empty()).run(N);
    let ctx_faulted = format!("{ctx} [FaultedSim]");
    assert_eq!(faulted.degraded.offered, N, "{ctx_faulted}: offered");
    assert_eq!(faulted.degraded.completed, N, "{ctx_faulted}: completed");
    assert_eq!(faulted.degraded.dropped, 0, "{ctx_faulted}: dropped");
    assert_reports_identical(&oracle, &faulted.degraded.report, &ctx_faulted);
    assert_traces_identical(&oracle_trace, &faulted.trace, &ctx_faulted);
}

/// The three source policies at `period`: saturating, periodic, and
/// explicit release times in bursts of three every two periods (so the
/// pipeline alternates between queueing and idling).
fn policies(period: f64) -> [(&'static str, InputPolicy); 3] {
    let releases = (0..40).map(|d| (d / 3) as f64 * 2.0 * period).collect();
    [
        ("saturating", InputPolicy::Saturating),
        ("periodic", InputPolicy::Periodic(period)),
        ("release-times", InputPolicy::ReleaseTimes(releases)),
    ]
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
                for (policy_name, policy) in policies(period) {
                    check_identity(
                        &cm,
                        &res.mapping,
                        policy,
                        &format!("{family} #{index} {kind} {policy_name}"),
                    );
                }
            }
        }
    }
}

/// The chaos-replan corpus's bases (`tests/support/chaos_incumbents.rs`).
#[test]
fn empty_fault_plan_is_bit_identical_at_chaos_replan_sizes() {
    for_each_chaos_incumbent(1007, 2, |family, n, index, cm, mapping, _| {
        let m = mapping.n_intervals();
        for (policy_name, policy) in policies(cm.period(mapping)) {
            check_identity(
                cm,
                mapping,
                policy,
                &format!("{family} n={n} #{index} m={m} {policy_name}"),
            );
        }
    });
}

/// The hand-computed two-interval instance of the simulator's unit
/// tests: interval 1 cycle = 6, interval 2 cycle = 8, latency = 12.
#[test]
fn empty_fault_plan_is_bit_identical_on_the_two_interval_fixture() {
    let app = Application::new(vec![4.0, 8.0, 2.0], vec![2.0, 6.0, 4.0, 10.0]).unwrap();
    let pf = Platform::comm_homogeneous(vec![2.0, 4.0], 2.0).unwrap();
    let mapping = IntervalMapping::new(
        &app,
        &pf,
        vec![Interval::new(0, 2), Interval::new(2, 3)],
        vec![1, 0],
    )
    .unwrap();
    let cm = CostModel::new(&app, &pf);
    for (policy_name, policy) in policies(cm.period(&mapping)) {
        check_identity(&cm, &mapping, policy, &format!("fixture {policy_name}"));
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
        check_identity(&cm, &mapping, InputPolicy::Saturating, &format!("{family} seed {seed} #{index}"));
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
                Interval::new(0, cut),
                Interval::new(cut, n),
            ],
            vec![0, 1],
        )
        .unwrap();
        let cm = CostModel::new(&app, &pf);
        check_identity(&cm, &mapping, InputPolicy::Saturating, "two-interval");
    }
}
