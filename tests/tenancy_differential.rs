//! Differential tests of the multi-tenant co-scheduler.
//!
//! * On every tenant-zoo family, on K=2 sets drawn from every classic
//!   scenario family and on the serve corpus's tenant groups (K=3, p=8,
//!   n=10–16), the heuristic partitioner must never be *strictly
//!   better* than the exhaustive oracle (the oracle is optimal, so a
//!   "win" for the heuristic means the two disagree on the objective),
//!   and both must return partitions that disjointly cover the whole
//!   platform.
//! * Over random tenant sets, weights, SLOs and inner strategies, the
//!   partitioner equals the rescore-every-tenant loop of
//!   `support/rescore_partitioner.rs` bit for bit, failures included;
//!   and every schedule covers the platform.

#[path = "support/rescore_partitioner.rs"]
mod rescore_partitioner;

use std::sync::Arc;

use pipeline_workflows::core::service::PreparedInstance;
use pipeline_workflows::core::tenancy::{
    CoSchedOptions, CoSchedule, PartitionObjective, TenancyError, Tenant, TenantSet,
};
use pipeline_workflows::core::{HeuristicKind, SolveWorkspace, Strategy};
use pipeline_workflows::model::scenario::{
    ScenarioFamily, ScenarioGenerator, ScenarioParams, TenantFamily, TenantScenarioGenerator,
};
use pipeline_workflows::model::util::{approx_eq, approx_le, definitely_lt};
use pipeline_workflows::model::{ExperimentKind, InstanceGenerator, InstanceParams};

use proptest::prelude::*;
use rescore_partitioner::rescore_co_schedule;

/// `exact <= heur` in the co-scheduler's lexicographic (score, tiebreak)
/// order, up to `EPS`: the oracle is allowed to tie the heuristic but
/// the heuristic may never strictly beat the oracle.
fn oracle_not_beaten(exact: &CoSchedule, heur: &CoSchedule) -> bool {
    definitely_lt(exact.score, heur.score)
        || (approx_eq(exact.score, heur.score) && approx_le(exact.tiebreak, heur.tiebreak))
}

/// Asserts the per-tenant processor lists disjointly cover `0..p`.
fn assert_disjoint_cover(sched: &CoSchedule, p: usize, context: &str) {
    let mut seen = vec![false; p];
    for outcome in &sched.tenants {
        assert!(!outcome.procs.is_empty(), "{context}: empty tenant share");
        for &u in &outcome.procs {
            assert!(u < p, "{context}: processor {u} out of range");
            assert!(!seen[u], "{context}: processor {u} assigned twice");
            seen[u] = true;
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "{context}: partition does not cover the platform"
    );
}

fn check_set(set: &TenantSet, context: &str, ws: &mut SolveWorkspace) {
    for objective in PartitionObjective::ALL {
        check_objective(set, objective, &CoSchedOptions::default(), context, ws);
    }
}

fn check_objective(
    set: &TenantSet,
    objective: PartitionObjective,
    opts: &CoSchedOptions,
    context: &str,
    ws: &mut SolveWorkspace,
) {
    let p = set.n_procs();
    let heur = set
        .co_schedule(objective, opts, ws)
        .unwrap_or_else(|e| panic!("{context}/{objective}: heuristic failed: {e}"));
    let exact = set
        .co_schedule_exact(objective, opts, ws)
        .unwrap_or_else(|e| panic!("{context}/{objective}: exact failed: {e}"));
    assert_disjoint_cover(&heur, p, context);
    assert_disjoint_cover(&exact, p, context);
    assert!(
        oracle_not_beaten(&exact, &heur),
        "{context}/{objective}: heuristic ({}, {}) strictly beats the \
         exhaustive oracle ({}, {})",
        heur.score,
        heur.tiebreak,
        exact.score,
        exact.tiebreak
    );
}

/// Every bit of a co-schedule: score, tiebreak, feasibility, and each
/// tenant's share, period, latency, SLO flag and solver.
fn schedule_bits(sched: &CoSchedule) -> Vec<String> {
    let head = format!(
        "{} {:016x} {:016x} {}",
        sched.objective,
        sched.score.to_bits(),
        sched.tiebreak.to_bits(),
        sched.feasible
    );
    let tenants = sched.tenants.iter().map(|t| {
        format!(
            "{:?} {:016x} {:016x} {} {}",
            t.procs,
            t.period.to_bits(),
            t.latency.to_bits(),
            t.slo_met,
            t.solver.code()
        )
    });
    [head].into_iter().chain(tenants).collect()
}

fn bits_of(result: &Result<CoSchedule, TenancyError>) -> Result<Vec<String>, TenancyError> {
    result.as_ref().map(schedule_bits).map_err(Clone::clone)
}

#[test]
fn heuristic_never_beats_the_oracle_on_the_tenant_zoo() {
    let mut ws = SolveWorkspace::new();
    for family in TenantFamily::ALL {
        for (tenants, n_base, procs) in [(2usize, 5usize, 4usize), (2, 8, 6), (3, 6, 5)] {
            let gen = TenantScenarioGenerator::new(family, tenants, n_base, procs);
            for seed in 0..3u64 {
                let scenario = gen.scenario(seed, 0);
                let set = TenantSet::new(
                    scenario
                        .tenants
                        .iter()
                        .map(|spec| {
                            let prepared = Arc::new(PreparedInstance::new(
                                spec.app.clone(),
                                scenario.platform.clone(),
                            ));
                            let mut tenant = Tenant::new(prepared).weight(spec.weight);
                            if let Some(slo) = spec.slo {
                                tenant = tenant.slo(slo);
                            }
                            tenant
                        })
                        .collect(),
                )
                .expect("tenant zoo sets are valid");
                let context = format!("{family} K={tenants} n={n_base} p={procs} seed={seed}");
                check_set(&set, &context, &mut ws);
            }
        }
    }
}

#[test]
fn heuristic_never_beats_the_oracle_on_classic_zoo_pairs() {
    let mut ws = SolveWorkspace::new();
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(ScenarioParams::preset(family, 6, 5));
        for seed in 0..2u64 {
            // Two independent apps co-scheduled on the first draw's
            // platform: tenants must share one platform by construction.
            let (app_a, platform) = gen.instance(seed, 0);
            let (app_b, _) = gen.instance(seed, 1);
            let set = TenantSet::new(vec![
                Tenant::new(Arc::new(PreparedInstance::new(app_a, platform.clone()))).weight(2.0),
                Tenant::new(Arc::new(PreparedInstance::new(app_b, platform))),
            ])
            .expect("zoo pair is a valid tenant set");
            let context = format!("{family} pair seed={seed}");
            check_set(&set, &context, &mut ws);
        }
    }
}

/// The serve corpus's tenant groups: an E1–E4 pipeline at n=16 plus an E3
/// pipeline at n=10 and a power-law one at n=12, all on the zoo
/// instance's p=8 platform, under the corpus's strategies (h1 for the
/// period objectives, h5 and h6 for SLOs on the first tenant).
#[test]
fn heuristic_never_beats_the_oracle_on_serve_tenant_groups() {
    let mut ws = SolveWorkspace::new();
    for (g, family) in [
        ScenarioFamily::E1,
        ScenarioFamily::E2,
        ScenarioFamily::E3,
        ScenarioFamily::E4,
    ]
    .into_iter()
    .enumerate()
    {
        let (base, platform) =
            ScenarioGenerator::new(ScenarioParams::preset(family, 16, 8)).instance(1, g as u64);
        let apps = [(ScenarioFamily::E3, 10), (ScenarioFamily::PowerLawWork, 12)].map(|(f, n)| {
            ScenarioGenerator::new(ScenarioParams::preset(f, n, 8))
                .instance(1, 100 + g as u64)
                .0
        });
        let prepared: Vec<Arc<PreparedInstance>> = [base]
            .into_iter()
            .chain(apps)
            .map(|app| Arc::new(PreparedInstance::new(app, platform.clone())))
            .collect();
        let set = |weights: [f64; 3], slo: Option<f64>| {
            let tenants = prepared.iter().zip(weights).enumerate().map(|(i, (t, w))| {
                let tenant = Tenant::new(Arc::clone(t)).weight(w);
                match slo {
                    Some(slo) if i == 0 => tenant.slo(slo),
                    _ => tenant,
                }
            });
            TenantSet::new(tenants.collect()).expect("serve groups are valid tenant sets")
        };
        let l_opt = prepared[0].optimal_latency();
        let cases = [
            (
                PartitionObjective::MaxMinWeightedPeriod,
                HeuristicKind::SpMonoP,
                [1.0; 3],
                None,
            ),
            (
                PartitionObjective::WeightedSumPeriod,
                HeuristicKind::SpMonoP,
                [3.0, 1.0, 2.0],
                None,
            ),
            (
                PartitionObjective::LatencySloFeasibility,
                HeuristicKind::SpMonoL,
                [1.0; 3],
                Some(1.5 * l_opt),
            ),
            (
                PartitionObjective::LatencySloFeasibility,
                HeuristicKind::SpBiL,
                [1.0; 3],
                Some(1.1 * l_opt),
            ),
        ];
        for (objective, kind, weights, slo) in cases {
            let opts = CoSchedOptions {
                strategy: Strategy::Heuristic(kind),
                ..CoSchedOptions::default()
            };
            let context = format!("serve group {family} {kind:?}");
            check_objective(&set(weights, slo), objective, &opts, &context, &mut ws);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the shape of the tenant set — sizes, weights, SLOs —
    /// every schedule the heuristic returns partitions the platform:
    /// disjoint per-tenant shares, nothing idle, nothing shared.
    #[test]
    fn every_co_schedule_is_a_disjoint_cover(
        tenants in 2usize..=4,
        procs in 4usize..=6,
        seed in 0u64..1000,
        weights in proptest::collection::vec(0.1f64..8.0, 4),
        // Below 1.1 means "no SLO" — the vendored proptest has no
        // Option strategy, so the gap doubles as the None arm.
        slo_factor in 0.5f64..4.0,
    ) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 5, procs));
        let (_, platform) = gen.instance(seed, 0);
        let set = TenantSet::new(
            (0..tenants)
                .map(|i| {
                    let (app, _) = gen.instance(seed, i as u64);
                    let prepared = Arc::new(PreparedInstance::new(app, platform.clone()));
                    let l_opt = prepared.optimal_latency();
                    let mut tenant = Tenant::new(prepared).weight(weights[i]);
                    if slo_factor >= 1.1 {
                        tenant = tenant.slo(slo_factor * l_opt);
                    }
                    tenant
                })
                .collect(),
        )
        .expect("generated tenant sets are valid");
        let opts = CoSchedOptions::default();
        let mut ws = SolveWorkspace::new();
        for objective in PartitionObjective::ALL {
            let sched = set.co_schedule(objective, &opts, &mut ws).expect("schedules");
            assert_disjoint_cover(&sched, procs, &format!("{objective} seed={seed}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the shape of the tenant set — family, sizes, weights,
    /// SLOs, inner strategy — the partitioner returns exactly what
    /// rescoring every tenant of every candidate returns, the same
    /// failure included.
    #[test]
    fn co_schedule_equals_the_rescore_loop(
        family in 0usize..3,
        tenants in 2usize..=4,
        n_base in 4usize..=7,
        procs in 4usize..=8,
        seed in 0u64..1000,
        strategy in 0usize..5,
        weights in proptest::collection::vec(0.1f64..8.0, 4),
        // Below 1.1 means "no SLO" — the vendored proptest has no
        // Option strategy, so the gap doubles as the None arm.
        slo_factors in proptest::collection::vec(0.5f64..4.0, 4),
    ) {
        let family = TenantFamily::ALL[family];
        // The paper heuristics need a Communication Homogeneous platform:
        // on het-sharing's clustered one the §7 extension stands in.
        let strategy = match (family, ["h1", "h5", "h6", "best-of-all", "auto"][strategy]) {
            (TenantFamily::HetSharing, "h1" | "h5" | "h6") => "h7",
            (_, label) => label,
        };
        // Only the latency-fixed heuristics take an SLO, and best-of-all
        // has none of them on the clustered platform.
        let slos = match strategy {
            "h5" | "h6" => true,
            "best-of-all" | "auto" => family != TenantFamily::HetSharing,
            _ => false,
        };
        let scenario = TenantScenarioGenerator::new(family, tenants, n_base, procs).scenario(seed, 0);
        let set = TenantSet::new(
            scenario
                .tenants
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let prepared =
                        Arc::new(PreparedInstance::new(spec.app.clone(), scenario.platform.clone()));
                    let l_opt = prepared.optimal_latency();
                    let mut tenant = Tenant::new(prepared).weight(weights[i]);
                    if slos && slo_factors[i] >= 1.1 {
                        tenant = tenant.slo(slo_factors[i] * l_opt);
                    }
                    tenant
                })
                .collect(),
        )
        .expect("generated tenant sets are valid");
        let opts = CoSchedOptions {
            strategy: strategy.parse().expect("a strategy"),
            ..CoSchedOptions::default()
        };
        let mut ws = SolveWorkspace::new();
        for objective in PartitionObjective::ALL {
            let context = format!("{family} K={tenants} n={n_base} p={procs} seed={seed} {strategy} {objective}");
            let got = set.co_schedule(objective, &opts, &mut ws);
            let want = rescore_co_schedule(&set, objective, &opts, &mut ws);
            assert_eq!(bits_of(&got), bits_of(&want), "{context}");
        }
    }
}
