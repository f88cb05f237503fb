//! The deterministic results of the paper's comparison of heuristics
//! with exact solutions, pinned against `tests/fixtures/bench_identity.ref`
//! (one `key value` line per value; run with `KERNEL_IDENTITY_REGEN=1`
//! to regenerate after a deliberate change, and say which values moved):
//!
//! * `kernel <id> min_period_bits` — the exact minimum period of E2 zoo
//!   instances (n = 10–16 at p = 6, n = 18–30 at p = 16) and of E1
//!   stages on a uniform 16-processor cluster (n = 20–30), bit for bit;
//! * `kernel <id> front_points` — the size of the exact Pareto front on
//!   the same rows up to n = 24, exactly. Computing it keeps a pruning
//!   regression of the exact frontier visible as this test's wall time;
//! * `failover <n> <fault> period_ratio` — the post-fault period over
//!   nominal after a warm replan (`tests/support/failover.rs`), to six
//!   decimals;
//! * `tenant <family> <objective> mean_ratio` — the exact-over-heuristic
//!   co-scheduling score ratio over the tenant zoo, at most 0.05 below
//!   the fixture;
//! * `sweep <family> <heuristic> hypervolume_ratio` / `distance` — each
//!   heuristic's front against the exact front at n = 12, p = 8, at most
//!   0.05 worse than the fixture.
//!
//! Every key must be in both the fixture and the current run.

#[path = "support/failover.rs"]
mod failover;

use std::collections::BTreeMap;
use std::sync::Arc;

use pipeline_workflows::core::service::PreparedInstance;
use pipeline_workflows::core::tenancy::{CoSchedOptions, PartitionObjective, Tenant, TenantSet};
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::experiments::{
    exact_min_period_sharded, exact_pareto_front_sharded, run_scenario, ShardOptions,
};
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::scenario::{ScenarioFamily, TenantFamily, TenantScenarioGenerator};
use pipeline_workflows::model::util::{approx_eq, approx_le};
use pipeline_workflows::model::{CostModel, Platform};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/bench_identity.ref"
);

/// Exact fronts are computed up to this many stages.
const FRONT_N_MAX: usize = 24;

/// The exact rows: min period on every row, front size up to
/// [`FRONT_N_MAX`].
fn kernel_lines(lines: &mut Vec<String>) {
    let threads = ShardOptions::with_threads(2);
    let mut row = |id: String, cm: &CostModel<'_>, n: usize| {
        let (p_opt, _) = exact_min_period_sharded(cm, threads);
        lines.push(format!(
            "kernel {id} min_period_bits {:016x}",
            p_opt.to_bits()
        ));
        if n <= FRONT_N_MAX {
            let front = exact_pareto_front_sharded(cm, threads);
            lines.push(format!("kernel {id} front_points {}", front.len()));
        }
    };
    for n in (10..=30).step_by(2) {
        let p = if n <= 16 { 6 } else { 16 };
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
        let (app, pf) = gen.instance(1, 0);
        row(format!("zoo-n{n}-p{p}"), &CostModel::new(&app, &pf), n);
    }
    for n in [20, 24, 28, 30] {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, n, 16));
        let (app, _) = gen.instance(1, 0);
        let pf = Platform::comm_homogeneous(vec![10.0; 16], 10.0).expect("valid platform");
        row(format!("uniform-n{n}-p16"), &CostModel::new(&app, &pf), n);
    }
}

fn failover_lines(lines: &mut Vec<String>) {
    let mut ws = SolveWorkspace::new();
    for case in failover::failover_cases() {
        let ratio = case.replan(&mut ws).period_ratio();
        lines.push(format!(
            "failover {} {} period_ratio {ratio:.6}",
            case.n, case.label
        ));
    }
}

/// Heuristic vs exhaustive co-scheduling on two small tenant-zoo cases
/// per (family, objective). Equal scores fall through to the tiebreak,
/// as in the co-scheduler's own lexicographic order.
fn tenant_lines(lines: &mut Vec<String>) {
    // (tenants, base stages, processors): small enough for the K^p
    // oracle, big enough that the heuristic can choose wrong.
    let cases = [(2, 5, 4), (3, 6, 5)];
    let opts = CoSchedOptions::default();
    let mut ws = SolveWorkspace::new();
    for family in TenantFamily::ALL {
        let sets: Vec<TenantSet> = cases
            .iter()
            .map(|&(k, n_base, p)| {
                let scenario = TenantScenarioGenerator::new(family, k, n_base, p).scenario(2007, 0);
                let tenants = scenario.tenants.iter().map(|spec| {
                    let prepared =
                        PreparedInstance::new(spec.app.clone(), scenario.platform.clone());
                    let tenant = Tenant::new(Arc::new(prepared)).weight(spec.weight);
                    match spec.slo {
                        Some(slo) => tenant.slo(slo),
                        None => tenant,
                    }
                });
                TenantSet::new(tenants.collect()).expect("valid tenant set")
            })
            .collect();
        for objective in PartitionObjective::ALL {
            let mut sum = 0.0;
            for set in &sets {
                let heur = set
                    .co_schedule(objective, &opts, &mut ws)
                    .expect("heuristic");
                let exact = set
                    .co_schedule_exact(objective, &opts, &mut ws)
                    .expect("exact");
                sum += if !approx_eq(heur.score, exact.score) {
                    exact.score / heur.score
                } else if approx_le(heur.tiebreak, exact.tiebreak) || heur.tiebreak == 0.0 {
                    1.0
                } else {
                    exact.tiebreak / heur.tiebreak
                };
            }
            let mean = sum / sets.len() as f64;
            lines.push(format!(
                "tenant {} {} mean_ratio {mean:.4}",
                family.label(),
                objective.label()
            ));
        }
    }
}

fn sweep_lines(lines: &mut Vec<String>) {
    for family in ScenarioFamily::ALL {
        if !family.comm_homogeneous() {
            continue;
        }
        for q in &run_scenario(&family.params(12, 8), 2007, 10, 12, 2).quality {
            let id = format!("sweep {} {}", family.label(), q.kind.table_name());
            lines.push(format!("{id} hypervolume_ratio {:.4}", q.hypervolume_ratio));
            lines.push(format!("{id} distance {:.4}", q.distance));
        }
    }
}

/// Every pinned line of the current build, in fixture order.
fn current_lines() -> Vec<String> {
    let mut lines = Vec::new();
    kernel_lines(&mut lines);
    failover_lines(&mut lines);
    tenant_lines(&mut lines);
    sweep_lines(&mut lines);
    lines
}

/// Whether `got` may stand for the pinned `want` of `metric`.
fn holds(metric: &str, got: &str, want: &str) -> bool {
    let num = |s: &str| s.parse::<f64>().ok();
    match (metric, num(got), num(want)) {
        ("mean_ratio" | "hypervolume_ratio", Some(g), Some(w)) => g >= w - 0.05,
        ("distance", Some(g), Some(w)) => g <= w + 0.05,
        _ => got == want,
    }
}

/// One complaint per key that is missing on either side or whose value
/// breaks its metric's rule; empty when `current` matches `frozen`.
fn drift<S: AsRef<str>>(current: &[S], frozen: &str) -> Vec<String> {
    fn split(line: &str) -> (&str, &str) {
        line.rsplit_once(' ').expect("`key value` line")
    }
    let want: BTreeMap<&str, &str> = frozen.lines().map(split).collect();
    let got: BTreeMap<&str, &str> = current.iter().map(|l| split(l.as_ref())).collect();
    let mut complaints = Vec::new();
    for key in want.keys().filter(|k| !got.contains_key(*k)) {
        complaints.push(format!("{key}: not computed"));
    }
    for (key, g) in &got {
        let metric = key.rsplit(' ').next().expect("non-empty key");
        match want.get(key) {
            None => complaints.push(format!("{key}: not in the fixture")),
            Some(w) if !holds(metric, g, w) => complaints.push(format!("{key}: {g} vs pinned {w}")),
            Some(_) => {}
        }
    }
    complaints
}

#[test]
fn deterministic_bench_values_match_the_fixture() {
    let lines = current_lines();
    let text = lines.join("\n") + "\n";
    if std::env::var_os("KERNEL_IDENTITY_REGEN").is_some() {
        std::fs::write(FIXTURE, &text).expect("fixture writable");
        eprintln!("regenerated {} lines into {FIXTURE}", lines.len());
        return;
    }
    let frozen = fixture();
    let complaints = drift(&lines, &frozen);
    assert!(
        complaints.is_empty(),
        "{}\n\ncurrent values:\n{text}",
        complaints.join("\n")
    );
}

fn fixture() -> String {
    std::fs::read_to_string(FIXTURE).expect("tests/fixtures/bench_identity.ref")
}

/// Whether the fixture still passes against itself with `key`'s value
/// replaced by `edit(value)`.
fn passes(key: &str, edit: &dyn Fn(&str) -> String) -> bool {
    let frozen = fixture();
    let edited: Vec<String> = frozen
        .lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((k, v)) if k == key => format!("{k} {}", edit(v)),
            _ => line.to_string(),
        })
        .collect();
    assert!(
        edited.iter().ne(frozen.lines()),
        "{key} is not an edited pin"
    );
    drift(&edited, &frozen).is_empty()
}

fn num(v: &str) -> f64 {
    v.parse().expect("a number")
}

#[test]
fn the_fixture_passes_against_itself() {
    let frozen = fixture();
    let lines: Vec<&str> = frozen.lines().collect();
    assert_eq!(drift(&lines, &frozen), Vec::<String>::new());
}

/// Exact text: one flipped bit of a min period, one more front point.
#[test]
fn exact_pins_fail_on_a_one_bit_flip_or_one_more_front_point() {
    let flip = |v: &str| format!("{:016x}", u64::from_str_radix(v, 16).expect("hex") ^ 1);
    assert!(!passes("kernel zoo-n16-p6 min_period_bits", &flip));
    let more = |v: &str| (v.parse::<usize>().expect("a count") + 1).to_string();
    assert!(!passes("kernel uniform-n24-p16 front_points", &more));
}

#[test]
fn a_period_ratio_one_unit_off_in_the_sixth_decimal_fails() {
    let up = |v: &str| format!("{:.6}", num(v) + 1e-6);
    assert!(!passes("failover 60 loss-bottleneck period_ratio", &up));
}

/// Floors (worse is lower) and the ceiling (worse is higher) at 0.05.
#[test]
fn floors_and_ceilings_fail_just_past_their_bound() {
    for (key, worse) in [
        ("tenant skewed-weights max-min mean_ratio", -1.0),
        ("sweep e1 H2 hypervolume_ratio", -1.0),
        ("sweep e1 H2 distance", 1.0),
    ] {
        assert!(passes(key, &|v| format!("{:.4}", num(v) + worse * 0.0499)));
        assert!(!passes(key, &|v| format!("{:.4}", num(v) + worse * 0.0501)));
    }
}

#[test]
fn a_key_the_fixture_lacks_fails() {
    let frozen = fixture();
    let extra: Vec<&str> = frozen
        .lines()
        .chain(["kernel zoo-n32-p16 min_period_bits 0"])
        .collect();
    assert!(!drift(&extra, &frozen).is_empty());
}

#[test]
fn a_fixture_key_the_run_lacks_fails() {
    let frozen = fixture();
    let lines: Vec<&str> = frozen.lines().skip(1).collect();
    assert!(!drift(&lines, &frozen).is_empty());
}
