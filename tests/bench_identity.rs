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
//!   0.05 worse than the fixture;
//! * `chaos <instance> <plan> makespan_bits` / `completed` / `dropped` /
//!   `report_hash` — the fault simulator's run of a best-of-all incumbent
//!   (heavy-tail and E2 at n = 60 and 120, p = n/2, 100 data sets) under
//!   every named chaos plan and the empty plan, exactly: the makespan
//!   bits, the counts, and an FNV hash of the start, completion, busy and
//!   trace bits;
//! * `chaos study fingerprint` — `chaos_fingerprint` of one fixed
//!   `chaos_study`, exactly;
//! * `scenario <family>-n<n>-p<p> <index> instance_hash` — an FNV hash of
//!   the works, deltas, speeds and link bits of the first three
//!   instances of every zoo family at n = 10, p = 6 and at n = 6, p = 10,
//!   and (`<family>-k3-n6-p8`) of the first three 3-tenant scenarios of
//!   every tenant family with their weights and SLOs, exactly; they pin
//!   each family's sampling constants;
//! * `cosched <family>-k<K>-n<n>-p<p> <index> <strategy> <objective>
//!   fingerprint` — an FNV hash of the heuristic co-schedule of the
//!   first two scenarios of every tenant family at K = 2, 3 and 4 under
//!   h1, h5, h6, best-of-all and (at p ≤ 8) auto: the score, tiebreak
//!   and feasible bits, and each tenant's processors, period, latency,
//!   SLO flag and solver, exactly (the error code when it fails).
//!
//! Every key must be in both the fixture and the current run.

#[path = "support/chaos_incumbents.rs"]
mod chaos_incumbents;
#[path = "support/failover.rs"]
mod failover;

use chaos_incumbents::for_each_chaos_incumbent;
use std::collections::BTreeMap;
use std::sync::Arc;

use pipeline_workflows::core::service::PreparedInstance;
use pipeline_workflows::core::tenancy::{CoSchedOptions, PartitionObjective, Tenant, TenantSet};
use pipeline_workflows::core::{SolveWorkspace, Strategy};
use pipeline_workflows::experiments::{
    chaos_fingerprint, chaos_study, exact_min_period_sharded, exact_pareto_front_sharded,
    run_scenario, ChaosParams, ChaosPlanKind, ShardOptions,
};
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::scenario::{
    ScenarioFamily, ScenarioGenerator, TenantFamily, TenantScenario, TenantScenarioGenerator,
};
use pipeline_workflows::model::util::{approx_eq, approx_le};
use pipeline_workflows::model::{CostModel, LinkModel, Platform};
use pipeline_workflows::sim::{FaultPlan, FaultedSim, SimConfig};

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
                scenario_set(&TenantScenarioGenerator::new(family, k, n_base, p).scenario(2007, 0))
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

/// Data sets per pinned fault-simulator run.
const CHAOS_DATASETS: usize = 100;

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fault simulator on best-of-all incumbents at the chaos-replan
/// sizes, under every named plan (built against the bottleneck
/// processor, see `tests/support/chaos_incumbents.rs` for its tie rule)
/// and the empty plan; then one fixed chaos study.
fn chaos_lines(lines: &mut Vec<String>) {
    for_each_chaos_incumbent(2007, 1, |family, n, _, cm, incumbent, victim| {
        let period = cm.period(incumbent);
        let plans = ChaosPlanKind::ALL.map(|kind| {
            (
                kind.label(),
                kind.build(victim, period, CHAOS_DATASETS, 2007),
            )
        });
        for (label, plan) in [("empty", FaultPlan::empty())].into_iter().chain(plans) {
            let config = SimConfig {
                record_trace: true,
                ..SimConfig::default()
            };
            let out = FaultedSim::new(cm, incumbent, config, plan).run(CHAOS_DATASETS);
            let deg = &out.degraded;
            let report = &deg.report;
            let hash = fnv(report
                .start
                .iter()
                .chain(&report.completion)
                .map(|v| v.to_bits())
                .chain(
                    report
                        .busy
                        .iter()
                        .flat_map(|(&p, b)| [p as u64, b.to_bits()]),
                )
                .chain(out.trace.iter().flat_map(|e| {
                    [
                        e.proc as u64,
                        e.kind as u64,
                        e.dataset as u64,
                        e.start.to_bits(),
                        e.end.to_bits(),
                    ]
                })));
            let id = format!("chaos {}-n{n}-p{} {label}", family.label(), n / 2);
            lines.push(format!(
                "{id} makespan_bits {:016x}",
                report.makespan.to_bits()
            ));
            lines.push(format!("{id} completed {}", deg.completed));
            lines.push(format!("{id} dropped {}", deg.dropped));
            lines.push(format!("{id} report_hash {hash:016x}"));
        }
    });
    let rows = chaos_study(&ChaosParams {
        n_instances: 4,
        threads: 2,
        ..ChaosParams::default()
    });
    lines.push(format!(
        "chaos study fingerprint {:016x}",
        chaos_fingerprint(&rows)
    ));
}

/// The bits of a platform's speeds and links.
fn platform_bits(pf: &Platform) -> Vec<u64> {
    let links: Vec<f64> = match pf.links() {
        LinkModel::Homogeneous(b) => vec![*b],
        LinkModel::Heterogeneous {
            matrix,
            io_bandwidth,
        } => matrix
            .iter()
            .flatten()
            .chain([io_bandwidth])
            .copied()
            .collect(),
    };
    pf.speeds()
        .iter()
        .chain(&links)
        .map(|v| v.to_bits())
        .chain([pf.is_comm_homogeneous() as u64])
        .collect()
}

/// The first instances of every zoo family at one size with p < n and
/// one with p > n, and the first scenarios of every tenant family,
/// hashed bit for bit.
fn scenario_lines(lines: &mut Vec<String>) {
    for family in ScenarioFamily::ALL {
        for (n, p) in [(10, 6), (6, 10)] {
            let gen = ScenarioGenerator::new(family.params(n, p));
            for index in 0..3 {
                let (app, pf) = gen.instance(2007, index);
                let hash = fnv(app
                    .works()
                    .iter()
                    .chain(app.deltas())
                    .map(|v| v.to_bits())
                    .chain(platform_bits(&pf)));
                lines.push(format!(
                    "scenario {}-n{n}-p{p} {index} instance_hash {hash:016x}",
                    family.label()
                ));
            }
        }
    }
    for family in TenantFamily::ALL {
        let gen = TenantScenarioGenerator::new(family, 3, 6, 8);
        for index in 0..3 {
            let scenario = gen.scenario(2007, index);
            let tenants = scenario.tenants.iter().flat_map(|t| {
                let slo = t.slo.map_or(u64::MAX, f64::to_bits);
                t.app
                    .works()
                    .iter()
                    .chain(t.app.deltas())
                    .map(|v| v.to_bits())
                    .chain([t.weight.to_bits(), slo])
            });
            let hash = fnv(tenants.chain(platform_bits(&scenario.platform)));
            lines.push(format!(
                "scenario {}-k3-n6-p8 {index} instance_hash {hash:016x}",
                family.label()
            ));
        }
    }
}

/// A tenant scenario as a tenant set: each pipeline prepared against the
/// shared platform, with its weight and SLO.
fn scenario_set(scenario: &TenantScenario) -> TenantSet {
    let tenants = scenario.tenants.iter().map(|spec| {
        let prepared = PreparedInstance::new(spec.app.clone(), scenario.platform.clone());
        let tenant = Tenant::new(Arc::new(prepared)).weight(spec.weight);
        match spec.slo {
            Some(slo) => tenant.slo(slo),
            None => tenant,
        }
    });
    TenantSet::new(tenants.collect()).expect("valid tenant set")
}

/// The heuristic co-scheduler on the first scenarios of every tenant
/// family, every objective and the strategies the service exposes,
/// hashed bit for bit. `auto` routes shares of up to
/// `DEFAULT_EXACT_CUTOFF` stages to the exact solver, so it runs only on
/// the smaller platforms.
fn cosched_lines(lines: &mut Vec<String>) {
    let mut ws = SolveWorkspace::new();
    for family in TenantFamily::ALL {
        for (k, n, p) in [(2, 8, 6), (3, 10, 8), (4, 12, 10)] {
            let gen = TenantScenarioGenerator::new(family, k, n, p);
            for index in 0..2 {
                let set = scenario_set(&gen.scenario(2007, index));
                for label in ["h1", "h5", "h6", "best-of-all", "auto"] {
                    if label == "auto" && p > 8 {
                        continue;
                    }
                    let opts = CoSchedOptions {
                        strategy: label.parse::<Strategy>().expect("a strategy"),
                        ..CoSchedOptions::default()
                    };
                    for objective in PartitionObjective::ALL {
                        let value = match set.co_schedule(objective, &opts, &mut ws) {
                            Ok(s) => {
                                let head = [s.score.to_bits(), s.tiebreak.to_bits()];
                                let tenants = s.tenants.iter().flat_map(|t| {
                                    let procs = t.procs.iter().map(|&u| u as u64);
                                    [t.procs.len() as u64]
                                        .into_iter()
                                        .chain(procs)
                                        .chain([
                                            t.period.to_bits(),
                                            t.latency.to_bits(),
                                            t.slo_met as u64,
                                        ])
                                        .chain(t.solver.code().bytes().map(u64::from))
                                });
                                let words = head.into_iter().chain([s.feasible as u64]);
                                format!("{:016x}", fnv(words.chain(tenants)))
                            }
                            Err(e) => e.code().to_string(),
                        };
                        lines.push(format!(
                            "cosched {}-k{k}-n{n}-p{p} {index} {label} {} fingerprint {value}",
                            family.label(),
                            objective.label()
                        ));
                    }
                }
            }
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
    chaos_lines(&mut lines);
    scenario_lines(&mut lines);
    cosched_lines(&mut lines);
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
