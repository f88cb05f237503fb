//! Chaos study: how do scheduled pipelines behave when the platform
//! misbehaves — and is re-planning worth it?
//!
//! For every (scenario family × heuristic × named fault plan) cell the
//! study schedules at nominal conditions, then *executes* the mapping
//! under the fault plan with the deterministic fault simulator
//! ([`pipeline_sim::faults`]), measuring delivered throughput, tail
//! latency and data-set loss. For plans that correspond to a detectable
//! platform fault (a speed dip, a fail-stop) it additionally runs the
//! warm-started re-planner ([`pipeline_core::replan()`]) and reports the
//! ride-it-out period against the re-planned period plus the migration
//! distance — the operational answer to "should we move stages when a
//! processor degrades?".
//!
//! Everything is deterministic and sharded through the same engine as
//! the paper experiments: output is bit-identical for every thread
//! count (asserted by tests and by `pwsched chaos --verify-threads`).

use crate::shard::{sharded_map_items_with, ShardOptions};
use pipeline_core::{
    replan, DetectedFault, HeuristicKind, Objective, PreparedInstance, SolveRequest,
    SolveWorkspace, Strategy,
};
use pipeline_model::prelude::*;
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator, ScenarioParams};
use pipeline_model::util::mean;
use pipeline_sim::{ArrivalProcess, FailStop, FaultPlan, FaultedSim, SimConfig, Slowdown};

/// A named, reproducible fault scenario. Concrete plans are derived
/// per instance from the mapping's nominal period (fault *timing*
/// scales with the workload; fault *shape* is fixed by the kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPlanKind {
    /// The bottleneck processor runs at half speed through the middle
    /// half of the run, then recovers.
    SpeedDip,
    /// The bottleneck processor fail-stops halfway through the run.
    FailStop,
    /// Every transfer takes up to +25% deterministic jitter.
    Jitter,
    /// Bursty arrivals (4 at a time, 125% of the sustainable rate) into
    /// bounded inter-stage queues of capacity 2.
    Burst,
}

impl ChaosPlanKind {
    /// Every named plan, in display order.
    pub const ALL: [ChaosPlanKind; 4] = [
        ChaosPlanKind::SpeedDip,
        ChaosPlanKind::FailStop,
        ChaosPlanKind::Jitter,
        ChaosPlanKind::Burst,
    ];

    /// Stable label (also the CLI spelling).
    pub fn label(&self) -> &'static str {
        match self {
            ChaosPlanKind::SpeedDip => "speed-dip",
            ChaosPlanKind::FailStop => "fail-stop",
            ChaosPlanKind::Jitter => "jitter",
            ChaosPlanKind::Burst => "burst",
        }
    }

    /// Parses a CLI label.
    pub fn from_label(label: &str) -> Option<ChaosPlanKind> {
        ChaosPlanKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Whether the plan corresponds to a detectable *platform* fault the
    /// re-planner can act on (jitter and bursts leave speeds and the
    /// processor set untouched — there is nothing to re-plan).
    pub fn has_platform_fault(&self) -> bool {
        matches!(self, ChaosPlanKind::SpeedDip | ChaosPlanKind::FailStop)
    }

    /// The concrete fault plan for a mapping whose nominal period is
    /// `period`, over a run of `n_datasets`, targeting `victim`.
    pub fn build(&self, victim: ProcId, period: f64, n_datasets: usize, seed: u64) -> FaultPlan {
        let horizon = period * n_datasets as f64;
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::empty()
        };
        match self {
            ChaosPlanKind::SpeedDip => plan.slowdowns.push(Slowdown {
                proc: victim,
                at: 0.25 * horizon,
                until: 0.75 * horizon,
                factor: 0.5,
            }),
            ChaosPlanKind::FailStop => plan.fail_stops.push(FailStop {
                proc: victim,
                at: 0.5 * horizon,
            }),
            ChaosPlanKind::Jitter => plan.jitter = 0.25,
            ChaosPlanKind::Burst => {
                plan.arrivals = Some(ArrivalProcess::Bursty {
                    rate: 1.25 / period,
                    burst: 4,
                });
                plan.queue_capacity = Some(2);
            }
        }
        plan
    }

    /// The detected fault handed to the re-planner, if any.
    fn detected_fault(&self, victim: ProcId) -> Option<DetectedFault> {
        match self {
            ChaosPlanKind::SpeedDip => Some(DetectedFault::SpeedDrift {
                proc: victim,
                factor: 0.5,
            }),
            ChaosPlanKind::FailStop => Some(DetectedFault::ProcessorLoss { proc: victim }),
            ChaosPlanKind::Jitter | ChaosPlanKind::Burst => None,
        }
    }
}

impl std::fmt::Display for ChaosPlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Study configuration.
#[derive(Debug, Clone)]
pub struct ChaosParams {
    /// Scenario families to sweep.
    pub families: Vec<ScenarioFamily>,
    /// Heuristics to schedule with.
    pub heuristics: Vec<HeuristicKind>,
    /// Fault plans to execute.
    pub plans: Vec<ChaosPlanKind>,
    /// Stages per instance.
    pub n_stages: usize,
    /// Processors per instance.
    pub n_procs: usize,
    /// Instances per family.
    pub n_instances: usize,
    /// Data sets per simulated run.
    pub n_datasets: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Period target factor for period-fixed heuristics
    /// (`target = factor × P_init`).
    pub target_factor: f64,
    /// Worker threads (output is identical for any value).
    pub threads: usize,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            families: ScenarioFamily::ALL.to_vec(),
            heuristics: vec![HeuristicKind::SpMonoP, HeuristicKind::SpBiP],
            plans: ChaosPlanKind::ALL.to_vec(),
            n_stages: 12,
            n_procs: 8,
            n_instances: 10,
            n_datasets: 60,
            seed: 2007,
            target_factor: 0.6,
            threads: 1,
        }
    }
}

/// One (family × heuristic × plan) cell, averaged over the feasible
/// instances. Ratio columns are `NaN` when undefined (no feasible
/// instance, no completions for the p99, or a plan with no platform
/// fault for the replan columns); the renderer prints those as `-`.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Scenario family.
    pub family: ScenarioFamily,
    /// Scheduling heuristic.
    pub kind: HeuristicKind,
    /// Fault plan.
    pub plan: ChaosPlanKind,
    /// Instances where the heuristic met its target.
    pub n_feasible: usize,
    /// Mean fraction of offered data sets that completed.
    pub mean_completed_frac: f64,
    /// Mean fraction of offered data sets dropped (shed or lost).
    pub mean_dropped_frac: f64,
    /// Mean `sustained throughput × nominal period` (1.0 = the run
    /// sustains the scheduled rate despite the faults).
    pub mean_throughput_ratio: f64,
    /// Mean `p99 latency / nominal eq. 2 latency`.
    pub mean_p99_ratio: f64,
    /// Mean `ride-it-out period / nominal period` on the degraded
    /// platform (`inf` when the incumbent enrolled a lost processor).
    pub mean_rideout_ratio: f64,
    /// Mean `re-planned period / nominal period`.
    pub mean_replan_ratio: f64,
    /// Mean migration distance (stages whose processor changed) of the
    /// adopted plan.
    pub mean_migration: f64,
}

/// Per-instance measurement for one (heuristic, plan) cell.
#[derive(Debug, Clone, Copy)]
struct Sample {
    completed_frac: f64,
    dropped_frac: f64,
    throughput_ratio: f64,
    p99_ratio: f64,
    rideout_ratio: f64,
    replan_ratio: f64,
    migration: f64,
}

/// Runs the chaos study. Deterministic: for fixed params the result is
/// bit-identical for every thread count.
pub fn chaos_study(params: &ChaosParams) -> Vec<ChaosRow> {
    assert!(params.n_instances >= 1 && params.n_datasets >= 1);
    // Flat job list: (family index, instance), in a fixed order the
    // sharded engine preserves.
    let mut jobs = Vec::with_capacity(params.families.len() * params.n_instances);
    for (f, &family) in params.families.iter().enumerate() {
        let gen = ScenarioGenerator::new(ScenarioParams::preset(
            family,
            params.n_stages,
            params.n_procs,
        ));
        for (i, inst) in gen
            .batch(params.seed, params.n_instances)
            .into_iter()
            .enumerate()
        {
            jobs.push((f, i, inst));
        }
    }

    let heuristics = params.heuristics.clone();
    let plans = params.plans.clone();
    let n_datasets = params.n_datasets;
    let target_factor = params.target_factor;
    let seed = params.seed;
    let opts = ShardOptions::with_threads(params.threads);

    let per_job: Vec<Vec<Option<Sample>>> = sharded_map_items_with(
        jobs,
        opts,
        SolveWorkspace::new,
        move |ws, (f, i, (app, pf))| {
            let cm = CostModel::new(&app, &pf);
            let p0 = cm.single_proc_period();
            let l0 = cm.optimal_latency();
            // One prepared instance per job, shared by every replan.
            let prepared = PreparedInstance::new(app.clone(), pf.clone());
            let request = SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll);
            let mut out = Vec::with_capacity(heuristics.len() * plans.len());
            for &kind in &heuristics {
                // Comm-heterogeneous families route around the split
                // engine exactly as the sweep harness does.
                if !kind.applicable_to(&pf) {
                    out.extend(std::iter::repeat_n(None, plans.len()));
                    continue;
                }
                let target = if kind.is_period_fixed() {
                    target_factor * p0
                } else {
                    2.0 * l0
                };
                let res = kind.run_in(&cm, target, ws);
                if !res.feasible {
                    out.extend(std::iter::repeat_n(None, plans.len()));
                    continue;
                }
                let nominal_period = res.period;
                let nominal_latency = cm.latency(&res.mapping);
                // Victim: the processor owning the bottleneck interval.
                let victim = {
                    let (mut best_j, mut best) = (0usize, f64::NEG_INFINITY);
                    for j in 0..res.mapping.n_intervals() {
                        let c = cm.cycle_time(&res.mapping, j);
                        if c > best {
                            best = c;
                            best_j = j;
                        }
                    }
                    res.mapping.proc_of(best_j)
                };
                for &plan_kind in &plans {
                    let plan_seed = seed ^ mix_indices(f, i);
                    let plan = plan_kind.build(victim, nominal_period, n_datasets, plan_seed);
                    let sim = FaultedSim::new(&cm, &res.mapping, SimConfig::default(), plan);
                    let deg = sim.run(n_datasets).degraded;
                    let offered = deg.offered.max(1) as f64;
                    let (rideout_ratio, replan_ratio, migration) =
                        match plan_kind.detected_fault(victim) {
                            Some(fault) => {
                                match replan(&prepared, &res.mapping, &fault, &request, ws) {
                                    Ok((_, rep)) => (
                                        rep.period_before / rep.period_nominal,
                                        rep.period_after / rep.period_nominal,
                                        rep.migration_distance as f64,
                                    ),
                                    Err(_) => (f64::NAN, f64::NAN, f64::NAN),
                                }
                            }
                            None => (f64::NAN, f64::NAN, f64::NAN),
                        };
                    out.push(Some(Sample {
                        completed_frac: deg.completed as f64 / offered,
                        dropped_frac: deg.dropped as f64 / offered,
                        throughput_ratio: deg.sustained_throughput() * nominal_period,
                        p99_ratio: deg.p99_latency().map_or(f64::NAN, |p| p / nominal_latency),
                        rideout_ratio,
                        replan_ratio,
                        migration,
                    }));
                }
            }
            out
        },
    );

    // Aggregate in fixed (family, heuristic, plan) order; `per_job` is in
    // job order, so the fold is independent of the thread count.
    let nh = params.heuristics.len();
    let np = params.plans.len();
    let mut rows = Vec::with_capacity(params.families.len() * nh * np);
    for (f, &family) in params.families.iter().enumerate() {
        let family_jobs = &per_job[f * params.n_instances..(f + 1) * params.n_instances];
        for (h, &kind) in params.heuristics.iter().enumerate() {
            for (p, &plan) in params.plans.iter().enumerate() {
                let samples: Vec<Sample> = family_jobs
                    .iter()
                    .filter_map(|job| job[h * np + p])
                    .collect();
                let col = |f: fn(&Sample) -> f64| {
                    let vals: Vec<f64> = samples.iter().map(f).filter(|v| !v.is_nan()).collect();
                    mean(&vals).unwrap_or(f64::NAN)
                };
                rows.push(ChaosRow {
                    family,
                    kind,
                    plan,
                    n_feasible: samples.len(),
                    mean_completed_frac: col(|s| s.completed_frac),
                    mean_dropped_frac: col(|s| s.dropped_frac),
                    mean_throughput_ratio: col(|s| s.throughput_ratio),
                    mean_p99_ratio: col(|s| s.p99_ratio),
                    mean_rideout_ratio: col(|s| s.rideout_ratio),
                    mean_replan_ratio: col(|s| s.replan_ratio),
                    mean_migration: col(|s| s.migration),
                });
            }
        }
    }
    rows
}

/// Deterministic per-job seed salt (splitmix-style finalizer over the
/// family/instance indices).
fn mix_indices(f: usize, i: usize) -> u64 {
    let mut z = (f as u64) << 32 | i as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Formats a ratio cell: `-` for NaN, `inf` for infinities.
fn ratio_cell(v: f64, width: usize) -> String {
    if v.is_nan() {
        format!("{:>width$}", "-")
    } else if v.is_infinite() {
        format!("{:>width$}", "inf")
    } else {
        format!("{v:>width$.3}")
    }
}

/// Renders the study as an aligned table.
pub fn render_chaos(rows: &[ChaosRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<16} {:<10} {:>4} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>6}\n",
        "family",
        "heuristic",
        "plan",
        "feas",
        "compl%",
        "drop%",
        "tput-r",
        "p99-x",
        "ride-x",
        "replan-x",
        "migr"
    ));
    for r in rows {
        if r.n_feasible == 0 {
            out.push_str(&format!(
                "{:<14} {:<16} {:<10} {:>4} (no feasible instance)\n",
                r.family.label(),
                r.kind.label(),
                r.plan.label(),
                0
            ));
            continue;
        }
        out.push_str(&format!(
            "{:<14} {:<16} {:<10} {:>4} {:>7.1} {:>7.1} {:>7.3} {} {} {} {}\n",
            r.family.label(),
            r.kind.label(),
            r.plan.label(),
            r.n_feasible,
            100.0 * r.mean_completed_frac,
            100.0 * r.mean_dropped_frac,
            r.mean_throughput_ratio,
            ratio_cell(r.mean_p99_ratio, 8),
            ratio_cell(r.mean_rideout_ratio, 8),
            ratio_cell(r.mean_replan_ratio, 8),
            ratio_cell(r.mean_migration, 6),
        ));
    }
    out
}

/// Fingerprints a row set for bit-identity checks (thread-count
/// invariance): every float is captured by its raw bits.
pub fn chaos_fingerprint(rows: &[ChaosRow]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for r in rows {
        eat(r.n_feasible as u64);
        for v in [
            r.mean_completed_frac,
            r.mean_dropped_frac,
            r.mean_throughput_ratio,
            r.mean_p99_ratio,
            r.mean_rideout_ratio,
            r.mean_replan_ratio,
            r.mean_migration,
        ] {
            eat(v.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params(threads: usize) -> ChaosParams {
        ChaosParams {
            families: vec![ScenarioFamily::ALL[0], ScenarioFamily::ALL[2]],
            heuristics: vec![HeuristicKind::SpMonoP],
            plans: ChaosPlanKind::ALL.to_vec(),
            n_stages: 8,
            n_procs: 6,
            n_instances: 3,
            n_datasets: 30,
            seed: 42,
            target_factor: 0.6,
            threads,
        }
    }

    #[test]
    fn study_is_thread_count_invariant_bitwise() {
        let one = chaos_study(&small_params(1));
        let fp1 = chaos_fingerprint(&one);
        for t in [2, 4] {
            let other = chaos_study(&small_params(t));
            assert_eq!(fp1, chaos_fingerprint(&other), "threads = {t}");
        }
    }

    #[test]
    fn replan_columns_make_sense_on_platform_faults() {
        let rows = chaos_study(&small_params(2));
        for r in &rows {
            if r.n_feasible == 0 {
                continue;
            }
            match r.plan {
                ChaosPlanKind::SpeedDip | ChaosPlanKind::FailStop => {
                    // Replan adopts min(ride-out, re-solve): never worse
                    // than riding the fault out.
                    assert!(r.mean_replan_ratio <= r.mean_rideout_ratio + 1e-9, "{r:?}");
                    // Can be < 1: the best-of-all re-solve may beat the
                    // single-heuristic incumbent even degraded. But it
                    // is always a positive, finite period.
                    assert!(r.mean_replan_ratio > 0.0 && r.mean_replan_ratio.is_finite());
                    assert!(r.mean_migration >= 0.0);
                }
                ChaosPlanKind::Jitter | ChaosPlanKind::Burst => {
                    assert!(r.mean_rideout_ratio.is_nan());
                    assert!(r.mean_replan_ratio.is_nan());
                }
            }
        }
    }

    #[test]
    fn clean_cells_deliver_and_faulted_cells_degrade() {
        let rows = chaos_study(&small_params(1));
        for r in &rows {
            if r.n_feasible == 0 {
                continue;
            }
            assert!(r.mean_completed_frac >= 0.0 && r.mean_completed_frac <= 1.0);
            if r.plan == ChaosPlanKind::FailStop {
                // A mid-run fail-stop always loses the in-flight tail.
                assert!(r.mean_completed_frac < 1.0, "{r:?}");
            }
        }
    }

    #[test]
    fn renders_all_cells() {
        let params = small_params(1);
        let rows = chaos_study(&params);
        assert_eq!(
            rows.len(),
            params.families.len() * params.heuristics.len() * params.plans.len()
        );
        let s = render_chaos(&rows);
        assert!(s.contains("replan-x"));
        assert!(s.contains("speed-dip"));
        for f in &params.families {
            assert!(s.contains(f.label()));
        }
    }

    #[test]
    fn plan_labels_round_trip() {
        for k in ChaosPlanKind::ALL {
            assert_eq!(ChaosPlanKind::from_label(k.label()), Some(k));
        }
        assert_eq!(ChaosPlanKind::from_label("nope"), None);
    }
}
