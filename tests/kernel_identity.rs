//! Differential suite pinning the incremental solver kernel to the
//! pre-refactor semantics, bit for bit.
//!
//! The fixture `tests/fixtures/kernel_identity.ref` was generated by the
//! pre-refactor implementation (run with `KERNEL_IDENTITY_REGEN=1` to
//! regenerate — only do that intentionally, e.g. after a *deliberate*
//! semantic change). Every line freezes one heuristic result, trajectory
//! point or exact-solver artifact as raw `f64` bits plus the encoded
//! mapping, across the whole scenario zoo:
//!
//! * `res <family> <seed> <heuristic> <target#>` — a
//!   [`BiCriteriaResult`] of one (heuristic, target) run;
//! * `traj <family> <seed> <kind> <point#>` — one trajectory point of the
//!   target-independent H1/H2a/H2b/H7 recordings;
//! * `minper` / `front <family> <n> <seed> …` — the exact minimum period
//!   and every exact Pareto-front point on small instances.
//!
//! Bit-identity (`to_bits`, not a tolerance) is the contract that lets
//! the engine/state/exact layers be refactored freely: any reordering of
//! floating-point work shows up here immediately.

use pipeline_workflows::core::exact;
use pipeline_workflows::core::service::encode_mapping;
use pipeline_workflows::core::trajectory::TrajectoryKind;
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::core::{
    fixed_period_trajectory_in, hetero_trajectory_in, BiCriteriaResult, HeteroSplitOptions,
    HeuristicKind,
};
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_workflows::model::CostModel;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/kernel_identity.ref"
);

/// Period-fixed targets as fractions of the single-processor period.
const PERIOD_FRACTIONS: [f64; 4] = [1.0, 0.8, 0.6, 0.4];
/// Latency-fixed targets as multiples of the optimal latency.
const LATENCY_FACTORS: [f64; 3] = [1.0, 1.5, 2.5];

const HEURISTIC_N: usize = 12;
const HEURISTIC_P: usize = 8;
const SEEDS: [u64; 2] = [1, 2];

fn result_line(prefix: &str, r: &BiCriteriaResult) -> String {
    format!(
        "{prefix} {} {:016x} {:016x} {}",
        r.feasible,
        r.period.to_bits(),
        r.latency.to_bits(),
        encode_mapping(&r.mapping)
    )
}

/// Every frozen line, in deterministic order.
fn current_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let kinds: Vec<HeuristicKind> = HeuristicKind::ALL
        .into_iter()
        .chain([HeuristicKind::HeteroSplit])
        .collect();
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(family.params(HEURISTIC_N, HEURISTIC_P));
        for seed in SEEDS {
            let (app, pf) = gen.instance(seed, 0);
            let cm = CostModel::new(&app, &pf);
            let p0 = cm.single_proc_period();
            let l0 = cm.optimal_latency();
            for &kind in &kinds {
                if !kind.applicable_to(&pf) {
                    continue;
                }
                let targets: Vec<f64> = if kind.is_period_fixed() {
                    PERIOD_FRACTIONS.iter().map(|f| f * p0).collect()
                } else {
                    LATENCY_FACTORS.iter().map(|f| f * l0).collect()
                };
                for (t, target) in targets.into_iter().enumerate() {
                    let r = kind.run_in(&cm, target, &mut SolveWorkspace::new());
                    lines.push(result_line(
                        &format!("res {} {seed} {} {t}", family.label(), kind.slug()),
                        &r,
                    ));
                }
            }
            // Target-independent trajectories: the paper trio on
            // Communication Homogeneous platforms, H7 everywhere.
            let mut trajectories: Vec<(&str, pipeline_workflows::core::Trajectory)> = Vec::new();
            if pf.is_comm_homogeneous() {
                for (name, tk) in [
                    ("h1", TrajectoryKind::SplitMono),
                    ("h2a", TrajectoryKind::ExploMono),
                    ("h2b", TrajectoryKind::ExploBi),
                ] {
                    trajectories.push((
                        name,
                        fixed_period_trajectory_in(&cm, tk, &mut SolveWorkspace::new()),
                    ));
                }
            }
            trajectories.push((
                "het",
                hetero_trajectory_in(
                    &cm,
                    HeteroSplitOptions::default(),
                    &mut SolveWorkspace::new(),
                ),
            ));
            for (name, traj) in trajectories {
                for (i, pt) in traj.iter().enumerate() {
                    lines.push(format!(
                        "traj {} {seed} {name} {i} {:016x} {:016x} {}",
                        family.label(),
                        pt.period().to_bits(),
                        pt.latency().to_bits(),
                        encode_mapping(&pt.mapping())
                    ));
                }
            }
        }
    }
    // Exact artifacts on small comm-homogeneous instances.
    let exact_cases: &[(usize, usize, &[u64])] = &[(10, 6, &[1, 2]), (12, 6, &[1])];
    for family in ScenarioFamily::ALL {
        if !family.comm_homogeneous() {
            continue;
        }
        for &(n, p, seeds) in exact_cases {
            let gen = ScenarioGenerator::new(family.params(n, p));
            for &seed in seeds {
                let (app, pf) = gen.instance(seed, 0);
                let cm = CostModel::new(&app, &pf);
                let (p_opt, mapping) = exact::exact_min_period_in(&cm, &mut SolveWorkspace::new());
                lines.push(format!(
                    "minper {} {n} {seed} {:016x} {}",
                    family.label(),
                    p_opt.to_bits(),
                    encode_mapping(&mapping)
                ));
                let front = exact::exact_pareto_front_in(&cm, &mut SolveWorkspace::new());
                for (i, (period, latency, payload)) in front.iter().enumerate() {
                    lines.push(format!(
                        "front {} {n} {seed} {i} {:016x} {:016x} {}",
                        family.label(),
                        period.to_bits(),
                        latency.to_bits(),
                        encode_mapping(payload)
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn kernel_matches_frozen_pre_refactor_reference() {
    let lines = current_lines();
    if std::env::var_os("KERNEL_IDENTITY_REGEN").is_some() {
        std::fs::write(FIXTURE, lines.join("\n") + "\n").expect("fixture writable");
        eprintln!("regenerated {} lines into {FIXTURE}", lines.len());
        return;
    }
    let frozen = std::fs::read_to_string(FIXTURE).expect(
        "missing tests/fixtures/kernel_identity.ref — regenerate with \
         KERNEL_IDENTITY_REGEN=1 cargo test --test kernel_identity",
    );
    let frozen: Vec<&str> = frozen.lines().collect();
    assert_eq!(
        frozen.len(),
        lines.len(),
        "frozen reference has {} lines, current kernel produced {}",
        frozen.len(),
        lines.len()
    );
    let mut mismatches = 0;
    for (got, want) in lines.iter().zip(&frozen) {
        if got != want {
            mismatches += 1;
            if mismatches <= 10 {
                eprintln!("kernel drift:\n  frozen:  {want}\n  current: {got}");
            }
        }
    }
    assert_eq!(
        mismatches, 0,
        "{mismatches} lines drifted from the frozen kernel semantics"
    );
}
