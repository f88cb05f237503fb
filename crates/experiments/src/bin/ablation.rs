//! Ablation studies for the design choices this reproduction makes where
//! the paper is silent or ambiguous:
//!
//! 1. **H3 ratio denominator** — the paper's H3 formula prints
//!    `Δperiod(j)` where H5 uses `Δperiod(i)`; we treat it as a typo and
//!    default to the `i` form. This ablation runs both on the same
//!    families.
//! 2. **3-way vs 2-way exploration** — how much does the pair-split
//!    exploration of H2a/H2b buy over plain splitting at equal processor
//!    budgets?
//! 3. **Deal-skeleton replication** (paper §7 extension) — period floors
//!    with and without replicating bottleneck intervals.
//!
//! ```text
//! ablation [--instances K] [--seed S] [--threads T]
//! ```

use pipeline_core::replication::replicate_bottlenecks;
use pipeline_core::trajectory::{fixed_period_trajectory_in, TrajectoryKind};
use pipeline_core::{sp_bi_p_in, sp_mono_p_in, SolveWorkspace, SpBiPOptions};
use pipeline_experiments::config::flag_value;
use pipeline_experiments::outln;
use pipeline_experiments::shard::{sharded_map_items_with, ShardOptions};
use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::prelude::*;
use pipeline_model::util::mean;

fn main() {
    let mut instances = 30usize;
    let mut seed = 2007u64;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next();
        let positive = |n: &usize| *n > 0;
        match flag.as_str() {
            "--instances" => instances = flag_value(&flag, value(), "a positive integer", positive),
            "--seed" => seed = flag_value(&flag, value(), "a non-negative integer", |_| true),
            "--threads" => threads = flag_value(&flag, value(), "a positive integer", positive),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    outln!("Ablations — {instances} instances per point, seed {seed}\n");
    ratio_denominator_ablation(seed, instances, threads);
    explo_vs_split_ablation(seed, instances, threads);
    replication_ablation(seed, instances, threads);
    refinement_ablation(seed, instances, threads);
}

/// Per column of `rows`: the mean of its present values (NaN when there
/// are none) and how many there are.
fn column_means<T: Copy + Into<Option<f64>>, const N: usize>(rows: &[[T; N]]) -> [(f64, usize); N] {
    std::array::from_fn(|k| {
        let column: Vec<f64> = rows.iter().filter_map(|r| r[k].into()).collect();
        (mean(&column).unwrap_or(f64::NAN), column.len())
    })
}

fn refinement_ablation(seed: u64, instances: usize, threads: usize) {
    use pipeline_core::refine::refine_mapping;
    use pipeline_core::HeuristicKind;
    outln!(
        "4. Local-search refinement on top of each heuristic \
         (period floor, E2 n=20 p=10, latency budget 1.2×)"
    );
    let params = InstanceParams::paper(ExperimentKind::E2, 20, 10);
    let gen = InstanceGenerator::new(params);
    for kind in HeuristicKind::ALL
        .into_iter()
        .filter(|k| k.is_period_fixed())
    {
        let rows = sharded_map_items_with(
            gen.batch(seed, instances),
            ShardOptions::with_threads(threads),
            SolveWorkspace::new,
            |ws, (app, pf)| {
                let cm = CostModel::new(&app, &pf);
                let base = kind.run_in(&cm, 0.0, ws);
                let refined = refine_mapping(&cm, &base.mapping, base.latency * 1.2);
                [base.period, refined.period, refined.moves as f64]
            },
        );
        let [(before, _), (after, _), (moves, _)] = column_means(&rows);
        outln!(
            "   {:<16} floor {before:.3} → {after:.3} ({:+.1}%), {moves:.1} moves avg",
            kind.label(),
            100.0 * (after / before - 1.0),
        );
    }
    outln!();
}

fn ratio_denominator_ablation(seed: u64, instances: usize, threads: usize) {
    outln!("1. H3 (Sp bi P) ratio denominator: Δperiod(i) [default] vs Δperiod(j) [paper literal]");
    for kind in [ExperimentKind::E1, ExperimentKind::E2] {
        let params = InstanceParams::paper(kind, 20, 10);
        let gen = InstanceGenerator::new(params);
        let outcomes = sharded_map_items_with(
            gen.batch(seed, instances),
            ShardOptions::with_threads(threads),
            SolveWorkspace::new,
            |ws, (app, pf)| {
                let cm = CostModel::new(&app, &pf);
                let target = 0.7 * cm.single_proc_period();
                let over_i = sp_bi_p_in(&cm, target, SpBiPOptions::default(), ws);
                let over_j = sp_bi_p_in(
                    &cm,
                    target,
                    SpBiPOptions {
                        denominator_over_i: false,
                        ..SpBiPOptions::default()
                    },
                    ws,
                );
                [
                    over_i.feasible.then_some(over_i.latency),
                    over_j.feasible.then_some(over_j.latency),
                ]
            },
        );
        let [(li, ni), (lj, nj)] = column_means(&outcomes);
        outln!("   {kind}: mean latency over-i {li:.3} ({ni} feas) vs over-j {lj:.3} ({nj} feas)");
    }
    outln!();
}

fn explo_vs_split_ablation(seed: u64, instances: usize, threads: usize) {
    outln!("2. Period floors: 2-way splitting vs 3-way exploration (p = 10 / p = 100)");
    for procs in [10usize, 100] {
        let params = InstanceParams::paper(ExperimentKind::E1, 40, procs);
        let gen = InstanceGenerator::new(params);
        let floors = sharded_map_items_with(
            gen.batch(seed, instances),
            ShardOptions::with_threads(threads),
            SolveWorkspace::new,
            |ws, (app, pf)| {
                let cm = CostModel::new(&app, &pf);
                let mut floor = |kind| fixed_period_trajectory_in(&cm, kind, ws).min_period();
                [
                    floor(TrajectoryKind::SplitMono),
                    floor(TrajectoryKind::ExploMono),
                    floor(TrajectoryKind::ExploBi),
                ]
            },
        );
        let [(s, _), (e, _), (eb, _)] = column_means(&floors);
        outln!("   p = {procs:>3}: Sp mono {s:.3} | 3-Explo mono {e:.3} | 3-Explo bi {eb:.3}");
    }
    outln!();
}

fn replication_ablation(seed: u64, instances: usize, threads: usize) {
    outln!("3. Deal-skeleton replication (paper §7): period floor after splitting vs after splitting + replication");
    let params = InstanceParams::paper(ExperimentKind::E3, 10, 10);
    let gen = InstanceGenerator::new(params);
    let results = sharded_map_items_with(
        gen.batch(seed, instances),
        ShardOptions::with_threads(threads),
        SolveWorkspace::new,
        |ws, (app, pf)| {
            let cm = CostModel::new(&app, &pf);
            let base = sp_mono_p_in(&cm, 0.0, ws); // run to the splitting floor
            let rep = replicate_bottlenecks(&cm, &base.mapping, 0.0); // replicate to the floor
            [base.period, rep.period, rep.latency / base.latency]
        },
    );
    let [(split_floor, _), (rep_floor, _), (lat_ratio, _)] = column_means(&results);
    outln!(
        "   E3 n=10 p=10: splitting floor {split_floor:.3} → with replication {rep_floor:.3} \
         (×{:.2} better), latency ratio {lat_ratio:.3}",
        split_floor / rep_floor,
    );
}
