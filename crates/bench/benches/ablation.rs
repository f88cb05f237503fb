//! Ablation benches for this reproduction's design choices: trajectory
//! memoization, the H3 ratio denominator, the heterogeneous extension's
//! candidate pool, and exact-solver scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pipeline_core::hetero::{hetero_sp_mono_p_in, HeteroSplitOptions};
use pipeline_core::trajectory::{fixed_period_trajectory_in, TrajectoryKind};
use pipeline_core::{sp_bi_p_in, sp_mono_p_in, SolveWorkspace, SpBiPOptions};
use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::util::linspace;
use pipeline_model::CostModel;
use std::hint::black_box;

/// The sweep-efficiency ablation: answering 20 period targets by re-running
/// H1 each time vs recording one trajectory and replaying it.
fn bench_trajectory_memoization(c: &mut Criterion) {
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 40, 100));
    let (app, pf) = gen.instance(1, 0);
    let cm = CostModel::new(&app, &pf);
    let grid = linspace(0.2 * cm.single_proc_period(), cm.single_proc_period(), 20);
    let mut group = c.benchmark_group("ablation_trajectory_memoization");
    let mut ws = SolveWorkspace::new();
    group.bench_function("direct_20_targets", |b| {
        b.iter(|| {
            for &t in &grid {
                black_box(sp_mono_p_in(&cm, t, &mut ws));
            }
        })
    });
    group.bench_function("trajectory_then_20_lookups", |b| {
        b.iter(|| {
            let traj = fixed_period_trajectory_in(&cm, TrajectoryKind::SplitMono, &mut ws);
            for &t in &grid {
                black_box(traj.result_for_period(t));
            }
        })
    });
    group.finish();
}

fn bench_ratio_denominator(c: &mut Criterion) {
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 40, 10));
    let (app, pf) = gen.instance(3, 0);
    let cm = CostModel::new(&app, &pf);
    let target = 0.6 * cm.single_proc_period();
    let mut group = c.benchmark_group("ablation_sp_bi_p_denominator");
    for over_i in [true, false] {
        group.bench_with_input(
            BenchmarkId::new("denominator_over_i", over_i),
            &over_i,
            |b, &over_i| {
                b.iter(|| {
                    black_box(sp_bi_p_in(
                        &cm,
                        target,
                        SpBiPOptions {
                            denominator_over_i: over_i,
                            ..SpBiPOptions::default()
                        },
                        &mut SolveWorkspace::new(),
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_hetero_candidate_pool(c: &mut Criterion) {
    use pipeline_model::Platform;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 20, 1));
    let (app, _) = gen.instance(5, 0);
    let mut rng = StdRng::seed_from_u64(5);
    let p = 12;
    let speeds: Vec<f64> = (0..p).map(|_| rng.random_range(1..=20) as f64).collect();
    let matrix: Vec<Vec<f64>> = (0..p)
        .map(|_| (0..p).map(|_| rng.random_range(1.0..20.0)).collect())
        .collect();
    let pf = Platform::fully_heterogeneous(speeds, matrix, 10.0).unwrap();
    let cm = CostModel::new(&app, &pf);
    let mut group = c.benchmark_group("ablation_hetero_candidate_pool");
    let mut ws = SolveWorkspace::new();
    for k in [1usize, 3, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(hetero_sp_mono_p_in(
                    &cm,
                    0.0,
                    HeteroSplitOptions { candidate_procs: k },
                    &mut ws,
                ))
            })
        });
    }
    group.finish();
}

fn bench_exact_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_exact_scaling");
    group.sample_size(10);
    let mut ws = SolveWorkspace::new();
    for n in [6usize, 8, 10] {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, 4));
        let (app, pf) = gen.instance(7, 0);
        let cm = CostModel::new(&app, &pf);
        group.bench_with_input(BenchmarkId::new("exact_min_period", n), &n, |b, _| {
            b.iter(|| black_box(pipeline_core::exact::exact_min_period_in(&cm, &mut ws)))
        });
    }
    group.finish();
}

fn fast_config() -> Criterion {
    // Bounded runtime: the suite has ~70 benchmarks; a second of
    // measurement per benchmark gives stable medians for these
    // microsecond-to-millisecond workloads.
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_trajectory_memoization,
    bench_ratio_denominator,
    bench_hetero_candidate_pool,
    bench_exact_scaling
}
criterion_main!(benches);
