//! The incremental solver kernel: split-step throughput and the exact
//! solver generations — the routed v3 dominance DP and the v2
//! branch-and-bound (the witness entry points with no known value) — at
//! the old cutoff and at the raised n = 24, p = 16 frontier, plus the
//! DP's min-period witness pass on its own and the bottleneck assignment
//! kernel under every v2 min-period and front leaf.
//!
//! Compiled (not run) in CI via `cargo bench --no-run`; run locally to
//! compare kernel generations. `tests/bench_identity.rs` pins the exact
//! minimum periods these groups time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pipeline_assign::{bottleneck_assignment, bottleneck_below, BottleneckScratch, CostMatrix};
use pipeline_core::exact;
use pipeline_core::trajectory::{fixed_period_trajectory_in, TrajectoryKind};
use pipeline_core::{sp_bi_p_in, ParetoFront, SolveWorkspace, SpBiPOptions};
use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::{CostModel, LinkModel, Platform};
use std::hint::black_box;

/// Raw split-step throughput: one full H1 trajectory per iteration. The
/// recorded point count makes the per-split cost visible via the
/// element-throughput estimate.
fn bench_split_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/split-steps");
    for (n, p) in [(40usize, 20usize), (120, 60), (240, 120)] {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, n, p));
        let (app, pf) = gen.instance(3, 0);
        let cm = CostModel::new(&app, &pf);
        let mut ws = SolveWorkspace::new();
        let splits = fixed_period_trajectory_in(&cm, TrajectoryKind::SplitMono, &mut ws).len() - 1;
        group.throughput(Throughput::Elements(splits.max(1) as u64));
        group.bench_with_input(
            BenchmarkId::new("h1-trajectory", format!("n{n}_p{p}")),
            &cm,
            |b, cm| {
                b.iter(|| {
                    black_box(fixed_period_trajectory_in(
                        cm,
                        TrajectoryKind::SplitMono,
                        &mut SolveWorkspace::new(),
                    ))
                });
            },
        );
        // The workspace-reusing form: the difference against the line
        // above is exactly the per-solve allocation cost.
        group.bench_with_input(
            BenchmarkId::new("h1-trajectory-reused-ws", format!("n{n}_p{p}")),
            &cm,
            |b, cm| {
                let mut ws = SolveWorkspace::new();
                b.iter(|| {
                    black_box(fixed_period_trajectory_in(
                        cm,
                        TrajectoryKind::SplitMono,
                        &mut ws,
                    ))
                });
            },
        );
    }
    group.finish();
}

/// H3's binary search — the heaviest consumer of the selection memo.
fn bench_sp_bi_p(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/sp-bi-p");
    for (n, p) in [(40usize, 20usize), (120, 60)] {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
        let (app, pf) = gen.instance(5, 0);
        let cm = CostModel::new(&app, &pf);
        let target = 0.5 * cm.single_proc_period();
        group.bench_with_input(
            BenchmarkId::new("h3", format!("n{n}_p{p}")),
            &target,
            |b, &target| {
                b.iter(|| {
                    black_box(sp_bi_p_in(
                        &cm,
                        black_box(target),
                        SpBiPOptions::default(),
                        &mut SolveWorkspace::new(),
                    ))
                });
            },
        );
    }
    group.finish();
}

/// Exact solver generations at the old Auto cutoff: the routed public
/// entry (v3 dominance DP where it applies) and the v2 branch-and-bound
/// (the witness walk with no known value), on one warm workspace, as
/// the library's solve path does.
fn bench_exact_generations(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/exact");
    let n = 12usize;
    let p = 6usize;
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
    let (app, pf) = gen.instance(1, 0);
    let cm = CostModel::new(&app, &pf);
    let mut ws = SolveWorkspace::new();
    group.bench_function(BenchmarkId::new("min-period-v3", format!("n{n}")), |b| {
        b.iter(|| black_box(exact::exact_min_period_in(&cm, &mut ws)));
    });
    group.bench_function(BenchmarkId::new("min-period-v2", format!("n{n}")), |b| {
        b.iter(|| {
            black_box(exact::exact_min_period_from_value(
                &cm,
                f64::INFINITY,
                &mut ws,
            ))
        });
    });
    group.bench_function(BenchmarkId::new("front-v3", format!("n{n}")), |b| {
        b.iter(|| black_box(exact::exact_pareto_front_in(&cm, &mut ws)));
    });
    let no_shadow = ParetoFront::new();
    group.bench_function(BenchmarkId::new("front-v2", format!("n{n}")), |b| {
        b.iter(|| black_box(exact::exact_front_from_shadow(&cm, &no_shadow, &mut ws)));
    });
    group.finish();
}

/// The v3 dominance DP at the raised frontier: n = 24, p = 16 on a
/// uniform-speed cluster (the paper's setting), where identical speeds
/// collapse the mask space and the DP routes. The v2 comparison shows
/// what the DP buys at this scale.
fn bench_exact_dp_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/exact-dp");
    group.sample_size(10);
    let n = 24usize;
    let p = 16usize;
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, n, p));
    let (app, _) = gen.instance(1, 0);
    let pf = Platform::comm_homogeneous(vec![10.0; p], 10.0).expect("valid platform");
    let cm = CostModel::new(&app, &pf);
    assert!(exact::supports_dominance_dp(&cm));
    let mut ws = SolveWorkspace::new();
    group.bench_function(
        BenchmarkId::new("min-period-v3", format!("n{n}_p{p}")),
        |b| {
            b.iter(|| black_box(exact::exact_min_period_in(&cm, &mut ws)));
        },
    );
    group.bench_function(
        BenchmarkId::new("min-period-v2", format!("n{n}_p{p}")),
        |b| {
            b.iter(|| {
                black_box(exact::exact_min_period_from_value(
                    &cm,
                    f64::INFINITY,
                    &mut ws,
                ))
            });
        },
    );
    group.bench_function(BenchmarkId::new("front-v3", format!("n{n}_p{p}")), |b| {
        b.iter(|| black_box(exact::exact_pareto_front_in(&cm, &mut ws)));
    });
    // The min-period witness pass alone, at the DP's value, on a
    // three-speed E3 instance where many partitions' bounds admit the
    // optimum but their assignments miss it: the v2 witness walk spent
    // ~60 ms of bottleneck solves here before reaching it (2-vCPU VM).
    let gen = InstanceGenerator::new(InstanceParams {
        n_stages: n,
        n_procs: p,
        kind: ExperimentKind::E3,
        bandwidth: 10.0,
        speed_range: (1, 3),
    });
    let (app, pf) = gen.instance(37, 0);
    let cm = CostModel::new(&app, &pf);
    assert!(exact::supports_dominance_dp(&cm));
    let (v_star, _) = exact::exact_min_period_in(&cm, &mut ws);
    group.bench_function(
        BenchmarkId::new("min-period-witness", format!("n{n}_p{p}")),
        |b| {
            b.iter(|| {
                black_box(exact::exact_min_period_from_value(
                    &cm,
                    black_box(v_star),
                    &mut ws,
                ))
            });
        },
    );
    group.finish();
}

/// The bottleneck assignment kernel on the cycle matrix of an E2
/// instance's all-singleton partition (`n` intervals × `p` processors):
/// the full threshold search, as every v2 front leaf and every improving
/// min-period leaf runs it, and the one strict-below probe at the
/// optimum, as every non-improving min-period leaf runs it.
fn bench_assign(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/assign");
    for (n, p) in [(14usize, 16usize), (30, 32)] {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
        let (app, pf) = gen.instance(3, 0);
        let &LinkModel::Homogeneous(bw) = pf.links() else {
            unreachable!("the paper's platforms are Communication Homogeneous")
        };
        let costs = CostMatrix::from_fn(n, p, |k, u| {
            app.input_volume(k) / bw
                + app.output_volume(k + 1) / bw
                + app.interval_work(k, k + 1) / pf.speeds()[u]
        });
        let mut scratch = BottleneckScratch::default();
        let optimum = bottleneck_assignment(&costs, &mut scratch)
            .expect("finite costs always match")
            .objective;
        group.bench_function(BenchmarkId::new("bottleneck", format!("{n}x{p}")), |b| {
            b.iter(|| black_box(bottleneck_assignment(black_box(&costs), &mut scratch)));
        });
        group.bench_function(BenchmarkId::new("below-probe", format!("{n}x{p}")), |b| {
            b.iter(|| {
                black_box(bottleneck_below(
                    black_box(&costs),
                    black_box(optimum),
                    &mut scratch,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(
    kernel,
    bench_split_steps,
    bench_sp_bi_p,
    bench_exact_generations,
    bench_exact_dp_frontier,
    bench_assign
);
criterion_main!(kernel);
