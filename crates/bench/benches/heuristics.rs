//! Runtime of the six heuristics across the paper's problem sizes.
//!
//! The paper claims the heuristics are polynomial; these benches pin the
//! practical constants: every heuristic must stay well under a
//! millisecond-per-schedule budget at the paper's largest configuration
//! (n = 40, p = 100).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pipeline_core::HeuristicKind;
use pipeline_core::SolveWorkspace;
use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::CostModel;
use std::hint::black_box;

fn bench_heuristics(c: &mut Criterion) {
    let mut group = c.benchmark_group("heuristics");
    for (n, p) in [(10usize, 10usize), (40, 10), (40, 100)] {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
        let (app, pf) = gen.instance(1, 0);
        let cm = CostModel::new(&app, &pf);
        let p0 = cm.single_proc_period();
        let l0 = cm.optimal_latency();
        for kind in HeuristicKind::ALL {
            let target = if kind.is_period_fixed() {
                0.5 * p0
            } else {
                2.0 * l0
            };
            group.bench_with_input(
                BenchmarkId::new(kind.table_name(), format!("n{n}_p{p}")),
                &target,
                |b, &target| {
                    b.iter(|| {
                        black_box(kind.run_in(&cm, black_box(target), &mut SolveWorkspace::new()))
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_trajectories(c: &mut Criterion) {
    use pipeline_core::trajectory::{fixed_period_trajectory_in, TrajectoryKind};
    use pipeline_core::{hetero_trajectory_in, HeteroSplitOptions};
    let mut group = c.benchmark_group("trajectory");
    let mut ws = SolveWorkspace::new();
    // (240, 120) on E2 is the largest heuristic size perfbench's
    // solve-cold workload records.
    for (exp, n, p) in [
        (ExperimentKind::E1, 40usize, 10usize),
        (ExperimentKind::E1, 40, 100),
        (ExperimentKind::E2, 240, 120),
    ] {
        let gen = InstanceGenerator::new(InstanceParams::paper(exp, n, p));
        let (app, pf) = gen.instance(2, 0);
        let cm = CostModel::new(&app, &pf);
        for kind in [
            TrajectoryKind::SplitMono,
            TrajectoryKind::ExploMono,
            TrajectoryKind::ExploBi,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind:?}"), format!("n{n}_p{p}")),
                &kind,
                |b, &kind| b.iter(|| black_box(fixed_period_trajectory_in(&cm, kind, &mut ws))),
            );
        }
        group.bench_function(BenchmarkId::new("HeteroSplit", format!("n{n}_p{p}")), |b| {
            b.iter(|| {
                black_box(hetero_trajectory_in(
                    &cm,
                    HeteroSplitOptions::default(),
                    &mut ws,
                ))
            })
        });
    }
    group.finish();
}

fn bench_cost_model(c: &mut Criterion) {
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 40, 100));
    let (app, pf) = gen.instance(3, 0);
    let cm = CostModel::new(&app, &pf);
    let res = pipeline_core::sp_mono_p_in(&cm, 0.0, &mut SolveWorkspace::new());
    c.bench_function("cost_model/evaluate_n40", |b| {
        b.iter(|| black_box(cm.evaluate(black_box(&res.mapping))))
    });
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
    targets = bench_heuristics, bench_trajectories, bench_cost_model
}
criterion_main!(benches);
