//! Discrete-event simulator throughput: events per second across mapping
//! sizes and input regimes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pipeline_core::SolveWorkspace;
use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::CostModel;
use pipeline_sim::{InputPolicy, PipelineSim, SimConfig};
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    for (n, p) in [(10usize, 10usize), (40, 100)] {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
        let (app, pf) = gen.instance(5, 0);
        let cm = CostModel::new(&app, &pf);
        let target = 0.4 * cm.single_proc_period();
        let res = pipeline_core::sp_mono_p_in(&cm, target, &mut SolveWorkspace::new());
        let datasets = 200usize;
        group.throughput(Throughput::Elements(datasets as u64));
        group.bench_with_input(
            BenchmarkId::new(
                "saturating",
                format!("n{n}_p{p}_m{}", res.mapping.n_intervals()),
            ),
            &res.mapping,
            |b, mapping| {
                b.iter(|| {
                    let sim = PipelineSim::new(&cm, mapping, SimConfig::default());
                    black_box(sim.run(datasets))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("throttled", format!("n{n}_p{p}")),
            &res.mapping,
            |b, mapping| {
                b.iter(|| {
                    let sim = PipelineSim::new(
                        &cm,
                        mapping,
                        SimConfig {
                            input: InputPolicy::Periodic(res.period),
                            record_trace: false,
                        },
                    );
                    black_box(sim.run(datasets))
                })
            },
        );
    }
    group.finish();
}

fn bench_trace_overhead(c: &mut Criterion) {
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 20, 10));
    let (app, pf) = gen.instance(9, 0);
    let cm = CostModel::new(&app, &pf);
    let target = 0.5 * cm.single_proc_period();
    let res = pipeline_core::sp_mono_p_in(&cm, target, &mut SolveWorkspace::new());
    let mut group = c.benchmark_group("simulator_trace");
    for record in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("record_trace", record),
            &record,
            |b, &record| {
                b.iter(|| {
                    let sim = PipelineSim::new(
                        &cm,
                        &res.mapping,
                        SimConfig {
                            input: InputPolicy::Saturating,
                            record_trace: record,
                        },
                    );
                    black_box(sim.run(100))
                })
            },
        );
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
    targets = bench_simulation, bench_trace_overhead
}
criterion_main!(benches);
