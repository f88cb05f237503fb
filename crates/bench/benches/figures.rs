//! One bench target per paper table/figure: regenerates each experiment
//! family at reduced scale (5 instances, 6 grid points — the full-scale
//! CSVs come from the `figures`/`table1` binaries) so `cargo bench`
//! exercises the complete regeneration path for every figure and for
//! Table 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pipeline_experiments::config::PAPER_FIGURES;
use pipeline_experiments::sweep::run_scenario;
use pipeline_experiments::table::failure_thresholds;
use pipeline_model::generator::{ExperimentKind, InstanceParams};
use std::hint::black_box;

const INSTANCES: usize = 5;
const GRID: usize = 6;
const THREADS: usize = 1; // single-threaded inside criterion

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_regeneration");
    group.sample_size(10);
    for spec in PAPER_FIGURES {
        group.bench_with_input(BenchmarkId::from_parameter(spec.id), spec, |b, spec| {
            b.iter(|| black_box(run_scenario(&spec.params(), 2007, INSTANCES, GRID, THREADS)))
        });
    }
    group.finish();
}

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_regeneration");
    group.sample_size(10);
    for kind in ExperimentKind::ALL {
        for n in [5usize, 40] {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}"), n),
                &(kind, n),
                |b, &(kind, n)| {
                    b.iter(|| {
                        black_box(failure_thresholds(
                            InstanceParams::paper(kind, n, 10),
                            2007,
                            INSTANCES,
                            THREADS,
                        ))
                    })
                },
            );
        }
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
    targets = bench_figures, bench_table1
}
criterion_main!(benches);
