//! `bench sweep`: the sweep/batch *throughput* path the zero-allocation
//! workspaces optimize — full-zoo sweeps per size (per-family wall time,
//! skipped-solver counts, bound-query throughput), per-family ×
//! heuristic front quality against the exact Pareto front,
//! `solve_batch` items/sec with per-item fresh workspaces vs one reused
//! workspace, and a peak-RSS proxy (`VmHWM` on Linux).

use std::sync::Arc;
use std::time::Instant;

use pipeline_core::service::{PreparedInstance, SolveRequest};
use pipeline_core::Objective;
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator};

use super::{Bench, Gate, Json, Opts, Rule};
use crate::{run_scenario, scenario_zoo, solve_batch, BatchJob, ShardOptions};

/// Per family × heuristic, the hypervolume ratio may not drop, and the
/// distance may not grow, by more than 0.05 against the baseline.
pub(super) const BENCH: Bench = Bench {
    name: "sweep",
    run,
    gates: &[
        Gate {
            rows: "front_quality",
            key: &["family", "heuristic"],
            metric: "hypervolume_ratio",
            rule: Rule::AbsFloor(0.05),
            complete: true,
        },
        Gate {
            rows: "front_quality",
            key: &["family", "heuristic"],
            metric: "distance",
            rule: Rule::AbsCeil(0.05),
            complete: true,
        },
    ],
};

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`), or
/// `None` where procfs is unavailable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn run(opts: &Opts) -> Result<Json, String> {
    let (sizes, instances, grid, batch_jobs): (&[usize], usize, usize, usize) = if opts.quick {
        (&[24, 48], 4, 6, 40)
    } else {
        (&[60, 120, 240], 10, 12, 200)
    };

    // Full-zoo sweeps at each size: per-family wall time + skipped-solver
    // counts, and the aggregate bound-query throughput (instances ×
    // curves × grid points answered per second).
    let mut zoo = Vec::new();
    for &n in sizes {
        let p = (n / 2).max(2);
        let mut families = Vec::new();
        let mut queries = 0usize;
        let t_zoo = Instant::now();
        for spec in scenario_zoo() {
            let mut params = spec.params();
            params.n_stages = n;
            params.n_procs = p;
            let t0 = Instant::now();
            let fam = run_scenario(&params, 2007, instances, grid, 1);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            queries += instances * fam.series.len() * grid;
            families.push((
                spec.family.label().to_string(),
                Json::obj([
                    ("ms", Json::fixed(ms, 3)),
                    ("curves", Json::num(fam.series.len())),
                    ("skipped_solvers", Json::num(fam.skipped.len())),
                ]),
            ));
        }
        let total = t_zoo.elapsed().as_secs_f64();
        zoo.push(Json::obj([
            ("n", Json::num(n)),
            ("p", Json::num(p)),
            ("total_ms", Json::fixed(total * 1e3, 3)),
            (
                "bound_queries_per_sec",
                Json::fixed(queries as f64 / total, 0),
            ),
            ("families", Json::Obj(families)),
        ]));
    }

    // Front quality vs the exact Pareto front, at a size the exact
    // solver answers interactively (n = 12): per comm-homogeneous
    // family × heuristic, mean hypervolume ratio and mean relative
    // distance to the exact front. Deterministic (exact fronts +
    // instance-order merges) and computed at a fixed config in quick
    // and full runs alike, so the gate compares like against like.
    let mut front_quality = Vec::new();
    let (qn, qp, qinstances, qgrid) = (12usize, 8usize, 10usize, 12usize);
    for spec in scenario_zoo() {
        if !spec.family.comm_homogeneous() {
            continue;
        }
        let mut params = spec.params();
        params.n_stages = qn;
        params.n_procs = qp;
        for q in &run_scenario(&params, 2007, qinstances, qgrid, 1).quality {
            front_quality.push(Json::obj([
                ("family", spec.family.label().into()),
                ("heuristic", q.kind.table_name().into()),
                ("hypervolume_ratio", Json::fixed(q.hypervolume_ratio, 4)),
                ("distance", Json::fixed(q.distance, 4)),
                ("n_scored", Json::num(q.n_scored)),
            ]));
        }
    }

    // solve_batch throughput: the same job stream answered with a fresh
    // workspace per item (the `solve()` path) vs one workspace reused
    // across all items (`solve_batch` on one shard). One fresh instance
    // per job: every item pays its preparation (trajectory recording +
    // H4 floor), which is exactly the work the reused workspace
    // amortizes; shared instances would answer from the session caches
    // and hide the difference.
    let make_jobs = || {
        let gen = ScenarioGenerator::new(ScenarioFamily::E2.params(60, 30));
        (0..batch_jobs)
            .map(|j| {
                let (app, pf) = gen.instance(99, j as u64);
                let inst = Arc::new(PreparedInstance::new(app, pf));
                let bound =
                    inst.single_proc_period() * (0.4 + 0.5 * (j as f64 / batch_jobs as f64));
                BatchJob::new(
                    inst,
                    SolveRequest::new(Objective::MinLatencyForPeriod(bound)),
                )
            })
            .collect::<Vec<_>>()
    };
    let fresh_jobs = make_jobs();
    let t0 = Instant::now();
    let fresh_answers = fresh_jobs
        .iter()
        .filter(|job| job.instance.solve(&job.request).is_ok())
        .count();
    let fresh_secs = t0.elapsed().as_secs_f64();
    let reused_jobs = make_jobs();
    let t0 = Instant::now();
    let reused_answers = solve_batch(reused_jobs, ShardOptions::with_threads(1))
        .into_iter()
        .filter(Result::is_ok)
        .count();
    let reused_secs = t0.elapsed().as_secs_f64();
    assert_eq!(fresh_answers, reused_answers, "variants must agree");

    Ok(Json::obj([
        ("bench", "sweep".into()),
        (
            "config",
            Json::obj([
                ("instances", Json::num(instances)),
                ("grid", Json::num(grid)),
                ("threads", Json::num(1)),
            ]),
        ),
        ("zoo", Json::Arr(zoo)),
        ("front_quality", Json::Arr(front_quality)),
        (
            "solve_batch",
            Json::obj([
                ("jobs", Json::num(batch_jobs)),
                ("answered", Json::num(fresh_answers)),
                (
                    "fresh_workspace_items_per_sec",
                    Json::fixed(batch_jobs as f64 / fresh_secs, 0),
                ),
                (
                    "reused_workspace_items_per_sec",
                    Json::fixed(batch_jobs as f64 / reused_secs, 0),
                ),
            ]),
        ),
        ("peak_rss_kb", peak_rss_kb().map_or(Json::Null, Json::num)),
    ]))
}
