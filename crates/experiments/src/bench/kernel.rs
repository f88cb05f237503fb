//! `bench kernel`: the solver kernel — per-family sweep wall-times,
//! exact-solver latencies at growing `n` (zoo rows plus a uniform-speed
//! cluster section where the v3 dominance DP carries the frontier to
//! n = 30 at p = 16), split-step throughput, and H3's memoized binary
//! search. The exact rows run through the sharded branch-and-bound on
//! `--threads` threads (bit-identical values at any count). The full
//! run goes to n = 30; `--quick` stops at n = 24, so a pruning
//! regression shows up in CI as a timeout and an optimality regression
//! as a bits mismatch.

use std::time::Instant;

use pipeline_core::trajectory::{fixed_period_trajectory_in, TrajectoryKind};
use pipeline_core::{sp_bi_p_in, SolveWorkspace, SpBiPOptions};
use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::{CostModel, Platform};

use super::{Bench, Gate, Json, Opts, Rule};
use crate::{
    exact_min_period_sharded, exact_pareto_front_sharded, run_scenario, scenario_zoo, ShardOptions,
};

/// Every exact `min_period` must be **bit-identical** to the baseline's
/// row with the same id: optimality is not a tolerance question. Rows
/// the baseline lacks are reported but cannot fail; the harness refuses
/// a check that gated no row at all.
pub(super) const BENCH: Bench = Bench {
    name: "kernel",
    run,
    gates: &[
        Gate {
            rows: "exact",
            key: &["id"],
            metric: "min_period_bits",
            rule: Rule::Bits,
            complete: false,
        },
        Gate {
            rows: "exact_uniform",
            key: &["id"],
            metric: "min_period_bits",
            rule: Rule::Bits,
            complete: false,
        },
    ],
};

fn run(opts: &Opts) -> Result<Json, String> {
    let exact_n_max = if opts.quick { 24 } else { 30 };
    let instances = 3;

    // Sweep wall-time per scenario family (sharded engine, 1 thread —
    // the per-item kernel cost is what this tracks).
    let sweep_ms = scenario_zoo()
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let fam = run_scenario(&spec.params(), 2007, instances, 10, 1);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (
                spec.family.label().to_string(),
                Json::obj([
                    ("ms", Json::fixed(ms, 3)),
                    ("curves", Json::num(fam.series.len())),
                ]),
            )
        })
        .collect();

    // Exact solver at growing n: min-period and the full front. Zoo rows
    // keep the historical p = 6 shape up to n = 16; past that they move
    // to the paper's p = 16 cluster scale.
    let shard_opts = ShardOptions::with_threads(opts.threads);
    let exact_row = |id: String, cm: &CostModel<'_>, n: usize, p: usize| {
        let t0 = Instant::now();
        let (p_opt, _) = exact_min_period_sharded(cm, shard_opts);
        let min_period_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let front = exact_pareto_front_sharded(cm, shard_opts);
        let front_ms = t0.elapsed().as_secs_f64() * 1e3;
        Json::obj([
            ("id", Json::Str(id)),
            ("n", Json::num(n)),
            ("p", Json::num(p)),
            ("min_period", Json::fixed(p_opt, 6)),
            (
                "min_period_bits",
                Json::Str(format!("{:016x}", p_opt.to_bits())),
            ),
            ("min_period_ms", Json::fixed(min_period_ms, 3)),
            ("front_ms", Json::fixed(front_ms, 3)),
            ("front_points", Json::num(front.len())),
        ])
    };
    let exact: Vec<Json> = (10..=exact_n_max)
        .step_by(2)
        .map(|n| {
            let p = if n <= 16 { 6 } else { 16 };
            let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
            let (app, pf) = gen.instance(1, 0);
            exact_row(format!("zoo-n{n}-p{p}"), &CostModel::new(&app, &pf), n, p)
        })
        .collect();

    // The same frontier on a uniform-speed cluster (the paper's
    // setting): identical speeds collapse the dominance DP's mask space
    // to stage-count prefixes, which is what pushes the exact front to
    // n = 24-30 at p = 16 in well under a second.
    let exact_uniform: Vec<Json> = [20usize, 24, 28, 30]
        .into_iter()
        .filter(|&n| n <= exact_n_max)
        .map(|n| {
            let p = 16;
            let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, n, p));
            let (app, _) = gen.instance(1, 0);
            let pf = Platform::comm_homogeneous(vec![10.0; p], 10.0).expect("valid platform");
            exact_row(
                format!("uniform-n{n}-p{p}"),
                &CostModel::new(&app, &pf),
                n,
                p,
            )
        })
        .collect();

    // Split-step throughput: H1 trajectories on a large instance.
    let split_steps = {
        let (n, p) = (240usize, 120usize);
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, n, p));
        let (app, pf) = gen.instance(3, 0);
        let cm = CostModel::new(&app, &pf);
        // Fresh scratch per run, as a one-off solve pays it.
        let run = || {
            fixed_period_trajectory_in(&cm, TrajectoryKind::SplitMono, &mut SolveWorkspace::new())
        };
        let steps = run().len() - 1;
        let runs = 50usize;
        let t0 = Instant::now();
        for _ in 0..runs {
            std::hint::black_box(run());
        }
        let secs = t0.elapsed().as_secs_f64();
        Json::obj([
            ("n", Json::num(n)),
            ("p", Json::num(p)),
            ("steps_per_run", Json::num(steps)),
            ("runs", Json::num(runs)),
            (
                "steps_per_sec",
                Json::fixed((steps * runs) as f64 / secs, 0),
            ),
        ])
    };

    // H3's memoized binary search on a mid-size instance.
    let sp_bi_p_row = {
        let (n, p) = (120usize, 60usize);
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
        let (app, pf) = gen.instance(5, 0);
        let cm = CostModel::new(&app, &pf);
        let target = 0.5 * cm.single_proc_period();
        let opts = SpBiPOptions::default();
        let runs = 20usize;
        let t0 = Instant::now();
        for _ in 0..runs {
            std::hint::black_box(sp_bi_p_in(&cm, target, opts, &mut SolveWorkspace::new()));
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3 / runs as f64;
        Json::obj([
            ("n", Json::num(n)),
            ("p", Json::num(p)),
            ("ms_per_solve", Json::fixed(ms, 3)),
        ])
    };

    Ok(Json::obj([
        ("bench", "kernel".into()),
        ("sweep_ms", Json::Obj(sweep_ms)),
        ("exact", Json::Arr(exact)),
        ("exact_uniform", Json::Arr(exact_uniform)),
        ("split_steps", split_steps),
        ("sp_bi_p", sp_bi_p_row),
    ]))
}
