//! `bench serve`: cold and warm phases through a real in-process TCP
//! server, warm throughput at 1/2/4 connections, and the shared-cache
//! hit rate.

use std::sync::Arc;

use pipeline_core::serve::{self, ServeConfig, ServeState};

use super::{Bench, Gate, Json, Opts, Rule};
use crate::{request_lines, run_load, write_zoo_instances, LoadReport};

/// Peak warm requests/sec (the best connection count) must stay within
/// 30% of the baseline's peak. Gating the peak rather than each phase
/// keeps the gate meaningful under scheduler noise: a real serve-path
/// regression drags every phase down, noise rarely drags down all
/// three. Cold is dominated by one-time preparation and is not gated.
pub(super) const BENCH: Bench = Bench {
    name: "serve",
    run,
    gates: &[Gate {
        rows: "warm",
        key: &["connections"],
        metric: "requests_per_sec",
        rule: Rule::PeakFloor(0.30),
        complete: true,
    }],
};

fn run(opts: &Opts) -> Result<Json, String> {
    // Quick mode shrinks instances and the corpus, not the shape. Phases
    // stay hundreds of requests long even in quick mode: at microsecond
    // request latencies, short phases measure scheduler noise, not the
    // server.
    let quick = opts.quick;
    let (stages, procs, requests) = if quick { (16, 8, 600) } else { (48, 24, 1200) };

    let dir = std::env::temp_dir().join(format!("pwsched-bench-serve-{}", std::process::id()));
    let paths = write_zoo_instances(&dir, "bench", stages, procs, 2007)
        .map_err(|e| format!("cannot write instance corpus: {e}"))?;
    let lines = request_lines(&paths, requests);

    let config = ServeConfig::default();
    let state = Arc::new(ServeState::new(None, config.cache_capacity));
    let handle = serve::spawn("127.0.0.1:0", state, config)
        .map_err(|e| format!("cannot start in-process server: {e}"))?;
    let addr = handle.local_addr();

    // Cold: every instance path is a cache miss at first touch and every
    // first bound query pays the lazy trajectory memoization.
    let cold = run_load(addr, &lines, 1);
    // Warm: the same corpus answered from the shared prepared-instance
    // cache, at each connection count. Best of three passes per count:
    // scheduler noise only ever slows a pass down, so the max is the
    // serve path's actual capability and stays comparable across runs.
    let warm: Vec<(usize, LoadReport)> = [1usize, 2, 4]
        .into_iter()
        .map(|c| {
            let best = (0..3)
                .map(|_| run_load(addr, &lines, c))
                .max_by(|a, b| a.requests_per_sec().total_cmp(&b.requests_per_sec()))
                .expect("three passes ran");
            (c, best)
        })
        .collect();
    let stats = handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let errors = cold.errors + warm.iter().map(|(_, r)| r.errors).sum::<usize>();
    if errors > 0 {
        return Err(format!("{errors} transport errors"));
    }
    let phase = |connections: usize, r: &LoadReport| {
        Json::obj([
            ("connections", Json::num(connections)),
            ("requests", Json::num(r.answered + r.errors)),
            ("errors", Json::num(r.errors)),
            ("p50_us", r.p50_us().map_or(Json::Null, Json::num)),
            ("p99_us", r.p99_us().map_or(Json::Null, Json::num)),
            ("requests_per_sec", Json::fixed(r.requests_per_sec(), 1)),
        ])
    };
    Ok(Json::obj([
        ("bench", "serve".into()),
        (
            "config",
            Json::obj([
                ("quick", Json::Bool(quick)),
                ("stages", Json::num(stages)),
                ("procs", Json::num(procs)),
                ("instances", Json::num(paths.len())),
                ("requests_per_phase", Json::num(requests)),
            ]),
        ),
        ("cold", phase(1, &cold)),
        (
            "warm",
            Json::Arr(warm.iter().map(|(c, r)| phase(*c, r)).collect()),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::num(stats.cache_hits)),
                ("misses", Json::num(stats.cache_misses)),
                ("evictions", Json::num(stats.cache_evictions)),
                ("hit_rate", Json::fixed(stats.cache_hit_rate(), 4)),
            ]),
        ),
    ]))
}
