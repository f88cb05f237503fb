//! Experiment harness regenerating every figure and table of the paper's
//! evaluation (Section 5).
//!
//! * [`config`] — the figure/table specifications (experiment kind, `n`,
//!   `p`) exactly as in the paper, plus the scenario-zoo default sizes;
//! * [`shard`] — the sharded parallel work-queue engine (chunked work
//!   stealing, per-shard RNG streams, chunk-ordered mergeable
//!   accumulators; bit-identical output for every thread count);
//! * [`service`] — batched solving: (instance, request) pairs from the
//!   solver-service API (`pipeline_core::service`) through the sharded
//!   engine, bit-identical across thread counts;
//! * [`loadgen`] — TCP load generator for `pwsched serve`: per-worker
//!   connections over the shard engine, scenario-zoo request corpora,
//!   and latency/throughput reports;
//! * [`sweep`] — latency-vs-period series, one per heuristic, averaged
//!   over 50 random instances; [`sweep::run_scenario`] sweeps any
//!   registered scenario family ([`pipeline_model::scenario`]);
//! * [`table`] — failure thresholds (Table 1);
//! * [`summary`] — qualitative "shape checks" comparing our results to
//!   the paper's claims;
//! * [`ascii`] — terminal line plots; [`csvout`] — CSV emission;
//! * [`bench`](mod@bench) — the `pwsched bench` harness: a std-only JSON value,
//!   keyed regression gates, and the six committed `BENCH_*.json`
//!   benches.
//!
//! Binaries: `figures` (figs 2–7), `table1`, `ablation` (design-choice
//! ablations), `extensions` (loaded-latency and robustness studies).

pub mod ascii;
pub mod bench;
pub mod chaos;
pub mod config;
pub mod csvout;
pub mod exact_shard;
pub mod loaded;
pub mod loadgen;
pub mod robustness;
pub mod service;
pub mod shard;
pub mod summary;
pub mod sweep;
pub mod table;

pub use chaos::{
    chaos_fingerprint, chaos_study, render_chaos, ChaosParams, ChaosPlanKind, ChaosRow,
};
pub use config::{scenario_zoo, FigureSpec, ScenarioSpec, PAPER_FIGURES};
pub use exact_shard::{
    exact_min_latency_for_period_sharded, exact_min_period_sharded, exact_pareto_front_sharded,
};
pub use loadgen::{request_lines, run_load, write_zoo_instances, LoadReport};
pub use service::{
    solve_batch, solve_delta_batch, solve_tenant_batch, BatchJob, DeltaJob, DeltaSolveError,
    TenantJob,
};
pub use shard::{sharded_fold, sharded_map_indices, sharded_map_items, Mergeable, ShardOptions};
pub use sweep::{
    run_family, run_scenario, FamilyResult, FrontQuality, HeuristicSeries, SweepPoint,
};
pub use table::{failure_thresholds, ThresholdTable};
