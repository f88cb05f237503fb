//! Experiment harness regenerating every figure and table of the paper's
//! evaluation (Section 5).
//!
//! * [`config`] — the figure/table specifications (experiment kind, `n`,
//!   `p`) exactly as in the paper, plus the scenario-zoo default sizes;
//! * [`shard`] — the sharded parallel work-queue engine (chunked work
//!   stealing, per-shard RNG streams, chunk-ordered mergeable
//!   accumulators; bit-identical output for every thread count) — also
//!   the batch-solving entry point: [`shard::sharded_map_items_with`]
//!   with one `SolveWorkspace` per worker answers many
//!   `PreparedInstance::solve_in`, `apply_in` or `TenantSet::co_schedule`
//!   jobs in job order;
//! * [`run_load`] — TCP load generator for `pwsched serve`: per-worker
//!   connections over the shard engine, scenario-zoo request corpora,
//!   and latency/throughput reports;
//! * [`sweep`] — latency-vs-period series, one per heuristic, averaged
//!   over 50 random instances; [`sweep::run_scenario`] sweeps any
//!   registered scenario family ([`pipeline_model::scenario`]);
//! * [`table`] — failure thresholds (Table 1);
//! * [`summary`] — qualitative "shape checks" comparing our results to
//!   the paper's claims;
//! * [`ascii`] — terminal line plots; [`csvout`] — CSV emission.
//!
//! Binaries: `figures` (figs 2–7), `table1`, `ablation` (design-choice
//! ablations), `extensions` (loaded-latency and robustness studies).

pub mod ascii;
pub mod chaos;
pub mod config;
pub mod csvout;
mod exact_shard;
pub mod loaded;
mod loadgen;
pub mod robustness;
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
pub use shard::{sharded_map_indices_with, sharded_map_items_with, ShardOptions};
pub use sweep::{run_scenario, FamilyResult, FrontQuality, HeuristicSeries, SweepPoint};
pub use table::{failure_thresholds, ThresholdTable};

#[cfg(test)]
mod service {
    //! Batch determinism of [`crate::shard::sharded_map_items_with`] over
    //! the solver service's job kinds: solve, apply-then-solve and
    //! co-schedule.
    mod tests;
}
