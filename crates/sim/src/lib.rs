//! Discrete-event simulation of pipelined workflow execution under the
//! one-port model.
//!
//! The paper evaluates mappings analytically (eqs. 1–2) and leaves "real
//! experiments" as future work. This crate closes the loop operationally:
//! it *executes* an [`pipeline_model::IntervalMapping`] on a simulated
//! platform, enforcing the model's rules —
//!
//! * each processor is strictly serial: for every data set it **receives**
//!   the interval's input, **computes**, then **sends** the output, in
//!   that order, one activity at a time (the one-port model with
//!   serialized communication that justifies eq. 1's cycle times);
//! * a transfer occupies both endpoints for `δ/b` time units (rendezvous,
//!   no buffering);
//! * the outside world feeds data sets through the same one-port source
//!   and drains results through a sink.
//!
//! Under a saturating source the steady-state inter-completion time
//! converges to `T_period` (eq. 1), and with the source throttled to the
//! period every data set experiences exactly `T_latency` (eq. 2); the
//! test-suite and the `sim_validation` integration tests verify both on
//! random instances — an executable proof that the analytic cost model
//! describes a realizable schedule.
//!
//! Modules: [`engine`] (generic event queue), [`faults`] (the pipeline
//! state machine — the crate's one event loop — with deterministic fault
//! injection: scripted slowdowns/fail-stops, link jitter, bounded
//! buffers, open-loop arrivals), [`schedule`] (the synchronous schedule
//! in closed form). At the crate root: [`PipelineSim`] with its
//! [`InputPolicy`], the loop with an empty fault plan; [`TraceEvent`]
//! traces and the ASCII [`Gantt`] chart; the [`SimReport`] measurements.

pub mod engine;
pub mod faults;
mod metrics;
pub mod schedule;
mod trace;
mod workflow;

pub use faults::{
    ArrivalProcess, DegradedOutput, DegradedReport, FailStop, FaultPlan, FaultedSim, Slowdown,
};
pub use metrics::SimReport;
pub use schedule::{build_sync_schedule, SyncSchedule};
pub use trace::{Gantt, TraceEvent, TraceKind};
pub use workflow::{InputPolicy, PipelineSim, SimConfig};
