//! Application, platform, mapping and cost model for pipeline workflow
//! scheduling.
//!
//! This crate is the substrate shared by every other crate of the
//! `pipeline-workflows` workspace. It models the framework of Section 2 of
//! *"Multi-criteria scheduling of pipeline workflows"* (Benoit, Rehn-Sonigo,
//! Robert — RR-6232, CLUSTER 2007):
//!
//! * [`Application`] — a linear pipeline of `n` stages. Stage `S_k` reads
//!   `δ_{k-1}` data units, performs `w_k` operations and writes `δ_k` data
//!   units.
//! * [`Platform`] — `p` processors with heterogeneous speeds, fully
//!   interconnected. The paper's *Communication Homogeneous* platforms use a
//!   single link bandwidth `b`; the fully heterogeneous extension (paper
//!   §7) carries a bandwidth matrix.
//! * [`IntervalMapping`] — a partition of the stages into intervals of
//!   consecutive stages, each interval placed on a distinct processor.
//! * [`CostModel`] — the analytic cost model: period (eq. 1) and latency
//!   (eq. 2).
//! * [`generator`] — random instances matching the experimental setting of
//!   the paper's Section 5 (experiments E1–E4).
//! * [`scenario`] — the scenario zoo: a registry of instance families
//!   beyond E1–E4 (heavy-tailed speeds, clustered two-tier platforms,
//!   communication-dominant pipelines on heterogeneous links, power-law
//!   stage weights, adversarial chains-to-chains instances), all behind
//!   one seeded, deterministic interface.
//!
//! # Conventions
//!
//! Stages are indexed `1..=n` in the paper; in code we use `0..n` and the
//! communication vector `deltas` has length `n + 1` with `deltas[k]` the
//! volume *output by stage `k`* (so `deltas[0] = δ_0` is the initial input
//! read by stage 1 from the outside world and `deltas[n] = δ_n` the final
//! output). All quantities are `f64`; speeds and bandwidths must be finite
//! and strictly positive, works and volumes finite and non-negative.

mod application;
mod cost;
pub mod delta;
pub mod generator;
pub mod io;
mod mapping;
mod platform;
pub mod scenario;
pub mod util;
pub mod workload;

pub use application::Application;
pub use cost::{CostModel, IntervalCost};
pub use delta::{DeltaError, InstanceDelta};
pub use generator::{ExperimentKind, InstanceGenerator, InstanceParams};
pub use mapping::{Interval, IntervalMapping};
pub use platform::{LinkModel, Platform, ProcId};
pub use scenario::{
    DriftFamily, DriftGenerator, ScenarioFamily, ScenarioGenerator, ScenarioParams, TenantFamily,
    TenantScenario, TenantScenarioGenerator, TenantSpec,
};

/// Convenient glob import: `use pipeline_model::prelude::*;`.
pub mod prelude {
    pub use crate::application::Application;
    pub use crate::cost::{CostModel, IntervalCost};
    pub use crate::delta::{DeltaError, InstanceDelta};
    pub use crate::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    pub use crate::mapping::{Interval, IntervalMapping};
    pub use crate::platform::{LinkModel, Platform, ProcId};
    pub use crate::scenario::{
        DriftFamily, DriftGenerator, ScenarioFamily, ScenarioGenerator, ScenarioParams,
        TenantFamily, TenantScenario, TenantScenarioGenerator, TenantSpec,
    };
    pub use crate::util::{approx_eq, approx_le, EPS};
}

/// Errors raised while building or validating model objects.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An application must have at least one stage.
    EmptyApplication,
    /// `deltas` must have exactly `n + 1` entries for `n` stages.
    DeltaLengthMismatch {
        /// Number of stages supplied.
        stages: usize,
        /// Number of communication volumes supplied.
        deltas: usize,
    },
    /// A numeric parameter was negative, NaN or infinite.
    InvalidNumber {
        /// Which parameter was invalid.
        what: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A platform must have at least one processor.
    EmptyPlatform,
    /// The bandwidth matrix of a fully heterogeneous platform must be
    /// square with side `p`.
    BandwidthShapeMismatch {
        /// Number of processors.
        procs: usize,
        /// Number of rows provided.
        rows: usize,
    },
    /// The intervals of a mapping must partition `[0, n)` left to right.
    NotAPartition {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// Each interval must be placed on a distinct, existing processor.
    BadAllocation {
        /// Human-readable description of the defect.
        detail: String,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::EmptyApplication => write!(f, "application has no stage"),
            ModelError::DeltaLengthMismatch { stages, deltas } => write!(
                f,
                "expected {} communication volumes for {} stages, got {}",
                stages + 1,
                stages,
                deltas
            ),
            ModelError::InvalidNumber { what, value } => {
                write!(f, "invalid value {value} for {what}")
            }
            ModelError::EmptyPlatform => write!(f, "platform has no processor"),
            ModelError::BandwidthShapeMismatch { procs, rows } => write!(
                f,
                "bandwidth matrix must be {procs}x{procs}, got {rows} rows"
            ),
            ModelError::NotAPartition { detail } => {
                write!(f, "intervals do not partition the stages: {detail}")
            }
            ModelError::BadAllocation { detail } => {
                write!(f, "invalid processor allocation: {detail}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;
