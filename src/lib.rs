//! # pipeline-workflows
//!
//! Bi-criteria (latency/period) scheduling of pipeline workflows on
//! heterogeneous platforms — a full reproduction of
//!
//! > Anne Benoit, Veronika Rehn-Sonigo, Yves Robert,
//! > *Multi-criteria scheduling of pipeline workflows*,
//! > INRIA research report RR-6232 (IEEE CLUSTER 2007).
//!
//! A pipeline of `n` stages is mapped onto `p` different-speed processors
//! connected by identical links ("Communication Homogeneous" platforms).
//! Mappings assign *intervals* of consecutive stages to distinct
//! processors. Two antagonistic metrics are optimized: the **period**
//! (inverse throughput, eq. 1) and the **latency** (response time,
//! eq. 2). Minimizing latency is trivial (Lemma 1); minimizing the period
//! is NP-hard (Theorems 1–2, via the heterogeneous chains-to-chains
//! problem); the paper's answer is six polynomial splitting heuristics,
//! all implemented here, along with exact solvers, baselines, a
//! discrete-event validator, and the full experiment harness.
//!
//! ## Quickstart
//!
//! Prepare an instance once, then answer any number of typed solve
//! requests from its memoized trajectories:
//!
//! ```
//! use pipeline_workflows::model::{Application, Platform};
//! use pipeline_workflows::core::service::{PreparedInstance, SolveRequest, SolveError};
//! use pipeline_workflows::core::{Objective, Strategy};
//!
//! // A 4-stage pipeline: (work, input/output volumes).
//! let app = Application::new(
//!     vec![8.0, 20.0, 6.0, 12.0],          // w_1..w_4
//!     vec![4.0, 2.0, 6.0, 2.0, 4.0],       // δ_0..δ_4
//! ).unwrap();
//! // Five processors of different speeds, 10-wide links.
//! let platform = Platform::comm_homogeneous(vec![4.0, 9.0, 2.0, 7.0, 5.0], 10.0).unwrap();
//!
//! // One session per instance; every bound query after the first hits
//! // the cached heuristic trajectories (O(log) per query).
//! let session = PreparedInstance::new(app, platform);
//! let p_single = session.single_proc_period();
//!
//! // Minimize latency subject to a period budget, best heuristic wins.
//! let report = session
//!     .solve(&SolveRequest::new(Objective::MinLatencyForPeriod(0.7 * p_single))
//!         .strategy(Strategy::BestOfAll))
//!     .unwrap();
//! assert!(report.result.period <= 0.7 * p_single + 1e-9);
//! println!("{} via {}", report.result.mapping, report.solver); // provenance is a Copy enum
//!
//! // Too-tight bounds fail with a diagnosis, not a shrug: the error
//! // reports the instance's feasibility floor.
//! match session.solve(&SolveRequest::new(Objective::MinLatencyForPeriod(0.01 * p_single))
//!     .strategy(Strategy::BestOfAll))
//! {
//!     Err(SolveError::BoundBelowFloor { floor, .. }) => assert!(floor > 0.01 * p_single),
//!     other => panic!("expected a structured error, got {other:?}"),
//! }
//!
//! // The full period/latency trade-off in one query (exact on small
//! // instances, the union of the heuristic trajectories otherwise).
//! let front = session
//!     .solve(&SolveRequest::new(Objective::ParetoFront))
//!     .unwrap()
//!     .front
//!     .unwrap();
//! assert!(!front.is_empty());
//! ```
//!
//! The low-level API is there for single runs, one call per (heuristic,
//! bound) pair: `sp_mono_p_in(&cm, target, &mut ws)` and friends in
//! [`core`], each taking the caller's [`core::SolveWorkspace`] scratch
//! (`SolveWorkspace::new()` for a one-off run; reuse one across a batch).
//!
//! ## Validating a mapping operationally
//!
//! ```
//! use pipeline_workflows::model::{Application, Platform, CostModel, IntervalMapping};
//! use pipeline_workflows::sim::{PipelineSim, SimConfig};
//!
//! let app = Application::uniform(3, 10.0, 2.0).unwrap();
//! let platform = Platform::comm_homogeneous(vec![5.0, 3.0], 10.0).unwrap();
//! let cm = CostModel::new(&app, &platform);
//! let mapping = IntervalMapping::all_on_fastest(&app, &platform);
//!
//! // Push 40 data sets through the discrete-event simulator.
//! let out = PipelineSim::new(&cm, &mapping, SimConfig::default()).run(40);
//! let analytic_period = cm.period(&mapping);
//! let steady = out.report.steady_period().unwrap();
//! assert!((steady - analytic_period).abs() < 1e-9);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`model`] | `pipeline-model` | applications, platforms, mappings, cost model (eqs. 1–2), E1–E4 generators, the scenario zoo, instance + request/report wire formats |
//! | [`core`] | `pipeline-core` | the six heuristics, exact solvers, the solver-service API (`PreparedInstance`), Subhlok–Vondran baseline, Pareto tools, §7 extensions |
//! | [`chains`] | `pipeline-chains` | chains-to-chains algorithms and the NMWTS NP-hardness gadget (Theorem 1) |
//! | [`assign`] | `pipeline-assign` | Hungarian / bottleneck assignment used by the exact solvers |
//! | [`sim`] | `pipeline-sim` | one-port discrete-event simulator, traces, Gantt charts |
//! | [`experiments`] | `pipeline-experiments` | figure/table regeneration harness, sharded sweep engine, batched solving (`solve_batch`) |
//!
//! The README has one section per subsystem and `PAPER.md` the source
//! paper's abstract; the `figures` and `table1` binaries print the
//! paper's claim next to the measured shape for every figure and table.

pub use pipeline_assign as assign;
pub use pipeline_chains as chains;
pub use pipeline_core as core;
pub use pipeline_experiments as experiments;
pub use pipeline_model as model;
pub use pipeline_sim as sim;

/// Workspace version, for binaries that report it.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Touch one item per re-exported crate so link failures surface
        // here rather than in downstream users.
        let _ = crate::model::ExperimentKind::E1;
        let _ = crate::core::HeuristicKind::ALL;
        let _ = crate::chains::ChainPartition::single(1);
        let _ = crate::assign::CostMatrix::from_rows(1, 1, vec![0.0]);
        let _ = crate::sim::SimConfig::default();
        assert_eq!(crate::experiments::PAPER_FIGURES.len(), 12);
        assert!(!crate::VERSION.is_empty());
    }
}
