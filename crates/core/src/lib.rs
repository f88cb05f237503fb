//! The paper's contribution: bi-criteria (period/latency) interval-mapping
//! heuristics for pipeline workflows on Communication Homogeneous
//! platforms, plus exact solvers and baselines.
//!
//! # The six heuristics (paper Section 4)
//!
//! Fixed period, minimize latency:
//!
//! * [`HeuristicKind::SpMonoP`] — H1, mono-criterion splitting;
//! * [`HeuristicKind::ThreeExploMono`] — H2a, three-way exploration,
//!   mono-criterion choice;
//! * [`HeuristicKind::ThreeExploBi`] — H2b, three-way exploration,
//!   bi-criteria (`Δlatency/Δperiod`) choice;
//! * [`HeuristicKind::SpBiP`] — H3, binary search over the authorized
//!   latency with bi-criteria splitting.
//!
//! Fixed latency, minimize period:
//!
//! * [`HeuristicKind::SpMonoL`] — H4, mono-criterion splitting under a
//!   latency budget;
//! * [`HeuristicKind::SpBiL`] — H5, bi-criteria splitting under a latency
//!   budget.
//!
//! All six share the *splitting engine*: [`state::SplitState`] is the
//! incrementally maintained interval mapping (ordered bottleneck index,
//! delta-evaluated candidate cuts, memoized best-cut selections), and
//! [`engine::SplitEngine`] is the one drive loop every heuristic plugs
//! into as a thin [`engine::SplitPolicy`] — sort processors by
//! non-increasing speed, map the whole pipeline on the fastest, then
//! repeatedly split the bottleneck processor's interval, enrolling the
//! next-fastest unused processor(s).
//!
//! # Exact solvers and baselines
//!
//! * [`exact`] — exact bi-criteria optimum for small instances
//!   (a processor-subset dominance DP for values, then one
//!   branch-and-bound partition walk per operation with
//!   bottleneck/Hungarian assignments for the mapping);
//! * [`baseline`] — the Subhlok–Vondran dynamic programs, optimal on
//!   *homogeneous* platforms (the setting the paper extends);
//! * [`pareto`] — Pareto-front utilities shared by tests and experiments.
//!
//! # Extensions (paper Section 7, "future work")
//!
//! * [`hetero`] — splitting heuristics for fully heterogeneous platforms
//!   (per-link bandwidths);
//! * [`replication`] — deal-skeleton stage replication for bottleneck
//!   intervals.

pub mod baseline;
pub mod bounds;
pub mod engine;
pub mod exact;
pub mod explore;
pub mod hetero;
pub mod one_to_one;
pub mod pareto;
pub mod refine;
pub mod replan;
pub mod replication;
pub mod serve;
pub mod service;
pub mod solve;
pub mod split;
pub mod state;
pub mod tenancy;
pub mod trajectory;
pub mod workspace;

pub use engine::{EngineState, SplitEngine, SplitPolicy};
pub use explore::{three_explo_bi_in, three_explo_mono_in};
pub use hetero::{hetero_sp_mono_p_in, hetero_trajectory_in, HeteroSplitOptions};
pub use pareto::ParetoFront;
pub use replan::{replan, DetectedFault, ReplanError, ReplanReport};
pub use serve::{
    BudgetedAnswer, ConnBudget, InstanceCache, InstanceLoadError, ServeConfig, ServeHandle,
    ServeState, ServeStats,
};
pub use service::{
    BoundLookup, PreparedInstance, SolveError, SolveReport, SolveRequest, SolverId, UnknownSolver,
};
pub use solve::{Objective, Strategy};
pub use split::{sp_bi_l_in, sp_bi_p_in, sp_mono_l_in, sp_mono_p_in, SpBiPOptions};
pub use state::{BiCriteriaResult, SplitBuffers, SplitMemo, SplitState};
pub use tenancy::{
    CoSchedOptions, CoSchedule, PartitionObjective, TenancyError, Tenant, TenantOutcome, TenantSet,
};
pub use trajectory::{fixed_period_trajectory_in, Trajectory};
pub use workspace::SolveWorkspace;

use pipeline_model::prelude::*;

/// Identifier of a scheduling heuristic: the paper's six, plus the §7
/// heterogeneous-platform extension.
///
/// `Table 1` of the paper numbers the first six H1..H6 in the order
/// below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeuristicKind {
    /// H1 — "Sp mono P": splitting, mono-criterion, fixed period.
    SpMonoP,
    /// H2 (paper H2a) — "3-Explo mono": 3-way exploration, fixed period.
    ThreeExploMono,
    /// H3 (paper H2b) — "3-Explo bi": 3-way exploration with the
    /// `Δlatency/Δperiod` choice, fixed period.
    ThreeExploBi,
    /// H4 (paper H3) — "Sp bi P": binary search over the authorized
    /// latency, fixed period.
    SpBiP,
    /// H5 (paper H4) — "Sp mono L": splitting, mono-criterion, fixed
    /// latency.
    SpMonoL,
    /// H6 (paper H5) — "Sp bi L": bi-criteria splitting, fixed latency.
    SpBiL,
    /// H7 — [`hetero::hetero_sp_mono_p_in`], the §7 extension: splitting with
    /// per-link bandwidths, fixed period. The only heuristic applicable
    /// to fully heterogeneous platforms; excluded from [`Self::ALL`]
    /// because the paper's Table 1 covers H1..H6 only.
    HeteroSplit,
}

impl HeuristicKind {
    /// The paper's six heuristics in Table-1 order (excludes the
    /// [`Self::HeteroSplit`] extension).
    pub const ALL: [HeuristicKind; 6] = [
        HeuristicKind::SpMonoP,
        HeuristicKind::ThreeExploMono,
        HeuristicKind::ThreeExploBi,
        HeuristicKind::SpBiP,
        HeuristicKind::SpMonoL,
        HeuristicKind::SpBiL,
    ];

    /// The plot label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            HeuristicKind::SpMonoP => "Sp mono, P fix",
            HeuristicKind::ThreeExploMono => "3-Explo mono",
            HeuristicKind::ThreeExploBi => "3-Explo bi",
            HeuristicKind::SpBiP => "Sp bi, P fix",
            HeuristicKind::SpMonoL => "Sp mono, L fix",
            HeuristicKind::SpBiL => "Sp bi, L fix",
            HeuristicKind::HeteroSplit => "Het split, P fix",
        }
    }

    /// Table-1 row name (H1..H6; the extension reports as H7).
    pub fn table_name(&self) -> &'static str {
        match self {
            HeuristicKind::SpMonoP => "H1",
            HeuristicKind::ThreeExploMono => "H2",
            HeuristicKind::ThreeExploBi => "H3",
            HeuristicKind::SpBiP => "H4",
            HeuristicKind::SpMonoL => "H5",
            HeuristicKind::SpBiL => "H6",
            HeuristicKind::HeteroSplit => "H7",
        }
    }

    /// Hyphenated machine-friendly name, one of the spellings
    /// [`HeuristicKind::from_str`](std::str::FromStr) accepts.
    pub fn slug(&self) -> &'static str {
        match self {
            HeuristicKind::SpMonoP => "sp-mono-p",
            HeuristicKind::ThreeExploMono => "3-explo-mono",
            HeuristicKind::ThreeExploBi => "3-explo-bi",
            HeuristicKind::SpBiP => "sp-bi-p",
            HeuristicKind::SpMonoL => "sp-mono-l",
            HeuristicKind::SpBiL => "sp-bi-l",
            HeuristicKind::HeteroSplit => "het-split",
        }
    }

    /// True for the heuristics that fix the period and minimize latency.
    pub fn is_period_fixed(&self) -> bool {
        matches!(
            self,
            HeuristicKind::SpMonoP
                | HeuristicKind::ThreeExploMono
                | HeuristicKind::ThreeExploBi
                | HeuristicKind::SpBiP
                | HeuristicKind::HeteroSplit
        )
    }

    /// True when the heuristic can run on the given platform: the paper's
    /// six require Communication Homogeneous platforms, the
    /// [`Self::HeteroSplit`] extension runs anywhere.
    pub fn applicable_to(&self, platform: &Platform) -> bool {
        matches!(self, HeuristicKind::HeteroSplit) || platform.is_comm_homogeneous()
    }

    /// Runs the heuristic with its natural constraint (`target` is a
    /// period bound for the period-fixed heuristics, a latency bound
    /// otherwise), on the caller's workspace scratch.
    pub fn run_in(
        &self,
        cm: &CostModel<'_>,
        target: f64,
        ws: &mut SolveWorkspace,
    ) -> BiCriteriaResult {
        match self {
            HeuristicKind::SpMonoP => sp_mono_p_in(cm, target, ws),
            HeuristicKind::ThreeExploMono => three_explo_mono_in(cm, target, ws),
            HeuristicKind::ThreeExploBi => three_explo_bi_in(cm, target, ws),
            HeuristicKind::SpBiP => sp_bi_p_in(cm, target, SpBiPOptions::default(), ws),
            HeuristicKind::SpMonoL => sp_mono_l_in(cm, target, ws),
            HeuristicKind::SpBiL => sp_bi_l_in(cm, target, ws),
            HeuristicKind::HeteroSplit => {
                hetero::hetero_sp_mono_p_in(cm, target, hetero::HeteroSplitOptions::default(), ws)
            }
        }
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for HeuristicKind {
    type Err = service::UnknownSolver;

    /// Parses any of a heuristic's names, case-insensitively: the Table-1
    /// code (`h1`…`h7`), the plot label (`Sp mono, P fix`, …), or a
    /// hyphenated slug (`sp-mono-p`, `3-explo-bi`, `het-split`, `het`).
    /// `Display` round-trips through here.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let all = HeuristicKind::ALL
            .into_iter()
            .chain([HeuristicKind::HeteroSplit]);
        for kind in all {
            if lower == kind.table_name().to_ascii_lowercase()
                || lower == kind.label().to_ascii_lowercase()
                || lower == kind.slug()
            {
                return Ok(kind);
            }
        }
        if lower == "het" {
            return Ok(HeuristicKind::HeteroSplit);
        }
        Err(service::UnknownSolver {
            input: s.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};

    #[test]
    fn kinds_metadata() {
        assert_eq!(HeuristicKind::ALL.len(), 6);
        assert_eq!(HeuristicKind::SpMonoP.table_name(), "H1");
        assert_eq!(HeuristicKind::SpBiL.table_name(), "H6");
        assert!(HeuristicKind::SpBiP.is_period_fixed());
        assert!(!HeuristicKind::SpMonoL.is_period_fixed());
        assert_eq!(HeuristicKind::ThreeExploBi.to_string(), "3-Explo bi");
    }

    #[test]
    fn every_heuristic_runs_on_a_random_instance() {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 10, 10));
        let (app, pf) = gen.instance(1, 0);
        let cm = CostModel::new(&app, &pf);
        let single_period = cm.single_proc_period();
        let l_opt = cm.optimal_latency();
        for kind in HeuristicKind::ALL {
            // A generous target every heuristic can satisfy.
            let target = if kind.is_period_fixed() {
                single_period * 2.0
            } else {
                l_opt * 4.0
            };
            let res = kind.run_in(&cm, target, &mut SolveWorkspace::new());
            assert!(res.feasible, "{kind} infeasible at a trivial target");
            let (p, l) = cm.evaluate(&res.mapping);
            assert!((p - res.period).abs() < 1e-9);
            assert!((l - res.latency).abs() < 1e-9);
            if kind.is_period_fixed() {
                assert!(res.period <= target + 1e-9);
            } else {
                assert!(res.latency <= target + 1e-9);
            }
        }
    }
}
