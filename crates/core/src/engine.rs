//! The generic splitting engine: one drive loop for all seven
//! heuristics.
//!
//! Every heuristic of the paper (and the §7 heterogeneous extension)
//! shares the same skeleton — start from the Lemma-1 mapping, repeatedly
//! split the bottleneck interval, stop when a target is met or no split
//! qualifies. Before this module the skeleton was duplicated across
//! `split.rs`, `explore.rs`, `hetero.rs` and `trajectory.rs`, each copy
//! with its own stop condition, selection rule and (for the trajectory
//! recorders) its own snapshotting loop. [`SplitEngine`] owns the loop
//! once; each heuristic is a thin [`SplitPolicy`]:
//!
//! | heuristic | policy |
//! |-----------|--------|
//! | H1 `Sp mono P` | [`MonoPeriodPolicy`] |
//! | H2a/H2b `3-Explo` | [`ExplorePolicy`] |
//! | H3 `Sp bi P` (inner runs) | [`BiPeriodPolicy`] |
//! | H4/H5 `Sp mono/bi L` | [`BudgetedPolicy`] |
//! | H7 hetero split | [`crate::hetero::HeteroPolicy`] |
//!
//! Trajectories are recorded **by the engine itself**
//! ([`SplitEngine::trajectory_in`]): any policy can be run to exhaustion
//! with a snapshot per split, which is how the bound-independent
//! H1/H2a/H2b/H7 trajectories that back the sweep harness and the
//! service caches are produced. Snapshots go straight into the
//! [`Trajectory`] arena — no per-point mapping clone.
//!
//! Every entry point threads a caller-owned [`SolveWorkspace`], whose
//! recycled buffers make the steady-state loop allocation-free; results
//! are pinned bit-identical to the pre-refactor per-heuristic loops by
//! `tests/kernel_identity.rs`.

use crate::state::{BiCriteriaResult, SplitMemo, SplitState};
use crate::trajectory::Trajectory;
use crate::workspace::SolveWorkspace;
use pipeline_model::prelude::*;
use pipeline_model::util::approx_le;

/// What the engine needs from a policy's mutable state: the current
/// period (for progress checks) and the ability to freeze the state into
/// results and trajectory points.
pub trait EngineState {
    /// Current period of the state.
    fn period(&self) -> f64;
    /// Records the current state as one trajectory point (into the
    /// trajectory's arena — implementations must not allocate beyond the
    /// arena pushes).
    fn record(&self, traj: &mut Trajectory);
    /// Packages the current state as a heuristic result.
    fn to_result(&self, feasible: bool) -> BiCriteriaResult;
    /// Returns recyclable heap buffers to the workspace when the run
    /// ends. States without recyclable storage keep the default no-op.
    fn reclaim(self, ws: &mut SolveWorkspace)
    where
        Self: Sized,
    {
        let _ = ws;
    }
}

impl EngineState for SplitState<'_> {
    fn period(&self) -> f64 {
        SplitState::period(self)
    }

    fn record(&self, traj: &mut Trajectory) {
        traj.push_point(
            self.period(),
            self.latency(),
            self.entries().iter().map(|e| (e.end, e.proc)),
        );
    }

    fn to_result(&self, feasible: bool) -> BiCriteriaResult {
        SplitState::to_result(self, feasible)
    }

    fn reclaim(self, ws: &mut SolveWorkspace) {
        ws.restore_split(self.into_buffers());
    }
}

/// One heuristic's behaviour, plugged into [`SplitEngine`]'s drive loop.
///
/// Policies take `&mut self` so they can carry per-run context (the
/// init-time feasibility verdict of the latency-budget heuristics, the
/// shared [`SplitMemo`] of H3's probe runs).
pub trait SplitPolicy {
    /// The mutable state the policy drives (borrows the cost model).
    type State<'a>: EngineState;

    /// Builds the initial (Lemma 1) state, adopting recycled buffers from
    /// the workspace where the state supports it.
    fn init<'a>(&mut self, cm: &CostModel<'a>, ws: &mut SolveWorkspace) -> Self::State<'a>;

    /// Checked at the top of every iteration, before attempting a split:
    /// `Some(feasible)` stops the run with that verdict, `None`
    /// continues.
    fn verdict(&mut self, st: &Self::State<'_>) -> Option<bool>;

    /// Selects and applies one split; `false` when no split qualifies
    /// (the run is exhausted).
    fn step(&mut self, st: &mut Self::State<'_>) -> bool;

    /// The feasibility verdict when the run exhausts without
    /// [`Self::verdict`] having stopped it.
    fn exhausted_feasible(&mut self, st: &Self::State<'_>) -> bool;
}

/// The drive loop shared by every heuristic (see the module docs).
pub struct SplitEngine;

impl SplitEngine {
    /// Runs a policy to its verdict: init, then alternate
    /// [`SplitPolicy::verdict`] and [`SplitPolicy::step`] until one of
    /// them ends the run. The workspace's recycled buffers make the loop
    /// allocation-free once warm; results are bit-identical either way.
    pub fn run_in<P: SplitPolicy>(
        policy: &mut P,
        cm: &CostModel<'_>,
        ws: &mut SolveWorkspace,
    ) -> BiCriteriaResult {
        let mut st = policy.init(cm, ws);
        loop {
            if let Some(feasible) = policy.verdict(&st) {
                let result = st.to_result(feasible);
                st.reclaim(ws);
                return result;
            }
            if !policy.step(&mut st) {
                let feasible = policy.exhausted_feasible(&st);
                let result = st.to_result(feasible);
                st.reclaim(ws);
                return result;
            }
        }
    }

    /// Runs a policy to exhaustion, ignoring its verdict, and records a
    /// snapshot per state — the bound-independent trajectory that answers
    /// every target of a fixed-period heuristic from one run. Snapshots
    /// land in the trajectory arena; the split loop itself reuses the
    /// workspace buffers.
    pub fn trajectory_in<P: SplitPolicy>(
        policy: &mut P,
        cm: &CostModel<'_>,
        ws: &mut SolveWorkspace,
    ) -> Trajectory {
        let mut st = policy.init(cm, ws);
        let mut traj = Trajectory::new();
        st.record(&mut traj);
        while policy.step(&mut st) {
            st.record(&mut traj);
        }
        st.reclaim(ws);
        traj
    }
}

/// H1 — mono-criterion two-way splitting toward a period target.
#[derive(Debug, Clone, Copy)]
pub struct MonoPeriodPolicy {
    /// The period bound to reach.
    pub target: f64,
}

impl SplitPolicy for MonoPeriodPolicy {
    type State<'a> = SplitState<'a>;

    fn init<'a>(&mut self, cm: &CostModel<'a>, ws: &mut SolveWorkspace) -> SplitState<'a> {
        SplitState::new_in(cm, ws.take_split())
    }

    fn verdict(&mut self, st: &SplitState<'_>) -> Option<bool> {
        approx_le(st.period(), self.target).then_some(true)
    }

    fn step(&mut self, st: &mut SplitState<'_>) -> bool {
        let j = st.bottleneck();
        match st.best_split2_mono(j, None) {
            Some(s) => {
                st.apply_split2(j, s);
                true
            }
            None => false,
        }
    }

    fn exhausted_feasible(&mut self, _st: &SplitState<'_>) -> bool {
        false
    }
}

/// H4/H5 — two-way splitting under a latency budget (mono- or
/// bi-criteria selection). Feasibility is decided at init: the budget is
/// satisfiable iff it admits the Lemma-1 latency.
#[derive(Debug, Clone, Copy)]
pub struct BudgetedPolicy {
    budget: f64,
    bi: bool,
    feasible_at_init: bool,
}

impl BudgetedPolicy {
    /// H4's mono-criterion selection under `budget`.
    pub fn mono(budget: f64) -> Self {
        BudgetedPolicy {
            budget,
            bi: false,
            feasible_at_init: false,
        }
    }

    /// H5's bi-criteria selection under `budget`.
    pub fn bi(budget: f64) -> Self {
        BudgetedPolicy {
            budget,
            bi: true,
            feasible_at_init: false,
        }
    }
}

impl SplitPolicy for BudgetedPolicy {
    type State<'a> = SplitState<'a>;

    fn init<'a>(&mut self, cm: &CostModel<'a>, ws: &mut SolveWorkspace) -> SplitState<'a> {
        let st = SplitState::new_in(cm, ws.take_split());
        self.feasible_at_init = approx_le(st.latency(), self.budget);
        st
    }

    fn verdict(&mut self, _st: &SplitState<'_>) -> Option<bool> {
        None // run until no split fits the budget
    }

    fn step(&mut self, st: &mut SplitState<'_>) -> bool {
        let j = st.bottleneck();
        let split = if self.bi {
            st.best_split2_bi(j, Some(self.budget))
        } else {
            st.best_split2_mono(j, Some(self.budget))
        };
        match split {
            Some(s) => {
                st.apply_split2(j, s);
                true
            }
            None => false,
        }
    }

    fn exhausted_feasible(&mut self, _st: &SplitState<'_>) -> bool {
        self.feasible_at_init
    }
}

/// H2a/H2b — three-way exploration of the bottleneck interval toward a
/// period target, with the two-way fallback of [`crate::explore`]
/// when the interval has fewer than three stages or a single processor
/// remains.
#[derive(Debug, Clone, Copy)]
pub struct ExplorePolicy {
    /// The period bound to reach.
    pub target: f64,
    /// Bi-criteria (`Δlatency/Δperiod`) selection instead of
    /// mono-criterion.
    pub bi: bool,
}

impl SplitPolicy for ExplorePolicy {
    type State<'a> = SplitState<'a>;

    fn init<'a>(&mut self, cm: &CostModel<'a>, ws: &mut SolveWorkspace) -> SplitState<'a> {
        SplitState::new_in(cm, ws.take_split())
    }

    fn verdict(&mut self, st: &SplitState<'_>) -> Option<bool> {
        approx_le(st.period(), self.target).then_some(true)
    }

    fn step(&mut self, st: &mut SplitState<'_>) -> bool {
        let j = st.bottleneck();
        let e = st.entries()[j];
        let three_possible = e.end - e.start >= 3 && st.n_unused() >= 2;
        if three_possible {
            // The paper's exploration considers only 3-way moves when
            // they are possible: no improving 3-way split means stuck.
            let s3 = if self.bi {
                st.best_split3_bi(j)
            } else {
                st.best_split3_mono(j)
            };
            return match s3 {
                Some(s) => {
                    st.apply_split3(j, s);
                    true
                }
                None => false,
            };
        }
        let s2 = if self.bi {
            st.best_split2_bi(j, None)
        } else {
            st.best_split2_mono(j, None)
        };
        match s2 {
            Some(s) => {
                st.apply_split2(j, s);
                true
            }
            None => false,
        }
    }

    fn exhausted_feasible(&mut self, _st: &SplitState<'_>) -> bool {
        false
    }
}

/// The inner runs of H3 — bi-criteria splitting toward a period target
/// under an optional authorized-latency budget. Holds the memo shared by
/// all probe runs of one binary search, so replayed split prefixes are
/// selected from cache (see [`SplitMemo`]).
#[derive(Debug)]
pub struct BiPeriodPolicy<'m> {
    /// The period bound to reach.
    pub target: f64,
    /// The authorized latency (`None` on the exploratory unconstrained
    /// run).
    pub budget: Option<f64>,
    /// Use `min_i Δperiod(i)` in the ratio denominator (the corrected H3
    /// formula); `false` reproduces the paper's literal `Δperiod(j)`.
    pub denominator_over_i: bool,
    /// Selection memo shared across probe runs.
    pub memo: &'m mut SplitMemo,
}

impl SplitPolicy for BiPeriodPolicy<'_> {
    type State<'a> = SplitState<'a>;

    fn init<'a>(&mut self, cm: &CostModel<'a>, ws: &mut SolveWorkspace) -> SplitState<'a> {
        SplitState::new_in(cm, ws.take_split())
    }

    fn verdict(&mut self, st: &SplitState<'_>) -> Option<bool> {
        approx_le(st.period(), self.target).then_some(true)
    }

    fn step(&mut self, st: &mut SplitState<'_>) -> bool {
        let j = st.bottleneck();
        let split = if self.denominator_over_i {
            st.best_split2_bi_memo(j, self.budget, self.memo)
        } else {
            st.best_split2_bi_denom_j_memo(j, self.budget, self.memo)
        };
        match split {
            Some(s) => {
                st.apply_split2(j, s);
                true
            }
            None => false,
        }
    }

    fn exhausted_feasible(&mut self, _st: &SplitState<'_>) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};

    fn instance(seed: u64) -> (Application, Platform) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 12, 8));
        gen.instance(seed, 0)
    }

    #[test]
    fn engine_run_matches_policy_free_functions() {
        // The public heuristic entry points are wrappers over the engine;
        // running the policies directly must agree with them bitwise.
        let mut ws = SolveWorkspace::new();
        let (app, pf) = instance(7);
        let cm = CostModel::new(&app, &pf);
        let target = 0.6 * cm.single_proc_period();
        let via_engine = SplitEngine::run_in(&mut MonoPeriodPolicy { target }, &cm, &mut ws);
        let via_fn = crate::sp_mono_p_in(&cm, target, &mut ws);
        assert_eq!(via_engine.feasible, via_fn.feasible);
        assert_eq!(via_engine.period.to_bits(), via_fn.period.to_bits());
        assert_eq!(via_engine.latency.to_bits(), via_fn.latency.to_bits());
        assert_eq!(via_engine.mapping, via_fn.mapping);
    }

    #[test]
    fn engine_trajectory_is_prefix_consistent_with_runs() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = instance(9);
        let cm = CostModel::new(&app, &pf);
        let traj = SplitEngine::trajectory_in(
            &mut ExplorePolicy {
                target: 0.0,
                bi: true,
            },
            &cm,
            &mut ws,
        );
        assert!(traj.len() > 1, "must have split at least once");
        // Each point must be reachable as a direct run with its own
        // period as the target.
        for pt in traj.iter() {
            let direct = crate::three_explo_bi_in(&cm, pt.period(), &mut ws);
            assert!(direct.feasible);
            assert!(direct.period <= pt.period() + pipeline_model::util::EPS);
        }
    }

    #[test]
    fn budgeted_policy_records_init_feasibility() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = instance(11);
        let cm = CostModel::new(&app, &pf);
        let l_opt = cm.optimal_latency();
        let ok = SplitEngine::run_in(&mut BudgetedPolicy::mono(l_opt), &cm, &mut ws);
        assert!(ok.feasible);
        let too_tight = SplitEngine::run_in(&mut BudgetedPolicy::mono(0.5 * l_opt), &cm, &mut ws);
        assert!(!too_tight.feasible);
    }

    #[test]
    fn bi_period_policy_shares_its_memo_across_runs() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = instance(13);
        let cm = CostModel::new(&app, &pf);
        let target = 0.7 * cm.single_proc_period();
        let mut memo = SplitMemo::new();
        let first = SplitEngine::run_in(
            &mut BiPeriodPolicy {
                target,
                budget: None,
                denominator_over_i: true,
                memo: &mut memo,
            },
            &cm,
            &mut ws,
        );
        // A warm-memo replay of the same run must be bit-identical.
        let second = SplitEngine::run_in(
            &mut BiPeriodPolicy {
                target,
                budget: None,
                denominator_over_i: true,
                memo: &mut memo,
            },
            &cm,
            &mut ws,
        );
        assert_eq!(first.period.to_bits(), second.period.to_bits());
        assert_eq!(first.latency.to_bits(), second.latency.to_bits());
        assert_eq!(first.mapping, second.mapping);
    }
}
