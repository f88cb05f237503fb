//! Solver-service API v1: prepared instances answering typed solve
//! requests with structured reports and errors.
//!
//! The paper's contribution is a *family* of bi-criteria queries —
//! minimize latency under a period bound, minimize period under a latency
//! bound, and the binary search over the authorized latency — and its
//! journal extension frames the heuristics as answering a *continuum* of
//! bound queries. A one-shot solve call would answer exactly one
//! (objective, bound) pair, recompute every heuristic trajectory from
//! scratch, and lose *why* a query failed. This module is a session
//! model instead:
//!
//! * [`PreparedInstance`] owns one (application, platform) pair and
//!   lazily memoizes everything *bound-independent* about it — the
//!   H1/H2a/H2b/H7 split trajectories (indexed for O(log) bound queries),
//!   the H4 period floor, and the exact Pareto front on small instances —
//!   so any number of requests against the same instance are answered
//!   from caches;
//! * [`SolveRequest`] is a typed query (objective × strategy × tolerance)
//!   and [`PreparedInstance::solve`] returns
//!   `Result<SolveReport, SolveError>`: reports carry a `Copy`
//!   [`SolverId`] provenance (no per-solve `String` allocation), errors
//!   carry structured diagnostics such as
//!   [`SolveError::BoundBelowFloor`] with the instance's feasibility
//!   floor;
//! * [`Objective::ParetoFront`] materializes the full period/latency
//!   front through the existing [`ParetoFront`] type — exact on small
//!   instances, the union of the memoized trajectories otherwise.
//!
//! Batched solving maps [`PreparedInstance::solve_in`] over the sharded
//! work-queue engine (`pipeline_experiments::shard::sharded_map_items_with`,
//! one workspace per worker); the line-oriented wire
//! format the `pwsched solve --stdin` service speaks lives in
//! [`pipeline_model::io`] (this module provides the conversions).

use crate::exact;
use crate::pareto::ParetoFront;
use crate::solve::{Objective, Strategy};
use crate::state::BiCriteriaResult;
use crate::trajectory::{fixed_period_trajectory_in, Trajectory, TrajectoryKind};
use crate::workspace::SolveWorkspace;
use crate::{hetero, sp_bi_l_in, sp_bi_p_in, sp_mono_l_in, HeuristicKind, SpBiPOptions};
use pipeline_model::io::{WireFailure, WireObjective, WireReport, WireRequest, WireSolved};
use pipeline_model::prelude::*;
use pipeline_model::util::{approx_le, definitely_lt};
use std::sync::OnceLock;

/// Identifies what produced a result. `Copy`, so provenance costs nothing
/// in the best-of-all hot loop (the old `Solution.solver: String`
/// allocated per heuristic per instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverId {
    /// Exhaustive bi-criteria enumeration ([`crate::exact`]).
    Exact,
    /// One of the splitting heuristics.
    Heuristic(HeuristicKind),
}

impl SolverId {
    /// Human-readable name (`"exact"` or the heuristic's plot label).
    pub fn label(&self) -> &'static str {
        match self {
            SolverId::Exact => "exact",
            SolverId::Heuristic(kind) => kind.label(),
        }
    }

    /// Compact wire code: `exact`, `h1`…`h7`.
    pub fn code(&self) -> &'static str {
        match self {
            SolverId::Exact => "exact",
            SolverId::Heuristic(kind) => match kind {
                HeuristicKind::SpMonoP => "h1",
                HeuristicKind::ThreeExploMono => "h2",
                HeuristicKind::ThreeExploBi => "h3",
                HeuristicKind::SpBiP => "h4",
                HeuristicKind::SpMonoL => "h5",
                HeuristicKind::SpBiL => "h6",
                HeuristicKind::HeteroSplit => "h7",
            },
        }
    }
}

impl std::fmt::Display for SolverId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for SolverId {
    type Err = UnknownSolver;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("exact") {
            return Ok(SolverId::Exact);
        }
        s.parse::<HeuristicKind>().map(SolverId::Heuristic)
    }
}

/// Error of the solver-name parsers ([`HeuristicKind`], [`Strategy`],
/// [`SolverId`] `FromStr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSolver {
    /// The string that did not name a solver.
    pub input: String,
}

impl std::fmt::Display for UnknownSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown solver {:?}", self.input)
    }
}

impl std::error::Error for UnknownSolver {}

/// Why a solve request could not be answered. Every variant is a
/// diagnosis, not a shrug: infeasible bounds carry the instance's
/// feasibility floor so callers can re-ask a satisfiable query.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The requested bound is below the tightest value the chosen
    /// strategy can satisfy on this instance. Any bound ≥ `floor` is
    /// satisfiable.
    BoundBelowFloor {
        /// The offending bound.
        bound: f64,
        /// The strategy's feasibility floor (a period for period-bound
        /// queries, `L_opt` for latency-bound ones).
        floor: f64,
    },
    /// The solver cannot run on this platform (the paper's six heuristics
    /// and the exact enumerator require Communication Homogeneous links).
    NotApplicableToPlatform {
        /// Which solver was refused.
        solver: SolverId,
    },
    /// The solver class cannot express the objective (e.g. a
    /// latency-fixed heuristic asked to bound the period, or a
    /// Pareto-front query on the bound-dependent H4/H5/H6).
    ObjectiveNotExpressible {
        /// Which solver was asked.
        solver: SolverId,
        /// The objective it cannot express.
        objective: Objective,
    },
    /// The instance exceeds the exact enumerator's guard
    /// ([`exact::MAX_STAGES`]).
    InstanceTooLarge {
        /// Stage count of the instance.
        n_stages: usize,
        /// Largest stage count the enumerator accepts.
        max_stages: usize,
    },
    /// No solver of the strategy applied to this (platform, objective)
    /// pair at all.
    NoApplicableSolver,
    /// The request carried a NaN bound — no feasibility comparison can
    /// answer it.
    InvalidBound,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::BoundBelowFloor { bound, floor } => write!(
                f,
                "bound {bound} is below the feasibility floor {floor} (any bound >= {floor} is satisfiable)"
            ),
            SolveError::NotApplicableToPlatform { solver } => write!(
                f,
                "solver '{solver}' requires a Communication Homogeneous platform"
            ),
            SolveError::ObjectiveNotExpressible { solver, objective } => {
                write!(f, "solver '{solver}' cannot express objective {objective:?}")
            }
            SolveError::InstanceTooLarge {
                n_stages,
                max_stages,
            } => write!(
                f,
                "exact enumeration refuses n = {n_stages} stages (guard: {max_stages})"
            ),
            SolveError::NoApplicableSolver => {
                write!(f, "no solver of the strategy applies to this platform/objective")
            }
            SolveError::InvalidBound => write!(f, "the requested bound is NaN"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A typed solve query: what to optimize, how, and how precisely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveRequest {
    /// What to optimize.
    pub objective: Objective,
    /// How to solve (defaults to [`Strategy::Auto`]).
    pub strategy: Strategy,
    /// Relative tolerance of bound searches (H4's binary search over the
    /// authorized latency). Defaults to
    /// `SpBiPOptions::default().rel_tolerance`.
    pub tolerance: f64,
}

impl SolveRequest {
    /// Largest `n` for which [`Strategy::Auto`] picks the exact solver.
    /// Raised from 12 to 14 when the branch-and-bound exact
    /// solver v2 replaced the blind enumeration, and from 14 to 18 with
    /// the v3 dominance DP ([`exact::supports_dominance_dp`]): where the
    /// DP routes, n = 18 is milliseconds, and where it does not, the v2
    /// pruned search still answers interactively at that size.
    pub const DEFAULT_EXACT_CUTOFF: usize = 18;

    /// A request with `Auto` strategy and default tolerances.
    pub fn new(objective: Objective) -> Self {
        SolveRequest {
            objective,
            strategy: Strategy::Auto,
            tolerance: SpBiPOptions::default().rel_tolerance,
        }
    }

    /// Sets the strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the bound-search tolerance.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

// Auto never routes to the exact solver above its guard.
const _: () = assert!(SolveRequest::DEFAULT_EXACT_CUTOFF <= exact::MAX_STAGES);

/// A solve outcome with `Copy` provenance and, for front queries, the
/// materialized Pareto front.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// What produced [`Self::result`].
    pub solver: SolverId,
    /// The best scheduling result for the objective (for
    /// [`Objective::ParetoFront`], the minimum-period front point).
    pub result: BiCriteriaResult,
    /// The full period/latency front, present only for
    /// [`Objective::ParetoFront`] requests. Each point's payload names
    /// the solver that contributed it.
    pub front: Option<ParetoFront<SolverId>>,
}

/// A trajectory plus its prefix-minimum period index: bound queries
/// binary-search the (monotone) prefix minima and return exactly the
/// point the linear scan of [`Trajectory::result_for_period`] would —
/// O(log splits) per query instead of O(splits).
#[derive(Debug, Clone)]
pub struct CachedTrajectory {
    traj: Trajectory,
    /// `prefix_min[i] = min(points[0..=i].period)` — non-increasing even
    /// where the raw period path jitters within `EPS`.
    prefix_min: Vec<f64>,
}

/// The allocation-free answer of a [`CachedTrajectory::lookup`]: the
/// point's coordinates and index, without materializing its mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundLookup {
    /// Index of the answering trajectory point.
    pub index: usize,
    /// Its period.
    pub period: f64,
    /// Its latency.
    pub latency: f64,
    /// Whether the target was satisfied (false: the floor point is
    /// reported).
    pub feasible: bool,
}

impl CachedTrajectory {
    fn new(traj: Trajectory) -> Self {
        let mut prefix_min = Vec::with_capacity(traj.len());
        let mut running = f64::INFINITY;
        for &p in traj.periods() {
            running = running.min(p);
            prefix_min.push(running);
        }
        CachedTrajectory { traj, prefix_min }
    }

    /// The underlying trajectory.
    pub fn trajectory(&self) -> &Trajectory {
        &self.traj
    }

    /// The trajectory's period floor.
    pub fn min_period(&self) -> f64 {
        self.traj.min_period()
    }

    /// O(log) coordinate-only bound query: resolves to exactly the point
    /// [`Trajectory::result_for_period`]'s linear scan would return, but
    /// performs **zero heap allocations** — the re-query fast path of a
    /// warm [`PreparedInstance`] (pinned by `tests/alloc_regression.rs`).
    pub fn lookup(&self, period_target: f64) -> BoundLookup {
        let i = self
            .prefix_min
            .partition_point(|&m| !approx_le(m, period_target));
        let (index, feasible) = if i < self.traj.len() {
            (i, true)
        } else {
            (self.traj.len() - 1, false)
        };
        BoundLookup {
            index,
            period: self.traj.period(index),
            latency: self.traj.latency(index),
            feasible,
        }
    }

    /// O(log) bound query, bit-identical to
    /// [`Trajectory::result_for_period`]: the first point whose period
    /// satisfies the target, or the last point flagged infeasible.
    pub fn result_for_period(&self, period_target: f64) -> BiCriteriaResult {
        let hit = self.lookup(period_target);
        BiCriteriaResult {
            mapping: self.traj.mapping(hit.index),
            period: hit.period,
            latency: hit.latency,
            feasible: hit.feasible,
        }
    }
}

/// One instance, prepared for any number of solve requests.
///
/// Owns the application and platform, and lazily memoizes every
/// bound-independent artifact the solvers need. All caches are
/// [`OnceLock`]s, so a `PreparedInstance` is `Send + Sync` and can be
/// shared (e.g. behind an `Arc`) across the threads of a batched solve.
#[derive(Debug)]
pub struct PreparedInstance {
    app: Application,
    platform: Platform,
    p_init: f64,
    l_opt: f64,
    comm_homogeneous: bool,
    h1: OnceLock<CachedTrajectory>,
    h2a: OnceLock<CachedTrajectory>,
    h2b: OnceLock<CachedTrajectory>,
    het: OnceLock<CachedTrajectory>,
    /// H4's unconstrained run (its per-instance failure threshold), at
    /// the default tolerance.
    sp_bi_p_floor_run: OnceLock<BiCriteriaResult>,
    exact_min_period: OnceLock<(f64, IntervalMapping)>,
    exact_front: OnceLock<ParetoFront<IntervalMapping>>,
}

impl PreparedInstance {
    /// Prepares an instance. Cheap: only the scalar landmarks are
    /// computed eagerly; trajectories, floors and the exact front
    /// materialize on first use.
    pub fn new(app: Application, platform: Platform) -> Self {
        // Lemma 1: the whole pipeline on the fastest processor gives the
        // optimal latency and the period every heuristic starts from.
        let (p_init, l_opt) = CostModel::new(&app, &platform)
            .evaluate(&IntervalMapping::all_on_fastest(&app, &platform));
        let comm_homogeneous = platform.is_comm_homogeneous();
        PreparedInstance {
            app,
            platform,
            p_init,
            l_opt,
            comm_homogeneous,
            h1: OnceLock::new(),
            h2a: OnceLock::new(),
            h2b: OnceLock::new(),
            het: OnceLock::new(),
            sp_bi_p_floor_run: OnceLock::new(),
            exact_min_period: OnceLock::new(),
            exact_front: OnceLock::new(),
        }
    }

    /// The application.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// A cost model bound to this instance.
    pub fn cost_model(&self) -> CostModel<'_> {
        CostModel::new(&self.app, &self.platform)
    }

    /// Single-processor (Lemma 1) period — where every heuristic starts.
    pub fn single_proc_period(&self) -> f64 {
        self.p_init
    }

    /// Optimal latency `L_opt` — the floor of every latency-bound query.
    pub fn optimal_latency(&self) -> f64 {
        self.l_opt
    }

    /// The Lemma 1 mapping with its landmarks: the answer to every
    /// [`Objective::MinLatency`] query.
    fn lemma_1(&self) -> BiCriteriaResult {
        BiCriteriaResult {
            mapping: IntervalMapping::all_on_fastest(&self.app, &self.platform),
            period: self.p_init,
            latency: self.l_opt,
            feasible: true,
        }
    }

    /// Forces the bound-independent caches of this instance's platform
    /// class (the paper trajectories + H4 floor on Communication
    /// Homogeneous platforms, the §7 trajectory otherwise). Useful inside
    /// worker shards, where eager evaluation is what parallelizes.
    pub fn prepare(&self) -> &Self {
        self.prepare_in(&mut SolveWorkspace::new())
    }

    /// [`Self::prepare`] reusing a caller-owned workspace: the batch form
    /// — one workspace per worker shard amortizes all solver scratch
    /// across the items the shard prepares.
    pub fn prepare_in(&self, ws: &mut SolveWorkspace) -> &Self {
        if self.comm_homogeneous {
            self.trajectory_in(HeuristicKind::SpMonoP, ws);
            self.trajectory_in(HeuristicKind::ThreeExploMono, ws);
            self.trajectory_in(HeuristicKind::ThreeExploBi, ws);
            self.sp_bi_p_floor_in(ws);
        } else {
            self.trajectory_in(HeuristicKind::HeteroSplit, ws);
        }
        self
    }

    /// Applies an [`InstanceDelta`], preparing the updated instance while
    /// reusing every memoized artifact the delta does not invalidate.
    /// The online re-solve entry point: a platform drifts (a processor
    /// slows down, joins, leaves; a link degrades; a stage's work
    /// estimate is revised) and the service wants the next prepared
    /// instance without paying a cold start.
    ///
    /// Two reuse tiers, each provably observation-equivalent to a scratch
    /// [`PreparedInstance::new`] on the updated instance (pinned bitwise
    /// by `tests/delta_differential.rs`):
    ///
    /// * **Identity** — the delta reproduces every work, volume, speed
    ///   and bandwidth bit for bit: every populated cache (trajectories
    ///   with their prefix-min indices, the H4 floor run, the exact
    ///   front) carries over wholesale.
    /// * **Speed-only drift on a Communication Homogeneous platform** —
    ///   a recorded paper trajectory consults only a *prefix* of the
    ///   speed-descending processor order: the `n_used` processors it
    ///   enrolled plus the next candidates its stopping rule probed
    ///   (one for H1's single-split policy, two for the 3-exploration
    ///   policies). If that prefix is unchanged — same ids, same speed
    ///   bits — a re-run would replay bit-identically, so the cached
    ///   trajectory is kept; anything else about the platform may change
    ///   freely (the typical drift: a processor outside the working set
    ///   speeds up or slows down).
    pub fn apply(&self, delta: &InstanceDelta) -> Result<PreparedInstance, DeltaError> {
        let (app, platform) = delta.apply_to(&self.app, &self.platform)?;
        let next = PreparedInstance::new(app, platform);
        let same_app = bits_eq(self.app.works(), next.app.works())
            && bits_eq(self.app.deltas(), next.app.deltas());
        let same_links = links_bits_eq(self.platform.links(), next.platform.links());
        if same_app && same_links && bits_eq(self.platform.speeds(), next.platform.speeds()) {
            // Identity: the instances are indistinguishable, so every
            // cache answers for the new one.
            carry(&self.h1, &next.h1);
            carry(&self.h2a, &next.h2a);
            carry(&self.h2b, &next.h2b);
            carry(&self.het, &next.het);
            carry(&self.sp_bi_p_floor_run, &next.sp_bi_p_floor_run);
            carry(&self.exact_min_period, &next.exact_min_period);
            carry(&self.exact_front, &next.exact_front);
        } else if same_app && same_links && self.comm_homogeneous && next.comm_homogeneous {
            let tiers: [(
                &OnceLock<CachedTrajectory>,
                &OnceLock<CachedTrajectory>,
                usize,
            ); 3] = [
                (&self.h1, &next.h1, 1),
                (&self.h2a, &next.h2a, 2),
                (&self.h2b, &next.h2b, 2),
            ];
            for (old_lock, new_lock, lookahead) in tiers {
                let Some(cached) = old_lock.get() else {
                    continue;
                };
                let traj = cached.trajectory();
                let consulted = traj.n_intervals(traj.len() - 1) + lookahead;
                if order_prefix_unchanged(&self.platform, &next.platform, consulted) {
                    let _ = new_lock.set(cached.clone());
                }
            }
        }
        Ok(next)
    }

    /// [`Self::apply`] in the `*_in` calling convention of the other
    /// entry points. Nothing in the workspace crosses a delta (H4's
    /// selection memo starts empty in every solve), so it is unused.
    pub fn apply_in(
        &self,
        delta: &InstanceDelta,
        _ws: &mut SolveWorkspace,
    ) -> Result<PreparedInstance, DeltaError> {
        self.apply(delta)
    }

    /// The memoized bound-independent trajectory of a heuristic, when it
    /// has one and applies to this platform (`None` for the
    /// bound-dependent H4/H5/H6 and for paper heuristics on fully
    /// heterogeneous platforms).
    pub fn trajectory(&self, kind: HeuristicKind) -> Option<&CachedTrajectory> {
        self.trajectory_in(kind, &mut SolveWorkspace::new())
    }

    /// [`Self::trajectory`] reusing a caller-owned workspace for the
    /// recording run (a cache hit never touches the workspace).
    pub fn trajectory_in(
        &self,
        kind: HeuristicKind,
        ws: &mut SolveWorkspace,
    ) -> Option<&CachedTrajectory> {
        if !kind.applicable_to(&self.platform) {
            return None;
        }
        match kind {
            HeuristicKind::SpMonoP => Some(self.h1.get_or_init(|| {
                CachedTrajectory::new(fixed_period_trajectory_in(
                    &self.cost_model(),
                    TrajectoryKind::SplitMono,
                    ws,
                ))
            })),
            HeuristicKind::ThreeExploMono => Some(self.h2a.get_or_init(|| {
                CachedTrajectory::new(fixed_period_trajectory_in(
                    &self.cost_model(),
                    TrajectoryKind::ExploMono,
                    ws,
                ))
            })),
            HeuristicKind::ThreeExploBi => Some(self.h2b.get_or_init(|| {
                CachedTrajectory::new(fixed_period_trajectory_in(
                    &self.cost_model(),
                    TrajectoryKind::ExploBi,
                    ws,
                ))
            })),
            HeuristicKind::HeteroSplit => Some(self.het.get_or_init(|| {
                CachedTrajectory::new(hetero::hetero_trajectory_in(
                    &self.cost_model(),
                    hetero::HeteroSplitOptions::default(),
                    ws,
                ))
            })),
            HeuristicKind::SpBiP | HeuristicKind::SpMonoL | HeuristicKind::SpBiL => None,
        }
    }

    /// H4's memoized period floor (the period its unconstrained run
    /// bottoms out at). `None` on fully heterogeneous platforms, where H4
    /// does not apply.
    pub fn sp_bi_p_floor(&self) -> Option<f64> {
        self.sp_bi_p_floor_in(&mut SolveWorkspace::new())
    }

    /// [`Self::sp_bi_p_floor`] reusing a caller-owned workspace.
    pub fn sp_bi_p_floor_in(&self, ws: &mut SolveWorkspace) -> Option<f64> {
        self.comm_homogeneous
            .then(|| self.sp_bi_p_run_floor(ws).period)
    }

    fn sp_bi_p_run_floor(&self, ws: &mut SolveWorkspace) -> &BiCriteriaResult {
        self.sp_bi_p_floor_run
            .get_or_init(|| sp_bi_p_in(&self.cost_model(), 0.0, SpBiPOptions::default(), ws))
    }

    /// The tightest period any of this platform class's period-fixed
    /// heuristics reaches — the instance's best feasibility floor for
    /// period-bound queries (H1/H2a/H2b/H4 on Communication Homogeneous
    /// platforms, the §7 extension otherwise).
    pub fn best_period_floor(&self) -> f64 {
        self.best_period_floor_in(&mut SolveWorkspace::new())
    }

    /// [`Self::best_period_floor`] reusing a caller-owned workspace.
    fn best_period_floor_in(&self, ws: &mut SolveWorkspace) -> f64 {
        let kinds: &[HeuristicKind] = if self.comm_homogeneous {
            &[
                HeuristicKind::SpMonoP,
                HeuristicKind::ThreeExploMono,
                HeuristicKind::ThreeExploBi,
            ]
        } else {
            &[HeuristicKind::HeteroSplit]
        };
        let mut floor = f64::INFINITY;
        for &k in kinds {
            if let Some(traj) = self.trajectory_in(k, ws) {
                floor = floor.min(traj.min_period());
            }
        }
        if let Some(f) = self.sp_bi_p_floor_in(ws) {
            floor = floor.min(f);
        }
        floor
    }

    /// Whether the exhaustive enumerator can run on this instance at all.
    fn exact_guard(&self) -> Result<(), SolveError> {
        if !self.comm_homogeneous {
            return Err(SolveError::NotApplicableToPlatform {
                solver: SolverId::Exact,
            });
        }
        let n = self.app.n_stages();
        if n > exact::MAX_STAGES {
            return Err(SolveError::InstanceTooLarge {
                n_stages: n,
                max_stages: exact::MAX_STAGES,
            });
        }
        Ok(())
    }

    /// The memoized exact minimum period and its mapping, computed with
    /// a caller-owned workspace. Structured errors when the enumerator
    /// cannot run here.
    pub fn exact_min_period_in(
        &self,
        ws: &mut SolveWorkspace,
    ) -> Result<&(f64, IntervalMapping), SolveError> {
        self.exact_guard()?;
        Ok(self
            .exact_min_period
            .get_or_init(|| exact::exact_min_period_in(&self.cost_model(), ws)))
    }

    /// The memoized exact Pareto front. Structured errors when the
    /// enumerator cannot run here. Considerably more expensive than one
    /// [`Self::exact_min_period_in`] call (it sweeps every cycle-value
    /// threshold of every partition), so the bound objectives use the
    /// dedicated solvers and only [`Objective::MinPeriodForLatency`] and
    /// [`Objective::ParetoFront`] — which need the whole front anyway —
    /// pay for it.
    pub fn exact_front(&self) -> Result<&ParetoFront<IntervalMapping>, SolveError> {
        self.exact_front_in(&mut SolveWorkspace::new())
    }

    /// [`Self::exact_front`] reusing a caller-owned workspace.
    pub fn exact_front_in(
        &self,
        ws: &mut SolveWorkspace,
    ) -> Result<&ParetoFront<IntervalMapping>, SolveError> {
        self.exact_guard()?;
        Ok(self
            .exact_front
            .get_or_init(|| exact::exact_pareto_front_in(&self.cost_model(), ws)))
    }

    /// Answers one request. Re-queries against the same instance are
    /// answered from the memoized trajectories/front and are bit-identical
    /// to a fresh one-shot solve.
    pub fn solve(&self, request: &SolveRequest) -> Result<SolveReport, SolveError> {
        self.solve_in(request, &mut SolveWorkspace::new())
    }

    /// [`Self::solve`] reusing a caller-owned [`SolveWorkspace`] — the
    /// batch entry point (`pipeline_experiments::shard::sharded_map_items_with`
    /// threads one workspace per worker shard through here). Bit-identical
    /// to [`Self::solve`]: the workspace recycles buffer capacity, never
    /// values.
    pub fn solve_in(
        &self,
        request: &SolveRequest,
        ws: &mut SolveWorkspace,
    ) -> Result<SolveReport, SolveError> {
        // NaN compares false against everything: without this guard a NaN
        // bound would fall through every feasibility check and come back
        // "feasible".
        if request.objective.bound().is_some_and(f64::is_nan) {
            return Err(SolveError::InvalidBound);
        }
        let strategy = match request.strategy {
            Strategy::Auto => {
                if self.app.n_stages() <= SolveRequest::DEFAULT_EXACT_CUTOFF
                    && self.comm_homogeneous
                {
                    Strategy::Exact
                } else {
                    Strategy::BestOfAll
                }
            }
            s => s,
        };
        match strategy {
            Strategy::Exact => self.solve_exact(request.objective, ws),
            Strategy::Heuristic(kind) => self.solve_heuristic(kind, request, ws),
            Strategy::BestOfAll => self.solve_best_of_all(request, ws),
            Strategy::Auto => unreachable!("resolved above"),
        }
    }

    fn solve_exact(
        &self,
        objective: Objective,
        ws: &mut SolveWorkspace,
    ) -> Result<SolveReport, SolveError> {
        let report = |mapping: IntervalMapping, period: f64, latency: f64| SolveReport {
            solver: SolverId::Exact,
            result: BiCriteriaResult {
                mapping,
                period,
                latency,
                feasible: true,
            },
            front: None,
        };
        match objective {
            // Lemma 1 needs no enumeration (and holds on any platform:
            // the single interval only crosses the input/output links).
            Objective::MinLatency => {
                let r = self.lemma_1();
                Ok(report(r.mapping, r.period, r.latency))
            }
            Objective::MinPeriod => {
                let (p_opt, mapping) = self.exact_min_period_in(ws)?;
                let latency = self.cost_model().latency(mapping);
                Ok(report(mapping.clone(), *p_opt, latency))
            }
            Objective::MinLatencyForPeriod(bound) => {
                self.exact_guard()?;
                match exact::exact_min_latency_for_period_in(&self.cost_model(), bound, ws) {
                    Some((latency, mapping)) => {
                        let period = self.cost_model().period(&mapping);
                        Ok(report(mapping, period, latency))
                    }
                    None => Err(SolveError::BoundBelowFloor {
                        bound,
                        floor: self.exact_min_period_in(ws)?.0,
                    }),
                }
            }
            Objective::MinPeriodForLatency(bound) => {
                // The dedicated solver builds the whole front internally
                // anyway, so this query routes through the memoized one.
                // Latencies strictly decrease with period: the suffix
                // within the bound starts at the minimum-period qualifier.
                let front = self.exact_front_in(ws)?;
                let i = front.latencies().partition_point(|&l| !approx_le(l, bound));
                if i < front.len() {
                    let (period, latency, payload) = front.point(i);
                    Ok(report(payload.clone(), period, latency))
                } else {
                    Err(SolveError::BoundBelowFloor {
                        bound,
                        floor: self.l_opt,
                    })
                }
            }
            Objective::ParetoFront => {
                let front = self.exact_front_in(ws)?;
                let mut out: ParetoFront<SolverId> = ParetoFront::new();
                for (period, latency, _) in front.iter() {
                    out.offer(period, latency, SolverId::Exact);
                }
                let (period, latency, payload) = front.first().expect("non-empty");
                Ok(SolveReport {
                    solver: SolverId::Exact,
                    result: BiCriteriaResult {
                        mapping: payload.clone(),
                        period,
                        latency,
                        feasible: true,
                    },
                    front: Some(out),
                })
            }
        }
    }

    /// Runs one heuristic on one objective, answering from the memoized
    /// trajectory where the heuristic has one. Mirrors the objective
    /// framing of the paper: period-fixed heuristics answer period-bound
    /// queries, latency-fixed ones answer latency-bound queries.
    fn solve_heuristic(
        &self,
        kind: HeuristicKind,
        request: &SolveRequest,
        ws: &mut SolveWorkspace,
    ) -> Result<SolveReport, SolveError> {
        let solver = SolverId::Heuristic(kind);
        if !kind.applicable_to(&self.platform) {
            return Err(SolveError::NotApplicableToPlatform { solver });
        }
        let not_expressible = || {
            Err(SolveError::ObjectiveNotExpressible {
                solver,
                objective: request.objective,
            })
        };
        let report = |result: BiCriteriaResult| SolveReport {
            solver,
            result,
            front: None,
        };
        match request.objective {
            Objective::MinLatencyForPeriod(bound) => {
                if !kind.is_period_fixed() {
                    return not_expressible();
                }
                let result = match self.trajectory_in(kind, ws) {
                    Some(traj) => {
                        let r = traj.result_for_period(bound);
                        if !r.feasible {
                            return Err(SolveError::BoundBelowFloor {
                                bound,
                                floor: traj.min_period(),
                            });
                        }
                        r
                    }
                    None => {
                        // H4: the binary search consults its bound, so it
                        // is re-run per query at the request's tolerance.
                        let r = self.run_sp_bi_p(bound, request.tolerance, ws);
                        if !r.feasible {
                            return Err(SolveError::BoundBelowFloor {
                                bound,
                                floor: self.run_sp_bi_p(0.0, request.tolerance, ws).period,
                            });
                        }
                        r
                    }
                };
                Ok(report(result))
            }
            Objective::MinPeriodForLatency(bound) => {
                if kind.is_period_fixed() {
                    return not_expressible();
                }
                let cm = self.cost_model();
                let r = match kind {
                    HeuristicKind::SpMonoL => sp_mono_l_in(&cm, bound, ws),
                    HeuristicKind::SpBiL => sp_bi_l_in(&cm, bound, ws),
                    _ => unreachable!("latency-fixed kinds are H5/H6"),
                };
                if !r.feasible {
                    // Both H5 and H6 start from the Lemma-1 mapping, so
                    // their latency floor is exactly L_opt.
                    return Err(SolveError::BoundBelowFloor {
                        bound,
                        floor: self.l_opt,
                    });
                }
                Ok(report(r))
            }
            Objective::MinPeriod => {
                // Run to the floor: period-fixed heuristics with an
                // impossible target, latency-fixed ones with an unbounded
                // budget. "Feasible" means "produced a mapping", which
                // all do.
                let mut r = match self.trajectory_in(kind, ws) {
                    Some(traj) => traj.result_for_period(0.0),
                    None => {
                        let cm = self.cost_model();
                        match kind {
                            HeuristicKind::SpBiP => self.run_sp_bi_p(0.0, request.tolerance, ws),
                            HeuristicKind::SpMonoL => sp_mono_l_in(&cm, f64::INFINITY, ws),
                            HeuristicKind::SpBiL => sp_bi_l_in(&cm, f64::INFINITY, ws),
                            _ => unreachable!("trajectory kinds handled above"),
                        }
                    }
                };
                r.feasible = true;
                Ok(report(r))
            }
            Objective::MinLatency => {
                // Trivial for every period-fixed heuristic: the initial
                // (Lemma 1) mapping, where an unbounded run stops.
                if !kind.is_period_fixed() {
                    return not_expressible();
                }
                Ok(report(self.lemma_1()))
            }
            Objective::ParetoFront => {
                if self.trajectory_in(kind, ws).is_none() {
                    // H4/H5/H6 consult their bound while splitting — they
                    // have no bound-independent front to materialize.
                    return not_expressible();
                }
                self.trajectory_front([kind].into_iter(), ws)
            }
        }
    }

    fn run_sp_bi_p(&self, bound: f64, tolerance: f64, ws: &mut SolveWorkspace) -> BiCriteriaResult {
        if bound == 0.0 && tolerance == SpBiPOptions::default().rel_tolerance {
            return self.sp_bi_p_run_floor(ws).clone();
        }
        let opts = SpBiPOptions {
            rel_tolerance: tolerance,
            ..SpBiPOptions::default()
        };
        sp_bi_p_in(&self.cost_model(), bound, opts, ws)
    }

    fn solve_best_of_all(
        &self,
        request: &SolveRequest,
        ws: &mut SolveWorkspace,
    ) -> Result<SolveReport, SolveError> {
        if request.objective == Objective::ParetoFront {
            return self.best_of_all_front(ws);
        }
        let mut best: Option<(SolverId, BiCriteriaResult)> = None;
        let mut floor_seen: Option<f64> = None;
        let mut bound_seen = 0.0;
        for kind in HeuristicKind::ALL
            .into_iter()
            .chain([HeuristicKind::HeteroSplit])
        {
            let sub = SolveRequest {
                strategy: Strategy::Heuristic(kind),
                ..*request
            };
            let result = match self.solve_heuristic(kind, &sub, ws) {
                Ok(report) => report.result,
                Err(SolveError::BoundBelowFloor { bound, floor }) => {
                    bound_seen = bound;
                    floor_seen = Some(floor_seen.map_or(floor, |f: f64| f.min(floor)));
                    continue;
                }
                Err(_) => continue,
            };
            let better = match (&best, request.objective) {
                (None, _) => true,
                (Some((_, b)), Objective::MinLatencyForPeriod(_) | Objective::MinLatency) => {
                    definitely_lt(result.latency, b.latency)
                }
                (Some((_, b)), Objective::MinPeriodForLatency(_) | Objective::MinPeriod) => {
                    definitely_lt(result.period, b.period)
                }
                (_, Objective::ParetoFront) => unreachable!("handled above"),
            };
            if better {
                best = Some((SolverId::Heuristic(kind), result));
            }
        }
        match best {
            Some((solver, result)) => Ok(SolveReport {
                solver,
                result,
                front: None,
            }),
            None => match floor_seen {
                Some(floor) => Err(SolveError::BoundBelowFloor {
                    bound: bound_seen,
                    floor,
                }),
                None => Err(SolveError::NoApplicableSolver),
            },
        }
    }

    /// The union of every memoized bound-independent trajectory,
    /// Pareto-filtered. Trajectories are offered in `ALL` order so ties
    /// keep the earliest heuristic, matching the best-of-all tie break.
    fn best_of_all_front(&self, ws: &mut SolveWorkspace) -> Result<SolveReport, SolveError> {
        self.trajectory_front(
            HeuristicKind::ALL
                .into_iter()
                .chain([HeuristicKind::HeteroSplit]),
            ws,
        )
    }

    /// Builds a Pareto front over the memoized trajectories of `kinds`.
    /// The front is filtered on coordinates only — payloads are
    /// `(heuristic, point index)` references into the trajectory arenas,
    /// so no mapping is cloned per offered point; only the winning
    /// representative is materialized. Identical selection and tie-breaks
    /// to offering owned mapping payloads.
    fn trajectory_front(
        &self,
        kinds: impl Iterator<Item = HeuristicKind>,
        ws: &mut SolveWorkspace,
    ) -> Result<SolveReport, SolveError> {
        let mut front: ParetoFront<(HeuristicKind, usize)> = ParetoFront::new();
        let mut any = false;
        for kind in kinds {
            let Some(traj) = self.trajectory_in(kind, ws) else {
                continue;
            };
            any = true;
            let traj = traj.trajectory();
            for (i, (&period, &latency)) in traj.periods().iter().zip(traj.latencies()).enumerate()
            {
                front.offer(period, latency, (kind, i));
            }
        }
        if !any {
            return Err(SolveError::NoApplicableSolver);
        }
        let (period, latency, &(kind, index)) = front.first().expect("non-empty front");
        let mapping = self
            .trajectory_in(kind, ws)
            .expect("winning trajectory exists")
            .trajectory()
            .mapping(index);
        Ok(SolveReport {
            solver: SolverId::Heuristic(kind),
            result: BiCriteriaResult {
                mapping,
                period,
                latency,
                feasible: true,
            },
            front: Some(front.map_payloads(|(kind, _)| SolverId::Heuristic(kind))),
        })
    }
}

/// Copies a populated cache into a fresh instance's empty slot.
fn carry<T: Clone>(src: &OnceLock<T>, dst: &OnceLock<T>) {
    if let Some(value) = src.get() {
        let _ = dst.set(value.clone());
    }
}

/// Bitwise slice equality — the reuse tiers compare representations, not
/// semantic `f64` equality (`-0.0 == 0.0` but computes differently).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise link-model equality.
fn links_bits_eq(a: &LinkModel, b: &LinkModel) -> bool {
    match (a, b) {
        (LinkModel::Homogeneous(x), LinkModel::Homogeneous(y)) => x.to_bits() == y.to_bits(),
        (
            LinkModel::Heterogeneous {
                matrix: ma,
                io_bandwidth: ia,
            },
            LinkModel::Heterogeneous {
                matrix: mb,
                io_bandwidth: ib,
            },
        ) => {
            ia.to_bits() == ib.to_bits()
                && ma.len() == mb.len()
                && ma.iter().zip(mb).all(|(ra, rb)| bits_eq(ra, rb))
        }
        _ => false,
    }
}

/// Whether the first `k` entries of the speed-descending processor order
/// are unchanged — same processor ids carrying the same speed bits. When
/// the old platform has fewer than `k` processors the recorded run
/// exhausted the platform, so reuse additionally requires that no new
/// candidate appeared: the full orders must coincide.
fn order_prefix_unchanged(old: &Platform, new: &Platform, k: usize) -> bool {
    let a = old.procs_by_speed_desc();
    let b = new.procs_by_speed_desc();
    let pair_eq =
        |(&u, &v): (&ProcId, &ProcId)| u == v && old.speed(u).to_bits() == new.speed(v).to_bits();
    if k > a.len() {
        a.len() == b.len() && a.iter().zip(b).all(pair_eq)
    } else {
        b.len() >= k && a[..k].iter().zip(&b[..k]).all(pair_eq)
    }
}

// ---------------------------------------------------------------------------
// Wire-format glue: conversions between the typed request/report model and
// the line-oriented syntax of `pipeline_model::io`.
// ---------------------------------------------------------------------------

impl From<WireObjective> for Objective {
    fn from(w: WireObjective) -> Self {
        match w {
            WireObjective::MinLatencyForPeriod(b) => Objective::MinLatencyForPeriod(b),
            WireObjective::MinPeriodForLatency(b) => Objective::MinPeriodForLatency(b),
            WireObjective::MinPeriod => Objective::MinPeriod,
            WireObjective::MinLatency => Objective::MinLatency,
            WireObjective::ParetoFront => Objective::ParetoFront,
        }
    }
}

impl From<Objective> for WireObjective {
    fn from(o: Objective) -> Self {
        match o {
            Objective::MinLatencyForPeriod(b) => WireObjective::MinLatencyForPeriod(b),
            Objective::MinPeriodForLatency(b) => WireObjective::MinPeriodForLatency(b),
            Objective::MinPeriod => WireObjective::MinPeriod,
            Objective::MinLatency => WireObjective::MinLatency,
            Objective::ParetoFront => WireObjective::ParetoFront,
        }
    }
}

impl SolveRequest {
    /// Builds a typed request from one wire request (the instance
    /// selector, if any, is the service loop's concern).
    pub fn from_wire(wire: &WireRequest) -> Result<Self, UnknownSolver> {
        let mut req = SolveRequest::new(wire.objective.into());
        req.strategy = wire.strategy.parse()?;
        if let Some(t) = wire.tolerance {
            req.tolerance = t;
        }
        Ok(req)
    }
}

/// Compact wire encoding of a mapping: `start-end@proc,…` (no spaces, so
/// it survives the space-separated wire line).
pub fn encode_mapping(mapping: &IntervalMapping) -> String {
    mapping
        .assignments()
        .map(|(iv, u)| format!("{}-{}@{}", iv.start, iv.end, u))
        .collect::<Vec<_>>()
        .join(",")
}

impl SolveReport {
    /// Serializes the report for the wire, echoing the request id.
    pub fn to_wire(&self, id: u64) -> WireReport {
        WireReport::Solved(WireSolved {
            id,
            solver: self.solver.code().to_string(),
            period: self.result.period,
            latency: self.result.latency,
            feasible: self.result.feasible,
            mapping: encode_mapping(&self.result.mapping),
            front: self.front.as_ref().map(|f| {
                f.iter()
                    .map(|(period, latency, _)| (period, latency))
                    .collect()
            }),
        })
    }
}

impl SolveError {
    /// Stable machine-readable error code for the wire.
    pub fn code(&self) -> &'static str {
        match self {
            SolveError::BoundBelowFloor { .. } => "bound-below-floor",
            SolveError::NotApplicableToPlatform { .. } => "not-applicable-to-platform",
            SolveError::ObjectiveNotExpressible { .. } => "objective-not-expressible",
            SolveError::InstanceTooLarge { .. } => "instance-too-large",
            SolveError::NoApplicableSolver => "no-applicable-solver",
            SolveError::InvalidBound => "invalid-bound",
        }
    }

    /// Serializes the error for the wire, echoing the request id.
    pub fn to_wire(&self, id: u64) -> WireReport {
        let (bound, floor) = match self {
            SolveError::BoundBelowFloor { bound, floor } => (Some(*bound), Some(*floor)),
            _ => (None, None),
        };
        WireReport::Failed(WireFailure {
            id,
            code: self.code().to_string(),
            bound,
            floor,
            line: None,
            key: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Trajectory;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator};

    fn instance(n: usize, p: usize) -> (Application, Platform) {
        InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p)).instance(3, 0)
    }

    fn prepared(n: usize, p: usize) -> PreparedInstance {
        let (app, pf) = instance(n, p);
        PreparedInstance::new(app, pf)
    }

    fn bits(r: &BiCriteriaResult) -> (u64, u64, bool, String) {
        (
            r.period.to_bits(),
            r.latency.to_bits(),
            r.feasible,
            encode_mapping(&r.mapping),
        )
    }

    #[test]
    fn cached_trajectory_queries_match_the_linear_scan() {
        let (app, pf) = instance(15, 10);
        let cm = CostModel::new(&app, &pf);
        let traj: Trajectory =
            fixed_period_trajectory_in(&cm, TrajectoryKind::SplitMono, &mut SolveWorkspace::new());
        let cached = CachedTrajectory::new(traj.clone());
        let p0 = cm.single_proc_period();
        let mut targets = vec![f64::INFINITY, 0.0, cached.min_period()];
        for i in 0..50 {
            targets.push(p0 * (1.05 - 0.02 * i as f64));
        }
        // Exact trajectory periods too: the EPS tie behaviour must match.
        targets.extend_from_slice(traj.periods());
        for target in targets {
            assert_eq!(
                bits(&cached.result_for_period(target)),
                bits(&traj.result_for_period(target)),
                "target {target}"
            );
            // The coordinate-only lookup resolves to the same point.
            let hit = cached.lookup(target);
            let reference = traj.result_for_period(target);
            assert_eq!(hit.period.to_bits(), reference.period.to_bits());
            assert_eq!(hit.latency.to_bits(), reference.latency.to_bits());
            assert_eq!(hit.feasible, reference.feasible);
        }
    }

    #[test]
    fn re_queries_are_bit_identical_to_fresh_one_shot_solves() {
        let (app, pf) = instance(14, 8);
        let session = PreparedInstance::new(app.clone(), pf.clone());
        let l0 = session.optimal_latency();
        // A period bound every period-fixed heuristic can satisfy.
        let bound = 1.01 * session.best_period_floor();
        let requests = [
            SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll),
            SolveRequest::new(Objective::MinLatency).strategy(Strategy::BestOfAll),
            SolveRequest::new(Objective::MinLatencyForPeriod(bound)).strategy(Strategy::BestOfAll),
            SolveRequest::new(Objective::MinPeriodForLatency(2.0 * l0))
                .strategy(Strategy::BestOfAll),
            SolveRequest::new(Objective::MinLatencyForPeriod(
                1.01 * session
                    .trajectory(HeuristicKind::ThreeExploBi)
                    .expect("homog instance")
                    .min_period(),
            ))
            .strategy(Strategy::Heuristic(HeuristicKind::ThreeExploBi)),
            SolveRequest::new(Objective::MinLatencyForPeriod(
                1.01 * session.sp_bi_p_floor().expect("homog instance"),
            ))
            .strategy(Strategy::Heuristic(HeuristicKind::SpBiP)),
        ];
        for request in &requests {
            // First query (cold caches on the fresh instance) vs repeat
            // queries on the warmed session.
            let fresh = PreparedInstance::new(app.clone(), pf.clone())
                .solve(request)
                .expect("solvable");
            for _ in 0..2 {
                let again = session.solve(request).expect("solvable");
                assert_eq!(again.solver, fresh.solver, "{request:?}");
                assert_eq!(bits(&again.result), bits(&fresh.result), "{request:?}");
            }
        }
    }

    #[test]
    fn best_of_all_matches_the_direct_heuristic_runs() {
        let (app, pf) = instance(14, 8);
        let session = PreparedInstance::new(app.clone(), pf.clone());
        let cm = CostModel::new(&app, &pf);
        let bound = 1.05 * session.best_period_floor();
        let report = session
            .solve(
                &SolveRequest::new(Objective::MinLatencyForPeriod(bound))
                    .strategy(Strategy::BestOfAll),
            )
            .expect("satisfiable bound");
        for kind in HeuristicKind::ALL
            .into_iter()
            .filter(|k| k.is_period_fixed())
        {
            let r = kind.run_in(&cm, bound, &mut SolveWorkspace::new());
            if r.feasible {
                assert!(
                    report.result.latency <= r.latency + 1e-9,
                    "beaten by {kind}"
                );
            }
        }
    }

    #[test]
    fn infeasible_period_bound_reports_the_best_floor() {
        let session = prepared(14, 8);
        let floor = session.best_period_floor();
        let bound = 0.5 * floor;
        let err = session
            .solve(
                &SolveRequest::new(Objective::MinLatencyForPeriod(bound))
                    .strategy(Strategy::BestOfAll),
            )
            .expect_err("bound below every heuristic floor");
        match err {
            SolveError::BoundBelowFloor { bound: b, floor: f } => {
                assert_eq!(b, bound);
                // The aggregate floor includes H7, which may undercut the
                // class floor, but never exceeds it.
                assert!(f <= floor + 1e-12);
                // Re-asking at the reported floor succeeds.
                assert!(session
                    .solve(
                        &SolveRequest::new(Objective::MinLatencyForPeriod(f))
                            .strategy(Strategy::BestOfAll)
                    )
                    .is_ok());
            }
            other => panic!("expected BoundBelowFloor, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_latency_bound_reports_l_opt_as_floor() {
        let session = prepared(8, 6);
        let l_opt = session.optimal_latency();
        for strategy in [Strategy::Exact, Strategy::BestOfAll] {
            let err = session
                .solve(
                    &SolveRequest::new(Objective::MinPeriodForLatency(0.5 * l_opt))
                        .strategy(strategy),
                )
                .expect_err("latency below L_opt is unsatisfiable");
            match err {
                SolveError::BoundBelowFloor { floor, .. } => {
                    assert!((floor - l_opt).abs() < 1e-12, "{strategy:?}")
                }
                other => panic!("{strategy:?}: expected BoundBelowFloor, got {other:?}"),
            }
        }
    }

    #[test]
    fn min_latency_objective_returns_lemma_1() {
        let session = prepared(8, 6);
        for strategy in [Strategy::Exact, Strategy::BestOfAll] {
            let report = session
                .solve(&SolveRequest::new(Objective::MinLatency).strategy(strategy))
                .expect("always solvable");
            assert!(
                (report.result.latency - session.optimal_latency()).abs() < 1e-9,
                "{strategy:?} missed the Lemma-1 latency"
            );
        }
    }

    #[test]
    fn mismatched_heuristic_objective_is_a_typed_error() {
        let session = prepared(10, 8);
        let bound = 0.7 * session.single_proc_period();
        // A latency-fixed heuristic cannot express a period-bound query.
        let err = session
            .solve(
                &SolveRequest::new(Objective::MinLatencyForPeriod(bound))
                    .strategy(Strategy::Heuristic(HeuristicKind::SpMonoL)),
            )
            .expect_err("latency-fixed heuristic, period-bound query");
        assert!(matches!(err, SolveError::ObjectiveNotExpressible { .. }));
        // And the period-fixed H4 cannot materialize a front.
        let err = session
            .solve(
                &SolveRequest::new(Objective::ParetoFront)
                    .strategy(Strategy::Heuristic(HeuristicKind::SpBiP)),
            )
            .expect_err("H4 is bound-dependent");
        assert!(matches!(err, SolveError::ObjectiveNotExpressible { .. }));
    }

    #[test]
    fn exact_front_query_equals_the_exact_solver_front() {
        let session = prepared(8, 6);
        let report = session
            .solve(&SolveRequest::new(Objective::ParetoFront))
            .expect("Auto routes n=8 to exact");
        assert_eq!(report.solver, SolverId::Exact);
        let front = report.front.expect("front query materializes the front");
        let reference =
            exact::exact_pareto_front_in(&session.cost_model(), &mut SolveWorkspace::new());
        assert_eq!(front.len(), reference.len());
        for (got, want) in front.iter().zip(reference.iter()) {
            assert_eq!(got.0.to_bits(), want.0.to_bits());
            assert_eq!(got.1.to_bits(), want.1.to_bits());
            assert_eq!(*got.2, SolverId::Exact);
        }
        // The representative result is the min-period endpoint.
        assert_eq!(
            report.result.period.to_bits(),
            reference.periods()[0].to_bits()
        );
    }

    #[test]
    fn front_invariants_hold_for_heuristic_strategies() {
        let (app, pf) = instance(16, 8);
        let session = PreparedInstance::new(app, pf);
        for strategy in [
            Strategy::BestOfAll,
            Strategy::Heuristic(HeuristicKind::SpMonoP),
        ] {
            let report = session
                .solve(&SolveRequest::new(Objective::ParetoFront).strategy(strategy))
                .expect("trajectory-backed front");
            let front = report.front.expect("front present");
            assert!(!front.is_empty());
            for w in front.periods().windows(2) {
                assert!(w[0] < w[1], "{strategy:?}: not sorted");
            }
            for w in front.latencies().windows(2) {
                assert!(w[0] > w[1], "{strategy:?}: dominated point survived");
            }
        }
    }

    #[test]
    fn exact_bound_queries_agree_with_the_dedicated_solvers() {
        let mut ws = SolveWorkspace::new();
        let session = prepared(7, 5);
        let cm = session.cost_model();
        let (p_opt, _) = exact::exact_min_period_in(&cm, &mut ws);
        for factor in [1.0, 1.2, 1.7] {
            let bound = p_opt * factor;
            let report = session
                .solve(
                    &SolveRequest::new(Objective::MinLatencyForPeriod(bound))
                        .strategy(Strategy::Exact),
                )
                .expect("bound >= optimal period");
            let (l_star, _) =
                exact::exact_min_latency_for_period_in(&cm, bound, &mut ws).expect("feasible");
            assert!(
                (report.result.latency - l_star).abs() < 1e-9,
                "factor {factor}"
            );
            assert!(report.result.period <= bound + 1e-9);
        }
        let report = session
            .solve(&SolveRequest::new(Objective::MinPeriod).strategy(Strategy::Exact))
            .unwrap();
        assert!((report.result.period - p_opt).abs() < 1e-9);
    }

    #[test]
    fn exact_on_heterogeneous_platform_is_a_typed_error() {
        let gen = ScenarioGenerator::new(ScenarioFamily::TwoTier.params(8, 6));
        let (app, pf) = gen.instance(4, 0);
        assert!(!pf.is_comm_homogeneous());
        let session = PreparedInstance::new(app, pf);
        let err = session
            .solve(&SolveRequest::new(Objective::MinPeriod).strategy(Strategy::Exact))
            .expect_err("exact needs Communication Homogeneous links");
        assert_eq!(
            err,
            SolveError::NotApplicableToPlatform {
                solver: SolverId::Exact
            }
        );
        // Auto falls back to heuristics, where only the §7 extension runs.
        let report = session
            .solve(&SolveRequest::new(Objective::MinPeriod))
            .expect("H7 applies everywhere");
        assert_eq!(
            report.solver,
            SolverId::Heuristic(HeuristicKind::HeteroSplit)
        );
    }

    #[test]
    fn exact_min_latency_works_on_heterogeneous_platforms() {
        // Lemma 1 holds on any platform: the single-interval mapping only
        // crosses the input/output links.
        let gen = ScenarioGenerator::new(ScenarioFamily::CommDominant.params(7, 5));
        let (app, pf) = gen.instance(2, 0);
        assert!(!pf.is_comm_homogeneous());
        let session = PreparedInstance::new(app, pf);
        let report = session
            .solve(&SolveRequest::new(Objective::MinLatency).strategy(Strategy::Exact))
            .expect("Lemma 1 needs no enumeration");
        assert_eq!(report.solver, SolverId::Exact);
        assert!((report.result.latency - session.optimal_latency()).abs() < 1e-9);
        assert_eq!(report.result.mapping.n_intervals(), 1);
    }

    #[test]
    fn nan_bounds_are_rejected_not_answered() {
        let session = prepared(8, 6);
        for objective in [
            Objective::MinLatencyForPeriod(f64::NAN),
            Objective::MinPeriodForLatency(f64::NAN),
        ] {
            for strategy in [
                Strategy::Auto,
                Strategy::BestOfAll,
                Strategy::Heuristic(HeuristicKind::SpMonoP),
            ] {
                let err = session
                    .solve(&SolveRequest::new(objective).strategy(strategy))
                    .expect_err("NaN bound must not come back feasible");
                assert_eq!(err, SolveError::InvalidBound, "{strategy:?}");
            }
        }
        // The wire layer refuses NaN before it reaches the solver.
        assert!(pipeline_model::io::parse_request_at(
            "solve id=1 objective=min-latency-for-period bound=nan strategy=h1",
            0
        )
        .is_err());
        assert!(pipeline_model::io::parse_request_at(
            "solve id=1 objective=min-period tolerance=nan",
            0
        )
        .is_err());
    }

    #[test]
    fn too_large_exact_requests_are_refused_not_panicked() {
        let n = exact::MAX_STAGES + 2;
        let (app, pf) = instance(n, 8);
        let session = PreparedInstance::new(app, pf);
        let err = session
            .solve(&SolveRequest::new(Objective::MinPeriod).strategy(Strategy::Exact))
            .expect_err("beyond the enumeration guard");
        assert_eq!(
            err,
            SolveError::InstanceTooLarge {
                n_stages: n,
                max_stages: exact::MAX_STAGES
            }
        );
    }

    #[test]
    fn solver_ids_round_trip_codes_and_labels() {
        let mut ids = vec![SolverId::Exact];
        ids.extend(
            HeuristicKind::ALL
                .into_iter()
                .chain([HeuristicKind::HeteroSplit])
                .map(SolverId::Heuristic),
        );
        for id in ids {
            assert_eq!(id.code().parse::<SolverId>().unwrap(), id);
            assert_eq!(id.label().parse::<SolverId>().unwrap(), id);
            assert_eq!(id.to_string(), id.label());
        }
        assert!("h0".parse::<SolverId>().is_err());
    }

    #[test]
    fn wire_round_trip_for_reports_and_errors() {
        let session = prepared(8, 6);
        let report = session
            .solve(&SolveRequest::new(Objective::ParetoFront))
            .unwrap();
        let wire = report.to_wire(9);
        match &wire {
            WireReport::Solved(s) => {
                assert_eq!(s.id, 9);
                assert_eq!(s.solver, "exact");
                assert!(s.front.as_ref().is_some_and(|f| !f.is_empty()));
                assert!(s.mapping.contains('@'));
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        let line = pipeline_model::io::format_report(&wire);
        assert_eq!(pipeline_model::io::parse_report(&line).unwrap(), wire);

        let err = SolveError::BoundBelowFloor {
            bound: 0.5,
            floor: 0.875,
        };
        let wire = err.to_wire(3);
        let line = pipeline_model::io::format_report(&wire);
        assert_eq!(pipeline_model::io::parse_report(&line).unwrap(), wire);
    }

    #[test]
    fn apply_identity_delta_carries_every_cache() {
        let (app, pf) = instance(8, 6);
        let session = PreparedInstance::new(app, pf);
        session.prepare();
        session.exact_front().expect("small comm-homog instance");
        let u = session.platform().fastest();
        let delta = InstanceDelta::ProcSpeed {
            proc: u,
            speed: session.platform().speed(u),
        };
        let next = session.apply(&delta).expect("identity delta applies");
        // Every populated cache transferred — nothing recomputes.
        assert!(next.h1.get().is_some());
        assert!(next.h2a.get().is_some());
        assert!(next.h2b.get().is_some());
        assert!(next.sp_bi_p_floor_run.get().is_some());
        assert!(next.exact_front.get().is_some());
        // And the carried caches answer bit-identically to the session.
        for objective in [Objective::MinPeriod, Objective::ParetoFront] {
            let a = session.solve(&SolveRequest::new(objective)).unwrap();
            let b = next.solve(&SolveRequest::new(objective)).unwrap();
            assert_eq!(a.solver, b.solver);
            assert_eq!(bits(&a.result), bits(&b.result));
        }
    }

    #[test]
    fn apply_speed_drift_outside_the_working_set_keeps_trajectories() {
        // More processors than stages: the trajectories cannot enroll the
        // slowest processors, so drifting one of them is invisible to the
        // recorded runs.
        let (app, pf) = instance(8, 12);
        let session = PreparedInstance::new(app.clone(), pf.clone());
        session.prepare();
        let slowest = *pf.procs_by_speed_desc().last().expect("non-empty");
        let delta = InstanceDelta::ProcSpeed {
            proc: slowest,
            speed: 0.5 * pf.speed(slowest),
        };
        let next = session.apply(&delta).expect("valid drift");
        assert!(next.h1.get().is_some(), "H1 trajectory not reused");
        assert!(next.h2a.get().is_some(), "H2a trajectory not reused");
        assert!(next.h2b.get().is_some(), "H2b trajectory not reused");
        // Reuse must be undetectable next to a scratch preparation.
        let (app2, pf2) = delta.apply_to(&app, &pf).unwrap();
        let scratch = PreparedInstance::new(app2, pf2);
        let bound = 1.02 * scratch.best_period_floor();
        for strategy in [
            Strategy::BestOfAll,
            Strategy::Heuristic(HeuristicKind::SpMonoP),
        ] {
            let request =
                SolveRequest::new(Objective::MinLatencyForPeriod(bound)).strategy(strategy);
            let a = next.solve(&request).unwrap();
            let b = scratch.solve(&request).unwrap();
            assert_eq!(a.solver, b.solver, "{strategy:?}");
            assert_eq!(bits(&a.result), bits(&b.result), "{strategy:?}");
        }
    }

    #[test]
    fn chained_deltas_re_solve_through_one_workspace_like_scratch() {
        // A chain of drifting instances re-solved through one workspace:
        // every warm re-solve stays bit-identical to a scratch solve.
        let (app, pf) = instance(12, 8);
        let mut ws = SolveWorkspace::new();
        let mut session = PreparedInstance::new(app, pf);
        session.sp_bi_p_floor_in(&mut ws);
        for step in 0..4 {
            let u = *session.platform().procs_by_speed_desc().last().unwrap();
            let delta = match step % 2 {
                0 => InstanceDelta::ProcSpeed {
                    proc: u,
                    speed: 1.25 * session.platform().speed(u),
                },
                _ => InstanceDelta::StageWeight {
                    stage: step % session.app().n_stages(),
                    work: 3.0 + step as f64,
                },
            };
            let next = session.apply_in(&delta, &mut ws).expect("valid delta");
            let warm = next.sp_bi_p_floor_in(&mut ws).expect("comm homog");
            let scratch = PreparedInstance::new(next.app().clone(), next.platform().clone());
            let cold = scratch.sp_bi_p_floor().expect("comm homog");
            assert_eq!(warm.to_bits(), cold.to_bits(), "step {step}");
            session = next;
        }
    }

    #[test]
    fn request_from_wire_applies_strategy_and_tolerance() {
        let wire = pipeline_model::io::parse_request_at(
            "solve id=1 objective=min-latency-for-period bound=2.5 strategy=h4 tolerance=1e-6",
            0,
        )
        .unwrap();
        let req = SolveRequest::from_wire(&wire).unwrap();
        assert_eq!(req.objective, Objective::MinLatencyForPeriod(2.5));
        assert_eq!(req.strategy, Strategy::Heuristic(HeuristicKind::SpBiP));
        assert_eq!(req.tolerance, 1e-6);
        let bad =
            pipeline_model::io::parse_request_at("solve id=1 objective=min-period strategy=h9", 0)
                .unwrap();
        assert!(SolveRequest::from_wire(&bad).is_err());
    }
}
