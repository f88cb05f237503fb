//! Exact bi-criteria optima for small instances: a branch-and-bound
//! search over interval partitions plus optimal processor assignment.
//!
//! There are `2^(n-1)` interval partitions of `n` stages; for each one the
//! interval→processor assignment decomposes:
//!
//! * **period** is a max over intervals, so the optimal assignment is a
//!   *bottleneck assignment* over the cycle-time matrix;
//! * **latency** is a sum, so under a period threshold it is a *min-sum
//!   assignment* (Hungarian) over the computation-time matrix with
//!   too-slow pairs forbidden.
//!
//! # Exact solver v2: pruned search
//!
//! The first-generation solver visited every partition blindly. v2 walks
//! the same DFS tree (same visit order, same strict-improvement updates —
//! so results are **bit-identical**, pinned by `tests/kernel_identity.rs`
//! and `tests/exact_frontier.rs`) but prunes subtrees that provably
//! contain no improvement:
//!
//! * **optimistic lower bounds** — every placed interval costs at least
//!   its cycle on the fastest processor (its transfers plus `W/s_max`,
//!   the fastest-free-processor relaxation), the
//!   `k`-th largest placed work needs at least the `k`-th fastest
//!   processor (a counting argument on distinct processors), and the open
//!   suffix `[pos, n)` must still pay its own input transfer and
//!   per-stage work. All period-side bounds are *bit-wise* admissible
//!   (each is a monotone-rounded under-approximation of a real cycle
//!   value), so period pruning uses no tolerance at all; latency-side
//!   bounds involve re-associated sums, so they are deflated by a 1e-12
//!   relative slack before pruning — far above the ~1e-15 association
//!   noise, far below any real improvement;
//! * **dominance pruning** (Pareto-front search) — a prefix whose
//!   optimistic `(period, latency)` point is already weakly dominated by
//!   the front cannot contribute: every completion would be refused by
//!   [`ParetoFront::offer`] anyway, and front points are only ever
//!   evicted by points that dominate them, so the check is conservative
//!   for the rest of the search too;
//! * **one-probe leaves** — once the min-period walk holds an incumbent
//!   or a cap `v`, a leaf can win only if its bottleneck optimum is
//!   `< v`, which holds exactly when some row-perfect matching uses only
//!   cycles `< v`. One bitset feasibility probe ([`bottleneck_below`])
//!   decides that; the threshold search and the mapping are paid only on
//!   a real improvement. Within one partition the front sweep skips the
//!   thresholds below the partition's bottleneck optimum outright (the
//!   Hungarian solve is infeasible by construction) and solves each
//!   remaining threshold once: thresholds are deduplicated more than
//!   [`EPS`] apart and each admits its own pair, so no two allow the same
//!   pair set.
//!
//! **Heuristic seeds.** No search starts from nothing. The public entry
//! points first record the H1, H2a and H2b trajectories in the caller's
//! workspace and evaluate every point's own mapping through
//! [`CostModel::evaluate`] (eq. 1 and eq. 2), so each seed is an
//! achieved point and no heuristic's bookkeeping reaches an answer. With
//! `h` the smallest seed period, the min-period walk starts capped at
//! `next_up(h)`: it prunes prefixes whose bound reaches the cap and
//! probes every leaf from the start. Its filters are strict, so it still
//! reaches the optimum `≤ h`, never reports the seed, and keeps the
//! leftmost winner, since every leaf it skips is above the optimum. The
//! latency walk's ceiling is the smallest seed latency whose period fits
//! the bound, padded by `LB_SLACK`. The front walk's shadow (below)
//! starts as the seeds' Pareto set.
//!
//! Each operation has exactly one partition walk, and an unseeded
//! search is the seeded one with a cap of `+∞` and an empty shadow:
//! [`exact_min_period_from_value`] with `v_star = +∞`,
//! [`exact_front_from_shadow`] with an empty shadow, and the latency walk
//! with a ceiling of `+∞` are the plain v2 searches. The latency and
//! front walks are also the DP's witness passes below. The blind v1
//! enumeration lives on only as the test oracle
//! `tests/support/exact_oracle.rs`.
//!
//! # Exact solver v3: processor-subset dominance DP
//!
//! v2 still enumerates partitions one by one and pays one assignment
//! solve per surviving leaf. v3 interleaves the two choices — each step
//! places the next interval `[pos, end)` **and** the processor that runs
//! it — so a search state is fully described by `(pos, mask)`: the stage
//! prefix covered so far and the bitmask of enrolled processors. Two
//! prefixes reaching the same `(pos, mask)` face the *identical*
//! residual subproblem (same open stages, same free processors), so only
//! the componentwise-Pareto-minimal accumulator vectors at each state
//! need expanding: every completion of a dominated vector is matched,
//! coordinate for coordinate, by the dominator's completions.
//!
//! **One sweep.** All transitions go strictly forward in `pos`, so the
//! state graph is leveled and the DP runs as one **level-order sweep**
//! (all arrivals at a level precede its expansion): each surviving state
//! expands exactly once with its final accumulators, never
//! speculatively. The sweep starts from the virtual state `(pos 0,
//! mask 0)` holding the initial accumulator (`cycle_max = −∞`, a latency
//! sum of `0`); its expansion places the first intervals `[0, end)` —
//! every `end` for a whole solve, a single one for a sharded root. Two
//! levers keep the state space small: processors
//! with bit-equal speeds are interchangeable, so each state enrolls only
//! the first free member of every speed class (canonical masks =
//! per-class prefixes), and a state whose optimistic bound (the same
//! admissible suffix bounds as v2) shows it cannot contribute is dropped
//! at insert and again at expansion. An expansion computes its state's
//! free processors once, and stops growing the next interval `[pos, end)`
//! once even the fastest free processor `s` has a `t_in + W/s` the phase
//! refuses: works grow with `end`, every cycle adds `t_out ≥ 0` to that,
//! and rounding is monotone, so every longer interval on every free
//! processor would be refused anyway.
//!
//! **Three phases.** The three exact objectives run the same sweep and
//! differ in five places only:
//!
//! | | min period | min latency, `period ≤ P` | shadow front |
//! |---|---|---|---|
//! | accumulator | `cycle_max` | `Σ (t_in + t_comp)` | `(cycle_max, Σ (t_in + t_comp))` |
//! | per-state dominance | the smaller `f64` | the smaller `f64` | 2-D Pareto list |
//! | edge filter | cycle `<` incumbent | cycle `≤ P` (`approx_le`) | none |
//! | `end`-loop cut | the filter on `t_in + W/s` | the filter on `t_in + W/s` | none |
//! | complete prefix | feeds the incumbent | adds `δ_n/b`, feeds it | adds `δ_n/b`, offers it |
//!
//! States are bounded out against the incumbent (min period, min
//! latency) or against the coordinate front found so far (shadow). A
//! whole min-period solve starts its incumbent at the seed cap
//! `next_up(h)` and a whole front solve its shadow at the seeds' Pareto
//! set; the latency DP starts unseeded, because its own value already
//! ceilings the latency walk and seeding it did not pay. The sharded
//! roots start unseeded too. Every
//! cycle, here and in v2, is one helper's eq. 1, so the period
//! accumulator is bit-identical to a blind leaf's bottleneck. The latency
//! accumulator is eq. 2 as `CostModel::latency` sums it; every completion
//! of a state adds the same terms in the same order and IEEE addition is
//! monotone, so the smallest sum per state is exact. The walks report
//! `δ_n/b + Σ t_in` plus the Hungarian sum, a few ulps from eq. 2; the
//! DP's latencies serve only as the latency walk's ceiling and the front
//! walk's shadow, which tolerate that (`LB_SLACK`, `SHADOW_MARGIN`).
//!
//! The DP pays off exactly when speed classes collapse the mask space —
//! on the paper's fully homogeneous platforms the canonical states are
//! `(n+1)·(p+1)` and the sweep is polynomial where v2 is exponential.
//! With `p` pairwise-distinct speeds the mask space is `2^p` and v2's
//! one-polynomial-assignment-per-partition factorization is the better
//! algorithm, so [`supports_dominance_dp`] routes by a canonical-state
//! budget and the entry points walk v2 from the heuristic seeds beyond it.
//!
//! The DP answers *values* (and, for the front, coordinates). The
//! reported **witness** — the mapping, and which partition wins a tie —
//! is pinned to the blind enumeration's leftmost-winner semantics by a
//! second pass. For the minimum period it is one forward pass over the
//! DP's own `(pos, mask)` states: a memoized "can this state still
//! complete with every cycle within the optimum" test picks, position by
//! position, the shortest next interval that keeps a completion open,
//! which yields the lexicographically first partition achieving the
//! optimum, and the v2 leaf's bottleneck assignment then maps it. For
//! the latency and the front the witness pass is the v2 walk, pruned
//! against the DP's value (the latency ceiling) or, for the front,
//! pruning partitions whose optimistic point falls a safety margin below
//! the DP's coordinate front (grown from the seeds). Results stay
//! bit-identical to v1/v2,
//! pinned by `tests/exact_frontier.rs` and `tests/kernel_identity.rs`.
//!
//! The DP phases are also the **sharding seam**: the first-interval
//! choices `[0, end)` are independent search roots — a root call is the
//! same sweep with the start state expanded over its one `end` — so
//! `pipeline-experiments` fans them out over its work-queue engine with
//! a shared atomic incumbent ([`SharedIncumbent`]) for cross-shard
//! pruning. Values are exact regardless of visit order, and the
//! witness pass is sequential either way, so sharded results are
//! bit-identical to single-threaded ones at any thread count.
//!
//! Everything here is still exponential in `n` in the worst case and
//! cubic in `p` — ground truth for tests and small-scale experiments, not
//! production scheduling. The period minimization problem is NP-hard
//! (paper Theorem 2), so no polynomial exact solver exists unless P = NP.

use crate::bounds::{ExactBounds, LB_SLACK};
use crate::pareto::ParetoFront;
use crate::trajectory::{fixed_period_trajectory_in, TrajectoryKind};
use crate::workspace::SolveWorkspace;
use pipeline_assign::{
    bottleneck_assignment, bottleneck_assignment_at, bottleneck_below, hungarian_in, CostMatrix,
};
use pipeline_model::prelude::*;
use pipeline_model::util::{approx_le, EPS};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};

/// Practical guard: partitions beyond this would hang tests. Raised from
/// 22 to 26 with exact solver v2 (the pruned partition search) and from
/// 26 to 30 with v3 (the processor-subset dominance DP) — the DP keeps
/// n = 30, p = 16 tractable where even the pruned partition sweep was
/// not. The service layer turns requests beyond it into a structured
/// `SolveError::InstanceTooLarge` instead of tripping the assert.
pub const MAX_STAGES: usize = 30;

/// The homogeneous bandwidth, or a panic — every exact search requires
/// Communication Homogeneous links.
fn homogeneous_bandwidth(cm: &CostModel<'_>) -> f64 {
    match cm.platform().links() {
        LinkModel::Homogeneous(b) => *b,
        LinkModel::Heterogeneous { .. } => {
            panic!("exact solver requires a Communication Homogeneous platform")
        }
    }
}

/// An interval's cycle time (eq. 1, associated as
/// `IntervalCost::cycle_time`). Every cycle of the exact searches is this
/// expression, so they agree bit for bit and report eq. 1's periods.
#[inline]
fn cycle_time(t_in: f64, t_comp: f64, t_out: f64) -> f64 {
    t_in + t_comp + t_out
}

fn build_mapping(
    cm: &CostModel<'_>,
    intervals: &[Interval],
    assigned: &[usize],
) -> IntervalMapping {
    IntervalMapping::new(
        cm.app(),
        cm.platform(),
        intervals.to_vec(),
        assigned.to_vec(),
    )
    .expect("enumerated partitions are valid")
}

// ---------------------------------------------------------------------------
// The shared branch-and-bound partition search.
// ---------------------------------------------------------------------------

/// Incremental DFS over partition prefixes, maintaining per interval its
/// transfer times and work, the latency base
/// `δ_n/b + Σ t_in`, and the optimistic bounds of the module docs. The
/// expressions and their association order are those of a from-scratch
/// evaluation of the complete partition, so leaves evaluate
/// bit-identically to the blind enumeration.
struct PartitionSearch<'c, 'a> {
    cm: &'c CostModel<'a>,
    n: usize,
    p: usize,
    b: f64,
    s_max: f64,
    /// Platform speeds in raw processor order (matrix columns).
    speeds: &'a [f64],
    // --- incremental prefix state ---
    intervals: Vec<Interval>,
    /// `(t_in, work, t_out)` of each placed interval.
    placed: Vec<(f64, f64, f64)>,
    /// Stack of latency-base values; `last()` is the current prefix's.
    latency_base: Vec<f64>,
    /// Stack of running maxima of per-interval cycles at speed `s_max`.
    opt_cycle_max: Vec<f64>,
    /// Placed interval works, sorted non-increasing.
    works_sorted: Vec<f64>,
    /// Precomputed suffix/head/tail bounds shared with the dominance DP
    /// (see [`ExactBounds`]).
    eb: ExactBounds,
}

impl<'c, 'a> PartitionSearch<'c, 'a> {
    fn new(cm: &'c CostModel<'a>) -> Self {
        let app = cm.app();
        let pf = cm.platform();
        let n = app.n_stages();
        assert!(n > 0, "no stage to partition");
        assert!(
            n <= MAX_STAGES,
            "refusing to enumerate 2^{} partitions",
            n - 1
        );
        let b = homogeneous_bandwidth(cm);
        let s_max = pf.max_speed();
        let eb = ExactBounds::new(cm, b, s_max);
        PartitionSearch {
            cm,
            n,
            p: pf.n_procs(),
            b,
            s_max,
            speeds: pf.speeds(),
            intervals: Vec::new(),
            placed: Vec::new(),
            latency_base: vec![eb.t_out],
            opt_cycle_max: vec![f64::NEG_INFINITY],
            works_sorted: Vec::new(),
            eb,
        }
    }

    /// Next boundary to place (== `n` when the partition is complete).
    #[inline]
    fn pos(&self) -> usize {
        self.intervals.last().map_or(0, |iv| iv.end)
    }

    /// Places interval `[start, end)` on the prefix.
    fn push(&mut self, start: usize, end: usize) {
        let app = self.cm.app();
        let t_in = app.input_volume(start) / self.b;
        let t_out = app.output_volume(end) / self.b;
        let work = app.interval_work(start, end);
        self.latency_base
            .push(self.latency_base.last().expect("seeded") + t_in);
        let opt_cycle = cycle_time(t_in, work / self.s_max, t_out);
        self.opt_cycle_max
            .push(self.opt_cycle_max.last().expect("seeded").max(opt_cycle));
        let at = self.works_sorted.partition_point(|&w| w > work);
        self.works_sorted.insert(at, work);
        self.intervals.push(Interval::new(start, end));
        self.placed.push((t_in, work, t_out));
    }

    fn pop(&mut self) {
        let (_, work, _) = self.placed.pop().expect("push/pop balanced");
        self.intervals.pop();
        self.latency_base.pop();
        self.opt_cycle_max.pop();
        let at = self.works_sorted.partition_point(|&w| w > work);
        // `at` points past the run of strictly-greater works; the first
        // element of the equal run is this work (bit-equal is fine).
        self.works_sorted.remove(at);
    }

    /// Bit-wise admissible lower bound on the period of every completion
    /// of the current prefix (see the module docs for the argument).
    fn lb_period(&self) -> f64 {
        let mut lb = *self.opt_cycle_max.last().expect("seeded");
        for (k, &w) in self.works_sorted.iter().enumerate() {
            lb = lb.max(w / self.eb.speeds_desc[k]);
        }
        self.eb.period(self.pos(), lb)
    }

    /// Slack-deflated lower bound on the latency of every completion of
    /// the current prefix.
    fn lb_latency(&self) -> f64 {
        let mut lb = *self.latency_base.last().expect("seeded");
        for (k, &w) in self.works_sorted.iter().enumerate() {
            lb += w / self.eb.speeds_desc[k];
        }
        self.eb.latency(self.pos(), lb)
    }

    /// DFS over every extension of the current prefix, in lexicographic
    /// order of the boundary vectors (the blind enumeration's order:
    /// shorter first intervals first). The visitor is called
    /// with `is_leaf = false` after each push — returning `true` prunes
    /// the subtree rooted at the grown prefix — and with `is_leaf = true`
    /// on complete partitions (return value ignored).
    fn dfs(&mut self, visit: &mut impl FnMut(&mut Self, bool) -> bool) {
        let pos = self.pos();
        if pos == self.n {
            let _ = visit(self, true);
            return;
        }
        if self.intervals.len() == self.p {
            return;
        }
        for end in pos + 1..=self.n {
            self.push(pos, end);
            if !visit(self, false) {
                self.dfs(visit);
            }
            self.pop();
        }
    }

    /// The cycle time of placed interval `j` on processor `u`.
    #[inline]
    fn cycle(&self, j: usize, u: usize) -> f64 {
        let (t_in, work, t_out) = self.placed[j];
        cycle_time(t_in, work / self.speeds[u], t_out)
    }

    /// Refills `matrix` with the cycle-time matrix of the complete
    /// partition (the bottleneck objective's input) — identical values to
    /// a fresh `CostMatrix::from_fn`, buffer reused.
    fn fill_cycle_matrix(&self, matrix: &mut CostMatrix) {
        matrix.refill(self.intervals.len(), self.p, |j, u| self.cycle(j, u));
    }

    /// Refills `matrix` with the computation-time matrix of the complete
    /// partition (the min-sum objective's input), every pair whose cycle
    /// exceeds `bound` (beyond `approx_le`) forbidden.
    fn fill_latency_matrix(&self, matrix: &mut CostMatrix, bound: f64) {
        matrix.refill(self.intervals.len(), self.p, |j, u| {
            if approx_le(self.cycle(j, u), bound) {
                self.placed[j].1 / self.speeds[u]
            } else {
                f64::INFINITY
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Entry points: an achieved seed, the DP's value phase when it applies,
// then the walk.
// ---------------------------------------------------------------------------

/// The achieved starting points of the exact searches: the Pareto set of
/// every point of the H1, H2a and H2b trajectories (recorded in `ws`),
/// each at eq. 1 and eq. 2 of its own mapping ([`CostModel::evaluate`]),
/// so no heuristic's own bookkeeping can reach an exact answer.
fn heuristic_seeds(cm: &CostModel<'_>, ws: &mut SolveWorkspace) -> ParetoFront<()> {
    let mut seeds = ParetoFront::new();
    for kind in [
        TrajectoryKind::SplitMono,
        TrajectoryKind::ExploMono,
        TrajectoryKind::ExploBi,
    ] {
        for point in fixed_period_trajectory_in(cm, kind, ws).iter() {
            let (period, latency) = cm.evaluate(&point.mapping());
            seeds.offer(period, latency, ());
        }
    }
    seeds
}

/// Exact minimum period over every interval mapping (NP-hard in general),
/// with the optimal mapping. The search is capped at `next_up(h)`, `h`
/// the smallest period the H1, H2a and H2b trajectories achieve (eq. 1
/// of each point's own mapping). The workspace lends its trajectory
/// buffers, assignment matrices and DP tables.
pub fn exact_min_period_in(cm: &CostModel<'_>, ws: &mut SolveWorkspace) -> (f64, IntervalMapping) {
    let seeds = heuristic_seeds(cm, ws);
    let h = seeds
        .first()
        .expect("a trajectory holds its Lemma-1 point")
        .0;
    min_period_below(cm, h.next_up(), ws)
}

/// The exact minimum period and its leftmost witness, searched below
/// `cap`, which must lie above an achieved period (`+∞`: none known).
/// Every filter is strict (`cycle < cap`, a prefix bound `≥ cap` prunes),
/// so the search still reaches an optimum at or below that period and
/// never reports the cap. Runs the v3 dominance DP's value phase and its
/// witness pass when [`supports_dominance_dp`] holds, the capped v2 walk
/// otherwise.
fn min_period_below(
    cm: &CostModel<'_>,
    cap: f64,
    ws: &mut SolveWorkspace,
) -> (f64, IntervalMapping) {
    if supports_dominance_dp(cm) {
        let inc = SharedIncumbent::new();
        inc.observe(cap);
        let n = cm.app().n_stages();
        run_phase(cm, &mut MinPeriod(&inc), 1..=n, &mut ws.dp.scalar);
        return min_period_witness(cm, inc.current(), ws);
    }
    min_period_walk(cm, cap, ws)
}

/// Exact minimum latency subject to `period ≤ period_bound`. `None` when
/// no interval mapping satisfies the bound. Runs the v3 dominance DP's
/// value phase when [`supports_dominance_dp`] holds and hands its value to
/// [`exact_min_latency_from_value`]; otherwise walks v2 under a ceiling:
/// the smallest latency (eq. 2 of its own mapping) of an H1, H2a or H2b
/// trajectory point whose period fits the bound, padded by `LB_SLACK`,
/// or `+∞` when no point fits.
pub fn exact_min_latency_for_period_in(
    cm: &CostModel<'_>,
    period_bound: f64,
    ws: &mut SolveWorkspace,
) -> Option<(f64, IntervalMapping)> {
    if !supports_dominance_dp(cm) {
        let ceiling = heuristic_seeds(cm, ws)
            .iter()
            .filter(|&(period, _, ())| approx_le(period, period_bound))
            .map(|(_, latency, ())| latency)
            .fold(f64::INFINITY, f64::min);
        return min_latency_walk(cm, period_bound, ceiling * (1.0 + LB_SLACK), ws);
    }
    let inc = SharedIncumbent::new();
    let phase = &mut MinLatency(&inc, period_bound);
    run_phase(cm, phase, 1..=cm.app().n_stages(), &mut ws.dp.scalar);
    exact_min_latency_from_value(cm, period_bound, inc.current(), ws)
}

/// The exact Pareto front of (period, latency) over every interval
/// mapping. The shadow front starts as the Pareto set of the H1, H2a and
/// H2b trajectory points (eq. 1 and eq. 2 of their own mappings); the v3
/// dominance DP's coordinate-only "shadow" front grows it when
/// [`supports_dominance_dp`] holds, then the threshold sweep
/// [`exact_front_from_shadow`] runs pruned against it. Seeds are achieved
/// points like the DP's, so the sweep's margin argument covers them.
pub fn exact_pareto_front_in(
    cm: &CostModel<'_>,
    ws: &mut SolveWorkspace,
) -> ParetoFront<IntervalMapping> {
    let mut shadow = heuristic_seeds(cm, ws);
    if supports_dominance_dp(cm) {
        let n = cm.app().n_stages();
        run_phase(cm, &mut Shadow(&mut shadow), 1..=n, &mut ws.dp.front);
    }
    exact_front_from_shadow(cm, &shadow, ws)
}

// ---------------------------------------------------------------------------
// v3: the processor-subset dominance DP (see the module docs).
// ---------------------------------------------------------------------------

/// Safety margin of the shadow-front prune in the witness sweep: a
/// prefix is discarded only when the DP's coordinate front dominates its
/// optimistic point by **more** than the threshold fuzz of the sweep
/// (`dedup_by` within [`EPS`], `approx_le` feasibility), so every offer
/// the sweep would have accepted is strictly dominated by one it still
/// makes. 4×[`EPS`] covers 2× threshold fuzz plus all rounding noise
/// with three orders of magnitude to spare.
const SHADOW_MARGIN: f64 = 4.0 * EPS;

/// Routing budget for the dominance DP: the number of *canonical*
/// `(pos, mask)` states — masks using only the first free member of
/// each equal-speed processor class — must stay below this for the DP
/// to pay for itself. Beyond it (e.g. 16 pairwise-distinct speeds,
/// 2^16 masks) the v2 partition search with its per-leaf polynomial
/// assignment solves is the better algorithm and the entry points walk
/// it from the heuristic seeds.
const DP_STATE_BUDGET: u64 = 50_000;

/// Identity-strength mixer for the `(pos, mask)` state keys — the keys
/// are already well-distributed small integers, so SipHash's DoS
/// hardening buys nothing and costs ~2× on the DP's hottest loop.
#[derive(Debug, Clone, Default)]
pub(crate) struct DomHasher(u64);

impl std::hash::Hasher for DomHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, x: u64) {
        // splitmix64-style finalizer: full avalanche, two multiplies.
        let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= h >> 32;
        self.0 = h;
    }
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
}

type DomBuild = BuildHasherDefault<DomHasher>;

/// One level of a v3 DP table: the states of a fixed stage position,
/// keyed by enrolled-processor mask.
type DpLevel<T> = HashMap<u32, T, DomBuild>;

/// Reusable level tables of the v3 DP, one map per stage position `pos`
/// keyed by processor mask. Owned by [`SolveWorkspace`]; each solve (or
/// each sharded root call) resets them, recycling capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct DpScratch {
    /// Min-period and latency-under-bound DPs: the smallest accumulator.
    scalar: Vec<DpLevel<f64>>,
    /// Shadow-front DP: Pareto list of `(cycle_max, latency sum)`
    /// accumulator pairs per state.
    front: Vec<DpLevel<Vec<(f64, f64)>>>,
    /// Min-period witness: whether a state still completes with every
    /// cycle within the optimum (memoized on first visit).
    completes: Vec<DpLevel<bool>>,
    /// Min-period witness: the masks the committed prefix reaches.
    reach: Vec<u32>,
    /// Min-period witness: the masks the candidate next interval reaches.
    grown: Vec<u32>,
}

/// Resizes `levels` to `n + 1` maps and clears each, keeping capacity.
fn reset_levels<T>(levels: &mut Vec<HashMap<u32, T, DomBuild>>, n: usize) {
    levels.resize_with(n + 1, HashMap::default);
    for level in levels.iter_mut() {
        level.clear();
    }
}

/// A cross-shard incumbent: the best objective value observed by any
/// worker, stored as the `f64` bit pattern in an atomic. For
/// non-negative values with a clear sign bit (every period and latency
/// here, zero included once `-0.0` is folded into `+0.0`) the IEEE-754
/// bit pattern orders exactly like the value, so a lock-free `fetch_min`
/// on the bits is a CAS-free atomic min on the values.
#[derive(Debug)]
pub struct SharedIncumbent {
    bits: AtomicU64,
}

impl Default for SharedIncumbent {
    fn default() -> Self {
        SharedIncumbent::new()
    }
}

impl SharedIncumbent {
    /// A fresh incumbent at `+∞` (nothing observed yet).
    pub fn new() -> Self {
        SharedIncumbent {
            bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    /// Records an achieved objective value (must be non-negative; an
    /// all-zero instance has optimum zero).
    #[inline]
    pub fn observe(&self, value: f64) {
        debug_assert!(value >= 0.0, "incumbent values are non-negative");
        // `-0.0 + 0.0` is `+0.0`: the sign bit would order it above +∞.
        self.bits
            .fetch_min((value + 0.0).to_bits(), Ordering::Relaxed);
    }

    /// The best value observed so far (`+∞` when none).
    #[inline]
    pub fn current(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Whether the v3 dominance DP handles this instance — the routing
/// predicate of the public entry points. Requires Communication
/// Homogeneous links (the DP interleaves assignment into the partition
/// walk, which needs interchangeable links), at most 32 processors (the
/// enrolled-set bitmask), and at most 50 000 canonical states:
/// `(n+1) · Π_classes (|class| + 1)`, the `(pos, mask)` pairs reachable
/// under the first-free-member-per-class symmetry break. Outside that,
/// the entry points walk the v2 partition search from the heuristic
/// seeds (it stays the better algorithm when all speeds are pairwise
/// distinct).
pub fn supports_dominance_dp(cm: &CostModel<'_>) -> bool {
    if !matches!(cm.platform().links(), LinkModel::Homogeneous(_)) || cm.platform().n_procs() > 32 {
        return false;
    }
    let mut bits: Vec<u64> = cm.platform().speeds().iter().map(|s| s.to_bits()).collect();
    bits.sort_unstable();
    let mut states: u64 = 1;
    let mut class = 0u64;
    for (i, &b) in bits.iter().enumerate() {
        class += 1;
        if i + 1 == bits.len() || bits[i + 1] != b {
            states = states.saturating_mul(class + 1);
            class = 0;
        }
    }
    states = states.saturating_mul(cm.app().n_stages() as u64 + 1);
    states <= DP_STATE_BUDGET
}

/// First-interval root branches `[0, end)` for `end` in `1..=n`, sorted
/// by optimistic period lower bound (ties by `end`): exploring
/// promising roots first tightens a shared incumbent early. Ordering is
/// a scheduling hint only — DP values are exact in any order.
pub fn exact_root_order(cm: &CostModel<'_>) -> Vec<usize> {
    let dp = DominanceDp::new(cm);
    let mut roots: Vec<(f64, usize)> = (1..=dp.n)
        .map(|end| (dp.eb.period(end, dp.cycle(0, end, dp.s_max)), end))
        .collect();
    roots.sort_by(|a, b| a.partial_cmp(b).expect("bounds are finite"));
    roots.into_iter().map(|(_, end)| end).collect()
}

/// The free processors of a DP state ([`DominanceDp::free_procs`]): at
/// most one per speed group, so at most 32.
struct FreeProcs {
    len: usize,
    procs: [usize; 32],
}

impl std::ops::Deref for FreeProcs {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.procs[..self.len]
    }
}

/// The combined partition × assignment DFS of the v3 DP. Holds the
/// instance views and the precomputed bounds; the per-state accumulator
/// values travel as recursion arguments, and the dominance tables live
/// in the workspace so they persist across root calls of one session.
struct DominanceDp<'c, 'a> {
    cm: &'c CostModel<'a>,
    n: usize,
    b: f64,
    s_max: f64,
    speeds: &'a [f64],
    /// Processors grouped by identical speed bits, groups sorted by
    /// speed descending, members ascending. Within a group the members
    /// are interchangeable, so each state tries only the first *free*
    /// member of each group — a symmetry break that collapses the
    /// assignment branching on (partially) homogeneous platforms
    /// without affecting any objective value.
    speed_groups: Vec<Vec<usize>>,
    eb: ExactBounds,
}

impl<'c, 'a> DominanceDp<'c, 'a> {
    fn new(cm: &'c CostModel<'a>) -> Self {
        let app = cm.app();
        let pf = cm.platform();
        let n = app.n_stages();
        assert!(n > 0, "no stage to partition");
        assert!(
            n <= MAX_STAGES,
            "refusing to enumerate 2^{} partitions",
            n - 1
        );
        assert!(
            pf.n_procs() <= 32,
            "the dominance DP's processor masks hold at most 32 processors \
             ({} here): route through supports_dominance_dp",
            pf.n_procs()
        );
        let b = homogeneous_bandwidth(cm);
        let s_max = pf.max_speed();
        let speeds = pf.speeds();
        let mut by_speed: Vec<usize> = (0..pf.n_procs()).collect();
        by_speed.sort_by(|&x, &y| {
            speeds[y]
                .partial_cmp(&speeds[x])
                .expect("speeds are finite")
                .then(x.cmp(&y))
        });
        let mut speed_groups: Vec<Vec<usize>> = Vec::new();
        for u in by_speed {
            match speed_groups.last_mut() {
                Some(g) if speeds[g[0]].to_bits() == speeds[u].to_bits() => g.push(u),
                _ => speed_groups.push(vec![u]),
            }
        }
        DominanceDp {
            cm,
            n,
            b,
            s_max,
            speeds,
            speed_groups,
            eb: ExactBounds::new(cm, b, s_max),
        }
    }

    /// The cycle time of interval `[pos, end)` at speed `speed`.
    fn cycle(&self, pos: usize, end: usize, speed: f64) -> f64 {
        let app = self.cm.app();
        cycle_time(
            app.input_volume(pos) / self.b,
            app.interval_work(pos, end) / speed,
            app.output_volume(end) / self.b,
        )
    }

    /// The first free member of every speed group, fastest group first —
    /// the canonical representative assignment choices at a state.
    #[inline]
    fn free_procs(&self, mask: u32) -> FreeProcs {
        let mut free = FreeProcs {
            len: 0,
            procs: [0; 32],
        };
        for group in &self.speed_groups {
            if let Some(u) = group.iter().copied().find(|&u| mask & (1u32 << u) == 0) {
                free.procs[free.len] = u;
                free.len += 1;
            }
        }
        free
    }

    /// The level-order sweep shared by the three DP phases. Level 0
    /// holds the virtual start state `(pos 0, mask 0)` with the phase's
    /// initial accumulator, expanded over the first intervals `[0, end)`
    /// for `end` in `first`; every later level expands over all its
    /// intervals. Positions are processed ascending, so every state
    /// already holds its final accumulators when expanded — no
    /// re-expansion, each transition taken at most once.
    fn sweep<P: Phase>(
        &self,
        phase: &mut P,
        levels: &mut [DpLevel<SlotOf<P>>],
        first: RangeInclusive<usize>,
    ) {
        let app = self.cm.app();
        P::Acc::keep(&mut levels[0], 0, P::start());
        for pos in 0..self.n {
            let mut level = std::mem::take(&mut levels[pos]);
            let ends = if pos == 0 {
                first.clone()
            } else {
                pos + 1..=self.n
            };
            let t_in = app.input_volume(pos) / self.b;
            for (&mask, slot) in level.iter() {
                let free = self.free_procs(mask);
                let Some(&fastest) = free.first() else {
                    continue;
                };
                for &acc in P::Acc::kept(slot) {
                    if phase.bounded(&self.eb, pos, acc) {
                        continue;
                    }
                    for end in ends.clone() {
                        let work = app.interval_work(pos, end);
                        // Works grow with `end`, `t_out ≥ 0` and rounding
                        // is monotone, so no free processor fits this or
                        // any longer interval: every cycle is at least this.
                        if !phase.fits(t_in + work / self.speeds[fastest]) {
                            break;
                        }
                        let t_out = app.output_volume(end) / self.b;
                        for &u in free.iter() {
                            let t_comp = work / self.speeds[u];
                            let cycle = cycle_time(t_in, t_comp, t_out);
                            if !phase.fits(cycle) {
                                continue;
                            }
                            // One arrival: a complete prefix goes to the
                            // phase, others are kept unless bounded out.
                            let next = P::extend(acc, t_in, t_comp, cycle);
                            if end == self.n {
                                phase.complete(&self.eb, next);
                            } else if !phase.bounded(&self.eb, end, next) {
                                P::Acc::keep(&mut levels[end], mask | (1u32 << u), next);
                            }
                        }
                    }
                }
            }
            level.clear();
            levels[pos] = level; // recycle capacity
        }
    }

    /// Whether `(pos, mask)` completes to a full mapping whose every
    /// interval's cycle is at most `v_star`, memoized in `memo`. An edge
    /// is allowed on the cycle of `PartitionSearch::fill_cycle_matrix`
    /// (`cycle_time`), so it admits exactly the pairs a bottleneck
    /// threshold of `v_star` admits.
    fn completes(&self, memo: &mut [DpLevel<bool>], pos: usize, mask: u32, v_star: f64) -> bool {
        if pos == self.n {
            return true;
        }
        if let Some(&known) = memo[pos].get(&mask) {
            return known;
        }
        let free = self.free_procs(mask);
        let Some(&fastest) = free.first() else {
            return false;
        };
        let app = self.cm.app();
        let t_in = app.input_volume(pos) / self.b;
        // Prefix-sum works grow with `end`, `t_out ≥ 0` and IEEE rounding
        // is monotone, so once `t_in + work / s_fastest` exceeds `v_star`
        // every longer interval's cycle on every free processor does too.
        let fits = |end: usize| t_in + app.interval_work(pos, end) / self.speeds[fastest] <= v_star;
        let found = (pos + 1..=self.n).take_while(|&end| fits(end)).any(|end| {
            free.iter().any(|&u| {
                self.cycle(pos, end, self.speeds[u]) <= v_star
                    && self.completes(memo, end, mask | (1u32 << u), v_star)
            })
        });
        memo[pos].insert(mask, found);
        found
    }
}

/// A DP accumulator and what a `(pos, mask)` state keeps of it:
/// completions grow every component monotonically, so an arrival that a
/// kept one is componentwise `≤` of cannot finish better.
trait Accumulator: Copy {
    /// What a state keeps.
    type Slot;
    /// Records `acc` at `mask` unless a kept accumulator is `≤` it,
    /// evicting those it is `≤` of.
    fn keep(level: &mut DpLevel<Self::Slot>, mask: u32, acc: Self);
    /// The accumulators a state keeps.
    fn kept(slot: &Self::Slot) -> &[Self];
}

/// A scalar: a state keeps the smallest.
impl Accumulator for f64 {
    type Slot = f64;
    fn keep(level: &mut DpLevel<f64>, mask: u32, acc: f64) {
        let kept = level.entry(mask).or_insert(acc);
        if *kept > acc {
            *kept = acc;
        }
    }
    fn kept(slot: &f64) -> &[f64] {
        std::slice::from_ref(slot)
    }
}

/// A pair: a state keeps a 2-D Pareto list.
impl Accumulator for (f64, f64) {
    type Slot = Vec<(f64, f64)>;
    fn keep(level: &mut DpLevel<Self::Slot>, mask: u32, (x, y): (f64, f64)) {
        let list = level.entry(mask).or_default();
        if list.iter().any(|&(x0, y0)| x0 <= x && y0 <= y) {
            return;
        }
        list.retain(|&(x0, y0)| !(x <= x0 && y <= y0));
        list.push((x, y));
    }
    fn kept(slot: &Self::Slot) -> &[(f64, f64)] {
        slot
    }
}

/// What one objective contributes to [`DominanceDp::sweep`]: the places
/// where the three DP phases differ (see the module docs).
/// Monomorphized per phase.
trait Phase {
    /// The per-prefix accumulator.
    type Acc: Accumulator;
    /// The start state's accumulator.
    fn start() -> Self::Acc;
    /// `acc` grown by an interval with input transfer `t_in`, computation
    /// time `t_comp` on its processor and cycle `cycle` there.
    fn extend(acc: Self::Acc, t_in: f64, t_comp: f64, cycle: f64) -> Self::Acc;
    /// The edge filter, and with the fastest free processor's cycle
    /// bound the `end`-loop cut: whether an interval with this cycle can
    /// still contribute.
    fn fits(&self, cycle: f64) -> bool;
    /// Whether no completion of `acc` at `pos` can contribute.
    fn bounded(&self, eb: &ExactBounds, pos: usize, acc: Self::Acc) -> bool;
    /// What a complete prefix does.
    fn complete(&mut self, eb: &ExactBounds, acc: Self::Acc);
}

/// The slot a phase's states keep.
type SlotOf<P> = <<P as Phase>::Acc as Accumulator>::Slot;

/// The min-period phase: the prefix cycle maximum, complete prefixes
/// feeding the incumbent.
struct MinPeriod<'i>(&'i SharedIncumbent);

impl Phase for MinPeriod<'_> {
    type Acc = f64;
    fn start() -> f64 {
        f64::NEG_INFINITY
    }
    fn extend(cycle_max: f64, _t_in: f64, _t_comp: f64, cycle: f64) -> f64 {
        cycle_max.max(cycle)
    }
    fn fits(&self, cycle: f64) -> bool {
        cycle < self.0.current()
    }
    fn bounded(&self, eb: &ExactBounds, pos: usize, cycle_max: f64) -> bool {
        eb.period(pos, cycle_max) >= self.0.current()
    }
    fn complete(&mut self, _eb: &ExactBounds, cycle_max: f64) {
        self.0.observe(cycle_max);
    }
}

/// The latency-under-period-bound phase: the prefix's eq. 2 sum
/// `Σ (t_in + t_comp)`, only edges whose cycle fits `bound` (the blind
/// solver's allowed-pair criterion), complete prefixes adding `δ_n/b`
/// and feeding the incumbent.
struct MinLatency<'i>(&'i SharedIncumbent, f64);

impl Phase for MinLatency<'_> {
    type Acc = f64;
    fn start() -> f64 {
        0.0
    }
    fn extend(latency: f64, t_in: f64, t_comp: f64, _cycle: f64) -> f64 {
        latency + (t_in + t_comp)
    }
    fn fits(&self, cycle: f64) -> bool {
        approx_le(cycle, self.1)
    }
    fn bounded(&self, eb: &ExactBounds, pos: usize, latency: f64) -> bool {
        eb.latency(pos, latency + eb.t_out) >= self.0.current()
    }
    fn complete(&mut self, eb: &ExactBounds, latency: f64) {
        self.0.observe(latency + eb.t_out);
    }
}

/// The shadow-front phase: `(cycle_max, eq. 2 sum)` pairs under the 2-D
/// Pareto rule, every edge, complete prefixes offering their
/// coordinate-only point. Leaves arrive (and tighten the front)
/// throughout the sweep, so later levels prune against an ever-better
/// front; the final coordinate set is the Pareto front of all pairs
/// regardless of arrival order.
struct Shadow<'s>(&'s mut ParetoFront<()>);

impl Phase for Shadow<'_> {
    type Acc = (f64, f64);
    fn start() -> (f64, f64) {
        (f64::NEG_INFINITY, 0.0)
    }
    fn extend((cycle_max, latency): Self::Acc, t_in: f64, t_comp: f64, cycle: f64) -> Self::Acc {
        (cycle_max.max(cycle), latency + (t_in + t_comp))
    }
    fn fits(&self, _cycle: f64) -> bool {
        true
    }
    /// Every completion's point would be weakly dominated by the front.
    fn bounded(&self, eb: &ExactBounds, pos: usize, (cycle_max, latency): Self::Acc) -> bool {
        self.0.dominated(
            eb.period(pos, cycle_max),
            eb.latency(pos, latency + eb.t_out),
        )
    }
    fn complete(&mut self, eb: &ExactBounds, (cycle_max, latency): Self::Acc) {
        let latency = latency + eb.t_out;
        if !self.0.dominated(cycle_max, latency) {
            self.0.offer(cycle_max, latency, ());
        }
    }
}

/// Runs `phase` in `levels` (the workspace's tables of its slot type)
/// from the start state, over the first intervals `[0, end)` for `end` in `first`: all of
/// them for a whole solve, one for a sharded root.
fn run_phase<P: Phase>(
    cm: &CostModel<'_>,
    phase: &mut P,
    first: RangeInclusive<usize>,
    levels: &mut Vec<DpLevel<SlotOf<P>>>,
) {
    let dp = DominanceDp::new(cm);
    reset_levels(levels, dp.n);
    dp.sweep(phase, levels, first);
}

/// Runs the min-period DP subtree rooted at first interval `[0, end)`,
/// feeding achieved values into `inc`. Self-contained: resets the
/// workspace's level tables, expands the start state over this one first
/// interval, sweeps. Thread-safe across roots when each worker has its
/// own workspace and shares one `inc`.
pub fn exact_min_period_value_root(
    cm: &CostModel<'_>,
    end: usize,
    inc: &SharedIncumbent,
    ws: &mut SolveWorkspace,
) {
    run_phase(cm, &mut MinPeriod(inc), end..=end, &mut ws.dp.scalar);
}

/// Witness pass of the min-period DP, or the v2 search when no value is
/// known: the blind enumeration's leftmost winner, i.e. the first
/// partition in DFS order whose bottleneck assignment reaches the
/// optimum, with that assignment. `v_star` must be the optimum (the DP's
/// value, bit for bit) or `+∞`.
///
/// On DP-routed instances ([`supports_dominance_dp`]) a finite `v_star`
/// builds the witness in one forward pass over the DP's `(pos, mask)`
/// states: every leaf the walk visits before the winner has a bottleneck
/// above `v_star`, so the winner is the lexicographically first
/// partition with an assignment whose cycles are all `≤ v_star`. The
/// pass commits, position by position, the shortest next interval after
/// which some reachable mask can still complete within `v_star`, then
/// takes the matching the walk's bottleneck assignment ends on for that
/// partition: the one at threshold `v_star`.
///
/// Otherwise it walks v2 with no cap (see `min_period_walk`).
pub fn exact_min_period_from_value(
    cm: &CostModel<'_>,
    v_star: f64,
    ws: &mut SolveWorkspace,
) -> (f64, IntervalMapping) {
    if v_star.is_finite() && supports_dominance_dp(cm) {
        return min_period_witness(cm, v_star, ws);
    }
    min_period_walk(cm, f64::INFINITY, ws)
}

/// The min-period partition walk: the v2 branch-and-bound over
/// partitions with a bottleneck assignment per surviving leaf, keeping
/// strict improvements on the best leaf so far, or on `cap` before the
/// first. Prefixes whose bit-wise admissible bound reaches that value are
/// pruned, and once it is finite one [`bottleneck_below`] probe decides
/// each leaf. Any `cap` above the optimum (`+∞`: none known) returns the
/// same leftmost winner: the leaves it skips are all above the optimum.
fn min_period_walk(
    cm: &CostModel<'_>,
    cap: f64,
    ws: &mut SolveWorkspace,
) -> (f64, IntervalMapping) {
    let scratch = &mut ws.exact;
    let mut search = PartitionSearch::new(cm);
    let mut best: Option<(f64, IntervalMapping)> = None;
    search.dfs(&mut |s, is_leaf| {
        let bar = best.as_ref().map_or(cap, |(v, _)| *v);
        if !is_leaf {
            return s.lb_period() >= bar;
        }
        s.fill_cycle_matrix(&mut scratch.matrix);
        // Only a bottleneck optimum below the bar improves on it: one
        // probe decides that before the threshold search runs (every
        // finite optimum is below an infinite bar).
        if bar.is_finite() && !bottleneck_below(&scratch.matrix, bar, &mut scratch.bottleneck) {
            return false;
        }
        if let Some(a) = bottleneck_assignment(&scratch.matrix, &mut scratch.bottleneck) {
            best = Some((a.objective, build_mapping(s.cm, &s.intervals, &a.assigned)));
        }
        false
    });
    best.expect("the single-interval partition is always assignable, and a cap is achieved")
}

/// The forward pass of [`exact_min_period_from_value`] at the DP's
/// optimum `v_star`. `reach` holds the canonical masks the committed
/// prefix reaches within `v_star` and from which the rest still
/// completes; it is never empty, because `v_star` is achieved.
fn min_period_witness(
    cm: &CostModel<'_>,
    v_star: f64,
    ws: &mut SolveWorkspace,
) -> (f64, IntervalMapping) {
    let dp = DominanceDp::new(cm);
    let DpScratch {
        completes,
        reach,
        grown,
        ..
    } = &mut ws.dp;
    reset_levels(completes, dp.n);
    reach.clear();
    reach.push(0);
    let mut search = PartitionSearch::new(cm);
    while search.pos() < dp.n {
        let pos = search.pos();
        let end = (pos + 1..=dp.n)
            .find(|&end| {
                grown.clear();
                for &mask in reach.iter() {
                    for &u in dp.free_procs(mask).iter() {
                        let next = mask | (1u32 << u);
                        if dp.cycle(pos, end, dp.speeds[u]) <= v_star
                            && dp.completes(completes, end, next, v_star)
                        {
                            grown.push(next);
                        }
                    }
                }
                !grown.is_empty()
            })
            .expect("v_star must be the optimum: no mapping achieves it");
        grown.sort_unstable();
        grown.dedup();
        std::mem::swap(reach, grown);
        search.push(pos, end);
    }
    // The partition's bottleneck optimum is `v_star`, so the v2 leaf's
    // threshold search would end at `v_star`: take its matching directly.
    let scratch = &mut ws.exact;
    search.fill_cycle_matrix(&mut scratch.matrix);
    let a = bottleneck_assignment_at(&scratch.matrix, v_star, &mut scratch.bottleneck)
        .expect("the committed partition has an assignment within v_star");
    debug_assert_eq!(
        a.objective.to_bits(),
        v_star.to_bits(),
        "v_star must be the optimum"
    );
    debug_assert_eq!(
        bottleneck_assignment(&scratch.matrix, &mut scratch.bottleneck).as_ref(),
        Some(&a)
    );
    (
        a.objective,
        build_mapping(cm, &search.intervals, &a.assigned),
    )
}

/// Runs the latency DP subtree rooted at first interval `[0, end)`
/// under `period_bound`, feeding achieved values into `inc`.
/// Self-contained like [`exact_min_period_value_root`].
pub fn exact_min_latency_value_root(
    cm: &CostModel<'_>,
    period_bound: f64,
    end: usize,
    inc: &SharedIncumbent,
    ws: &mut SolveWorkspace,
) {
    run_phase(
        cm,
        &mut MinLatency(inc, period_bound),
        end..=end,
        &mut ws.dp.scalar,
    );
}

/// Witness pass of the latency DP: the min-latency partition walk under
/// the ceiling `l_a`, the DP's eq. 2 optimum (within a few ulps of the
/// walk's `base + Hungarian` optimum, far inside the latency bound's
/// slack, so no achieving partition is pruned). Returns the blind
/// enumeration's leftmost winner. `l_a = +∞`
/// means the DP found no feasible pair — exactly the blind solver's
/// infeasibility condition — and answers `None` without walking.
///
/// The walk under a ceiling of `+∞` is the plain v2 search;
/// [`exact_min_latency_for_period_in`] walks it under the heuristic
/// seeds' ceiling when the DP does not apply. Any ceiling at or above the
/// optimum gives the same result, so `f64::MAX` stands for "no known
/// value" here.
pub fn exact_min_latency_from_value(
    cm: &CostModel<'_>,
    period_bound: f64,
    l_a: f64,
    ws: &mut SolveWorkspace,
) -> Option<(f64, IntervalMapping)> {
    if !l_a.is_finite() {
        return None;
    }
    let best = min_latency_walk(cm, period_bound, l_a, ws);
    debug_assert!(
        best.is_some() || l_a == f64::MAX,
        "a DP value implies feasibility"
    );
    best
}

/// The min-latency partition walk: the v2 branch-and-bound over
/// partitions with one Hungarian solve per surviving leaf, keeping strict
/// improvements. Prefixes whose latency bound exceeds `ceiling` or the
/// best leaf so far are pruned.
fn min_latency_walk(
    cm: &CostModel<'_>,
    period_bound: f64,
    ceiling: f64,
    ws: &mut SolveWorkspace,
) -> Option<(f64, IntervalMapping)> {
    let scratch = &mut ws.exact;
    let mut search = PartitionSearch::new(cm);
    let mut best: Option<(f64, IntervalMapping)> = None;
    search.dfs(&mut |s, is_leaf| {
        if !is_leaf {
            // An interval even the fastest processor cannot run within
            // the bound makes every completion's Hungarian infeasible.
            if !approx_le(*s.opt_cycle_max.last().expect("seeded"), period_bound) {
                return true;
            }
            // `lb_latency` is deflated by LB_SLACK (1e-12 relative),
            // three orders of magnitude above the few-ulp gap between
            // the DP's eq. 2 minimum and this walk's `base + Hungarian`
            // sum of the same mapping (the two associate the same terms
            // differently) — so the strict tests keep every achieving
            // partition.
            let lb = s.lb_latency();
            return lb > ceiling || best.as_ref().is_some_and(|(v, _)| lb > *v);
        }
        s.fill_latency_matrix(&mut scratch.matrix, period_bound);
        if let Some(a) = hungarian_in(&scratch.matrix, &mut scratch.hungarian) {
            let latency = s.latency_base.last().expect("seeded") + a.objective;
            if best.as_ref().is_none_or(|(v, _)| latency < *v) {
                best = Some((latency, build_mapping(s.cm, &s.intervals, &a.assigned)));
            }
        }
        false
    });
    best
}

/// Runs the shadow-front DP subtree rooted at first interval `[0, end)`,
/// offering coordinate-only points into `shadow`. Sharded callers give
/// each worker a local shadow and merge afterwards — the final
/// coordinate set is the Pareto front of all pairs either way.
/// Self-contained like [`exact_min_period_value_root`].
pub fn exact_front_shadow_root(
    cm: &CostModel<'_>,
    end: usize,
    shadow: &mut ParetoFront<()>,
    ws: &mut SolveWorkspace,
) {
    run_phase(cm, &mut Shadow(shadow), end..=end, &mut ws.dp.front);
}

/// The front's partition walk: for each surviving partition, sweeps the
/// distinct cycle values as period thresholds and records the
/// Hungarian-optimal latency at each; globally Pareto-filters across
/// partitions. Prunes prefixes dominated by the front so far and skips
/// thresholds below the partition's bottleneck optimum — both
/// output-preserving.
///
/// It also skips prefixes (and partitions) whose optimistic point
/// `shadow` dominates by more than a safety margin of `4·EPS`. The shadow
/// must hold achieved points only: the heuristic seeds, grown by the
/// front DP's coordinate front on DP-routed instances. Each achieved
/// point is weakly dominated by a Pareto point whose offer the margin
/// never skips, so every skipped offer is strictly dominated by an offer
/// the sweep still makes, and the final front (coordinates, payloads,
/// and first-achiever tie-breaks) is bit-identical to the blind
/// enumeration's. An empty `shadow` is the plain v2 sweep.
pub fn exact_front_from_shadow(
    cm: &CostModel<'_>,
    shadow: &ParetoFront<()>,
    ws: &mut SolveWorkspace,
) -> ParetoFront<IntervalMapping> {
    let scratch = &mut ws.exact;
    let mut search = PartitionSearch::new(cm);
    let mut front: ParetoFront<IntervalMapping> = ParetoFront::new();
    search.dfs(&mut |s, is_leaf| {
        if !is_leaf {
            let (lb_p, lb_l) = (s.lb_period(), s.lb_latency());
            return front.dominated(lb_p, lb_l)
                || shadow.dominated(lb_p - SHADOW_MARGIN, lb_l - SHADOW_MARGIN);
        }
        s.fill_cycle_matrix(&mut scratch.matrix);
        // The partition's feasibility floor: thresholds below it have no
        // perfect assignment, so the Hungarian solve would return `None`
        // — skip them without solving.
        let Some(bottleneck) = bottleneck_assignment(&scratch.matrix, &mut scratch.bottleneck)
        else {
            return false;
        };
        let latency_base = *s.latency_base.last().expect("seeded");
        // Dominance at the partition level: every point this partition
        // can offer has period ≥ its bottleneck optimum and latency ≥ its
        // sorted-matching relaxation.
        let lb_l = s.lb_latency();
        if front.dominated(bottleneck.objective, lb_l)
            || shadow.dominated(bottleneck.objective - SHADOW_MARGIN, lb_l - SHADOW_MARGIN)
        {
            return false;
        }
        // Candidate thresholds: every distinct cycle value of this
        // partition.
        let thresholds = &mut scratch.thresholds;
        thresholds.clear();
        for j in 0..s.intervals.len() {
            thresholds.extend((0..s.p).map(|u| s.cycle(j, u)));
        }
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        thresholds.dedup_by(|a, b| (*a - *b).abs() <= EPS);
        for &t in thresholds.iter() {
            if !approx_le(bottleneck.objective, t) {
                continue; // no perfect assignment fits this threshold
            }
            s.fill_latency_matrix(&mut scratch.matrix, t);
            let Some(a) = hungarian_in(&scratch.matrix, &mut scratch.hungarian) else {
                continue;
            };
            let latency = latency_base + a.objective;
            // Recompute the achieved period (≤ t, can be smaller).
            let achieved = a
                .assigned
                .iter()
                .enumerate()
                .map(|(j, &u)| s.cycle(j, u))
                .fold(f64::NEG_INFINITY, f64::max);
            if !front.dominated(achieved, latency) {
                let mapping = build_mapping(s.cm, &s.intervals, &a.assigned);
                front.offer(achieved, latency, mapping);
            }
        }
        false
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::{Application, Platform};

    fn small_instance(seed: u64) -> (Application, Platform) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 6, 4));
        gen.instance(seed, 0)
    }

    #[test]
    fn exact_min_period_is_a_lower_bound_for_heuristics() {
        let mut ws = SolveWorkspace::new();
        for seed in 0..4 {
            let (app, pf) = small_instance(seed);
            let cm = CostModel::new(&app, &pf);
            let (opt, mapping) = exact_min_period_in(&cm, &mut ws);
            assert!((cm.period(&mapping) - opt).abs() < 1e-9);
            // Every heuristic run to its floor stays above the optimum.
            let h1 = crate::sp_mono_p_in(&cm, 0.0, &mut ws);
            assert!(
                h1.period >= opt - 1e-9,
                "H1 {} beat the optimum {opt}",
                h1.period
            );
            assert!(opt >= cm.period_lower_bound() - 1e-9);
        }
    }

    #[test]
    fn exact_min_latency_unconstrained_is_lemma_1() {
        let (app, pf) = small_instance(1);
        let cm = CostModel::new(&app, &pf);
        let (lat, mapping) =
            exact_min_latency_for_period_in(&cm, f64::INFINITY, &mut SolveWorkspace::new())
                .expect("always feasible");
        assert!((lat - cm.optimal_latency()).abs() < 1e-9);
        assert_eq!(mapping.n_intervals(), 1);
        assert_eq!(mapping.proc_of(0), pf.fastest());
    }

    #[test]
    fn exact_latency_constrained_respects_period_bound() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = small_instance(2);
        let cm = CostModel::new(&app, &pf);
        let (p_opt, _) = exact_min_period_in(&cm, &mut ws);
        for factor in [1.0, 1.2, 1.5, 2.0] {
            let bound = p_opt * factor;
            let (lat, mapping) = exact_min_latency_for_period_in(&cm, bound, &mut ws)
                .expect("bound ≥ optimal period");
            assert!(cm.period(&mapping) <= bound + 1e-9);
            assert!((cm.latency(&mapping) - lat).abs() < 1e-9);
            assert!(lat >= cm.optimal_latency() - 1e-9);
        }
        // Below the optimal period: infeasible.
        assert!(exact_min_latency_for_period_in(&cm, p_opt * 0.99 - 1e-6, &mut ws).is_none());
    }

    #[test]
    fn exact_period_for_latency_inverts_the_other_solver() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = small_instance(3);
        let cm = CostModel::new(&app, &pf);
        let l_opt = cm.optimal_latency();
        let (p_opt, _) = exact_min_period_in(&cm, &mut ws);
        let prepared = crate::PreparedInstance::new(app.clone(), pf.clone());
        let mut min_period_for = |bound: f64| {
            let objective = crate::Objective::MinPeriodForLatency(bound);
            let request = crate::SolveRequest::new(objective).strategy(crate::Strategy::Exact);
            prepared
                .solve_in(&request, &mut ws)
                .map(|r| r.result.period)
        };
        assert!(matches!(
            min_period_for(l_opt * 0.99),
            Err(crate::SolveError::BoundBelowFloor { .. })
        ));
        let p_at_lopt = min_period_for(l_opt).expect("L_opt is achievable");
        assert!((p_at_lopt - cm.single_proc_period()).abs() < 1e-9);
        // Generous latency: the unconstrained optimal period.
        let p_free = min_period_for(l_opt * 100.0).unwrap();
        assert!((p_free - p_opt).abs() < 1e-9);
    }

    #[test]
    fn pareto_front_brackets_every_heuristic_result() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = small_instance(4);
        let cm = CostModel::new(&app, &pf);
        let front = exact_pareto_front_in(&cm, &mut ws);
        assert!(!front.is_empty());
        // Front points are mutually non-dominated and self-consistent.
        for (period, latency, payload) in front.iter() {
            let (p, l) = cm.evaluate(payload);
            assert!((p - period).abs() < 1e-9);
            assert!((l - latency).abs() < 1e-9);
        }
        // Heuristic results never dominate the front.
        for kind in crate::HeuristicKind::ALL {
            let target = if kind.is_period_fixed() {
                cm.single_proc_period() * 0.8
            } else {
                cm.optimal_latency() * 2.0
            };
            let res = kind.run_in(&cm, target, &mut ws);
            // Tolerance: the front and the heuristic compute the same
            // quantities along different floating-point paths.
            assert!(
                front.dominated(res.period + 1e-9, res.latency + 1e-9),
                "{kind} produced a point dominating the exact front"
            );
        }
    }

    #[test]
    fn pareto_extremes_match_dedicated_solvers() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = small_instance(5);
        let cm = CostModel::new(&app, &pf);
        let front = exact_pareto_front_in(&cm, &mut ws);
        let (p_opt, _) = exact_min_period_in(&cm, &mut ws);
        let min_front_period = front.first().expect("non-empty").0;
        assert!((min_front_period - p_opt).abs() < 1e-9);
        let min_front_latency = front
            .latencies()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!((min_front_latency - cm.optimal_latency()).abs() < 1e-9);
    }

    #[test]
    fn v2_prunes_work_on_larger_instances() {
        // Not a performance test per se, but the pruned search must stay
        // instant at sizes where it is expected to prune (n = 14 is the
        // new Auto cutoff).
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 14, 6));
        let (app, pf) = gen.instance(0, 0);
        let cm = CostModel::new(&app, &pf);
        let (p_opt, mapping) = exact_min_period_in(&cm, &mut SolveWorkspace::new());
        assert!((cm.period(&mapping) - p_opt).abs() < 1e-9);
        assert!(p_opt >= cm.period_lower_bound() - 1e-9);
    }

    #[test]
    fn zero_valued_optima_solve_on_every_exact_objective() {
        // All-zero works and δ make a valid application whose every
        // exact optimum is 0; the DP's incumbent must accept it. Two
        // speed classes, so the DP routes.
        let app = Application::new(vec![0.0; 5], vec![0.0; 6]).unwrap();
        let pf = Platform::comm_homogeneous(vec![1.0, 2.0, 2.0], 1.0).unwrap();
        assert!(supports_dominance_dp(&CostModel::new(&app, &pf)));
        let prepared = crate::PreparedInstance::new(app, pf);
        let mut ws = SolveWorkspace::new();
        for objective in [
            crate::Objective::MinPeriod,
            crate::Objective::MinLatencyForPeriod(0.0),
            crate::Objective::MinPeriodForLatency(0.0),
            crate::Objective::ParetoFront,
        ] {
            let request = crate::SolveRequest::new(objective).strategy(crate::Strategy::Exact);
            let report = prepared
                .solve_in(&request, &mut ws)
                .unwrap_or_else(|e| panic!("{objective:?}: {e}"));
            assert_eq!(report.result.period.to_bits(), 0.0f64.to_bits());
            assert_eq!(report.result.latency.to_bits(), 0.0f64.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A cap never moves the leftmost winner. On the tie-heavy
        /// instances of `tests/exact_frontier.rs`'s witness test (many
        /// partitions and assignments reach the optimum), the min-period
        /// walk and the DP route, capped just above the period of the
        /// unseeded winner's own mapping or of the Lemma-1 mapping, return
        /// the unseeded walk's period bits and mapping. That walk is the
        /// blind enumeration's leftmost winner, pinned there.
        #[test]
        fn a_seeded_min_period_keeps_the_leftmost_winner_under_ties(
            works in proptest::collection::vec(0u32..=3, 2..=10),
            delta in 0u32..=3,
            p in 2usize..=6,
            speed_a in 1u32..=3,
            speed_b in 1u32..=3,
        ) {
            let n = works.len();
            let app = Application::new(
                works.iter().map(|&w| w as f64).collect(),
                vec![delta as f64; n + 1],
            )
            .expect("valid application");
            let speeds: Vec<f64> = (0..p)
                .map(|u| if u % 2 == 0 { speed_a as f64 } else { speed_b as f64 })
                .collect();
            let pf = Platform::comm_homogeneous(speeds, 2.0).expect("valid platform");
            let cm = CostModel::new(&app, &pf);
            proptest::prop_assert!(supports_dominance_dp(&cm));

            let mut ws = SolveWorkspace::new();
            let (v, m) = min_period_walk(&cm, f64::INFINITY, &mut ws);
            let lemma_1 =
                IntervalMapping::new(&app, &pf, vec![Interval::new(0, n)], vec![pf.fastest()])
                    .expect("valid mapping");
            for seed in [&m, &lemma_1] {
                let cap = cm.period(seed).next_up();
                for (v_s, m_s) in [
                    min_period_walk(&cm, cap, &mut ws),
                    min_period_below(&cm, cap, &mut ws),
                ] {
                    proptest::prop_assert_eq!(v_s.to_bits(), v.to_bits());
                    proptest::prop_assert_eq!(&m_s, &m);
                }
            }
        }
    }

    #[test]
    fn the_incumbent_orders_negative_zero_as_zero() {
        let inc = SharedIncumbent::new();
        inc.observe(-0.0);
        assert_eq!(inc.current().to_bits(), 0.0f64.to_bits());
        inc.observe(1.0);
        assert_eq!(inc.current().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "route through supports_dominance_dp")]
    fn the_dp_roots_refuse_more_than_32_processors() {
        // `1u32 << 32` wraps to processor 0's mask bit in release builds,
        // so unguarded roots report 20 (both intervals at speed 10)
        // where the optimum is 100/9.
        let app = Application::uniform(2, 100.0, 0.0).unwrap();
        let mut speeds = vec![1.0; 33];
        speeds[0] = 10.0;
        speeds[32] = 9.0;
        let pf = Platform::comm_homogeneous(speeds, 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        assert!(!supports_dominance_dp(&cm));
        let mut ws = SolveWorkspace::new();
        let (period, _) = exact_min_period_in(&cm, &mut ws);
        assert_eq!(period.to_bits(), (100.0f64 / 9.0).to_bits());
        let inc = SharedIncumbent::new();
        exact_min_period_value_root(&cm, 1, &inc, &mut ws);
    }

    #[test]
    #[should_panic(expected = "refusing to enumerate")]
    fn v2_guard_matches_the_enumeration_guard() {
        let app = Application::uniform(MAX_STAGES + 1, 1.0, 1.0).unwrap();
        let pf = Platform::comm_homogeneous(vec![1.0, 2.0], 1.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let _ = exact_min_period_in(&cm, &mut SolveWorkspace::new());
    }
}
