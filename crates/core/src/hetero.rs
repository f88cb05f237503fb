//! Extension to **fully heterogeneous platforms** (per-link bandwidths),
//! the first "future work" direction of the paper's Section 7.
//!
//! On Communication Homogeneous platforms an interval's cycle time is
//! independent of its neighbours, which is what makes the O(1) candidate
//! evaluation of [`crate::state::SplitState`] possible. With per-link
//! bandwidths a split changes the transfer costs of the *adjacent*
//! intervals too, and the identity of the enrolled processor matters
//! beyond its speed. The greedy here therefore:
//!
//! * evaluates candidates against the full mapping (O(m) per candidate);
//! * considers the `candidate_procs` fastest unused processors for each
//!   split instead of only the next one;
//! * selects by global period improvement (mono) — the natural lift of
//!   H1's rule when cycle times interact.
//!
//! Candidates are costed **on slices**, without materializing an
//! [`IntervalMapping`] per candidate: the evaluation walks the candidate
//! interval/processor vectors with exactly the cost-model expressions
//! `CostModel::{period, latency}` apply to a built mapping (same
//! iteration order, same association), so results are bit-identical to
//! the build-then-evaluate form while the candidate loop allocates
//! nothing — only the winning split is applied. The state's vectors are
//! recycled through [`crate::workspace::SolveWorkspace`].
//!
//! On a Communication Homogeneous platform this reduces to H1 when
//! `candidate_procs == 1` (verified by tests), so the extension is
//! conservative.
//!
//! The drive loop is the shared [`crate::engine::SplitEngine`]; this
//! module contributes [`HeteroPolicy`] (and its state, which caches the
//! current mapping/period/latency so each step evaluates the mapping
//! once).

use crate::engine::{EngineState, SplitEngine, SplitPolicy};
use crate::state::BiCriteriaResult;
use crate::trajectory::Trajectory;
use crate::workspace::{HeteroScratch, SolveWorkspace};
use pipeline_model::prelude::*;
use pipeline_model::util::{approx_eq, approx_le, definitely_lt};

/// Options of the heterogeneous splitting heuristic.
#[derive(Debug, Clone, Copy)]
pub struct HeteroSplitOptions {
    /// How many of the fastest unused processors to consider per split.
    pub candidate_procs: usize,
}

impl Default for HeteroSplitOptions {
    fn default() -> Self {
        HeteroSplitOptions { candidate_procs: 3 }
    }
}

/// Mutable splitting state shared by the direct heuristic and the
/// trajectory recorder. Owns recyclable vectors (see [`HeteroScratch`]).
struct HetState {
    /// Processors by non-increasing speed.
    order: Vec<ProcId>,
    used: Vec<bool>,
    intervals: Vec<Interval>,
    procs: Vec<ProcId>,
    /// Candidate-evaluation scratch.
    candidates: Vec<ProcId>,
    cand_intervals: Vec<Interval>,
    cand_procs: Vec<ProcId>,
}

impl HetState {
    fn initial(cm: &CostModel<'_>, scratch: HeteroScratch) -> Self {
        let HeteroScratch {
            mut order,
            mut used,
            mut intervals,
            mut procs,
            candidates,
            cand_intervals,
            cand_procs,
        } = scratch;
        let pf = cm.platform();
        order.clear();
        order.extend_from_slice(pf.procs_by_speed_desc());
        used.clear();
        used.resize(pf.n_procs(), false);
        used[order[0]] = true;
        intervals.clear();
        intervals.push(Interval::new(0, cm.app().n_stages()));
        procs.clear();
        procs.push(order[0]);
        HetState {
            order,
            used,
            intervals,
            procs,
            candidates,
            cand_intervals,
            cand_procs,
        }
    }

    fn into_scratch(self) -> HeteroScratch {
        HeteroScratch {
            order: self.order,
            used: self.used,
            intervals: self.intervals,
            procs: self.procs,
            candidates: self.candidates,
            cand_intervals: self.cand_intervals,
            cand_procs: self.cand_procs,
        }
    }

    fn mapping(&self, cm: &CostModel<'_>) -> IntervalMapping {
        build(cm, &self.intervals, &self.procs)
    }

    /// Applies the best available split (see [`best_split`]); returns
    /// false when no split improves the bottleneck. `mapping` must be the
    /// caller's already-built mapping of the current state (both callers
    /// evaluate it anyway, so it is not rebuilt here).
    fn step(
        &mut self,
        cm: &CostModel<'_>,
        mapping: &IntervalMapping,
        opts: HeteroSplitOptions,
    ) -> bool {
        match best_split(cm, self, mapping, opts) {
            Some(winner) => {
                self.used[winner.new_proc] = true;
                let iv = self.intervals[winner.j];
                let (lp, rp) = if winner.keep_left {
                    (self.procs[winner.j], winner.new_proc)
                } else {
                    (winner.new_proc, self.procs[winner.j])
                };
                self.intervals[winner.j] = Interval::new(iv.start, winner.cut);
                self.intervals
                    .insert(winner.j + 1, Interval::new(winner.cut, iv.end));
                self.procs[winner.j] = lp;
                self.procs.insert(winner.j + 1, rp);
                true
            }
            None => false,
        }
    }
}

fn build(cm: &CostModel<'_>, ivs: &[Interval], ps: &[ProcId]) -> IntervalMapping {
    IntervalMapping::new(cm.app(), cm.platform(), ivs.to_vec(), ps.to_vec())
        .expect("splitting maintains validity")
}

/// Cycle time of interval `j` of the candidate described by slices —
/// exactly what `cm.cycle_time(&built_mapping, j)` computes.
#[inline]
fn slice_cycle(cm: &CostModel<'_>, ivs: &[Interval], ps: &[ProcId], j: usize) -> f64 {
    let pred = (j > 0).then(|| ps[j - 1]);
    let succ = (j + 1 < ivs.len()).then(|| ps[j + 1]);
    cm.interval_cost(ivs[j], ps[j], pred, succ).cycle_time()
}

/// `(period, latency)` of the candidate described by slices — the same
/// fold order as `CostModel::{period, latency}` on a built mapping, so
/// the values are bit-identical.
fn slice_evaluate(cm: &CostModel<'_>, ivs: &[Interval], ps: &[ProcId]) -> (f64, f64) {
    let m = ivs.len();
    let mut period = f64::NEG_INFINITY;
    for j in 0..m {
        period = period.max(slice_cycle(cm, ivs, ps, j));
    }
    let mut latency = 0.0;
    for j in 0..m {
        let pred = (j > 0).then(|| ps[j - 1]);
        let succ = (j + 1 < m).then(|| ps[j + 1]);
        let c = cm.interval_cost(ivs[j], ps[j], pred, succ);
        latency += c.latency_term();
        if j + 1 == m {
            latency += c.t_out; // final δ_n / b transfer
        }
    }
    (period, latency)
}

/// The chosen split of one [`best_split`] call, as coordinates — the
/// winning candidate is the only one ever materialized.
struct ChosenSplit {
    j: usize,
    cut: usize,
    keep_left: bool,
    new_proc: ProcId,
}

/// H1's selection rule, lifted to per-link bandwidths: split the
/// bottleneck interval minimizing the max cycle time of the two pieces
/// (computed with the real link bandwidths, so the choice of `new_proc`
/// matters), accepting only candidates strictly improving the
/// bottleneck's old cycle. Ties break toward lower global period, then
/// latency. The period target is never consulted — the split sequence is
/// target-independent, which is what makes [`hetero_trajectory_in`] answer
/// every target from one recorded run.
fn best_split(
    cm: &CostModel<'_>,
    st: &mut HetState,
    mapping: &IntervalMapping,
    opts: HeteroSplitOptions,
) -> Option<ChosenSplit> {
    // Bottleneck interval.
    let j = (0..mapping.n_intervals())
        .max_by(|&a, &b| {
            cm.cycle_time(mapping, a)
                .partial_cmp(&cm.cycle_time(mapping, b))
                .expect("finite")
        })
        .expect("at least one interval");
    let iv = st.intervals[j];
    if iv.len() < 2 {
        return None;
    }
    // Candidate new processors: the fastest unused ones.
    st.candidates.clear();
    st.candidates.extend(
        st.order
            .iter()
            .copied()
            .filter(|&u| !st.used[u])
            .take(opts.candidate_procs),
    );
    if st.candidates.is_empty() {
        return None;
    }

    let old_cycle = cm.cycle_time(mapping, j);
    // (local max cycle, period, latency) of the incumbent.
    let mut best: Option<(f64, f64, f64, ChosenSplit)> = None;
    let ivs = &mut st.cand_intervals;
    let ps = &mut st.cand_procs;
    for &new_proc in &st.candidates {
        for cut in iv.start + 1..iv.end {
            for keep_left in [true, false] {
                // Assemble the candidate in the reused scratch vectors.
                ivs.clear();
                ivs.extend_from_slice(&st.intervals);
                ps.clear();
                ps.extend_from_slice(&st.procs);
                ivs[j] = Interval::new(iv.start, cut);
                ivs.insert(j + 1, Interval::new(cut, iv.end));
                let (lp, rp) = if keep_left {
                    (st.procs[j], new_proc)
                } else {
                    (new_proc, st.procs[j])
                };
                ps[j] = lp;
                ps.insert(j + 1, rp);
                let local = slice_cycle(cm, ivs, ps, j).max(slice_cycle(cm, ivs, ps, j + 1));
                if !definitely_lt(local, old_cycle) {
                    continue;
                }
                let (p, l) = slice_evaluate(cm, ivs, ps);
                let better = match &best {
                    None => true,
                    Some((bl_local, bp, bl, _)) => {
                        definitely_lt(local, *bl_local)
                            || (approx_eq(local, *bl_local)
                                && (definitely_lt(p, *bp)
                                    || (approx_eq(p, *bp) && definitely_lt(l, *bl))))
                    }
                };
                if better {
                    best = Some((
                        local,
                        p,
                        l,
                        ChosenSplit {
                            j,
                            cut,
                            keep_left,
                            new_proc,
                        },
                    ));
                }
            }
        }
    }
    best.map(|(_, _, _, chosen)| chosen)
}

/// The §7 extension as an engine policy: H1's rule lifted to per-link
/// bandwidths, driven by [`SplitEngine`].
#[derive(Debug, Clone, Copy)]
pub struct HeteroPolicy {
    /// The period bound to reach.
    pub target: f64,
    /// Candidate-pool width per split.
    pub opts: HeteroSplitOptions,
}

/// [`HeteroPolicy`]'s state: the evolving interval/processor vectors plus
/// the current mapping and its metrics, evaluated once per step.
pub struct HeteroEngineState<'a> {
    cm: CostModel<'a>,
    st: HetState,
    mapping: IntervalMapping,
    period: f64,
    latency: f64,
}

impl HeteroEngineState<'_> {
    fn refresh(&mut self) {
        self.mapping = self.st.mapping(&self.cm);
        self.period = self.cm.period(&self.mapping);
        self.latency = self.cm.latency(&self.mapping);
    }
}

impl EngineState for HeteroEngineState<'_> {
    fn period(&self) -> f64 {
        self.period
    }

    fn record(&self, traj: &mut Trajectory) {
        traj.push_point(
            self.period,
            self.latency,
            self.mapping.assignments().map(|(iv, proc)| (iv.end, proc)),
        );
    }

    fn to_result(&self, feasible: bool) -> BiCriteriaResult {
        BiCriteriaResult {
            mapping: self.mapping.clone(),
            period: self.period,
            latency: self.latency,
            feasible,
        }
    }

    fn reclaim(self, ws: &mut SolveWorkspace) {
        ws.hetero = self.st.into_scratch();
    }
}

impl SplitPolicy for HeteroPolicy {
    type State<'a> = HeteroEngineState<'a>;

    fn init<'a>(&mut self, cm: &CostModel<'a>, ws: &mut SolveWorkspace) -> HeteroEngineState<'a> {
        assert!(
            self.opts.candidate_procs >= 1,
            "need at least one candidate processor"
        );
        let st = HetState::initial(cm, std::mem::take(&mut ws.hetero));
        let mapping = st.mapping(cm);
        let period = cm.period(&mapping);
        let latency = cm.latency(&mapping);
        HeteroEngineState {
            cm: *cm,
            st,
            mapping,
            period,
            latency,
        }
    }

    fn verdict(&mut self, st: &HeteroEngineState<'_>) -> Option<bool> {
        approx_le(st.period, self.target).then_some(true)
    }

    fn step(&mut self, st: &mut HeteroEngineState<'_>) -> bool {
        if st.st.step(&st.cm, &st.mapping, self.opts) {
            st.refresh();
            true
        } else {
            false
        }
    }

    fn exhausted_feasible(&mut self, _st: &HeteroEngineState<'_>) -> bool {
        false
    }
}

/// Splitting heuristic minimizing latency under a period bound on fully
/// heterogeneous platforms (also accepts Communication Homogeneous ones).
pub fn hetero_sp_mono_p_in(
    cm: &CostModel<'_>,
    period_target: f64,
    opts: HeteroSplitOptions,
    ws: &mut SolveWorkspace,
) -> BiCriteriaResult {
    SplitEngine::run_in(
        &mut HeteroPolicy {
            target: period_target,
            opts,
        },
        cm,
        ws,
    )
}

/// Records the full split path of [`hetero_sp_mono_p_in`] run to
/// exhaustion.
///
/// The split choices never consult the period target (see
/// `best_split`), so — exactly like the H1/H2a/H2b trajectories of
/// [`crate::trajectory`] — one recorded run answers *every* period target
/// via [`Trajectory::result_for_period`]. The sharded sweep engine relies
/// on this to sweep heterogeneous-platform scenario families at the same
/// O(run + grid) cost as the paper families.
pub fn hetero_trajectory_in(
    cm: &CostModel<'_>,
    opts: HeteroSplitOptions,
    ws: &mut SolveWorkspace,
) -> Trajectory {
    SplitEngine::trajectory_in(&mut HeteroPolicy { target: 0.0, opts }, cm, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::sp_mono_p_in;
    use pipeline_model::{Application, Platform};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_het_platform(seed: u64, p: usize) -> Platform {
        let mut rng = StdRng::seed_from_u64(seed);
        let speeds: Vec<f64> = (0..p).map(|_| rng.random_range(1..=20) as f64).collect();
        let matrix: Vec<Vec<f64>> = (0..p)
            .map(|_| (0..p).map(|_| rng.random_range(1.0..20.0)).collect())
            .collect();
        Platform::fully_heterogeneous(speeds, matrix, 10.0).unwrap()
    }

    fn random_app(seed: u64, n: usize) -> Application {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let works: Vec<f64> = (0..n).map(|_| rng.random_range(1.0..20.0)).collect();
        let deltas: Vec<f64> = (0..=n).map(|_| rng.random_range(1.0..20.0)).collect();
        Application::new(works, deltas).unwrap()
    }

    #[test]
    fn reduces_to_h1_on_comm_homogeneous_platforms() {
        let mut ws = SolveWorkspace::new();
        for seed in 0..6 {
            let app = random_app(seed, 12);
            let mut rng = StdRng::seed_from_u64(seed);
            let speeds: Vec<f64> = (0..8).map(|_| rng.random_range(1..=20) as f64).collect();
            let pf = Platform::comm_homogeneous(speeds, 10.0).unwrap();
            let cm = CostModel::new(&app, &pf);
            let target = 0.6 * cm.single_proc_period();
            let h1 = sp_mono_p_in(&cm, target, &mut ws);
            let ext = hetero_sp_mono_p_in(
                &cm,
                target,
                HeteroSplitOptions { candidate_procs: 1 },
                &mut ws,
            );
            assert_eq!(h1.feasible, ext.feasible, "seed {seed}");
            if h1.feasible {
                assert!(
                    (h1.period - ext.period).abs() < 1e-9,
                    "seed {seed}: H1 {} vs extension {}",
                    h1.period,
                    ext.period
                );
            }
        }
    }

    #[test]
    fn improves_period_on_heterogeneous_platforms() {
        for seed in 0..4 {
            let app = random_app(seed, 10);
            let pf = random_het_platform(seed, 6);
            let cm = CostModel::new(&app, &pf);
            let initial = cm.period(&IntervalMapping::all_on_fastest(&app, &pf));
            let res = hetero_sp_mono_p_in(
                &cm,
                0.0,
                HeteroSplitOptions::default(),
                &mut SolveWorkspace::new(),
            );
            assert!(!res.feasible);
            assert!(
                res.period <= initial + EPS,
                "seed {seed}: extension worsened the single-proc period"
            );
            let (p, l) = cm.evaluate(&res.mapping);
            assert!((p - res.period).abs() < 1e-9);
            assert!((l - res.latency).abs() < 1e-9);
        }
    }

    #[test]
    fn wider_candidate_pool_never_hurts_much() {
        // Considering more candidate processors explores a superset of
        // moves at each greedy step; greedy being myopic this is not a
        // theorem, but a large regression would indicate a bug.
        let mut ws = SolveWorkspace::new();
        let mut narrow_total = 0.0;
        let mut wide_total = 0.0;
        for seed in 0..8 {
            let app = random_app(seed, 10);
            let pf = random_het_platform(seed + 100, 8);
            let cm = CostModel::new(&app, &pf);
            let narrow =
                hetero_sp_mono_p_in(&cm, 0.0, HeteroSplitOptions { candidate_procs: 1 }, &mut ws);
            let wide =
                hetero_sp_mono_p_in(&cm, 0.0, HeteroSplitOptions { candidate_procs: 4 }, &mut ws);
            narrow_total += narrow.period;
            wide_total += wide.period;
        }
        assert!(
            wide_total <= narrow_total * 1.05,
            "wide pool {wide_total} much worse than narrow {narrow_total}"
        );
    }

    #[test]
    fn feasible_target_met_exactly() {
        let mut ws = SolveWorkspace::new();
        let app = random_app(42, 8);
        let pf = random_het_platform(42, 6);
        let cm = CostModel::new(&app, &pf);
        let floor = hetero_sp_mono_p_in(&cm, 0.0, HeteroSplitOptions::default(), &mut ws).period;
        let res = hetero_sp_mono_p_in(&cm, floor * 1.2, HeteroSplitOptions::default(), &mut ws);
        assert!(res.feasible);
        assert!(res.period <= floor * 1.2 + EPS);
    }

    #[test]
    fn trajectory_matches_direct_runs_at_every_target() {
        // The split sequence is target-independent, so one recorded
        // trajectory must answer any target exactly like a direct run.
        let mut ws = SolveWorkspace::new();
        for seed in 0..4 {
            let app = random_app(seed, 10);
            let pf = random_het_platform(seed + 50, 6);
            let cm = CostModel::new(&app, &pf);
            let opts = HeteroSplitOptions::default();
            let traj = hetero_trajectory_in(&cm, opts, &mut ws);
            let p0 = cm.period(&IntervalMapping::all_on_fastest(&app, &pf));
            for target in [p0 * 1.5, p0 * 0.8, p0 * 0.5, traj.min_period(), 0.0] {
                let via_traj = traj.result_for_period(target);
                let direct = hetero_sp_mono_p_in(&cm, target, opts, &mut ws);
                assert_eq!(via_traj.feasible, direct.feasible, "seed {seed}@{target}");
                assert!(
                    (via_traj.period - direct.period).abs() < 1e-12,
                    "seed {seed}@{target}: period mismatch"
                );
                assert!(
                    (via_traj.latency - direct.latency).abs() < 1e-12,
                    "seed {seed}@{target}: latency mismatch"
                );
                assert_eq!(via_traj.mapping, direct.mapping);
            }
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_bitwise() {
        let mut ws = SolveWorkspace::new();
        for seed in 0..3 {
            let app = random_app(seed, 9);
            let pf = random_het_platform(seed + 7, 6);
            let cm = CostModel::new(&app, &pf);
            let opts = HeteroSplitOptions::default();
            let fresh = hetero_sp_mono_p_in(&cm, 0.0, opts, &mut SolveWorkspace::new());
            let reused = hetero_sp_mono_p_in(&cm, 0.0, opts, &mut ws);
            assert_eq!(fresh.period.to_bits(), reused.period.to_bits());
            assert_eq!(fresh.latency.to_bits(), reused.latency.to_bits());
            assert_eq!(fresh.mapping, reused.mapping);
        }
    }

    #[test]
    fn trajectory_starts_at_lemma_1_and_reaches_the_floor() {
        let mut ws = SolveWorkspace::new();
        let app = random_app(3, 9);
        let pf = random_het_platform(3, 5);
        let cm = CostModel::new(&app, &pf);
        let traj = hetero_trajectory_in(&cm, HeteroSplitOptions::default(), &mut ws);
        assert_eq!(traj.point(0).n_intervals(), 1);
        let direct_floor =
            hetero_sp_mono_p_in(&cm, 0.0, HeteroSplitOptions::default(), &mut ws).period;
        assert!((traj.min_period() - direct_floor).abs() < 1e-12);
    }

    #[test]
    fn single_stage_cannot_improve() {
        let app = Application::uniform(1, 10.0, 1.0).unwrap();
        let pf = random_het_platform(7, 4);
        let cm = CostModel::new(&app, &pf);
        let res = hetero_sp_mono_p_in(
            &cm,
            1e-9,
            HeteroSplitOptions::default(),
            &mut SolveWorkspace::new(),
        );
        assert!(!res.feasible);
        assert_eq!(res.mapping.n_intervals(), 1);
    }
}
