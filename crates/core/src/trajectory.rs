//! Split trajectories: the period/latency path of a fixed-period
//! heuristic run to exhaustion.
//!
//! The three fixed-period exploration heuristics (H1, H2a, H2b) never
//! consult the period target while *choosing* splits — the target only
//! decides when to stop. Their split sequence on a given instance is
//! therefore target-independent, and the answer for *any* target `P` is
//! the first point of the trajectory whose period is ≤ `P`.
//!
//! The experiment harness exploits this: one trajectory per instance
//! answers a whole sweep of period targets, turning an O(grid × run)
//! computation into O(run + grid). H3/H4/H5 do consult their constraint
//! while choosing splits, so they are re-run per target.
//!
//! # Arena storage
//!
//! A trajectory used to be a `Vec` of points each owning a full
//! [`IntervalMapping`] clone — O(splits × n) heap traffic per recording,
//! and another mapping clone per bound query. It is now four flat
//! vectors: the period and latency of every point, plus one shared `u32`
//! arena holding each point's `(interval end, processor)` pairs behind an
//! offset table. Recording a point is three amortized pushes; bound
//! queries that only need coordinates ([`Trajectory::query`]) allocate
//! nothing; a mapping is materialized (and validated-by-construction via
//! [`IntervalMapping::from_validated_parts`]) only when a caller actually
//! asks for one.
//!
//! Recording itself is the engine's job (`SplitEngine::trajectory_in`);
//! this module holds the trajectory types and the policy dispatch.

use crate::engine::{ExplorePolicy, MonoPeriodPolicy, SplitEngine};
use crate::state::BiCriteriaResult;
use crate::workspace::SolveWorkspace;
use pipeline_model::prelude::*;
use pipeline_model::util::approx_le;

/// Which fixed-period exploration to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryKind {
    /// H1 two-way mono-criterion splitting.
    SplitMono,
    /// H2a three-way mono-criterion exploration.
    ExploMono,
    /// H2b three-way bi-criteria exploration.
    ExploBi,
}

/// The full split path of a heuristic, from the Lemma-1 mapping to
/// exhaustion, in arena storage (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// Period after `i` splits.
    periods: Vec<f64>,
    /// Latency after `i` splits.
    latencies: Vec<f64>,
    /// `arena[offsets[i] as usize..offsets[i + 1] as usize]` holds point
    /// `i`'s mapping; `offsets.len() == len + 1` once non-empty.
    offsets: Vec<u32>,
    /// Flattened `(interval end, processor)` pairs of every snapshot.
    arena: Vec<u32>,
}

/// A view of one trajectory point.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryPoint<'t> {
    traj: &'t Trajectory,
    index: usize,
}

impl TrajectoryPoint<'_> {
    /// Period after this many splits.
    #[inline]
    pub fn period(&self) -> f64 {
        self.traj.periods[self.index]
    }

    /// Latency after this many splits.
    #[inline]
    pub fn latency(&self) -> f64 {
        self.traj.latencies[self.index]
    }

    /// Number of intervals of the snapshot.
    #[inline]
    pub fn n_intervals(&self) -> usize {
        self.traj.n_intervals(self.index)
    }

    /// Materializes the snapshot as an owned mapping.
    pub fn mapping(&self) -> IntervalMapping {
        self.traj.mapping(self.index)
    }
}

impl Trajectory {
    /// An empty trajectory, ready for recording.
    pub fn new() -> Self {
        Trajectory::default()
    }

    /// Number of recorded points (`0` only before recording started; a
    /// recorded trajectory always contains at least the Lemma-1 point).
    #[inline]
    pub fn len(&self) -> usize {
        self.periods.len()
    }

    /// True before the first point is recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.periods.is_empty()
    }

    /// The period coordinates, in split order.
    #[inline]
    pub fn periods(&self) -> &[f64] {
        &self.periods
    }

    /// The latency coordinates, in split order.
    #[inline]
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Period of point `i`.
    #[inline]
    pub fn period(&self, i: usize) -> f64 {
        self.periods[i]
    }

    /// Latency of point `i`.
    #[inline]
    pub fn latency(&self, i: usize) -> f64 {
        self.latencies[i]
    }

    /// A view of point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> TrajectoryPoint<'_> {
        assert!(i < self.len(), "trajectory point {i} out of range");
        TrajectoryPoint {
            traj: self,
            index: i,
        }
    }

    /// Views of every point, in split order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TrajectoryPoint<'_>> {
        (0..self.len()).map(|index| TrajectoryPoint { traj: self, index })
    }

    /// Appends one snapshot: its coordinates plus the mapping as
    /// `(interval end, processor)` pairs in left-to-right order (interval
    /// starts are implicit — the previous end, `0` for the first). The
    /// recorder vouches the pairs come from a valid mapping.
    pub fn push_point(
        &mut self,
        period: f64,
        latency: f64,
        assignments: impl Iterator<Item = (usize, ProcId)>,
    ) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.periods.push(period);
        self.latencies.push(latency);
        for (end, proc) in assignments {
            self.arena.push(u32::try_from(end).expect("stage fits u32"));
            self.arena
                .push(u32::try_from(proc).expect("processor fits u32"));
        }
        self.offsets
            .push(u32::try_from(self.arena.len()).expect("arena fits u32"));
    }

    /// Number of intervals of point `i`'s snapshot.
    #[inline]
    pub fn n_intervals(&self, i: usize) -> usize {
        ((self.offsets[i + 1] - self.offsets[i]) / 2) as usize
    }

    /// Materializes point `i`'s snapshot as an owned mapping.
    pub fn mapping(&self, i: usize) -> IntervalMapping {
        let pairs = &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize];
        let mut intervals = Vec::with_capacity(pairs.len() / 2);
        let mut procs = Vec::with_capacity(pairs.len() / 2);
        let mut start = 0usize;
        for pair in pairs.chunks_exact(2) {
            let end = pair[0] as usize;
            intervals.push(Interval::new(start, end));
            procs.push(pair[1] as usize);
            start = end;
        }
        IntervalMapping::from_validated_parts(intervals, procs)
    }

    /// The smallest period the heuristic can reach on this instance — its
    /// per-instance *failure threshold* (the heuristic fails for every
    /// target below this; Table 1 averages these over instances).
    pub fn min_period(&self) -> f64 {
        *self.periods.last().expect("non-empty")
    }

    /// Answers a period target without materializing anything: the index
    /// of the first point satisfying the target and `true`, or the last
    /// index and `false` when the target is below the floor. Exactly the
    /// linear scan [`Self::result_for_period`] resolves through.
    pub fn query(&self, period_target: f64) -> (usize, bool) {
        for (i, &p) in self.periods.iter().enumerate() {
            if approx_le(p, period_target) {
                return (i, true);
            }
        }
        (self.len() - 1, false)
    }

    /// Result for a period target: the heuristic stops at the first point
    /// satisfying the target.
    pub fn result_for_period(&self, period_target: f64) -> BiCriteriaResult {
        let (i, feasible) = self.query(period_target);
        BiCriteriaResult {
            mapping: self.mapping(i),
            period: self.periods[i],
            latency: self.latencies[i],
            feasible,
        }
    }
}

/// Records the trajectory of one fixed-period heuristic on one instance,
/// reusing the workspace's solve buffers.
pub fn fixed_period_trajectory_in(
    cm: &CostModel<'_>,
    kind: TrajectoryKind,
    ws: &mut SolveWorkspace,
) -> Trajectory {
    // The engine ignores the policies' stop targets while recording, so
    // any target value works here; 0.0 makes the intent ("run to
    // exhaustion") explicit.
    match kind {
        TrajectoryKind::SplitMono => {
            SplitEngine::trajectory_in(&mut MonoPeriodPolicy { target: 0.0 }, cm, ws)
        }
        TrajectoryKind::ExploMono => SplitEngine::trajectory_in(
            &mut ExplorePolicy {
                target: 0.0,
                bi: false,
            },
            cm,
            ws,
        ),
        TrajectoryKind::ExploBi => SplitEngine::trajectory_in(
            &mut ExplorePolicy {
                target: 0.0,
                bi: true,
            },
            cm,
            ws,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::three_explo_mono_in;
    use crate::{sp_mono_p_in, three_explo_bi_in};
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::util::EPS;

    fn cm_fixture(seed: u64) -> (pipeline_model::Application, pipeline_model::Platform) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 15, 10));
        gen.instance(seed, 0)
    }

    #[test]
    fn trajectory_matches_direct_h1_runs() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = cm_fixture(5);
        let cm = CostModel::new(&app, &pf);
        let traj = fixed_period_trajectory_in(&cm, TrajectoryKind::SplitMono, &mut ws);
        let p0 = cm.single_proc_period();
        for target in [
            p0 * 1.1,
            p0 * 0.9,
            p0 * 0.7,
            p0 * 0.5,
            traj.min_period(),
            0.0,
        ] {
            let via_traj = traj.result_for_period(target);
            let direct = sp_mono_p_in(&cm, target, &mut ws);
            assert_eq!(via_traj.feasible, direct.feasible, "target {target}");
            assert!(
                (via_traj.period - direct.period).abs() < 1e-9,
                "period mismatch at target {target}"
            );
            assert!(
                (via_traj.latency - direct.latency).abs() < 1e-9,
                "latency mismatch at target {target}"
            );
        }
    }

    #[test]
    fn trajectory_matches_direct_explo_runs() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = cm_fixture(6);
        let cm = CostModel::new(&app, &pf);
        type DirectFn =
            for<'x, 'y, 'z> fn(&'x CostModel<'y>, f64, &'z mut SolveWorkspace) -> BiCriteriaResult;
        for (kind, direct_fn) in [
            (TrajectoryKind::ExploMono, three_explo_mono_in as DirectFn),
            (TrajectoryKind::ExploBi, three_explo_bi_in as DirectFn),
        ] {
            let traj = fixed_period_trajectory_in(&cm, kind, &mut ws);
            let p0 = cm.single_proc_period();
            for target in [p0, p0 * 0.6, traj.min_period(), 0.0] {
                let via_traj = traj.result_for_period(target);
                let direct = direct_fn(&cm, target, &mut ws);
                assert_eq!(via_traj.feasible, direct.feasible);
                assert!((via_traj.period - direct.period).abs() < 1e-9);
                assert!((via_traj.latency - direct.latency).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn periods_non_increasing_along_trajectory() {
        let (app, pf) = cm_fixture(7);
        let cm = CostModel::new(&app, &pf);
        for kind in [
            TrajectoryKind::SplitMono,
            TrajectoryKind::ExploMono,
            TrajectoryKind::ExploBi,
        ] {
            let traj = fixed_period_trajectory_in(&cm, kind, &mut SolveWorkspace::new());
            for w in traj.periods().windows(2) {
                assert!(
                    w[1] <= w[0] + EPS,
                    "{kind:?}: period increased along the trajectory"
                );
            }
            assert!((traj.min_period() - traj.periods().last().unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn first_point_is_lemma_1() {
        let (app, pf) = cm_fixture(8);
        let cm = CostModel::new(&app, &pf);
        let traj =
            fixed_period_trajectory_in(&cm, TrajectoryKind::SplitMono, &mut SolveWorkspace::new());
        assert_eq!(traj.point(0).n_intervals(), 1);
        assert!((traj.point(0).latency() - cm.optimal_latency()).abs() < 1e-12);
    }

    #[test]
    fn infeasible_target_returns_last_point() {
        let (app, pf) = cm_fixture(9);
        let cm = CostModel::new(&app, &pf);
        let traj =
            fixed_period_trajectory_in(&cm, TrajectoryKind::SplitMono, &mut SolveWorkspace::new());
        let res = traj.result_for_period(traj.min_period() * 0.5);
        assert!(!res.feasible);
        assert!((res.period - traj.min_period()).abs() < 1e-12);
    }

    #[test]
    fn bound_exactly_equal_to_a_trajectory_period_is_feasible() {
        // Tolerance-boundary regression: querying a trajectory with a
        // target exactly equal to a reachable period must succeed (the
        // comparison is `approx_le`, shared through
        // `pipeline_model::util`).
        let (app, pf) = cm_fixture(10);
        let cm = CostModel::new(&app, &pf);
        let traj =
            fixed_period_trajectory_in(&cm, TrajectoryKind::SplitMono, &mut SolveWorkspace::new());
        for pt in traj.iter() {
            let res = traj.result_for_period(pt.period());
            assert!(res.feasible, "exact boundary target {} failed", pt.period());
            assert!(res.period <= pt.period() + EPS);
        }
    }

    #[test]
    fn arena_points_round_trip_through_mappings() {
        // Materialized mappings must agree with the recorded coordinates
        // under a fresh cost-model evaluation.
        let (app, pf) = cm_fixture(11);
        let cm = CostModel::new(&app, &pf);
        let traj =
            fixed_period_trajectory_in(&cm, TrajectoryKind::ExploBi, &mut SolveWorkspace::new());
        assert!(!traj.is_empty());
        for pt in traj.iter() {
            let mapping = pt.mapping();
            assert_eq!(mapping.n_intervals(), pt.n_intervals());
            let (p, l) = cm.evaluate(&mapping);
            assert!((p - pt.period()).abs() < 1e-9);
            assert!((l - pt.latency()).abs() < 1e-9);
        }
    }

    #[test]
    fn workspace_recording_is_identical_to_fresh_recording() {
        let (app, pf) = cm_fixture(12);
        let cm = CostModel::new(&app, &pf);
        let mut ws = SolveWorkspace::new();
        for kind in [
            TrajectoryKind::SplitMono,
            TrajectoryKind::ExploMono,
            TrajectoryKind::ExploBi,
        ] {
            let fresh = fixed_period_trajectory_in(&cm, kind, &mut SolveWorkspace::new());
            // Twice through the same workspace: warm buffers must not
            // change anything.
            for _ in 0..2 {
                let reused = fixed_period_trajectory_in(&cm, kind, &mut ws);
                assert_eq!(reused.len(), fresh.len(), "{kind:?}");
                for (a, b) in reused.iter().zip(fresh.iter()) {
                    assert_eq!(a.period().to_bits(), b.period().to_bits());
                    assert_eq!(a.latency().to_bits(), b.latency().to_bits());
                    assert_eq!(a.mapping(), b.mapping());
                }
            }
        }
    }
}
