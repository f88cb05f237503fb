//! [`SolveWorkspace`]: one bundle of reusable scratch for the whole
//! solve path.
//!
//! Every solver in this crate needs per-solve heap state — the
//! [`SplitState`](crate::state::SplitState) entry list and bottleneck
//! index, the [`SplitMemo`] tables of H3's binary search, the candidate
//! buffers of the heterogeneous extension, the exact solver's assignment
//! matrices and Hungarian scratch. Allocating those per solve is
//! invisible for one query and dominant for the paper's experimental
//! campaign (thousands of heuristic solves per scenario family). A
//! `SolveWorkspace` owns all of it: thread one workspace through a batch
//! (`PreparedInstance::solve_in`, batched solves and the sweep shards —
//! one workspace per worker shard) and the steady-state split loop of the
//! comm-homogeneous kernel performs **zero heap allocations** once the
//! buffers are warm (pinned by `tests/alloc_regression.rs`). The §7
//! heterogeneous extension keeps its candidate loop allocation-free but
//! still materializes one mapping per accepted split.
//!
//! Results do not depend on the workspace's history — buffers only
//! recycle capacity, never values — so a reused workspace answers every
//! `*_in` entry point bit-identically to a fresh one (pinned by this
//! module's tests and `tests/kernel_identity.rs`).

use crate::state::{SplitBuffers, SplitMemo};
use pipeline_assign::{BottleneckScratch, CostMatrix, HungarianScratch};
use pipeline_model::prelude::*;

/// Reusable scratch of the exact branch-and-bound solvers: assignment
/// matrices, Hungarian and bottleneck buffers and the per-leaf threshold
/// list of the Pareto-front search.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactScratch {
    /// Cycle-time / latency cost matrices, refilled per leaf.
    pub(crate) matrix: CostMatrix,
    /// Shortest-augmenting-path buffers of [`pipeline_assign::hungarian_in`].
    pub(crate) hungarian: HungarianScratch,
    /// Bitset matching buffers of [`pipeline_assign::bottleneck_assignment`].
    pub(crate) bottleneck: BottleneckScratch,
    /// Distinct cycle values of one partition (period thresholds).
    pub(crate) thresholds: Vec<f64>,
}

impl ExactScratch {
    fn new() -> Self {
        ExactScratch {
            matrix: CostMatrix::empty(),
            ..ExactScratch::default()
        }
    }
}

/// Reusable scratch of the heterogeneous splitting extension
/// ([`crate::hetero`]): the evolving interval/processor vectors plus the
/// candidate-evaluation buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeteroScratch {
    pub(crate) order: Vec<ProcId>,
    pub(crate) used: Vec<bool>,
    pub(crate) intervals: Vec<Interval>,
    pub(crate) procs: Vec<ProcId>,
    pub(crate) candidates: Vec<ProcId>,
    pub(crate) cand_intervals: Vec<Interval>,
    pub(crate) cand_procs: Vec<ProcId>,
}

/// All per-solve scratch, recycled across solves (see the module docs).
///
/// Construction is free (every buffer starts empty); buffers grow to the
/// high-water mark of the solves they serve and stay there. A workspace
/// is deliberately `!Sync`-agnostic plain data — for parallel batches,
/// give each worker shard its own (`sharded_map_items_with` in
/// `pipeline-experiments` does exactly that).
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    /// Buffers of the comm-homogeneous split kernel.
    pub(crate) split: SplitBuffers,
    /// Best-cut selection memo (H3's probe runs); reset per solve.
    pub(crate) memo: SplitMemo,
    /// Buffers of the §7 heterogeneous extension.
    pub(crate) hetero: HeteroScratch,
    /// Buffers of the exact branch-and-bound solvers.
    pub(crate) exact: ExactScratch,
    /// Level tables of the exact solver's v3 dominance DP (reset at the
    /// start of every DP solve or sharded root call).
    pub(crate) dp: crate::exact::DpScratch,
}

impl SolveWorkspace {
    /// An empty workspace. Buffers materialize on first use.
    pub fn new() -> Self {
        SolveWorkspace {
            exact: ExactScratch::new(),
            ..SolveWorkspace::default()
        }
    }

    /// Takes the split buffers out (leaving empty ones); pair with
    /// [`Self::restore_split`].
    pub(crate) fn take_split(&mut self) -> SplitBuffers {
        std::mem::take(&mut self.split)
    }

    /// Returns recycled split buffers to the workspace.
    pub(crate) fn restore_split(&mut self, buffers: SplitBuffers) {
        self.split = buffers;
    }

    /// Takes the selection memo out *warm* when it already serves the
    /// instance with fingerprint `fp` — consecutive solves on one
    /// instance (re-solves after an `InstanceDelta`, repeated service
    /// queries) then start from the previous solve's cached selections
    /// instead of a cold memo. Any other binding is reset. Bit-identical
    /// either way: memoized selections equal direct ones, warm or cold.
    pub(crate) fn take_memo_for(&mut self, fp: u64) -> SplitMemo {
        let mut memo = std::mem::take(&mut self.memo);
        if memo.fingerprint() != Some(fp) {
            memo.reset();
        }
        memo
    }

    /// Returns the selection memo to the workspace.
    pub(crate) fn restore_memo(&mut self, memo: SplitMemo) {
        self.memo = memo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{
        exact_min_latency_for_period_in, exact_min_period_in, exact_pareto_front_in,
    };
    use crate::hetero::{hetero_trajectory_in, HeteroSplitOptions};
    use crate::trajectory::{fixed_period_trajectory_in, Trajectory, TrajectoryKind};
    use crate::HeuristicKind;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};

    /// One solver outcome with its floats as bit patterns: equal keys
    /// mean bit-identical outcomes.
    fn key(period: f64, latency: f64, mapping: &IntervalMapping) -> String {
        format!("{:x} {:x} {mapping:?}", period.to_bits(), latency.to_bits())
    }

    fn trajectory_key(traj: &Trajectory) -> Vec<String> {
        traj.iter()
            .map(|pt| key(pt.period(), pt.latency(), &pt.mapping()))
            .collect()
    }

    fn heuristic(kind: HeuristicKind, cm: &CostModel<'_>, ws: &mut SolveWorkspace) -> Vec<String> {
        let target = if kind.is_period_fixed() {
            0.6 * cm.single_proc_period()
        } else {
            1.5 * cm.optimal_latency()
        };
        let r = kind.run_in(cm, target, ws);
        vec![format!(
            "{} {}",
            r.feasible,
            key(r.period, r.latency, &r.mapping)
        )]
    }

    type EntryPoint = fn(&CostModel<'_>, &mut SolveWorkspace) -> Vec<String>;

    /// Every public entry point that takes a workspace.
    const ENTRY_POINTS: [(&str, EntryPoint); 14] = [
        ("H1", |cm, ws| heuristic(HeuristicKind::SpMonoP, cm, ws)),
        ("H2", |cm, ws| {
            heuristic(HeuristicKind::ThreeExploMono, cm, ws)
        }),
        ("H3", |cm, ws| {
            heuristic(HeuristicKind::ThreeExploBi, cm, ws)
        }),
        ("H4", |cm, ws| heuristic(HeuristicKind::SpBiP, cm, ws)),
        ("H5", |cm, ws| heuristic(HeuristicKind::SpMonoL, cm, ws)),
        ("H6", |cm, ws| heuristic(HeuristicKind::SpBiL, cm, ws)),
        ("H7", |cm, ws| heuristic(HeuristicKind::HeteroSplit, cm, ws)),
        ("split-mono trajectory", |cm, ws| {
            trajectory_key(&fixed_period_trajectory_in(
                cm,
                TrajectoryKind::SplitMono,
                ws,
            ))
        }),
        ("explo-mono trajectory", |cm, ws| {
            trajectory_key(&fixed_period_trajectory_in(
                cm,
                TrajectoryKind::ExploMono,
                ws,
            ))
        }),
        ("explo-bi trajectory", |cm, ws| {
            trajectory_key(&fixed_period_trajectory_in(cm, TrajectoryKind::ExploBi, ws))
        }),
        ("hetero trajectory", |cm, ws| {
            trajectory_key(&hetero_trajectory_in(cm, HeteroSplitOptions::default(), ws))
        }),
        ("exact min period", |cm, ws| {
            let (period, mapping) = exact_min_period_in(cm, ws);
            vec![key(period, cm.latency(&mapping), &mapping)]
        }),
        ("exact min latency", |cm, ws| {
            let bound = 1.1 * exact_min_period_in(cm, ws).0;
            let (latency, mapping) =
                exact_min_latency_for_period_in(cm, bound, ws).expect("bound above the optimum");
            vec![key(cm.period(&mapping), latency, &mapping)]
        }),
        ("exact front", |cm, ws| {
            let front = exact_pareto_front_in(cm, ws);
            front.iter().map(|(p, l, m)| key(p, l, m)).collect()
        }),
    ];

    #[test]
    fn workspace_reuse_is_bit_identical_across_solves() {
        // Buffers recycle capacity, never values: one workspace carried
        // across instances of different shapes (buffers grown by larger
        // ones, H4's memo bound to the previous instance) answers every
        // entry point exactly like a fresh workspace.
        let shapes = [
            (ExperimentKind::E1, 10, 6),
            (ExperimentKind::E2, 6, 10),
            (ExperimentKind::E3, 12, 5),
            (ExperimentKind::E1, 8, 8),
        ];
        let mut ws = SolveWorkspace::new();
        for (seed, (kind, n, p)) in shapes.into_iter().enumerate() {
            let gen = InstanceGenerator::new(InstanceParams::paper(kind, n, p));
            let (app, pf) = gen.instance(seed as u64, 0);
            let cm = CostModel::new(&app, &pf);
            for (name, entry_point) in ENTRY_POINTS {
                let fresh = entry_point(&cm, &mut SolveWorkspace::new());
                let reused = entry_point(&cm, &mut ws);
                assert!(!fresh.is_empty(), "{name}");
                assert_eq!(fresh, reused, "{name} on {kind} n={n} p={p}");
            }
        }
    }

    #[test]
    fn take_and_restore_round_trip() {
        let mut ws = SolveWorkspace::new();
        let bufs = ws.take_split();
        ws.restore_split(bufs);
        let memo = ws.take_memo_for(0);
        ws.restore_memo(memo);
    }
}
