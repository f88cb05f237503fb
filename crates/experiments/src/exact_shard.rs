//! Sharded exact branch-and-bound: the v3 dominance DP's first-interval
//! roots fanned over the work-queue engine.
//!
//! The DP phase of the exact solvers ([`pipeline_core::exact`]) splits
//! naturally at the first interval: each root branch `[0, end)` is an
//! independent value search, so the roots go through
//! [`crate::shard::sharded_map_indices_with`] with one
//! [`SolveWorkspace`] per worker (each root call resets its own level
//! tables) and one [`SharedIncumbent`] shared by all workers — the
//! atomic minimum gives late shards the early shards' bounds for free.
//! Roots are ordered by optimistic lower bound
//! ([`exact_root_order`]), so the most promising subtrees run first and
//! tighten the incumbent early.
//!
//! **Determinism.** The DP phase computes *values*, and those are exact
//! under any schedule: incumbent pruning only discards non-improving
//! leaves, and per-root dominance never crosses shards. The mapping (and
//! every tie-break) comes from the sequential witness pass: for the
//! minimum period one forward pass over the DP's states at the known
//! optimum, for the latency and the front a re-walk of the v2 partition
//! search pruned against the value. Results are therefore
//! **bit-identical** to the sequential entry points at any thread count
//! — pinned at 1/2/4 threads by `tests/exact_frontier.rs`.
//!
//! Instances the DP does not support
//! ([`pipeline_core::exact::supports_dominance_dp`]) fall back to the
//! sequential v2 solvers — same results, no parallel speedup.

use crate::shard::{sharded_map_indices_with, ShardOptions};
use pipeline_core::exact::{
    exact_front_shadow_root, exact_min_latency_for_period_in, exact_min_latency_from_value,
    exact_min_latency_value_root, exact_min_period_from_value, exact_min_period_in,
    exact_min_period_value_root, exact_pareto_front_in, exact_root_order, supports_dominance_dp,
    SharedIncumbent,
};
use pipeline_core::{ParetoFront, SolveWorkspace};
use pipeline_model::prelude::*;

/// Exact minimum period with the DP roots fanned over `opts.threads`
/// workers. Bit-identical to [`pipeline_core::exact::exact_min_period_in`]
/// at any thread count.
pub fn exact_min_period_sharded(cm: &CostModel<'_>, opts: ShardOptions) -> (f64, IntervalMapping) {
    let mut ws = SolveWorkspace::new();
    if !supports_dominance_dp(cm) {
        return exact_min_period_in(cm, &mut ws);
    }
    let roots = exact_root_order(cm);
    let inc = SharedIncumbent::new();
    sharded_map_indices_with(roots.len(), opts, SolveWorkspace::new, |ws, i| {
        exact_min_period_value_root(cm, roots[i], &inc, ws);
    });
    exact_min_period_from_value(cm, inc.current(), &mut ws)
}

/// Exact minimum latency under a period bound, sharded like
/// [`exact_min_period_sharded`]. Bit-identical to
/// [`pipeline_core::exact::exact_min_latency_for_period_in`].
pub fn exact_min_latency_for_period_sharded(
    cm: &CostModel<'_>,
    period_bound: f64,
    opts: ShardOptions,
) -> Option<(f64, IntervalMapping)> {
    let mut ws = SolveWorkspace::new();
    if !supports_dominance_dp(cm) {
        return exact_min_latency_for_period_in(cm, period_bound, &mut ws);
    }
    let roots = exact_root_order(cm);
    let inc = SharedIncumbent::new();
    sharded_map_indices_with(roots.len(), opts, SolveWorkspace::new, |ws, i| {
        exact_min_latency_value_root(cm, period_bound, roots[i], &inc, ws);
    });
    exact_min_latency_from_value(cm, period_bound, inc.current(), &mut ws)
}

/// Exact Pareto front with the shadow-front roots sharded: each worker
/// collects a root-local coordinate front, the fronts merge in root
/// order (the Pareto filter of a union is order-independent), and the
/// sequential witness sweep reconstructs mappings. Bit-identical to
/// [`pipeline_core::exact::exact_pareto_front_in`].
pub fn exact_pareto_front_sharded(
    cm: &CostModel<'_>,
    opts: ShardOptions,
) -> ParetoFront<IntervalMapping> {
    let mut ws = SolveWorkspace::new();
    if !supports_dominance_dp(cm) {
        return exact_pareto_front_in(cm, &mut ws);
    }
    let roots = exact_root_order(cm);
    let locals: Vec<ParetoFront<()>> =
        sharded_map_indices_with(roots.len(), opts, SolveWorkspace::new, |ws, i| {
            let mut local: ParetoFront<()> = ParetoFront::new();
            exact_front_shadow_root(cm, roots[i], &mut local, ws);
            local
        });
    let mut shadow: ParetoFront<()> = ParetoFront::new();
    for local in &locals {
        for (period, latency, ()) in local.iter() {
            if !shadow.dominated(period, latency) {
                shadow.offer(period, latency, ());
            }
        }
    }
    pipeline_core::exact::exact_front_from_shadow(cm, &shadow, &mut ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};

    /// Uniform-speed platform: the DP's home regime, so the sharded
    /// path actually exercises the root fan-out.
    fn uniform_instance(n: usize, p: usize, seed: u64) -> (Application, Platform) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, n, p));
        let (app, _) = gen.instance(seed, 0);
        let pf = Platform::comm_homogeneous(vec![10.0; p], 10.0).unwrap();
        (app, pf)
    }

    #[test]
    fn sharded_solvers_match_sequential_bitwise() {
        let mut ws = SolveWorkspace::new();
        for (n, p, seed) in [(12usize, 6usize, 0u64), (14, 8, 1)] {
            let (app, pf) = uniform_instance(n, p, seed);
            let cm = CostModel::new(&app, &pf);
            let (v_seq, m_seq) = pipeline_core::exact::exact_min_period_in(&cm, &mut ws);
            let front_seq = pipeline_core::exact::exact_pareto_front_in(&cm, &mut ws);
            let bound = v_seq * 1.4;
            let lat_seq =
                pipeline_core::exact::exact_min_latency_for_period_in(&cm, bound, &mut ws);
            for threads in [1usize, 2, 4] {
                let opts = ShardOptions::with_threads(threads);
                let (v, m) = exact_min_period_sharded(&cm, opts);
                assert_eq!(v.to_bits(), v_seq.to_bits(), "threads={threads}");
                assert_eq!(m, m_seq, "threads={threads}");
                let lat = exact_min_latency_for_period_sharded(&cm, bound, opts);
                match (&lat, &lat_seq) {
                    (Some((la, ma)), Some((lb, mb))) => {
                        assert_eq!(la.to_bits(), lb.to_bits(), "threads={threads}");
                        assert_eq!(ma, mb, "threads={threads}");
                    }
                    (None, None) => {}
                    other => panic!("feasibility disagreement: {other:?}"),
                }
                let front = exact_pareto_front_sharded(&cm, opts);
                assert_eq!(front.len(), front_seq.len(), "threads={threads}");
                for (a, b) in front.iter().zip(front_seq.iter()) {
                    assert_eq!(a.0.to_bits(), b.0.to_bits());
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                    assert_eq!(a.2, b.2);
                }
            }
        }
    }

    #[test]
    fn sharded_fallback_handles_unsupported_instances() {
        // Pairwise-distinct speeds at scale: DP routing declines, the
        // sharded entry falls back to the sequential v2 result.
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 18, 16));
        let (app, pf) = gen.instance(0, 0);
        let cm = CostModel::new(&app, &pf);
        assert!(!supports_dominance_dp(&cm));
        let (v_seq, m_seq) =
            pipeline_core::exact::exact_min_period_in(&cm, &mut SolveWorkspace::new());
        let (v, m) = exact_min_period_sharded(&cm, ShardOptions::with_threads(4));
        assert_eq!(v.to_bits(), v_seq.to_bits());
        assert_eq!(m, m_seq);
    }
}
