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
//! The three operations share one root fan-out; instances the DP does
//! not support ([`pipeline_core::exact::supports_dominance_dp`]) run no
//! roots and fall back to the sequential v2 solvers — same results, no
//! parallel speedup.

use crate::shard::{sharded_map_indices_with, ShardOptions};
use pipeline_core::exact::{
    exact_front_from_shadow, exact_front_shadow_root, exact_min_latency_for_period_in,
    exact_min_latency_from_value, exact_min_latency_value_root, exact_min_period_from_value,
    exact_min_period_value_root, exact_root_order, supports_dominance_dp, SharedIncumbent,
};
use pipeline_core::{ParetoFront, SolveWorkspace};
use pipeline_model::prelude::*;

/// The root fan-out: runs `root` once per DP root `[0, end)`, in
/// [`exact_root_order`], over `opts.threads` workers with one
/// [`SolveWorkspace`] each, and returns the results in root order —
/// or runs nothing and returns `None` when the DP does not apply.
fn fan_out<R: Send>(
    cm: &CostModel<'_>,
    opts: ShardOptions,
    root: impl Fn(usize, &mut SolveWorkspace) -> R + Sync,
) -> Option<Vec<R>> {
    if !supports_dominance_dp(cm) {
        return None;
    }
    let roots = exact_root_order(cm);
    Some(sharded_map_indices_with(
        roots.len(),
        opts,
        SolveWorkspace::new,
        |ws, i| root(roots[i], ws),
    ))
}

/// Exact minimum period with the DP roots fanned over `opts.threads`
/// workers. Bit-identical to [`pipeline_core::exact::exact_min_period_in`]
/// at any thread count: without the DP the incumbent stays `+∞`, which
/// is the plain v2 walk there too.
pub fn exact_min_period_sharded(cm: &CostModel<'_>, opts: ShardOptions) -> (f64, IntervalMapping) {
    let inc = SharedIncumbent::new();
    fan_out(cm, opts, |end, ws| {
        exact_min_period_value_root(cm, end, &inc, ws)
    });
    exact_min_period_from_value(cm, inc.current(), &mut SolveWorkspace::new())
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
    let inc = SharedIncumbent::new();
    let ran = fan_out(cm, opts, |end, ws| {
        exact_min_latency_value_root(cm, period_bound, end, &inc, ws)
    });
    if ran.is_none() {
        return exact_min_latency_for_period_in(cm, period_bound, &mut ws);
    }
    exact_min_latency_from_value(cm, period_bound, inc.current(), &mut ws)
}

/// Exact Pareto front with the shadow-front roots sharded: each worker
/// collects a root-local coordinate front, the fronts merge in root
/// order (the Pareto filter of a union is order-independent), and the
/// sequential witness sweep reconstructs mappings. Bit-identical to
/// [`pipeline_core::exact::exact_pareto_front_in`]: without the DP the
/// shadow stays empty, which is the plain v2 sweep there too.
pub fn exact_pareto_front_sharded(
    cm: &CostModel<'_>,
    opts: ShardOptions,
) -> ParetoFront<IntervalMapping> {
    let locals = fan_out(cm, opts, |end, ws| {
        let mut local: ParetoFront<()> = ParetoFront::new();
        exact_front_shadow_root(cm, end, &mut local, ws);
        local
    });
    let mut shadow: ParetoFront<()> = ParetoFront::new();
    for (period, latency, ()) in locals.iter().flatten().flat_map(ParetoFront::iter) {
        if !shadow.dominated(period, latency) {
            shadow.offer(period, latency, ());
        }
    }
    exact_front_from_shadow(cm, &shadow, &mut SolveWorkspace::new())
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
