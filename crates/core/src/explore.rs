//! H2a (`3-Explo mono`) and H2b (`3-Explo bi`): three-way exploration of
//! the bottleneck interval (paper Section 4.1).
//!
//! At each step the bottleneck processor's interval is split into three
//! parts, two of which go to the next pair of fastest unused processors —
//! every cut pair and every part→processor permutation is tested.
//!
//! The paper leaves two corner cases unspecified, resolved here: when
//! the interval has fewer than three stages, or when only one unused
//! processor remains, the heuristics fall back to the corresponding
//! two-way split (H1's move for the mono variant, H5's move for the bi
//! variant). With no unused processor at all, no move exists.
//!
//! Both variants are [`crate::engine::ExplorePolicy`] instances over the
//! shared [`crate::engine::SplitEngine`] drive loop.

use crate::engine::{ExplorePolicy, SplitEngine};
use crate::state::BiCriteriaResult;
use crate::workspace::SolveWorkspace;
use pipeline_model::prelude::*;

/// H2a — *3-Exploration mono-criterion* (fixed period): split the
/// bottleneck interval in three, choosing the cuts/permutation minimizing
/// `max(period(j), period(j'), period(j''))`.
pub fn three_explo_mono_in(
    cm: &CostModel<'_>,
    period_target: f64,
    ws: &mut SolveWorkspace,
) -> BiCriteriaResult {
    SplitEngine::run_in(
        &mut ExplorePolicy {
            target: period_target,
            bi: false,
        },
        cm,
        ws,
    )
}

/// H2b — *3-Exploration bi-criteria* (fixed period): same exploration,
/// selecting by `min max_i Δlatency/Δperiod(i)`.
pub fn three_explo_bi_in(
    cm: &CostModel<'_>,
    period_target: f64,
    ws: &mut SolveWorkspace,
) -> BiCriteriaResult {
    SplitEngine::run_in(
        &mut ExplorePolicy {
            target: period_target,
            bi: true,
        },
        cm,
        ws,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::util::EPS;
    use pipeline_model::{Application, Platform};

    fn paper_instance(seed: u64, n: usize, p: usize) -> (Application, Platform) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, n, p));
        gen.instance(seed, 0)
    }

    #[test]
    fn explo_mono_consumes_processors_in_pairs() {
        let (app, pf) = paper_instance(1, 12, 10);
        let cm = CostModel::new(&app, &pf);
        let res = three_explo_mono_in(
            &cm,
            0.5 * cm.single_proc_period(),
            &mut SolveWorkspace::new(),
        );
        // Interval counts grow by 2 per 3-way step (1 → 3 → 5 → …) while
        // 3-way moves are possible, so odd counts are expected unless a
        // 2-way fallback fired.
        assert!(res.mapping.n_intervals() >= 1);
        let (p, l) = cm.evaluate(&res.mapping);
        assert!((p - res.period).abs() < 1e-9);
        assert!((l - res.latency).abs() < 1e-9);
    }

    #[test]
    fn explo_trivial_target_is_lemma_1() {
        let (app, pf) = paper_instance(2, 10, 10);
        let cm = CostModel::new(&app, &pf);
        for f in [three_explo_mono_in, three_explo_bi_in] {
            let res = f(&cm, cm.single_proc_period(), &mut SolveWorkspace::new());
            assert!(res.feasible);
            assert_eq!(res.mapping.n_intervals(), 1);
        }
    }

    #[test]
    fn explo_mono_improves_period_over_initial() {
        let (app, pf) = paper_instance(3, 20, 10);
        let cm = CostModel::new(&app, &pf);
        let res = three_explo_mono_in(&cm, 0.0, &mut SolveWorkspace::new()); // impossible → run to floor
        assert!(!res.feasible);
        assert!(
            res.period < cm.single_proc_period() - EPS,
            "must improve via splits"
        );
    }

    #[test]
    fn explo_bi_improves_period_over_initial() {
        let (app, pf) = paper_instance(3, 20, 10);
        let cm = CostModel::new(&app, &pf);
        let res = three_explo_bi_in(&cm, 0.0, &mut SolveWorkspace::new());
        assert!(!res.feasible);
        assert!(res.period < cm.single_proc_period() - EPS);
    }

    #[test]
    fn two_stage_pipeline_uses_two_way_fallback() {
        let app = Application::new(vec![10.0, 10.0], vec![1.0, 1.0, 1.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 2.0, 2.0], 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let res = three_explo_mono_in(&cm, 6.0, &mut SolveWorkspace::new());
        // Single proc period = 0.1 + 10 + 0.1 = 10.2; the only possible
        // move is the 2-way split into [10][10] → cycles 5.2 each.
        assert!(res.feasible);
        assert_eq!(res.mapping.n_intervals(), 2);
        assert!((res.period - 5.2).abs() < 1e-9);
    }

    #[test]
    fn single_unused_processor_uses_two_way_fallback() {
        let app = Application::new(vec![10.0, 10.0, 10.0], vec![0.0; 4]).unwrap();
        let pf = Platform::comm_homogeneous(vec![3.0, 3.0], 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        // p = 2 → after the initial mapping only one processor is unused,
        // so the first (and only) move must be a 2-way split.
        let res = three_explo_mono_in(&cm, 7.0, &mut SolveWorkspace::new());
        assert!(res.feasible);
        assert_eq!(res.mapping.n_intervals(), 2);
        // Best split of 30 work over two speed-3 processors: 20/10 → max
        // cycle 20/3.
        assert!((res.period - 20.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn explo_respects_target_exactly_when_feasible() {
        for seed in 0..5 {
            let (app, pf) = paper_instance(seed, 10, 10);
            let cm = CostModel::new(&app, &pf);
            let target = 0.6 * cm.single_proc_period();
            for f in [three_explo_mono_in, three_explo_bi_in] {
                let res = f(&cm, target, &mut SolveWorkspace::new());
                if res.feasible {
                    assert!(res.period <= target + EPS);
                }
            }
        }
    }

    #[test]
    fn explo_bi_tends_to_lower_latency_growth() {
        // Not a theorem, but on average the bi variant should not produce
        // wildly larger latencies than mono for the same target. Checked
        // loosely over a few seeds to catch implementation inversions
        // (e.g. maximizing instead of minimizing the ratio).
        let mut ws = SolveWorkspace::new();
        let mut mono_total = 0.0;
        let mut bi_total = 0.0;
        let mut counted = 0;
        for seed in 0..12 {
            let (app, pf) = paper_instance(seed, 20, 10);
            let cm = CostModel::new(&app, &pf);
            let target = 0.5 * cm.single_proc_period();
            let m = three_explo_mono_in(&cm, target, &mut ws);
            let b = three_explo_bi_in(&cm, target, &mut ws);
            if m.feasible && b.feasible {
                mono_total += m.latency;
                bi_total += b.latency;
                counted += 1;
            }
        }
        assert!(counted > 0, "no common feasible instance");
        assert!(
            bi_total <= mono_total * 1.5,
            "bi latency {bi_total} implausibly worse than mono {mono_total}"
        );
    }
}
