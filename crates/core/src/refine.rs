//! Post-pass local search over interval mappings (extension: the paper's
//! heuristics are constructive only; §7 calls for better heuristics).
//!
//! Two move families, applied first-improvement until a fixed point:
//!
//! * **boundary shift** — move the stage adjacent to an interval boundary
//!   across it (grow/shrink neighbouring intervals by one stage);
//! * **processor swap** — exchange the processors of two intervals, or
//!   replace an interval's processor by an unused one.
//!
//! Moves are accepted when they strictly reduce the period without
//! pushing the latency above `latency_budget` (use `f64::INFINITY` for
//! pure period refinement). Each accepted move re-evaluates in O(m);
//! passes are capped, so the refinement is polynomial. The ablation
//! binary measures how much it buys on top of each paper heuristic.

use pipeline_model::prelude::*;
use pipeline_model::util::{approx_le, definitely_lt};

/// Outcome of a refinement run.
#[derive(Debug, Clone)]
pub struct RefineResult {
    /// The refined mapping.
    pub mapping: IntervalMapping,
    /// Its period.
    pub period: f64,
    /// Its latency.
    pub latency: f64,
    /// Number of accepted moves.
    pub moves: usize,
}

/// Refines `mapping` by boundary shifts and processor swaps.
/// `latency_budget` bounds the latency of every accepted state.
pub fn refine_mapping(
    cm: &CostModel<'_>,
    mapping: &IntervalMapping,
    latency_budget: f64,
) -> RefineResult {
    let app = cm.app();
    let pf = cm.platform();
    let mut intervals: Vec<Interval> = mapping.intervals().to_vec();
    let mut procs: Vec<ProcId> = mapping.procs().to_vec();
    let mut moves = 0usize;
    let max_passes = 2 * (app.n_stages() + pf.n_procs());

    let build = |ivs: &[Interval], ps: &[ProcId]| {
        IntervalMapping::new(app, pf, ivs.to_vec(), ps.to_vec())
            .expect("refinement preserves validity")
    };
    let mut current = build(&intervals, &procs);
    let (mut period, mut latency) = cm.evaluate(&current);

    for _ in 0..max_passes {
        let mut improved = false;

        // Boundary shifts: for each internal boundary, try moving one
        // stage left→right and right→left.
        'shift: for b in 0..intervals.len().saturating_sub(1) {
            for dir in [1i64, -1] {
                let left = intervals[b];
                let right = intervals[b + 1];
                let (new_left_end, ok) = if dir == 1 {
                    // Right interval's first stage moves into the left one.
                    (left.end + 1, right.len() >= 2)
                } else {
                    (left.end - 1, left.len() >= 2)
                };
                if !ok {
                    continue;
                }
                let mut ivs = intervals.clone();
                ivs[b] = Interval::new(left.start, new_left_end);
                ivs[b + 1] = Interval::new(new_left_end, right.end);
                let cand = build(&ivs, &procs);
                let (p, l) = cm.evaluate(&cand);
                if definitely_lt(p, period) && approx_le(l, latency_budget) {
                    intervals = ivs;
                    current = cand;
                    period = p;
                    latency = l;
                    moves += 1;
                    improved = true;
                    break 'shift;
                }
            }
        }

        // Processor swaps between intervals.
        if !improved {
            'swap: for i in 0..procs.len() {
                for j in i + 1..procs.len() {
                    let mut ps = procs.clone();
                    ps.swap(i, j);
                    let cand = build(&intervals, &ps);
                    let (p, l) = cm.evaluate(&cand);
                    if definitely_lt(p, period) && approx_le(l, latency_budget) {
                        procs = ps;
                        current = cand;
                        period = p;
                        latency = l;
                        moves += 1;
                        improved = true;
                        break 'swap;
                    }
                }
            }
        }

        // Replacements: swap an interval's processor for an unused one.
        if !improved {
            let mut used = vec![false; pf.n_procs()];
            for &u in &procs {
                used[u] = true;
            }
            'replace: for i in 0..procs.len() {
                for (u, &u_taken) in used.iter().enumerate() {
                    if u_taken {
                        continue;
                    }
                    let mut ps = procs.clone();
                    ps[i] = u;
                    let cand = build(&intervals, &ps);
                    let (p, l) = cm.evaluate(&cand);
                    if definitely_lt(p, period) && approx_le(l, latency_budget) {
                        procs = ps;
                        current = cand;
                        period = p;
                        latency = l;
                        moves += 1;
                        improved = true;
                        break 'replace;
                    }
                }
            }
        }

        if !improved {
            break;
        }
    }

    RefineResult {
        mapping: current,
        period,
        latency,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_min_period_in;
    use crate::sp_mono_p_in;
    use crate::SolveWorkspace;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};

    #[test]
    fn refinement_never_worsens_and_respects_budget() {
        for kind in ExperimentKind::ALL {
            let gen = InstanceGenerator::new(InstanceParams::paper(kind, 12, 8));
            for seed in 0..4 {
                let (app, pf) = gen.instance(seed, 0);
                let cm = CostModel::new(&app, &pf);
                let base = sp_mono_p_in(&cm, 0.0, &mut SolveWorkspace::new());
                let budget = base.latency * 1.2;
                let refined = refine_mapping(&cm, &base.mapping, budget);
                assert!(
                    refined.period <= base.period + EPS,
                    "{kind} seed {seed}: refinement worsened the period"
                );
                assert!(refined.latency <= budget + EPS);
                let (p, l) = cm.evaluate(&refined.mapping);
                assert!((p - refined.period).abs() < 1e-9);
                assert!((l - refined.latency).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn refinement_fixes_a_planted_bad_processor_order() {
        // Two equal intervals, processors swapped pessimally: the fast
        // processor holds the light interval. One swap fixes it.
        let app = Application::new(vec![30.0, 3.0], vec![0.0, 0.0, 0.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![10.0, 1.0], 10.0).unwrap();
        let bad = IntervalMapping::new(
            &app,
            &pf,
            vec![Interval::new(0, 1), Interval::new(1, 2)],
            vec![1, 0], // heavy stage on the slow processor
        )
        .unwrap();
        let cm = CostModel::new(&app, &pf);
        assert!((cm.period(&bad) - 30.0).abs() < 1e-9);
        let refined = refine_mapping(&cm, &bad, f64::INFINITY);
        assert!(refined.moves >= 1);
        assert!(
            (refined.period - 3.0).abs() < 1e-9,
            "swap must fix the order"
        );
    }

    #[test]
    fn refinement_moves_boundaries() {
        // Unbalanced cut with equal processors: shifting the boundary by
        // one stage improves the bottleneck.
        let app = Application::new(vec![5.0, 5.0, 5.0, 5.0], vec![0.0; 5]).unwrap();
        let pf = Platform::comm_homogeneous(vec![1.0, 1.0], 10.0).unwrap();
        let skewed = IntervalMapping::new(
            &app,
            &pf,
            vec![Interval::new(0, 3), Interval::new(3, 4)],
            vec![0, 1],
        )
        .unwrap();
        let cm = CostModel::new(&app, &pf);
        assert!((cm.period(&skewed) - 15.0).abs() < 1e-9);
        let refined = refine_mapping(&cm, &skewed, f64::INFINITY);
        assert!(
            (refined.period - 10.0).abs() < 1e-9,
            "boundary shift must balance"
        );
    }

    #[test]
    fn refined_heuristics_stay_above_exact_optimum() {
        let mut ws = SolveWorkspace::new();
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 7, 4));
        for seed in 0..4 {
            let (app, pf) = gen.instance(seed, 0);
            let cm = CostModel::new(&app, &pf);
            let base = sp_mono_p_in(&cm, 0.0, &mut ws);
            let refined = refine_mapping(&cm, &base.mapping, f64::INFINITY);
            let (opt, _) = exact_min_period_in(&cm, &mut ws);
            assert!(refined.period >= opt - 1e-9);
        }
    }

    #[test]
    fn fixed_point_reported_with_zero_moves() {
        // An already-optimal single-stage mapping has no moves.
        let app = Application::uniform(1, 5.0, 1.0).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 1.0], 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let m = IntervalMapping::all_on_fastest(&app, &pf);
        let refined = refine_mapping(&cm, &m, f64::INFINITY);
        assert_eq!(refined.moves, 0);
        assert_eq!(refined.mapping, m);
    }
}
