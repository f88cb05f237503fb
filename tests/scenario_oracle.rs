//! Small-instance oracles across the scenario zoo: on every
//! Communication Homogeneous family with `n ≤ 8`,
//!
//! * `Strategy::BestOfAll` never beats `Strategy::Exact` (the heuristics
//!   are bounded by the exhaustive optimum), and
//! * the Hungarian and bottleneck assignment solvers agree on the
//!   optimal bottleneck value of the exact partition's cycle-time
//!   matrix.

use pipeline_workflows::assign::{
    bottleneck_assignment, hungarian_in, BottleneckScratch, CostMatrix, HungarianScratch,
};
use pipeline_workflows::core::service::{PreparedInstance, SolveRequest};
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::core::{exact, Objective, Strategy};
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_workflows::model::CostModel;

const EPS: f64 = 1e-9;

fn homogeneous_families() -> impl Iterator<Item = ScenarioFamily> {
    ScenarioFamily::ALL
        .into_iter()
        .filter(|f| f.comm_homogeneous())
}

#[test]
fn best_of_all_never_beats_exact_on_small_instances() {
    for family in homogeneous_families() {
        let gen = ScenarioGenerator::new(family.params(7, 5));
        for index in 0..3 {
            let (app, pf) = gen.instance(7, index);
            // One session answers all four queries from its caches.
            let prepared = PreparedInstance::new(app, pf);
            let exact_req = |o| SolveRequest::new(o).strategy(Strategy::Exact);
            let best_req = |o| SolveRequest::new(o).strategy(Strategy::BestOfAll);

            // Unconstrained period minimization.
            let p_exact = prepared
                .solve(&exact_req(Objective::MinPeriod))
                .expect("always solvable")
                .result
                .period;
            let p_best = prepared
                .solve(&best_req(Objective::MinPeriod))
                .expect("always solvable")
                .result
                .period;
            assert!(
                p_best >= p_exact - EPS,
                "{family} #{index}: BestOfAll period {p_best} beats exact {p_exact}"
            );

            // Latency minimization under a satisfiable period bound.
            let bound = 1.3 * p_exact;
            let l_exact = prepared
                .solve(&exact_req(Objective::MinLatencyForPeriod(bound)))
                .expect("bound above the optimal period")
                .result
                .latency;
            if let Ok(best) = prepared.solve(&best_req(Objective::MinLatencyForPeriod(bound))) {
                assert!(
                    best.result.latency >= l_exact - EPS,
                    "{family} #{index}: BestOfAll latency {} beats exact {l_exact}",
                    best.result.latency
                );
            }
        }
    }
}

#[test]
fn hungarian_and_bottleneck_agree_on_the_optimal_bottleneck_value() {
    for family in homogeneous_families() {
        let gen = ScenarioGenerator::new(family.params(6, 5));
        for index in 0..3 {
            let (app, pf) = gen.instance(13, index);
            let cm = CostModel::new(&app, &pf);
            let (p_opt, mapping) = exact::exact_min_period_in(&cm, &mut SolveWorkspace::new());

            // Cycle-time matrix of the optimal partition: rows =
            // intervals, cols = processors. On Communication Homogeneous
            // platforms neighbours don't affect the cycle time.
            let ivs = mapping.intervals();
            let m = CostMatrix::from_fn(ivs.len(), pf.n_procs(), |r, c| {
                cm.interval_cost(ivs[r], c, None, None).cycle_time()
            });

            // The bottleneck optimum of the optimal partition IS the
            // optimal period.
            let bn = bottleneck_assignment(&m, &mut BottleneckScratch::default())
                .expect("feasible matrix");
            assert!(
                (bn.objective - p_opt).abs() <= EPS * p_opt.max(1.0),
                "{family} #{index}: bottleneck {} vs exact period {p_opt}",
                bn.objective
            );
            // The reported objective matches the assignment it returns.
            let bn_max = bn
                .assigned
                .iter()
                .enumerate()
                .map(|(r, &c)| m.at(r, c))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((bn_max - bn.objective).abs() <= EPS);

            // No assignment can have max cost below the bottleneck
            // optimum — in particular not the min-sum (Hungarian) one.
            let hg = hungarian_in(&m, &mut HungarianScratch::default()).expect("finite matrix");
            let hg_max = hg
                .assigned
                .iter()
                .enumerate()
                .map(|(r, &c)| m.at(r, c))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                hg_max >= bn.objective - EPS,
                "{family} #{index}: Hungarian max {hg_max} below bottleneck optimum {}",
                bn.objective
            );

            // Forbidding every entry above the bottleneck optimum leaves
            // the Hungarian solver a feasible assignment that achieves it
            // — the two solvers agree on the threshold.
            let masked = CostMatrix::from_fn(ivs.len(), pf.n_procs(), |r, c| {
                let v = m.at(r, c);
                if v > bn.objective + EPS {
                    f64::INFINITY
                } else {
                    v
                }
            });
            let hg_masked = hungarian_in(&masked, &mut HungarianScratch::default())
                .expect("the bottleneck-optimal assignment survives the mask");
            let masked_max = hg_masked
                .assigned
                .iter()
                .enumerate()
                .map(|(r, &c)| masked.at(r, c))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                masked_max <= bn.objective + EPS,
                "{family} #{index}: masked Hungarian max {masked_max} exceeds {}",
                bn.objective
            );
        }
    }
}
