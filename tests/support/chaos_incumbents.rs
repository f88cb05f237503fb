//! The bases of the chaos-replan corpus: heavy-tail and E2 instances at
//! n = 60 and 120 with p = n/2, each mapped by the best-of-all
//! minimum-period solve, plus the processor a chaos plan targets.

use pipeline_workflows::core::service::PreparedInstance;
use pipeline_workflows::core::{Objective, SolveRequest, SolveWorkspace, Strategy};
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator, ScenarioParams};
use pipeline_workflows::model::{CostModel, IntervalMapping, ProcId};

/// Calls `visit(family, n, index, cm, incumbent, victim)` for instances
/// `0..instances` of every family and size, generated from `seed`.
///
/// The victim is the processor owning the interval with the largest
/// cycle time. Ties go to the *last* such interval (`Iterator::max_by`),
/// which is what the pinned `chaos …` keys of `bench_identity.ref` were
/// recorded with; `chaos_study` breaks the same ties toward the *first*
/// interval.
pub fn for_each_chaos_incumbent(
    seed: u64,
    instances: u64,
    mut visit: impl FnMut(ScenarioFamily, usize, u64, &CostModel<'_>, &IntervalMapping, ProcId),
) {
    let request = SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll);
    let mut ws = SolveWorkspace::new();
    for family in [ScenarioFamily::HeavyTail, ScenarioFamily::E2] {
        for n in [60, 120] {
            let gen = ScenarioGenerator::new(ScenarioParams::preset(family, n, n / 2));
            for index in 0..instances {
                let (app, pf) = gen.instance(seed, index);
                let prepared = PreparedInstance::new(app, pf);
                let incumbent = prepared
                    .solve_in(&request, &mut ws)
                    .expect("best-of-all always maps")
                    .result
                    .mapping;
                let cm = prepared.cost_model();
                let bottleneck = (0..incumbent.n_intervals())
                    .max_by(|&a, &b| {
                        cm.cycle_time(&incumbent, a)
                            .total_cmp(&cm.cycle_time(&incumbent, b))
                    })
                    .expect("a mapping has intervals");
                visit(
                    family,
                    n,
                    index,
                    &cm,
                    &incumbent,
                    incumbent.proc_of(bottleneck),
                );
            }
        }
    }
}
