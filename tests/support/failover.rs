//! The failover cases: a heavy-tail instance at n = 60, 120 and 240
//! with half as many processors as stages, its best-of-all min-period
//! incumbent, and two faults per size. The *straggler* (slowest
//! processor) drifting to half speed sits outside the speed-order prefix
//! the recorded trajectories consulted, so the warm replan re-solves on
//! carried artifacts. The *bottleneck* (the processor owning the longest
//! cycle) fail-stopping leaves nothing to reuse.

use std::rc::Rc;

use pipeline_workflows::core::replan::{replan, DetectedFault, ReplanReport};
use pipeline_workflows::core::service::{PreparedInstance, SolveRequest};
use pipeline_workflows::core::{Objective, SolveWorkspace, Strategy};
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator, ScenarioParams};
use pipeline_workflows::model::IntervalMapping;

/// One fault on one incumbent.
pub struct FailoverCase {
    pub n: usize,
    /// `drift-straggler` or `loss-bottleneck`.
    pub label: &'static str,
    /// The incumbent's instance, warm from its solve.
    pub prepared: Rc<PreparedInstance>,
    pub incumbent: IntervalMapping,
    pub fault: DetectedFault,
}

impl FailoverCase {
    /// The warm-started replan of the incumbent after the fault.
    pub fn replan(&self, ws: &mut SolveWorkspace) -> ReplanReport {
        replan(&self.prepared, &self.incumbent, &self.fault, &request(), ws)
            .expect("replan succeeds")
            .1
    }
}

/// The incumbent's request, which the replan re-solves.
pub fn request() -> SolveRequest {
    SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll)
}

/// Both faults at each size, in `(n, label)` order.
pub fn failover_cases() -> Vec<FailoverCase> {
    let family = ScenarioFamily::from_label("heavy-tail").expect("registered family");
    let mut ws = SolveWorkspace::new();
    let mut cases = Vec::new();
    for n in [60, 120, 240] {
        let gen = ScenarioGenerator::new(ScenarioParams::preset(family, n, n / 2));
        let (app, pf) = gen.instance(2007, 0);
        let prepared = Rc::new(PreparedInstance::new(app, pf));
        let incumbent = prepared
            .solve_in(&request(), &mut ws)
            .expect("incumbent solve")
            .result
            .mapping;
        let cm = prepared.cost_model();
        let (bottleneck, _) = (0..incumbent.n_intervals())
            .map(|j| (j, cm.cycle_time(&incumbent, j)))
            .fold((0, f64::NEG_INFINITY), |a, b| if b.1 > a.1 { b } else { a });
        let bottleneck = incumbent.proc_of(bottleneck);
        let straggler = *prepared
            .platform()
            .procs_by_speed_desc()
            .last()
            .expect("platform has processors");
        for (label, fault) in [
            (
                "drift-straggler",
                DetectedFault::SpeedDrift {
                    proc: straggler,
                    factor: 0.5,
                },
            ),
            (
                "loss-bottleneck",
                DetectedFault::ProcessorLoss { proc: bottleneck },
            ),
        ] {
            cases.push(FailoverCase {
                n,
                label,
                prepared: Rc::clone(&prepared),
                incumbent: incumbent.clone(),
                fault,
            });
        }
    }
    cases
}
