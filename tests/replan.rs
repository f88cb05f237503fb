//! Property tests for the fault re-planner (`pipeline_core::replan`):
//! re-planning after a detected fault never yields a worse period than
//! keeping the incumbent mapping on the degraded platform. The property
//! is structural — `replan` adopts `min(ride-out, re-solve)` — so these
//! tests pin it against the full pipeline (delta application, warm
//! start, solver) on randomized instances and faults. The warm replan
//! also re-solves exactly as a scratch solve of the degraded instance
//! does, at the sizes of the failover cases.

#[path = "support/failover.rs"]
mod failover;

use proptest::prelude::*;

use pipeline_workflows::core::replan::{replan, DetectedFault};
use pipeline_workflows::core::service::{PreparedInstance, SolveRequest};
use pipeline_workflows::core::{Objective, SolveWorkspace, Strategy};
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};

fn instance_for(family_idx: usize, seed: u64) -> PreparedInstance {
    let family = ScenarioFamily::ALL[family_idx];
    let gen = ScenarioGenerator::new(family.params(7, 5));
    let (app, pf) = gen.instance(seed, 0);
    PreparedInstance::new(app, pf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Speed drift: the adopted plan's period on the degraded platform
    /// is never worse than the incumbent's period there, for any victim
    /// and any drift severity.
    #[test]
    fn replan_after_speed_drift_never_trails_riding_it_out(
        family_idx in 0usize..ScenarioFamily::ALL.len(),
        seed in 0u64..500,
        victim_pick in 0usize..5,
        factor in 0.05f64..1.0,
    ) {
        let prepared = instance_for(family_idx, seed);
        let victim = victim_pick % prepared.platform().n_procs();
        let request = SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll);
        let mut ws = SolveWorkspace::new();
        let incumbent = prepared.solve_in(&request, &mut ws).unwrap().result;
        let fault = DetectedFault::SpeedDrift { proc: victim, factor };
        let (_, rep) = replan(&prepared, &incumbent.mapping, &fault, &request, &mut ws).unwrap();
        prop_assert!(
            rep.period_after <= rep.period_before,
            "adopted {} > ride-out {}",
            rep.period_after,
            rep.period_before
        );
        prop_assert!(rep.period_after.is_finite() && rep.period_after > 0.0);
        // Ride-out cost of a drift is always finite (the mapping stays
        // feasible), and an unadopted re-solve means migration 0.
        prop_assert!(rep.period_before.is_finite());
        if !rep.adopted {
            prop_assert_eq!(rep.migration_distance, 0);
        }
    }

    /// Processor loss: same property, with the extra twist that the
    /// incumbent may be infeasible on the degraded platform (it
    /// enrolled the lost processor — ride-out cost infinite), in which
    /// case the re-solve must be adopted and must avoid the dead
    /// processor entirely.
    #[test]
    fn replan_after_processor_loss_never_trails_riding_it_out(
        family_idx in 0usize..ScenarioFamily::ALL.len(),
        seed in 0u64..500,
        victim_pick in 0usize..5,
    ) {
        let prepared = instance_for(family_idx, seed);
        let victim = victim_pick % prepared.platform().n_procs();
        let request = SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll);
        let mut ws = SolveWorkspace::new();
        let incumbent = prepared.solve_in(&request, &mut ws).unwrap().result;
        let fault = DetectedFault::ProcessorLoss { proc: victim };
        let (next, rep) = replan(&prepared, &incumbent.mapping, &fault, &request, &mut ws).unwrap();
        prop_assert!(rep.period_after <= rep.period_before);
        prop_assert!(rep.period_after.is_finite() && rep.period_after > 0.0);
        if rep.period_before.is_infinite() {
            // Incumbent enrolled the victim: the re-solve is the only
            // feasible plan.
            prop_assert!(rep.adopted);
        }
        // The adopted mapping lives on the degraded platform: one fewer
        // processor, and every enrolled id is in range.
        prop_assert_eq!(next.platform().n_procs(), prepared.platform().n_procs() - 1);
        for &u in rep.mapping.procs() {
            prop_assert!(u < next.platform().n_procs());
        }
    }
}

/// The warm-started re-solve (carried trajectories and a reused
/// workspace) finds the period a cold preparation of the degraded
/// instance finds, bit for bit, at n = 60, 120 and 240 for both faults.
#[test]
fn warm_replan_resolves_like_a_scratch_solve_bit_for_bit() {
    let mut ws = SolveWorkspace::new();
    for case in failover::failover_cases() {
        let rep = case.replan(&mut ws);
        let (app, pf) = rep
            .delta
            .apply_to(case.prepared.app(), case.prepared.platform())
            .expect("the fault's delta applies");
        let scratch = PreparedInstance::new(app, pf)
            .solve_in(&failover::request(), &mut SolveWorkspace::new())
            .expect("scratch solve")
            .result;
        assert_eq!(
            rep.resolved_period.to_bits(),
            scratch.period.to_bits(),
            "n={} {}: warm replan {} vs scratch {}",
            case.n,
            case.label,
            rep.resolved_period,
            scratch.period
        );
    }
}
