//! Failure-aware re-planning: degrade → detect → re-solve → recover.
//!
//! The fault-injection simulator (`pipeline-sim`) tells us what a
//! mapping *actually* sustains when the platform degrades; this module
//! closes the loop by answering the operational question that follows:
//! given a detected fault, is it worth re-planning, and what does the
//! recovery cost? A [`DetectedFault`] is translated into the
//! corresponding [`InstanceDelta`], applied through
//! [`PreparedInstance::apply_in`] — so the re-solve warm-starts from
//! every memoized artifact the fault does not invalidate, exactly like
//! the serve path's `update` verb — and the re-solved mapping is
//! compared against riding the fault out on the incumbent mapping.
//!
//! [`replan`] **never adopts a worse plan**: when the incumbent mapping
//! remains feasible on the degraded platform and beats the re-solve,
//! the report says so (`adopted == false`) and keeps the incumbent.
//! This makes "re-plan is at least as good as ride-it-out" a structural
//! guarantee (property-tested in `tests/replan.rs`), so the interesting
//! outputs are *how much* re-planning wins (`period_before / period_after`
//! in the [`ReplanReport`]) and what it costs in migrated stages
//! ([`ReplanReport::migration_distance`]).

use crate::service::{PreparedInstance, SolveError, SolveRequest};
use crate::workspace::SolveWorkspace;
use pipeline_model::prelude::*;

/// A platform fault as a monitoring layer would report it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectedFault {
    /// Processor `proc` now runs at `factor` of its current speed
    /// (`factor` in `(0, 1]` — the fault simulator's slowdown
    /// convention).
    SpeedDrift {
        /// The degraded processor.
        proc: ProcId,
        /// Remaining speed fraction in `(0, 1]`.
        factor: f64,
    },
    /// Processor `proc` fail-stopped and is gone.
    ProcessorLoss {
        /// The failed processor.
        proc: ProcId,
    },
}

impl DetectedFault {
    /// The [`InstanceDelta`] this fault corresponds to on `platform`.
    pub fn to_delta(&self, platform: &Platform) -> Result<InstanceDelta, ReplanError> {
        match *self {
            DetectedFault::SpeedDrift { proc, factor } => {
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(ReplanError::InvalidFault(
                        "speed-drift factor must be in (0, 1]",
                    ));
                }
                if proc >= platform.n_procs() {
                    return Err(ReplanError::InvalidFault("no such processor"));
                }
                Ok(InstanceDelta::ProcSpeed {
                    proc,
                    speed: platform.speed(proc) * factor,
                })
            }
            DetectedFault::ProcessorLoss { proc } => {
                if proc >= platform.n_procs() {
                    return Err(ReplanError::InvalidFault("no such processor"));
                }
                Ok(InstanceDelta::ProcDeparture { proc })
            }
        }
    }

    /// The faulted processor.
    pub fn proc(&self) -> ProcId {
        match *self {
            DetectedFault::SpeedDrift { proc, .. } | DetectedFault::ProcessorLoss { proc } => proc,
        }
    }
}

/// Why a re-plan could not be produced.
#[derive(Debug)]
pub enum ReplanError {
    /// The fault description itself is malformed.
    InvalidFault(&'static str),
    /// The delta could not be applied (e.g. removing the last
    /// processor).
    Delta(DeltaError),
    /// The re-solve on the degraded platform failed.
    Solve(SolveError),
}

impl std::fmt::Display for ReplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplanError::InvalidFault(why) => write!(f, "invalid fault: {why}"),
            ReplanError::Delta(e) => write!(f, "cannot apply fault delta: {e}"),
            ReplanError::Solve(e) => write!(f, "re-solve failed: {e}"),
        }
    }
}

impl std::error::Error for ReplanError {}

impl From<DeltaError> for ReplanError {
    fn from(e: DeltaError) -> Self {
        ReplanError::Delta(e)
    }
}

impl From<SolveError> for ReplanError {
    fn from(e: SolveError) -> Self {
        ReplanError::Solve(e)
    }
}

/// Everything [`replan`] measures about one recovery.
#[derive(Debug, Clone)]
pub struct ReplanReport {
    /// The delta the fault translated to.
    pub delta: InstanceDelta,
    /// Period of the incumbent mapping on the *healthy* platform.
    pub period_nominal: f64,
    /// Period of the incumbent mapping on the *degraded* platform —
    /// the ride-it-out cost. `f64::INFINITY` when the incumbent is
    /// infeasible there (it enrolled the lost processor).
    pub period_before: f64,
    /// Period achieved by the warm-started re-solve on the degraded
    /// platform.
    pub resolved_period: f64,
    /// Period of the adopted plan: `min(period_before, resolved_period)`.
    pub period_after: f64,
    /// Whether the re-solved mapping was adopted (`false`: the incumbent
    /// rides the fault out and [`Self::migration_distance`] is 0).
    pub adopted: bool,
    /// The adopted mapping, expressed in the degraded platform's
    /// processor ids.
    pub mapping: IntervalMapping,
    /// Stages whose *physical* processor changed between the incumbent
    /// and the adopted mapping (processor renumbering after a loss is
    /// not migration).
    pub migration_distance: usize,
}

impl ReplanReport {
    /// Post-fault period inflation over nominal: `period_after /
    /// period_nominal` (≥ 1 up to solver tie-breaks).
    pub fn period_ratio(&self) -> f64 {
        self.period_after / self.period_nominal
    }
}

/// Per-stage physical processor of `mapping`, translating the degraded
/// platform's ids back through `lost` (ids at or above a removed
/// processor shift up by one to recover the healthy-platform id).
fn stage_procs(mapping: &IntervalMapping, n_stages: usize, lost: Option<ProcId>) -> Vec<ProcId> {
    let mut procs = vec![0usize; n_stages];
    for (j, iv) in mapping.intervals().iter().enumerate() {
        let mut u = mapping.proc_of(j);
        if let Some(d) = lost {
            if u >= d {
                u += 1;
            }
        }
        for slot in &mut procs[iv.start..iv.end] {
            *slot = u;
        }
    }
    procs
}

/// Re-plans after `fault`: applies the corresponding delta through
/// [`PreparedInstance::apply_in`] (warm start), re-solves `request` on
/// the degraded instance, and adopts the better of {re-solved mapping,
/// incumbent mapping} by period. Returns the degraded prepared instance
/// (ready to serve further requests) and the recovery report.
///
/// Wall-clock recovery time is deliberately *not* part of the report —
/// it would poison deterministic studies; perfbench's chaos-replan
/// workload times it externally (`replan.apply_us`, `replan.resolve_us`).
pub fn replan(
    prev: &PreparedInstance,
    incumbent: &IntervalMapping,
    fault: &DetectedFault,
    request: &SolveRequest,
    ws: &mut SolveWorkspace,
) -> Result<(PreparedInstance, ReplanReport), ReplanError> {
    let delta = fault.to_delta(prev.platform())?;
    let period_nominal = prev.cost_model().period(incumbent);
    let next = prev.apply_in(&delta, ws)?;

    let lost = match *fault {
        DetectedFault::ProcessorLoss { proc } => Some(proc),
        DetectedFault::SpeedDrift { .. } => None,
    };

    // Ride-it-out cost: the incumbent's structure on the degraded
    // platform (ids remapped past a removed processor), or infeasible
    // when it enrolled the lost processor.
    let incumbent_degraded: Option<IntervalMapping> = match lost {
        Some(d) if incumbent.procs().contains(&d) => None,
        _ => {
            let procs: Vec<ProcId> = incumbent
                .procs()
                .iter()
                .map(|&u| match lost {
                    Some(d) if u > d => u - 1,
                    _ => u,
                })
                .collect();
            IntervalMapping::new(
                next.app(),
                next.platform(),
                incumbent.intervals().to_vec(),
                procs,
            )
            .ok()
        }
    };
    let period_before = incumbent_degraded
        .as_ref()
        .map(|mapping| next.cost_model().period(mapping))
        .unwrap_or(f64::INFINITY);

    let report = next.solve_in(request, ws)?;
    let resolved_period = report.result.period;
    let resolved_mapping = report.result.mapping;

    let n = prev.app().n_stages();
    let before_procs = stage_procs(incumbent, n, None);
    let (adopted, mapping, period_after) = if period_before <= resolved_period {
        let mapping = incumbent_degraded.expect("finite period_before implies a mapping");
        (false, mapping, period_before)
    } else {
        (true, resolved_mapping, resolved_period)
    };
    let migration_distance = if adopted {
        let after_procs = stage_procs(&mapping, n, lost);
        before_procs
            .iter()
            .zip(after_procs.iter())
            .filter(|(a, b)| a != b)
            .count()
    } else {
        0
    };

    Ok((
        next,
        ReplanReport {
            delta,
            period_nominal,
            period_before,
            resolved_period,
            period_after,
            adopted,
            mapping,
            migration_distance,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Objective, Strategy};
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};

    fn prepared(seed: u64) -> PreparedInstance {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 10, 6));
        let (app, pf) = gen.instance(seed, 0);
        PreparedInstance::new(app, pf)
    }

    fn min_period_request() -> SolveRequest {
        SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll)
    }

    fn incumbent(prev: &PreparedInstance, ws: &mut SolveWorkspace) -> IntervalMapping {
        prev.solve_in(&min_period_request(), ws)
            .expect("solves")
            .result
            .mapping
    }

    #[test]
    fn speed_drift_replan_never_beats_nominal_but_never_trails_ride_out() {
        for seed in 0..5 {
            let prev = prepared(seed);
            let mut ws = SolveWorkspace::new();
            let mapping = incumbent(&prev, &mut ws);
            let victim = mapping.proc_of(0);
            let fault = DetectedFault::SpeedDrift {
                proc: victim,
                factor: 0.4,
            };
            let (next, report) =
                replan(&prev, &mapping, &fault, &min_period_request(), &mut ws).unwrap();
            assert_eq!(
                next.platform().speed(victim).to_bits(),
                (prev.platform().speed(victim) * 0.4).to_bits()
            );
            assert!(report.period_before.is_finite());
            assert!(
                report.period_after <= report.period_before + 1e-12,
                "seed {seed}: replan must not trail ride-out"
            );
            assert!(report.period_ratio() >= 1.0 - 1e-9, "degradation is real");
            if !report.adopted {
                assert_eq!(report.migration_distance, 0);
            }
        }
    }

    #[test]
    fn processor_loss_forces_migration_off_the_dead_processor() {
        for seed in 0..5 {
            let prev = prepared(seed);
            let mut ws = SolveWorkspace::new();
            let mapping = incumbent(&prev, &mut ws);
            let victim = mapping.proc_of(0);
            let fault = DetectedFault::ProcessorLoss { proc: victim };
            let (next, report) =
                replan(&prev, &mapping, &fault, &min_period_request(), &mut ws).unwrap();
            assert_eq!(next.platform().n_procs(), prev.platform().n_procs() - 1);
            // The incumbent enrolled the victim: riding out is
            // infeasible, so the re-solve must be adopted.
            assert!(report.period_before.is_infinite());
            assert!(report.adopted);
            assert!(report.period_after.is_finite());
            assert!(report.migration_distance >= 1, "stages must move");
            // Physical ids: the adopted mapping cannot use the dead
            // processor.
            let n = prev.app().n_stages();
            let after = stage_procs(&report.mapping, n, Some(victim));
            assert!(after.iter().all(|&u| u != victim));
        }
    }

    #[test]
    fn loss_of_an_unenrolled_processor_can_ride_out_free() {
        for seed in 0..8 {
            let prev = prepared(seed);
            let mut ws = SolveWorkspace::new();
            let mapping = incumbent(&prev, &mut ws);
            let Some(spare) = (0..prev.platform().n_procs()).find(|u| !mapping.procs().contains(u))
            else {
                continue;
            };
            let fault = DetectedFault::ProcessorLoss { proc: spare };
            let (_, report) =
                replan(&prev, &mapping, &fault, &min_period_request(), &mut ws).unwrap();
            // The incumbent still runs at its nominal period; the
            // re-solve cannot beat it (it had already won at nominal
            // speeds on a superset platform), so nothing migrates.
            assert_eq!(
                report.period_before.to_bits(),
                report.period_nominal.to_bits()
            );
            assert!(report.period_after <= report.period_before + 1e-12);
            if !report.adopted {
                assert_eq!(report.migration_distance, 0);
            }
            return;
        }
        panic!("no instance left a spare processor");
    }

    #[test]
    fn invalid_faults_are_structured_errors() {
        let prev = prepared(0);
        let mut ws = SolveWorkspace::new();
        let mapping = incumbent(&prev, &mut ws);
        let bad = DetectedFault::SpeedDrift {
            proc: 0,
            factor: 0.0,
        };
        assert!(matches!(
            replan(&prev, &mapping, &bad, &min_period_request(), &mut ws),
            Err(ReplanError::InvalidFault(_))
        ));
        let missing = DetectedFault::ProcessorLoss { proc: 99 };
        assert!(matches!(
            replan(&prev, &mapping, &missing, &min_period_request(), &mut ws),
            Err(ReplanError::InvalidFault(_))
        ));
    }

    #[test]
    fn warm_replan_is_bit_identical_to_scratch_on_the_degraded_instance() {
        // The warm start must be observation-equivalent: re-planning
        // through apply_in answers exactly what preparing the degraded
        // instance from scratch would.
        for seed in [2, 9] {
            let prev = prepared(seed);
            let mut ws = SolveWorkspace::new();
            let mapping = incumbent(&prev, &mut ws);
            let fault = DetectedFault::SpeedDrift {
                proc: mapping.proc_of(0),
                factor: 0.5,
            };
            let (next, report) =
                replan(&prev, &mapping, &fault, &min_period_request(), &mut ws).unwrap();
            let scratch = PreparedInstance::new(next.app().clone(), next.platform().clone());
            let direct = scratch
                .solve_in(&min_period_request(), &mut SolveWorkspace::new())
                .unwrap();
            assert_eq!(
                report.resolved_period.to_bits(),
                direct.result.period.to_bits(),
                "seed {seed}"
            );
        }
    }
}
