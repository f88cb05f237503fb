//! chaos-replan: the operator's incident loop. Each operation executes
//! the incumbent mapping under a fault plan, re-plans around the
//! detected fault (warm-started through `apply_in`), and executes the
//! adopted mapping on the degraded platform.

use crate::corpus::{ChaosCorpus, FaultKind, CHAOS_DATASETS};
use crate::trace::Tracer;
use crate::Checks;
use pipeline_core::{
    replan, DetectedFault, HeuristicKind, Objective, PreparedInstance, SolveRequest,
    SolveWorkspace, Strategy,
};
use pipeline_model::prelude::*;
use pipeline_sim::{FaultPlan, FaultedSim, PipelineSim, SimConfig, SimReport};
use std::time::{Duration, Instant};

/// One base instance with its incumbent mapping and fault victims.
struct Base {
    prepared: PreparedInstance,
    incumbent: IntervalMapping,
    /// The slowest processor.
    straggler: ProcId,
    /// The processor owning the incumbent's bottleneck interval.
    bottleneck: ProcId,
}

/// What an incident must reproduce on every pass, traced or not.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    offered: usize,
    completed: usize,
    dropped: usize,
    faulted_makespan_bits: u64,
    period_after_bits: u64,
    adopted: bool,
    mapping: IntervalMapping,
    clean_makespan_bits: u64,
}

/// The chaos-replan workload.
pub struct ChaosReplan {
    bases: Vec<Base>,
    incidents: Vec<(usize, DetectedFault, FaultPlan)>,
    request: SolveRequest,
    ws: SolveWorkspace,
    first: Vec<Option<Outcome>>,
    /// Incidents whose re-solve was adopted, last traced pass.
    pub adopted: u64,
    /// Data sets offered / dropped by the faulted runs, last traced pass.
    pub offered: u64,
    /// See [`Self::offered`].
    pub dropped: u64,
}

impl ChaosReplan {
    /// Set-up: generate the corpus, prepare every base instance, solve
    /// its incumbent (best-of-all minimum period) and build every
    /// incident's fault and plan.
    pub fn setup(seed: u64) -> Self {
        let corpus = ChaosCorpus::generate(seed);
        let request = SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll);
        let mut ws = SolveWorkspace::new();
        let bases: Vec<Base> = corpus
            .bases
            .iter()
            .map(|(app, pf)| {
                let prepared = PreparedInstance::new(app.clone(), pf.clone());
                let incumbent = prepared
                    .solve_in(&request, &mut ws)
                    .expect("best-of-all always maps")
                    .result
                    .mapping;
                let cm = prepared.cost_model();
                let bottleneck_interval = (0..incumbent.n_intervals())
                    .max_by(|&a, &b| {
                        cm.cycle_time(&incumbent, a)
                            .total_cmp(&cm.cycle_time(&incumbent, b))
                    })
                    .expect("a mapping has intervals");
                let straggler = *pf.procs_by_speed_desc().last().expect("processors");
                Base {
                    bottleneck: incumbent.proc_of(bottleneck_interval),
                    straggler,
                    prepared,
                    incumbent,
                }
            })
            .collect();
        let incidents = corpus
            .incidents
            .iter()
            .map(|inc| {
                let base = &bases[inc.base];
                let (fault, victim) = match inc.fault {
                    FaultKind::DriftStraggler { factor } => (
                        DetectedFault::SpeedDrift {
                            proc: base.straggler,
                            factor,
                        },
                        base.straggler,
                    ),
                    FaultKind::LossBottleneck => (
                        DetectedFault::ProcessorLoss {
                            proc: base.bottleneck,
                        },
                        base.bottleneck,
                    ),
                };
                let period = base.prepared.cost_model().period(&base.incumbent);
                let plan = inc
                    .plan
                    .build(victim, period, CHAOS_DATASETS, inc.plan_seed);
                (inc.base, fault, plan)
            })
            .collect::<Vec<_>>();
        ChaosReplan {
            first: vec![None; incidents.len()],
            bases,
            incidents,
            request,
            ws,
            adopted: 0,
            offered: 0,
            dropped: 0,
        }
    }

    /// Corpus size.
    pub fn ops(&self) -> usize {
        self.incidents.len()
    }

    /// Set-up check: with an empty fault plan the fault simulator
    /// reproduces the steady-state simulator bit for bit, on every base.
    pub fn verify(&self, checks: &mut Checks) {
        for (b, base) in self.bases.iter().enumerate() {
            let cm = base.prepared.cost_model();
            let faulted = FaultedSim::new(
                &cm,
                &base.incumbent,
                SimConfig::default(),
                FaultPlan::empty(),
            )
            .run(CHAOS_DATASETS)
            .degraded
            .report;
            let clean = PipelineSim::new(&cm, &base.incumbent, SimConfig::default())
                .run(CHAOS_DATASETS)
                .report;
            checks.check(same_report(&faulted, &clean), || {
                format!("chaos set-up: empty fault plan diverges from PipelineSim on base {b}")
            });
        }
    }

    fn check(&mut self, i: usize, outcome: Option<Outcome>, checks: &mut Checks, traced: bool) {
        let repeats = match (&self.first[i], &outcome) {
            (Some(first), Some(o)) => first == o,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        checks.check(repeats, || {
            format!("chaos-replan incident {i} (traced={traced}): {outcome:?}")
        });
        if self.first[i].is_none() {
            self.first[i] = outcome;
        }
    }

    /// One untraced pass: `FaultedSim::run`, `replan`, `PipelineSim::run`
    /// per incident. The adopted period must not exceed the ride-out
    /// period.
    pub fn pass(&mut self, record: &mut dyn FnMut(usize, Duration), checks: &mut Checks) {
        for i in 0..self.incidents.len() {
            let (b, fault, plan) = &self.incidents[i];
            let base = &self.bases[*b];
            let t = Instant::now();
            let cm = base.prepared.cost_model();
            let degraded =
                FaultedSim::new(&cm, &base.incumbent, SimConfig::default(), plan.clone())
                    .run(CHAOS_DATASETS)
                    .degraded;
            let replanned = replan(
                &base.prepared,
                &base.incumbent,
                fault,
                &self.request,
                &mut self.ws,
            );
            let outcome = replanned.ok().map(|(next, report)| {
                let cm = next.cost_model();
                let clean = PipelineSim::new(&cm, &report.mapping, SimConfig::default())
                    .run(CHAOS_DATASETS)
                    .report;
                let adopted_ok = report.period_after <= report.period_before;
                (
                    adopted_ok,
                    Outcome {
                        offered: degraded.offered,
                        completed: degraded.completed,
                        dropped: degraded.dropped,
                        faulted_makespan_bits: degraded.report.makespan.to_bits(),
                        period_after_bits: report.period_after.to_bits(),
                        adopted: report.adopted,
                        mapping: report.mapping,
                        clean_makespan_bits: clean.makespan.to_bits(),
                    },
                )
            });
            record(i, t.elapsed());
            let outcome = match outcome {
                Some((true, o)) => Some(o),
                _ => None,
            };
            self.check(i, outcome, checks, false);
        }
    }

    /// One traced pass: the faulted run, then `replan`'s steps one by one
    /// (`apply_in`, the degraded instance's trajectories and floor, its
    /// `solve_in`, adoption), then the clean run.
    pub fn traced_pass(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        use HeuristicKind::*;
        tr.begin_pass();
        (self.adopted, self.offered, self.dropped) = (0, 0, 0);
        for i in 0..self.incidents.len() {
            let (b, fault, plan) = &self.incidents[i];
            let base = &self.bases[*b];
            let ws = &mut self.ws;
            let request = &self.request;
            tr.begin_op(i);
            let cm = base.prepared.cost_model();
            let degraded = tr.span("sim.faulted", || {
                FaultedSim::new(&cm, &base.incumbent, SimConfig::default(), plan.clone())
                    .run(CHAOS_DATASETS)
                    .degraded
            });
            let delta = fault
                .to_delta(base.prepared.platform())
                .expect("valid fault");
            let next = tr
                .span("replan.apply", || base.prepared.apply_in(&delta, ws))
                .expect("faults leave processors");
            let lost = match *fault {
                DetectedFault::ProcessorLoss { proc } => Some(proc),
                DetectedFault::SpeedDrift { .. } => None,
            };
            let ride_out = ride_out(&base.incumbent, lost, &next);
            let period_before = ride_out
                .as_ref()
                .map_or(f64::INFINITY, |m| next.cost_model().period(m));
            for kind in [SpMonoP, ThreeExploMono, ThreeExploBi, HeteroSplit] {
                tr.span("split.trajectory", || {
                    next.trajectory_in(kind, ws).map(|_| ())
                });
            }
            tr.span("split.floor", || next.sp_bi_p_floor_in(ws));
            let resolved = tr
                .span("replan.resolve", || next.solve_in(request, ws))
                .expect("best-of-all always maps")
                .result;
            let (adopted, mapping, period_after) = if period_before <= resolved.period {
                (false, ride_out.expect("finite ride-out"), period_before)
            } else {
                (true, resolved.mapping, resolved.period)
            };
            let clean = tr.span("sim.clean", || {
                let cm = next.cost_model();
                PipelineSim::new(&cm, &mapping, SimConfig::default())
                    .run(CHAOS_DATASETS)
                    .report
            });
            tr.end_op();
            self.adopted += adopted as u64;
            self.offered += degraded.offered as u64;
            self.dropped += degraded.dropped as u64;
            let outcome = Outcome {
                offered: degraded.offered,
                completed: degraded.completed,
                dropped: degraded.dropped,
                faulted_makespan_bits: degraded.report.makespan.to_bits(),
                period_after_bits: period_after.to_bits(),
                adopted,
                mapping,
                clean_makespan_bits: clean.makespan.to_bits(),
            };
            self.check(i, Some(outcome), checks, true);
        }
        tr.end_pass();
    }
}

/// The incumbent's structure on the degraded platform (ids past a lost
/// processor shift down), or `None` when it enrolled the lost processor.
fn ride_out(
    incumbent: &IntervalMapping,
    lost: Option<ProcId>,
    next: &PreparedInstance,
) -> Option<IntervalMapping> {
    if lost.is_some_and(|d| incumbent.procs().contains(&d)) {
        return None;
    }
    let procs = incumbent
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

/// Bitwise equality of two simulator reports.
fn same_report(a: &SimReport, b: &SimReport) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.start) == bits(&b.start)
        && bits(&a.completion) == bits(&b.completion)
        && a.makespan.to_bits() == b.makespan.to_bits()
        && a.busy.len() == b.busy.len()
        && a.busy
            .iter()
            .zip(&b.busy)
            .all(|((u, x), (v, y))| u == v && x.to_bits() == y.to_bits())
}
