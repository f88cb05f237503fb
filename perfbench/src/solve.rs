//! solve-cold: every operation prepares a fresh instance and answers one
//! query, the way a sweep or a research script uses the solvers.

use crate::corpus::{SolveClass, SolveCorpus, SolveOp};
use crate::trace::Tracer;
use crate::Checks;
use pipeline_core::exact::{
    exact_min_latency_from_value, exact_min_latency_value_root, exact_min_period_from_value,
    exact_min_period_value_root, exact_root_order, supports_dominance_dp, SharedIncumbent,
};
use pipeline_core::{
    HeuristicKind, Objective, PreparedInstance, SolveReport, SolveRequest, SolveWorkspace, Strategy,
};
use pipeline_model::prelude::*;
use std::time::{Duration, Instant};

/// What an answer must reproduce on every pass, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    period_bits: u64,
    latency_bits: u64,
    mapping: IntervalMapping,
    front: Option<Vec<(u64, u64)>>,
}

impl Answer {
    fn of(report: &SolveReport) -> Self {
        Answer {
            period_bits: report.result.period.to_bits(),
            latency_bits: report.result.latency.to_bits(),
            mapping: report.result.mapping.clone(),
            front: report.front.as_ref().map(|f| {
                f.iter()
                    .map(|(p, l, _)| (p.to_bits(), l.to_bits()))
                    .collect()
            }),
        }
    }

    fn period(&self) -> f64 {
        f64::from_bits(self.period_bits)
    }

    fn latency(&self) -> f64 {
        f64::from_bits(self.latency_bits)
    }
}

/// The bound an exact answer is checked against, computed at set-up.
#[derive(Debug, Clone, Copy)]
enum Reference {
    /// Heuristic operations: no cross-solver reference.
    None,
    /// The smallest period any of H1–H6 reaches on the instance.
    HeuristicPeriod(f64),
    /// Best-of-all's latency under the same period bound.
    HeuristicLatency(f64),
}

/// The solve-cold workload.
pub struct SolveCold {
    corpus: SolveCorpus,
    ws: SolveWorkspace,
    references: Vec<Reference>,
    /// The first pass's answer of every operation.
    first: Vec<Option<Answer>>,
    /// Total trajectory points recorded by the last traced pass.
    pub points: u64,
    /// Exact operations routed to the dominance DP in a traced pass.
    pub dp_routed: u64,
    /// Exact operations in a traced pass.
    pub exact_ops: u64,
    /// Largest distance, in ulps, between a reported (period, latency)
    /// and its re-evaluation through `CostModel::evaluate`.
    pub max_eval_ulps: u64,
}

/// How far a reported period or latency may sit from its re-evaluation
/// through `CostModel::evaluate`. The solvers accumulate latencies (and
/// the exact solvers some periods) in a different order than `evaluate`
/// does, so the two agree to a few ulps rather than bit for bit; up to 6
/// ulps have been observed. A wrong mapping or a stale value is off by
/// far more.
pub const MAX_EVAL_ULPS: u64 = 16;

/// Distance in units in the last place between two finite values of the
/// same sign.
fn ulps(a: f64, b: f64) -> u64 {
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

impl SolveCold {
    /// Set-up: generate the corpus and compute the heuristic references
    /// every exact answer is checked against.
    pub fn setup(seed: u64) -> Self {
        let corpus = SolveCorpus::generate(seed);
        let mut ws = SolveWorkspace::new();
        let references = corpus.ops.iter().map(|op| reference(op, &mut ws)).collect();
        SolveCold {
            first: vec![None; corpus.ops.len()],
            corpus,
            ws,
            references,
            points: 0,
            dp_routed: 0,
            exact_ops: 0,
            max_eval_ulps: 0,
        }
    }

    /// Corpus size.
    pub fn ops(&self) -> usize {
        self.corpus.ops.len()
    }

    /// Checks one answer: it succeeded, its (period, latency) re-evaluate
    /// through `CostModel::evaluate` to within [`MAX_EVAL_ULPS`], exact
    /// answers are no
    /// worse than the heuristic reference, and it repeats the first
    /// pass's answer bit for bit.
    fn check(&mut self, i: usize, answer: Option<Answer>, checks: &mut Checks, traced: bool) {
        let op = &self.corpus.ops[i];
        let ok = answer.as_ref().is_some_and(|a| {
            let cm = CostModel::new(&op.app, &op.platform);
            let (p, l) = cm.evaluate(&a.mapping);
            let ulps = ulps(p, a.period()).max(ulps(l, a.latency()));
            self.max_eval_ulps = self.max_eval_ulps.max(ulps);
            let evaluates = ulps <= MAX_EVAL_ULPS;
            let no_worse = match self.references[i] {
                Reference::None => true,
                Reference::HeuristicPeriod(h) => approx_le(a.period(), h),
                Reference::HeuristicLatency(h) => approx_le(a.latency(), h),
            };
            evaluates && no_worse
        });
        let repeats = match (&self.first[i], &answer) {
            (Some(first), Some(a)) => first == a,
            (None, _) => true,
            (_, None) => false,
        };
        checks.check(ok && repeats, || {
            format!(
                "solve-cold op {i} ({:?}, traced={traced}): {answer:?} vs first {:?}",
                op.request, self.first[i]
            )
        });
        if self.first[i].is_none() {
            self.first[i] = answer;
        }
    }

    /// One untraced pass: `PreparedInstance::new` + `solve_in` per op.
    pub fn pass(&mut self, record: &mut dyn FnMut(usize, Duration), checks: &mut Checks) {
        for i in 0..self.corpus.ops.len() {
            let op = &self.corpus.ops[i];
            let t = Instant::now();
            let prepared = PreparedInstance::new(op.app.clone(), op.platform.clone());
            let report = prepared.solve_in(&op.request, &mut self.ws);
            record(i, t.elapsed());
            self.check(i, report.ok().as_ref().map(Answer::of), checks, false);
        }
    }

    /// One traced pass: prepare, trajectories, floor and route spans for
    /// heuristic operations; the DP's value and witness passes, the v2
    /// search or the front for exact ones.
    pub fn traced_pass(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        tr.begin_pass();
        self.points = 0;
        self.dp_routed = 0;
        self.exact_ops = 0;
        for i in 0..self.corpus.ops.len() {
            let op = &self.corpus.ops[i];
            let ws = &mut self.ws;
            tr.begin_op(i);
            let prepared = tr.span("service.prepare", || {
                PreparedInstance::new(op.app.clone(), op.platform.clone())
            });
            let answer = match op.class {
                SolveClass::Heuristic => {
                    let (kinds, floor) = heuristic_precomputations(&op.request);
                    for &kind in kinds {
                        let len = tr.span("split.trajectory", || {
                            prepared
                                .trajectory_in(kind, ws)
                                .map(|t| t.trajectory().len())
                        });
                        self.points += len.unwrap_or(0) as u64;
                    }
                    if floor {
                        tr.span("split.floor", || prepared.sp_bi_p_floor_in(ws));
                    }
                    tr.span("service.route", || prepared.solve_in(&op.request, ws))
                        .ok()
                        .as_ref()
                        .map(Answer::of)
                }
                SolveClass::Exact => {
                    self.exact_ops += 1;
                    let cm = prepared.cost_model();
                    let dp = supports_dominance_dp(&cm);
                    self.dp_routed += dp as u64;
                    traced_exact(tr, &prepared, &op.request, dp, ws)
                }
            };
            tr.end_op();
            self.check(i, answer, checks, true);
        }
        tr.end_pass();
    }
}

/// The bound-independent artifacts `solve_in` will build for a heuristic
/// request on a Communication Homogeneous platform: which trajectories
/// it records and whether it runs H4's unconstrained floor.
fn heuristic_precomputations(request: &SolveRequest) -> (&'static [HeuristicKind], bool) {
    use HeuristicKind::*;
    const ALL_TRAJECTORIES: [HeuristicKind; 4] =
        [SpMonoP, ThreeExploMono, ThreeExploBi, HeteroSplit];
    let uses_trajectories = !matches!(request.objective, Objective::MinPeriodForLatency(_));
    let min_period = request.objective == Objective::MinPeriod;
    match request.strategy {
        Strategy::BestOfAll if uses_trajectories => (&ALL_TRAJECTORIES, min_period),
        Strategy::Heuristic(k @ (SpMonoP | ThreeExploMono | ThreeExploBi)) => {
            let i = ALL_TRAJECTORIES
                .iter()
                .position(|&x| x == k)
                .expect("listed");
            (&ALL_TRAJECTORIES[i..=i], false)
        }
        Strategy::Heuristic(SpBiP) => (&[], min_period),
        _ => (&[], false),
    }
}

/// An exact request, layer by layer: the DP's per-root value sweeps then
/// its witness pass; v2 through `PreparedInstance` when the DP does not
/// route; the memoized front then the report built from it.
fn traced_exact(
    tr: &mut Tracer,
    prepared: &PreparedInstance,
    request: &SolveRequest,
    dp: bool,
    ws: &mut SolveWorkspace,
) -> Option<Answer> {
    let cm = prepared.cost_model();
    let answer = |mapping: IntervalMapping, period: f64, latency: f64| Answer {
        period_bits: period.to_bits(),
        latency_bits: latency.to_bits(),
        mapping,
        front: None,
    };
    match request.objective {
        Objective::MinPeriod if dp => {
            let inc = SharedIncumbent::new();
            tr.span("exact.value", || {
                for end in exact_root_order(&cm) {
                    exact_min_period_value_root(&cm, end, &inc, ws);
                }
            });
            let (period, mapping) = tr.span("exact.witness", || {
                exact_min_period_from_value(&cm, inc.current(), ws)
            });
            let latency = cm.latency(&mapping);
            Some(answer(mapping, period, latency))
        }
        Objective::MinPeriod => {
            let found = tr.span("exact.v2", || {
                prepared.exact_min_period_in(ws).ok().cloned()
            });
            found.map(|(period, mapping)| {
                let latency = cm.latency(&mapping);
                answer(mapping, period, latency)
            })
        }
        Objective::MinLatencyForPeriod(bound) if dp => {
            let inc = SharedIncumbent::new();
            tr.span("exact.value", || {
                for end in exact_root_order(&cm) {
                    exact_min_latency_value_root(&cm, bound, end, &inc, ws);
                }
            });
            let found = tr.span("exact.witness", || {
                exact_min_latency_from_value(&cm, bound, inc.current(), ws)
            });
            found.map(|(latency, mapping)| {
                let period = cm.period(&mapping);
                answer(mapping, period, latency)
            })
        }
        Objective::ParetoFront => {
            tr.span("exact.front", || prepared.exact_front_in(ws).map(|_| ()))
                .ok()?;
            tr.span("service.route", || prepared.solve_in(request, ws))
                .ok()
                .as_ref()
                .map(Answer::of)
        }
        _ => tr
            .span("exact.v2", || prepared.solve_in(request, ws))
            .ok()
            .as_ref()
            .map(Answer::of),
    }
}

/// The set-up reference of one operation.
fn reference(op: &SolveOp, ws: &mut SolveWorkspace) -> Reference {
    if op.class == SolveClass::Heuristic {
        return Reference::None;
    }
    let prepared = PreparedInstance::new(op.app.clone(), op.platform.clone());
    match op.request.objective {
        Objective::MinLatencyForPeriod(_) => {
            let best = op.request.strategy(Strategy::BestOfAll);
            prepared.solve_in(&best, ws).map_or(Reference::None, |r| {
                Reference::HeuristicLatency(r.result.latency)
            })
        }
        _ => {
            let min_period = HeuristicKind::ALL
                .iter()
                .filter_map(|&k| {
                    let request =
                        SolveRequest::new(Objective::MinPeriod).strategy(Strategy::Heuristic(k));
                    prepared.solve_in(&request, ws).ok()
                })
                .map(|r| r.result.period)
                .fold(f64::INFINITY, f64::min);
            Reference::HeuristicPeriod(min_period)
        }
    }
}
