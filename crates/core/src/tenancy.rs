//! Multi-tenant co-scheduling: K pipelines sharing one platform.
//!
//! The paper maps *one* pipeline onto a whole platform. A solver service
//! under multi-user traffic faces the layer above that: K tenants, each
//! with their own pipeline, weight and (optionally) a latency SLO, all
//! competing for the same processors. This module partitions the
//! enrolled processors across the tenants and solves each tenant's
//! pipeline on its share with [`PreparedInstance::solve_in`] — the
//! single-pipeline oracle stays the inner kernel, exactly as in the
//! fairness-aware multi-workflow literature.
//!
//! * [`TenantSet`] — K `(PreparedInstance, weight, SLO)` entries, all
//!   prepared against bit-identical platforms;
//! * [`PartitionObjective`] — what "good" means across tenants: max-min
//!   weighted period fairness, weighted-sum period, or latency-SLO
//!   feasibility;
//! * [`TenantSet::co_schedule`] — the heuristic partitioner:
//!   largest-demand-first seeding over the speed-sorted processors,
//!   then bounded local exchange refinement (moves and swaps, first
//!   improvement, deterministic scan order);
//! * [`TenantSet::co_schedule_exact`] — the small-case exact oracle:
//!   enumerates every processor-to-tenant assignment (differential
//!   tests pin the heuristic to within the exact optimum on the zoo).
//!
//! Everything is deterministic: tie-breaks are index-ordered, scores
//! compare through the model's epsilon helpers, and the same
//! `(TenantSet, objective, options)` triple always returns the same
//! partition — which is what lets batched co-schedules on the
//! experiments crate's sharded engine run bit-identical across thread
//! counts.

use crate::service::{PreparedInstance, SolveError, SolveRequest, SolverId};
use crate::solve::{Objective, Strategy};
use crate::workspace::SolveWorkspace;
use pipeline_model::io::{WireCoschedReport, WireReport};
use pipeline_model::util::{approx_eq, definitely_lt};
use pipeline_model::{LinkModel, Platform};
use std::sync::Arc;

/// One tenant: a prepared pipeline instance, its scheduling weight and
/// an optional latency SLO.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// The tenant's pipeline, prepared against the *shared* platform
    /// (every tenant of a [`TenantSet`] must carry a bit-identical
    /// platform).
    pub instance: Arc<PreparedInstance>,
    /// Relative weight (finite, strictly positive). Weighted objectives
    /// score tenant `i` by `weight_i * period_i`.
    pub weight: f64,
    /// Latency SLO: the tenant's mapping should achieve `latency ≤ slo`.
    /// `f64::INFINITY` means "no SLO".
    pub slo: f64,
}

impl Tenant {
    /// A tenant with weight 1 and no SLO.
    pub fn new(instance: Arc<PreparedInstance>) -> Self {
        Tenant {
            instance,
            weight: 1.0,
            slo: f64::INFINITY,
        }
    }

    /// Sets the weight.
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the latency SLO.
    pub fn slo(mut self, slo: f64) -> Self {
        self.slo = slo;
        self
    }
}

/// What the co-scheduler optimizes across tenants. All three minimize;
/// ties break on a secondary score (see [`CoSchedule::tiebreak`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionObjective {
    /// Fairness: minimize the *worst* weighted tenant period
    /// `max_i w_i·P_i` (max-min weighted throughput). Tiebreak: the
    /// weighted sum.
    MaxMinWeightedPeriod,
    /// Utilitarian: minimize the weighted sum `Σ_i w_i·P_i`. Tiebreak:
    /// the worst weighted period.
    WeightedSumPeriod,
    /// SLO feasibility: minimize the number of tenants whose latency SLO
    /// is violated. Tiebreak: the weighted period sum.
    LatencySloFeasibility,
}

impl PartitionObjective {
    /// Every registered objective, in wire order.
    pub const ALL: [PartitionObjective; 3] = [
        PartitionObjective::MaxMinWeightedPeriod,
        PartitionObjective::WeightedSumPeriod,
        PartitionObjective::LatencySloFeasibility,
    ];

    /// Stable wire/CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionObjective::MaxMinWeightedPeriod => "max-min",
            PartitionObjective::WeightedSumPeriod => "weighted-sum",
            PartitionObjective::LatencySloFeasibility => "slo",
        }
    }

    /// Looks an objective up by its stable label (case-insensitive).
    pub fn from_label(label: &str) -> Option<PartitionObjective> {
        let needle = label.to_ascii_lowercase();
        PartitionObjective::ALL
            .into_iter()
            .find(|o| o.label() == needle)
    }
}

impl std::fmt::Display for PartitionObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Knobs of the co-scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoSchedOptions {
    /// Inner-oracle strategy for every per-tenant solve.
    pub strategy: Strategy,
    /// Bound-search tolerance forwarded to the inner oracle.
    pub tolerance: f64,
    /// Local-refinement passes of the heuristic partitioner (0 keeps the
    /// greedy seed). Each pass tries every single-processor move and, if
    /// none improves, every cross-tenant swap.
    pub refine_rounds: usize,
}

impl Default for CoSchedOptions {
    fn default() -> Self {
        CoSchedOptions {
            strategy: Strategy::Auto,
            tolerance: SolveRequest::new(Objective::MinPeriod).tolerance,
            refine_rounds: 2,
        }
    }
}

/// One tenant's share of a co-schedule.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The processors assigned to this tenant, in the platform's original
    /// numbering, ascending.
    pub procs: Vec<usize>,
    /// The tenant's achieved period on its share.
    pub period: f64,
    /// The tenant's achieved latency on its share.
    pub latency: f64,
    /// Whether the tenant's latency SLO was met (`true` when it has
    /// none).
    pub slo_met: bool,
    /// The inner solver that produced the tenant's mapping.
    pub solver: SolverId,
}

/// A complete co-schedule: the partition, per-tenant outcomes and the
/// objective score.
#[derive(Debug, Clone)]
pub struct CoSchedule {
    /// The objective this schedule was optimized for.
    pub objective: PartitionObjective,
    /// The primary score (smaller is better; see
    /// [`PartitionObjective`]).
    pub score: f64,
    /// The secondary score used to break primary ties.
    pub tiebreak: f64,
    /// Whether every tenant's SLO was met.
    pub feasible: bool,
    /// Per-tenant outcomes, in tenant order. Their `procs` fields form a
    /// disjoint cover of the enrolled processors.
    pub tenants: Vec<TenantOutcome>,
}

impl CoSchedule {
    /// `(score, tiebreak)` — the lexicographic quality key.
    pub fn key(&self) -> (f64, f64) {
        (self.score, self.tiebreak)
    }

    /// Serializes the co-schedule as a wire report echoing `id`.
    pub fn to_wire(&self, id: u64) -> WireReport {
        WireReport::Cosched(WireCoschedReport {
            id,
            objective: self.objective.label().to_string(),
            score: self.score,
            tiebreak: self.tiebreak,
            feasible: self.feasible,
            partition: self.tenants.iter().map(|t| t.procs.clone()).collect(),
            periods: self.tenants.iter().map(|t| t.period).collect(),
            latencies: self.tenants.iter().map(|t| t.latency).collect(),
            slo_met: self.tenants.iter().map(|t| t.slo_met).collect(),
        })
    }
}

/// Why a tenant set could not be built or co-scheduled.
#[derive(Debug, Clone, PartialEq)]
pub enum TenancyError {
    /// A tenant set needs at least one tenant.
    EmptyTenantSet,
    /// A weight was not finite and strictly positive.
    BadWeight {
        /// Offending tenant index.
        tenant: usize,
        /// Offending weight.
        weight: f64,
    },
    /// An SLO was NaN or not strictly positive.
    BadSlo {
        /// Offending tenant index.
        tenant: usize,
        /// Offending SLO.
        slo: f64,
    },
    /// A tenant's platform differs from tenant 0's — the tenants do not
    /// share one platform.
    MismatchedPlatforms {
        /// First tenant whose platform differs.
        tenant: usize,
    },
    /// Fewer processors than tenants: no partition gives everyone a
    /// non-empty share.
    TooFewProcessors {
        /// Enrolled processors.
        procs: usize,
        /// Tenants to serve.
        tenants: usize,
    },
    /// A partition to score was not a disjoint family of valid,
    /// non-empty processor groups.
    BadPartition {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// The exact oracle refuses: `K^p` exceeds its cap of 2¹⁶
    /// processor-to-tenant assignments.
    TooLargeForExact {
        /// Enrolled processors.
        procs: usize,
        /// Tenants to serve.
        tenants: usize,
    },
    /// An inner per-tenant solve failed for a reason other than an
    /// infeasible SLO bound (which falls back to min-period instead).
    Solve(SolveError),
}

impl TenancyError {
    /// Stable machine-readable wire code.
    pub fn code(&self) -> &'static str {
        match self {
            TenancyError::EmptyTenantSet => "empty-tenant-set",
            TenancyError::BadWeight { .. } => "bad-weight",
            TenancyError::BadSlo { .. } => "bad-slo",
            TenancyError::MismatchedPlatforms { .. } => "mismatched-platforms",
            TenancyError::TooFewProcessors { .. } => "too-few-processors",
            TenancyError::BadPartition { .. } => "bad-partition",
            TenancyError::TooLargeForExact { .. } => "too-large-for-exact",
            TenancyError::Solve(_) => "solve-failed",
        }
    }
}

impl std::fmt::Display for TenancyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenancyError::EmptyTenantSet => write!(f, "tenant set is empty"),
            TenancyError::BadWeight { tenant, weight } => {
                write!(f, "tenant {tenant}: weight {weight} must be finite and > 0")
            }
            TenancyError::BadSlo { tenant, slo } => {
                write!(f, "tenant {tenant}: SLO {slo} must be > 0 (or infinite)")
            }
            TenancyError::MismatchedPlatforms { tenant } => {
                write!(
                    f,
                    "tenant {tenant} is prepared against a different platform"
                )
            }
            TenancyError::TooFewProcessors { procs, tenants } => {
                write!(f, "{procs} processors cannot serve {tenants} tenants")
            }
            TenancyError::BadPartition { detail } => write!(f, "invalid partition: {detail}"),
            TenancyError::TooLargeForExact { procs, tenants } => write!(
                f,
                "exact oracle refuses {tenants}^{procs} assignments (raise the guard or shrink)"
            ),
            TenancyError::Solve(e) => write!(f, "inner solve failed: {e}"),
        }
    }
}

impl std::error::Error for TenancyError {}

/// `a` strictly better than `b` under the lexicographic
/// `(score, tiebreak)` order, with epsilon-aware comparisons so FP noise
/// cannot flip a tie.
fn strictly_better(a: (f64, f64), b: (f64, f64)) -> bool {
    definitely_lt(a.0, b.0) || (approx_eq(a.0, b.0) && definitely_lt(a.1, b.1))
}

/// The sub-platform induced by `procs` (original numbering): speeds and
/// pairwise links restricted to the group, processors renumbered
/// `0..procs.len()` in group order.
fn sub_platform(parent: &Platform, procs: &[usize]) -> Platform {
    let speeds: Vec<f64> = procs.iter().map(|&u| parent.speed(u)).collect();
    match parent.links() {
        LinkModel::Homogeneous(b) => Platform::comm_homogeneous(speeds, *b),
        LinkModel::Heterogeneous {
            matrix,
            io_bandwidth,
        } => {
            let sub: Vec<Vec<f64>> = procs
                .iter()
                .map(|&u| procs.iter().map(|&v| matrix[u][v]).collect())
                .collect();
            Platform::fully_heterogeneous(speeds, sub, *io_bandwidth)
        }
    }
    .expect("a sub-platform of a valid platform is valid")
}

/// K tenants sharing one platform. Construction validates the weights,
/// SLOs and that every tenant is prepared against the *same* platform;
/// the co-scheduling entry points live here.
#[derive(Debug, Clone)]
pub struct TenantSet {
    tenants: Vec<Tenant>,
    platform: Platform,
}

impl TenantSet {
    /// Hard cap on the `K^p` processor-to-tenant assignments the exact
    /// oracle will enumerate.
    const MAX_EXACT_ASSIGNMENTS: u64 = 1 << 16;

    /// Builds a tenant set, validating every entry.
    pub fn new(tenants: Vec<Tenant>) -> Result<TenantSet, TenancyError> {
        let first = tenants.first().ok_or(TenancyError::EmptyTenantSet)?;
        let platform = first.instance.platform().clone();
        for (i, t) in tenants.iter().enumerate() {
            if !(t.weight.is_finite() && t.weight > 0.0) {
                return Err(TenancyError::BadWeight {
                    tenant: i,
                    weight: t.weight,
                });
            }
            if t.slo.is_nan() || t.slo <= 0.0 {
                return Err(TenancyError::BadSlo {
                    tenant: i,
                    slo: t.slo,
                });
            }
            if *t.instance.platform() != platform {
                return Err(TenancyError::MismatchedPlatforms { tenant: i });
            }
        }
        Ok(TenantSet { tenants, platform })
    }

    /// Number of tenants `K`.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The tenants, in enrollment order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// The shared platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Number of enrolled processors `p`.
    pub fn n_procs(&self) -> usize {
        self.platform.n_procs()
    }

    /// Each tenant's demand proxy `w_i · P_single(i)`: the weighted
    /// period of running the whole pipeline on the fastest processor —
    /// what largest-demand-first seeding orders by.
    fn demands(&self) -> Vec<f64> {
        self.tenants
            .iter()
            .map(|t| t.weight * t.instance.single_proc_period())
            .collect()
    }

    /// Solves one tenant on its processor share with the inner oracle.
    /// SLO-carrying tenants ask for min-period under the latency bound;
    /// when the bound is below the share's feasibility floor the tenant
    /// falls back to unconstrained min-period with `slo_met = false`.
    fn solve_tenant(
        &self,
        tenant: usize,
        procs: &[usize],
        opts: &CoSchedOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<TenantOutcome, TenancyError> {
        let t = &self.tenants[tenant];
        let sub = sub_platform(&self.platform, procs);
        let inst = PreparedInstance::new(t.instance.app().clone(), sub);
        let request = |objective: Objective| {
            SolveRequest::new(objective)
                .strategy(opts.strategy)
                .tolerance(opts.tolerance)
        };
        let (report, slo_met) = if t.slo.is_finite() {
            match inst.solve_in(&request(Objective::MinPeriodForLatency(t.slo)), ws) {
                Ok(report) => {
                    let met = report.result.feasible;
                    (report, met)
                }
                Err(SolveError::BoundBelowFloor { .. }) => {
                    let report = inst
                        .solve_in(&request(Objective::MinPeriod), ws)
                        .map_err(TenancyError::Solve)?;
                    (report, false)
                }
                Err(e) => return Err(TenancyError::Solve(e)),
            }
        } else {
            let report = inst
                .solve_in(&request(Objective::MinPeriod), ws)
                .map_err(TenancyError::Solve)?;
            (report, true)
        };
        Ok(TenantOutcome {
            procs: procs.to_vec(),
            period: report.result.period,
            latency: report.result.latency,
            slo_met,
            solver: report.solver,
        })
    }

    fn validate_partition(&self, partition: &[Vec<usize>]) -> Result<(), TenancyError> {
        if partition.len() != self.tenants.len() {
            return Err(TenancyError::BadPartition {
                detail: format!(
                    "{} groups for {} tenants",
                    partition.len(),
                    self.tenants.len()
                ),
            });
        }
        let p = self.n_procs();
        let mut used = vec![false; p];
        for (i, group) in partition.iter().enumerate() {
            if group.is_empty() {
                return Err(TenancyError::BadPartition {
                    detail: format!("tenant {i} has no processor"),
                });
            }
            for &u in group {
                if u >= p {
                    return Err(TenancyError::BadPartition {
                        detail: format!("unknown processor P{u}"),
                    });
                }
                if used[u] {
                    return Err(TenancyError::BadPartition {
                        detail: format!("processor P{u} assigned twice"),
                    });
                }
                used[u] = true;
            }
        }
        Ok(())
    }

    /// Scores a fixed partition: solves every tenant on its share and
    /// aggregates under `objective`. `partition[i]` lists tenant `i`'s
    /// processors in original numbering; groups must be non-empty and
    /// disjoint (they need not cover every processor — the partitioners
    /// always do).
    fn evaluate_partition(
        &self,
        partition: &[Vec<usize>],
        objective: PartitionObjective,
        opts: &CoSchedOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<CoSchedule, TenancyError> {
        self.validate_partition(partition)?;
        let mut outcomes = Vec::with_capacity(partition.len());
        for (i, group) in partition.iter().enumerate() {
            let mut sorted = group.clone();
            sorted.sort_unstable();
            outcomes.push(self.solve_tenant(i, &sorted, opts, ws)?);
        }
        let weighted: Vec<f64> = outcomes
            .iter()
            .zip(&self.tenants)
            .map(|(o, t)| t.weight * o.period)
            .collect();
        let sum: f64 = weighted.iter().sum();
        let max = weighted.iter().cloned().fold(0.0f64, f64::max);
        let violations = outcomes.iter().filter(|o| !o.slo_met).count() as f64;
        let (score, tiebreak) = match objective {
            PartitionObjective::MaxMinWeightedPeriod => (max, sum),
            PartitionObjective::WeightedSumPeriod => (sum, max),
            PartitionObjective::LatencySloFeasibility => (violations, sum),
        };
        Ok(CoSchedule {
            objective,
            score,
            tiebreak,
            feasible: violations == 0.0,
            tenants: outcomes,
        })
    }

    /// The heuristic partitioner: largest-demand-first seeding over the
    /// speed-sorted processors, greedy balancing of the rest by
    /// demand-per-allocated-speed, then up to `opts.refine_rounds`
    /// passes of local exchange (single-processor moves, then swaps when
    /// no move improves). Deterministic throughout: processors scan in
    /// speed-descending order, tenants in index order, and only
    /// `strictly_better` improvements are taken.
    pub fn co_schedule(
        &self,
        objective: PartitionObjective,
        opts: &CoSchedOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<CoSchedule, TenancyError> {
        let k = self.tenants.len();
        let p = self.n_procs();
        if p < k {
            return Err(TenancyError::TooFewProcessors {
                procs: p,
                tenants: k,
            });
        }
        let demands = self.demands();
        // Tenants by descending demand, index-ordered on ties.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| demands[b].total_cmp(&demands[a]).then(a.cmp(&b)));
        let speed_desc: Vec<usize> = self.platform.procs_by_speed_desc().to_vec();

        // Seed: the K fastest processors, fastest to the hungriest tenant.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut alloc_speed = vec![0.0f64; k];
        for (slot, &t) in order.iter().enumerate() {
            let u = speed_desc[slot];
            groups[t].push(u);
            alloc_speed[t] += self.platform.speed(u);
        }
        // Balance the rest: each next-fastest processor goes to the
        // tenant with the highest demand per unit of allocated speed.
        for &u in &speed_desc[k..] {
            let mut best = 0usize;
            let mut best_need = f64::NEG_INFINITY;
            for (t, &speed) in alloc_speed.iter().enumerate() {
                let need = demands[t] / speed;
                if need > best_need {
                    best = t;
                    best_need = need;
                }
            }
            groups[best].push(u);
            alloc_speed[best] += self.platform.speed(u);
        }

        let mut best = self.evaluate_partition(&groups, objective, opts, ws)?;
        for _ in 0..opts.refine_rounds {
            let mut improved = false;
            // Single-processor moves, speed-descending scan.
            for &u in &speed_desc {
                let from = groups
                    .iter()
                    .position(|g| g.contains(&u))
                    .expect("every processor is assigned");
                if groups[from].len() <= 1 {
                    continue;
                }
                for to in 0..k {
                    if to == from {
                        continue;
                    }
                    let mut candidate = groups.clone();
                    candidate[from].retain(|&v| v != u);
                    candidate[to].push(u);
                    let cand = self.evaluate_partition(&candidate, objective, opts, ws)?;
                    if strictly_better(cand.key(), best.key()) {
                        groups = candidate;
                        best = cand;
                        improved = true;
                        break; // u moved; rescan its new neighborhood later
                    }
                }
            }
            // Swaps only when no move improved this pass: trade one
            // processor between every pair of tenants.
            if !improved {
                'swaps: for ai in 0..speed_desc.len() {
                    for bi in (ai + 1)..speed_desc.len() {
                        let (u, v) = (speed_desc[ai], speed_desc[bi]);
                        let fu = groups
                            .iter()
                            .position(|g| g.contains(&u))
                            .expect("assigned");
                        let fv = groups
                            .iter()
                            .position(|g| g.contains(&v))
                            .expect("assigned");
                        if fu == fv {
                            continue;
                        }
                        let mut candidate = groups.clone();
                        candidate[fu].retain(|&w| w != u);
                        candidate[fv].retain(|&w| w != v);
                        candidate[fu].push(v);
                        candidate[fv].push(u);
                        let cand = self.evaluate_partition(&candidate, objective, opts, ws)?;
                        if strictly_better(cand.key(), best.key()) {
                            groups = candidate;
                            best = cand;
                            improved = true;
                            break 'swaps;
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }
        Ok(best)
    }

    /// The exact oracle: enumerates every processor-to-tenant assignment
    /// (skipping those that leave a tenant empty) and returns the best
    /// partition under `objective`. Refuses when `K^p` exceeds 2¹⁶
    /// assignments — this is a differential-test reference, not a
    /// production path.
    pub fn co_schedule_exact(
        &self,
        objective: PartitionObjective,
        opts: &CoSchedOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<CoSchedule, TenancyError> {
        let k = self.tenants.len();
        let p = self.n_procs();
        if p < k {
            return Err(TenancyError::TooFewProcessors {
                procs: p,
                tenants: k,
            });
        }
        let too_large = TenancyError::TooLargeForExact {
            procs: p,
            tenants: k,
        };
        let total = (k as u64)
            .checked_pow(p as u32)
            .ok_or_else(|| too_large.clone())?;
        if total > Self::MAX_EXACT_ASSIGNMENTS {
            return Err(too_large);
        }
        let mut best: Option<CoSchedule> = None;
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        for code in 0..total {
            for g in &mut groups {
                g.clear();
            }
            let mut rest = code;
            for u in 0..p {
                groups[(rest % k as u64) as usize].push(u);
                rest /= k as u64;
            }
            if groups.iter().any(Vec::is_empty) {
                continue;
            }
            let cand = self.evaluate_partition(&groups, objective, opts, ws)?;
            match &best {
                Some(b) if !strictly_better(cand.key(), b.key()) => {}
                _ => best = Some(cand),
            }
        }
        Ok(best.expect("p >= k guarantees at least one full assignment"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};

    fn tenant(n: usize, p: usize, seed: u64) -> Arc<PreparedInstance> {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
        let (app, pf) = gen.instance(seed, 0);
        Arc::new(PreparedInstance::new(app, pf))
    }

    /// Two tenants with mixed sizes on one shared platform.
    fn set2() -> TenantSet {
        let a = tenant(6, 5, 1);
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 4, 9));
        let (app_b, _) = gen.instance(2, 0);
        let b = Arc::new(PreparedInstance::new(app_b, a.platform().clone()));
        TenantSet::new(vec![Tenant::new(a).weight(2.0), Tenant::new(b).weight(1.0)])
            .expect("valid set")
    }

    #[test]
    fn objective_labels_round_trip() {
        for o in PartitionObjective::ALL {
            assert_eq!(PartitionObjective::from_label(o.label()), Some(o));
            assert_eq!(o.to_string(), o.label());
        }
        assert_eq!(PartitionObjective::from_label("nope"), None);
    }

    #[test]
    fn validation_rejects_bad_sets() {
        assert_eq!(
            TenantSet::new(Vec::new()).unwrap_err(),
            TenancyError::EmptyTenantSet
        );
        let a = tenant(5, 4, 1);
        assert!(matches!(
            TenantSet::new(vec![Tenant::new(Arc::clone(&a)).weight(0.0)]).unwrap_err(),
            TenancyError::BadWeight { tenant: 0, .. }
        ));
        assert!(matches!(
            TenantSet::new(vec![Tenant::new(Arc::clone(&a)).slo(-1.0)]).unwrap_err(),
            TenancyError::BadSlo { tenant: 0, .. }
        ));
        let other_platform = tenant(5, 4, 7);
        assert!(matches!(
            TenantSet::new(vec![Tenant::new(a), Tenant::new(other_platform)]).unwrap_err(),
            TenancyError::MismatchedPlatforms { tenant: 1 }
        ));
    }

    #[test]
    fn heuristic_partition_is_a_disjoint_cover() {
        let set = set2();
        let mut ws = SolveWorkspace::new();
        for objective in PartitionObjective::ALL {
            let sched = set
                .co_schedule(objective, &CoSchedOptions::default(), &mut ws)
                .expect("schedules");
            let mut seen: Vec<usize> = sched
                .tenants
                .iter()
                .flat_map(|t| t.procs.iter().copied())
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..set.n_procs()).collect::<Vec<_>>(), "{objective}");
            assert!(sched.tenants.iter().all(|t| !t.procs.is_empty()));
        }
    }

    #[test]
    fn co_schedule_is_deterministic() {
        let set = set2();
        let mut ws = SolveWorkspace::new();
        let a = set
            .co_schedule(
                PartitionObjective::MaxMinWeightedPeriod,
                &CoSchedOptions::default(),
                &mut ws,
            )
            .unwrap();
        let mut ws2 = SolveWorkspace::new();
        let b = set
            .co_schedule(
                PartitionObjective::MaxMinWeightedPeriod,
                &CoSchedOptions::default(),
                &mut ws2,
            )
            .unwrap();
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.tiebreak.to_bits(), b.tiebreak.to_bits());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.procs, y.procs);
            assert_eq!(x.period.to_bits(), y.period.to_bits());
        }
    }

    #[test]
    fn exact_never_worse_than_heuristic_on_a_small_set() {
        let set = set2();
        let opts = CoSchedOptions::default();
        let mut ws = SolveWorkspace::new();
        for objective in PartitionObjective::ALL {
            let heur = set.co_schedule(objective, &opts, &mut ws).unwrap();
            let exact = set.co_schedule_exact(objective, &opts, &mut ws).unwrap();
            assert!(
                !strictly_better(heur.key(), exact.key()),
                "{objective}: heuristic {:?} beat exact {:?}",
                heur.key(),
                exact.key()
            );
        }
    }

    #[test]
    fn slo_objective_reports_feasibility() {
        let a = tenant(6, 5, 1);
        let generous = a.optimal_latency() * 10.0;
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 4, 9));
        let (app_b, _) = gen.instance(2, 0);
        let b = Arc::new(PreparedInstance::new(app_b, a.platform().clone()));
        let impossible = 1e-6;
        let set = TenantSet::new(vec![
            Tenant::new(a).slo(generous),
            Tenant::new(b).slo(impossible),
        ])
        .unwrap();
        let mut ws = SolveWorkspace::new();
        let sched = set
            .co_schedule(
                PartitionObjective::LatencySloFeasibility,
                &CoSchedOptions::default(),
                &mut ws,
            )
            .unwrap();
        assert!(sched.tenants[0].slo_met);
        assert!(!sched.tenants[1].slo_met);
        assert!(!sched.feasible);
        assert_eq!(sched.score, 1.0);
    }

    #[test]
    fn exact_guard_and_too_few_processors() {
        let set = set2();
        let mut ws = SolveWorkspace::new();
        // 5 processors, 2 tenants: fine. Force the guard with a fake
        // bound check instead: 2^5 = 32 <= MAX, so build a wide case.
        assert!(2u64.pow(5) <= TenantSet::MAX_EXACT_ASSIGNMENTS);
        let _ = set;
        let a = tenant(4, 2, 3);
        let b = Arc::new(PreparedInstance::new(a.app().clone(), a.platform().clone()));
        let c = Arc::new(PreparedInstance::new(a.app().clone(), a.platform().clone()));
        let crowded = TenantSet::new(vec![Tenant::new(a), Tenant::new(b), Tenant::new(c)]).unwrap();
        assert!(matches!(
            crowded.co_schedule(
                PartitionObjective::WeightedSumPeriod,
                &CoSchedOptions::default(),
                &mut ws
            ),
            Err(TenancyError::TooFewProcessors {
                procs: 2,
                tenants: 3
            })
        ));
        let wide = tenant(4, 40, 5);
        let wide_b = Arc::new(PreparedInstance::new(
            wide.app().clone(),
            wide.platform().clone(),
        ));
        let wide_set = TenantSet::new(vec![Tenant::new(wide), Tenant::new(wide_b)]).unwrap();
        assert!(matches!(
            wide_set.co_schedule_exact(
                PartitionObjective::WeightedSumPeriod,
                &CoSchedOptions::default(),
                &mut ws
            ),
            Err(TenancyError::TooLargeForExact { .. })
        ));
    }

    #[test]
    fn evaluate_partition_validates_shape() {
        let set = set2();
        let mut ws = SolveWorkspace::new();
        let opts = CoSchedOptions::default();
        let obj = PartitionObjective::WeightedSumPeriod;
        assert!(matches!(
            set.evaluate_partition(&[vec![0, 1]], obj, &opts, &mut ws),
            Err(TenancyError::BadPartition { .. })
        ));
        assert!(matches!(
            set.evaluate_partition(&[vec![0], vec![]], obj, &opts, &mut ws),
            Err(TenancyError::BadPartition { .. })
        ));
        assert!(matches!(
            set.evaluate_partition(&[vec![0], vec![0]], obj, &opts, &mut ws),
            Err(TenancyError::BadPartition { .. })
        ));
        assert!(matches!(
            set.evaluate_partition(&[vec![0], vec![99]], obj, &opts, &mut ws),
            Err(TenancyError::BadPartition { .. })
        ));
        assert!(set
            .evaluate_partition(&[vec![0, 2], vec![1, 3, 4]], obj, &opts, &mut ws)
            .is_ok());
    }

    #[test]
    fn wire_round_trip_of_a_schedule() {
        use pipeline_model::io::{format_report, parse_report};
        let set = set2();
        let mut ws = SolveWorkspace::new();
        let sched = set
            .co_schedule(
                PartitionObjective::MaxMinWeightedPeriod,
                &CoSchedOptions::default(),
                &mut ws,
            )
            .unwrap();
        let wire = sched.to_wire(9);
        let line = format_report(&wire);
        assert_eq!(parse_report(&line).expect("round trip"), wire, "{line}");
    }
}
