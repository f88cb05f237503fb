//! The heuristic co-scheduler with every candidate rescored from
//! scratch, kept as a test oracle: the same seeding and the same
//! move/swap refinement as `TenantSet::co_schedule`, but each candidate
//! partition is validated, sorted and solved for all K tenants, and the
//! score is aggregated from a fresh weighted-period vector.
//!
//! It is the slow, obviously-correct reference that the production
//! loop, which re-solves only the two shares a candidate changes, is
//! checked against, bit for bit: score, tiebreak, feasibility and every
//! tenant's share, period, latency, SLO flag and solver, and the first
//! failure when a solve fails.
//!
//! Built on the public API only. Include it with
//! `#[path = "support/rescore_partitioner.rs"] mod rescore_partitioner;`.

use pipeline_workflows::core::service::{PreparedInstance, SolveError, SolveRequest};
use pipeline_workflows::core::tenancy::{
    CoSchedOptions, CoSchedule, PartitionObjective, TenancyError, TenantOutcome, TenantSet,
};
use pipeline_workflows::core::{Objective, SolveWorkspace};
use pipeline_workflows::model::util::{approx_eq, definitely_lt};
use pipeline_workflows::model::{LinkModel, Platform};

/// Refinement passes, as in the production partitioner.
const REFINE_ROUNDS: usize = 2;

fn strictly_better(a: (f64, f64), b: (f64, f64)) -> bool {
    definitely_lt(a.0, b.0) || (approx_eq(a.0, b.0) && definitely_lt(a.1, b.1))
}

/// The platform induced by `procs`, renumbered in group order.
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

fn solve_tenant(
    set: &TenantSet,
    tenant: usize,
    procs: &[usize],
    opts: &CoSchedOptions,
    ws: &mut SolveWorkspace,
) -> Result<TenantOutcome, TenancyError> {
    let t = &set.tenants()[tenant];
    let inst = PreparedInstance::new(
        t.instance.app().clone(),
        sub_platform(set.platform(), procs),
    );
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

/// Validates `partition`, solves every tenant on its sorted share and
/// aggregates under `objective`.
fn evaluate(
    set: &TenantSet,
    partition: &[Vec<usize>],
    objective: PartitionObjective,
    opts: &CoSchedOptions,
    ws: &mut SolveWorkspace,
) -> Result<CoSchedule, TenancyError> {
    let p = set.n_procs();
    let mut used = vec![false; p];
    for group in partition {
        assert!(!group.is_empty(), "a candidate left a tenant empty");
        for &u in group {
            assert!(u < p && !used[u], "a candidate reused processor {u}");
            used[u] = true;
        }
    }
    let mut outcomes = Vec::with_capacity(partition.len());
    for (i, group) in partition.iter().enumerate() {
        let mut sorted = group.clone();
        sorted.sort_unstable();
        outcomes.push(solve_tenant(set, i, &sorted, opts, ws)?);
    }
    let weighted: Vec<f64> = outcomes
        .iter()
        .zip(set.tenants())
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

/// The heuristic partitioner, rescoring every tenant of every candidate.
pub fn rescore_co_schedule(
    set: &TenantSet,
    objective: PartitionObjective,
    opts: &CoSchedOptions,
    ws: &mut SolveWorkspace,
) -> Result<CoSchedule, TenancyError> {
    let k = set.len();
    let p = set.n_procs();
    if p < k {
        return Err(TenancyError::TooFewProcessors {
            procs: p,
            tenants: k,
        });
    }
    let pf = set.platform();
    let demands: Vec<f64> = set
        .tenants()
        .iter()
        .map(|t| t.weight * t.instance.single_proc_period())
        .collect();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| demands[b].total_cmp(&demands[a]).then(a.cmp(&b)));
    let speed_desc: Vec<usize> = pf.procs_by_speed_desc().to_vec();

    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut alloc_speed = vec![0.0f64; k];
    for (slot, &t) in order.iter().enumerate() {
        let u = speed_desc[slot];
        groups[t].push(u);
        alloc_speed[t] += pf.speed(u);
    }
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
        alloc_speed[best] += pf.speed(u);
    }

    let owner = |groups: &[Vec<usize>], u: usize| {
        groups
            .iter()
            .position(|g| g.contains(&u))
            .expect("every processor is assigned")
    };
    let mut best = evaluate(set, &groups, objective, opts, ws)?;
    for _ in 0..REFINE_ROUNDS {
        let mut improved = false;
        for &u in &speed_desc {
            let from = owner(&groups, u);
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
                let cand = evaluate(set, &candidate, objective, opts, ws)?;
                if strictly_better(cand.key(), best.key()) {
                    groups = candidate;
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            'swaps: for ai in 0..speed_desc.len() {
                for bi in (ai + 1)..speed_desc.len() {
                    let (u, v) = (speed_desc[ai], speed_desc[bi]);
                    let (fu, fv) = (owner(&groups, u), owner(&groups, v));
                    if fu == fv {
                        continue;
                    }
                    let mut candidate = groups.clone();
                    candidate[fu].retain(|&w| w != u);
                    candidate[fv].retain(|&w| w != v);
                    candidate[fu].push(v);
                    candidate[fv].push(u);
                    let cand = evaluate(set, &candidate, objective, opts, ws)?;
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
