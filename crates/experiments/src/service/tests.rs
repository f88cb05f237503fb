//! Batch determinism of the shard engine over the solver service's
//! three job kinds. Each kind runs through [`sharded_map_items_with`]
//! with one workspace per worker and must equal, bit for bit, its
//! workspace-free sequential reference: one-shot solves, scratch
//! preparations of the edited instance, and one-shot co-schedules.

use std::sync::Arc;

use pipeline_core::service::{PreparedInstance, SolveError, SolveReport, SolveRequest};
use pipeline_core::tenancy::{CoSchedOptions, PartitionObjective, Tenant, TenantSet};
use pipeline_core::{Objective, SolveWorkspace, Strategy};
use pipeline_model::io::format_report;
use pipeline_model::scenario::{
    ScenarioFamily, ScenarioGenerator, TenantFamily, TenantScenarioGenerator,
};
use pipeline_model::InstanceDelta;

use crate::shard::{sharded_map_items_with, ShardOptions};

/// Canonical string of one solve answer: its wire line, which captures
/// solver, coordinates, mapping and front (or the error code and
/// bound/floor) with round-trip float formatting.
fn wire(i: usize, answer: &Result<SolveReport, SolveError>) -> String {
    match answer {
        Ok(report) => format_report(&report.to_wire(i as u64)),
        Err(err) => format_report(&err.to_wire(i as u64)),
    }
}

/// Solve jobs: several requests against each shared session, over a
/// comm-homogeneous and a fully heterogeneous family.
fn solve_jobs() -> Vec<(Arc<PreparedInstance>, SolveRequest)> {
    let mut jobs = Vec::new();
    for family in [
        ScenarioFamily::E1,
        ScenarioFamily::E2,
        ScenarioFamily::TwoTier,
    ] {
        let gen = ScenarioGenerator::new(family.params(9, 6));
        for index in 0..3 {
            let (app, pf) = gen.instance(41, index);
            let prepared = Arc::new(PreparedInstance::new(app, pf));
            let p0 = prepared.single_proc_period();
            let l0 = prepared.optimal_latency();
            for request in [
                SolveRequest::new(Objective::MinPeriod),
                SolveRequest::new(Objective::MinLatencyForPeriod(0.7 * p0))
                    .strategy(Strategy::BestOfAll),
                SolveRequest::new(Objective::MinLatencyForPeriod(0.01 * p0))
                    .strategy(Strategy::BestOfAll),
                SolveRequest::new(Objective::MinPeriodForLatency(1.5 * l0))
                    .strategy(Strategy::BestOfAll),
                SolveRequest::new(Objective::ParetoFront),
                SolveRequest::new(Objective::ParetoFront).strategy(Strategy::BestOfAll),
            ] {
                jobs.push((Arc::clone(&prepared), request));
            }
        }
    }
    jobs
}

fn solve_batch(opts: ShardOptions) -> Vec<String> {
    let answers = sharded_map_items_with(solve_jobs(), opts, SolveWorkspace::new, |ws, job| {
        job.0.solve_in(&job.1, ws)
    });
    answers
        .iter()
        .enumerate()
        .map(|(i, a)| wire(i, a))
        .collect()
}

fn solve_one_shot() -> Vec<String> {
    let jobs = solve_jobs();
    let lines: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, (instance, request))| wire(i, &instance.solve(request)))
        .collect();
    assert!(lines.iter().any(|l| l.contains("status=ok")));
    assert!(lines.iter().any(|l| l.contains("bound-below-floor")));
    assert!(lines.iter().any(|l| l.contains("front=")));
    lines
}

/// Apply-then-solve jobs: what-if edits against shared base sessions,
/// one of them rejected.
fn delta_jobs() -> Vec<(Arc<PreparedInstance>, InstanceDelta)> {
    let gen = ScenarioGenerator::new(ScenarioFamily::E2.params(9, 6));
    let mut jobs = Vec::new();
    for index in 0..3 {
        let (app, pf) = gen.instance(7, index);
        let slowest = *pf.procs_by_speed_desc().last().unwrap();
        let prepared = Arc::new(PreparedInstance::new(app, pf.clone()));
        for delta in [
            InstanceDelta::ProcSpeed {
                proc: slowest,
                speed: 0.5 * pf.speed(slowest),
            },
            InstanceDelta::StageWeight {
                stage: index as usize % 9,
                work: 4.5,
            },
            InstanceDelta::ProcArrival { speed: 11.0 },
            InstanceDelta::ProcSpeed {
                proc: 99,
                speed: 1.0,
            },
        ] {
            jobs.push((Arc::clone(&prepared), delta));
        }
    }
    jobs
}

fn delta_request() -> SolveRequest {
    SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll)
}

fn delta_batch(opts: ShardOptions) -> Vec<String> {
    let answers = sharded_map_items_with(delta_jobs(), opts, SolveWorkspace::new, |ws, job| {
        job.0
            .apply_in(&job.1, ws)
            .map(|next| next.solve_in(&delta_request(), ws))
    });
    answers
        .iter()
        .enumerate()
        .map(|(i, a)| match a {
            Ok(answer) => wire(i, answer),
            Err(err) => format!("delta rejected: {err}"),
        })
        .collect()
}

/// The same edits applied to the raw instance and prepared from scratch.
fn delta_scratch() -> Vec<String> {
    let lines: Vec<String> = delta_jobs()
        .iter()
        .enumerate()
        .map(
            |(i, (instance, delta))| match delta.apply_to(instance.app(), instance.platform()) {
                Ok((app, pf)) => wire(i, &PreparedInstance::new(app, pf).solve(&delta_request())),
                Err(err) => format!("delta rejected: {err}"),
            },
        )
        .collect();
    assert!(lines.iter().any(|l| l.contains("status=ok")));
    assert!(lines.iter().any(|l| l.contains("delta rejected")));
    lines
}

/// Co-schedule jobs: every partition objective against one shared tenant
/// set per tenant family.
fn tenant_jobs() -> Vec<(Arc<TenantSet>, PartitionObjective)> {
    let mut jobs = Vec::new();
    for family in TenantFamily::ALL {
        let scenario = TenantScenarioGenerator::new(family, 2, 5, 4).scenario(3, 0);
        let tenants = scenario
            .tenants
            .iter()
            .map(|spec| {
                let prepared = Arc::new(PreparedInstance::new(
                    spec.app.clone(),
                    scenario.platform.clone(),
                ));
                let tenant = Tenant::new(prepared).weight(spec.weight);
                match spec.slo {
                    Some(slo) => tenant.slo(slo),
                    None => tenant,
                }
            })
            .collect();
        let set = Arc::new(TenantSet::new(tenants).expect("valid tenant set"));
        for objective in PartitionObjective::ALL {
            jobs.push((Arc::clone(&set), objective));
        }
    }
    jobs
}

fn tenant_batch(opts: ShardOptions) -> Vec<String> {
    let answers = sharded_map_items_with(tenant_jobs(), opts, SolveWorkspace::new, |ws, job| {
        job.0.co_schedule(job.1, &CoSchedOptions::default(), ws)
    });
    answers
        .iter()
        .enumerate()
        .map(|(i, a)| match a {
            Ok(sched) => format_report(&sched.to_wire(i as u64)),
            Err(err) => format!("{err}"),
        })
        .collect()
}

fn tenant_one_shot() -> Vec<String> {
    let lines: Vec<String> = tenant_jobs()
        .iter()
        .enumerate()
        .map(|(i, (set, objective))| {
            let sched = set
                .co_schedule(
                    *objective,
                    &CoSchedOptions::default(),
                    &mut SolveWorkspace::new(),
                )
                .expect("co-schedule succeeds");
            format_report(&sched.to_wire(i as u64))
        })
        .collect();
    assert!(lines.iter().all(|l| l.contains("solver=cosched")));
    lines
}

/// Asserts that `batch` at each thread count equals `reference`.
fn assert_batch_matches(
    batch: fn(ShardOptions) -> Vec<String>,
    reference: impl Fn() -> Vec<String>,
    threads: &[usize],
) {
    let expected = reference();
    for &t in threads {
        assert_eq!(
            batch(ShardOptions::with_threads(t)),
            expected,
            "threads={t}"
        );
    }
}

#[test]
fn batch_output_is_bit_identical_across_thread_counts() {
    assert_batch_matches(
        solve_batch,
        || solve_batch(ShardOptions::with_threads(1)),
        &[2, 4],
    );
}

#[test]
fn batch_answers_match_one_shot_solves() {
    assert_batch_matches(solve_batch, solve_one_shot, &[1, 3]);
}

#[test]
fn delta_batch_is_bit_identical_across_thread_counts_and_to_scratch() {
    assert_batch_matches(delta_batch, delta_scratch, &[1, 2, 4]);
}

#[test]
fn tenant_batch_is_bit_identical_across_thread_counts() {
    assert_batch_matches(tenant_batch, tenant_one_shot, &[1, 2, 4]);
}
