//! `bench tenant`: the multi-tenant co-scheduler (`core::tenancy`). The
//! quality section runs the heuristic partitioner and the exact oracle
//! over a fixed grid of tenant-zoo cases (every family × every
//! objective) and reports, per (family, objective), the mean
//! exact-vs-heuristic score ratio — 1.0 means the heuristic found an
//! optimal partition on every case. The grid is deterministic and the
//! same in quick and full runs; only the informational throughput
//! section (batched `co_schedule` jobs/sec by thread count) shrinks under
//! `--quick`.

use std::sync::Arc;
use std::time::Instant;

use pipeline_core::service::PreparedInstance;
use pipeline_core::tenancy::{CoSchedOptions, PartitionObjective, Tenant, TenantSet};
use pipeline_core::SolveWorkspace;
use pipeline_model::scenario::{TenantFamily, TenantScenarioGenerator};
use pipeline_model::util::{approx_eq, approx_le};

use super::{Bench, Gate, Json, Opts, Rule};
use crate::{sharded_map_items_with, ShardOptions};

/// Every (family, objective) mean ratio may drop at most 0.05 below the
/// baseline.
pub(super) const BENCH: Bench = Bench {
    name: "tenant",
    run,
    gates: &[Gate {
        rows: "quality",
        key: &["family", "objective"],
        metric: "mean_ratio",
        rule: Rule::AbsFloor(0.05),
        complete: true,
    }],
};

fn run(opts: &Opts) -> Result<Json, String> {
    // Small enough for the exact oracle (K^p assignments), big enough
    // that the heuristic has real choices to get wrong.
    let cases = [(2usize, 5usize, 4usize), (3, 6, 5)]; // (K, n_base, p)
    let build_set = |family: TenantFamily, (tenants, n_base, p): (usize, usize, usize)| {
        let scenario = TenantScenarioGenerator::new(family, tenants, n_base, p).scenario(2007, 0);
        let ts = scenario
            .tenants
            .iter()
            .map(|spec| {
                let prepared = PreparedInstance::new(spec.app.clone(), scenario.platform.clone());
                let tenant = Tenant::new(Arc::new(prepared)).weight(spec.weight);
                match spec.slo {
                    Some(slo) => tenant.slo(slo),
                    None => tenant,
                }
            })
            .collect();
        TenantSet::new(ts)
            .map(Arc::new)
            .map_err(|e| format!("tenant zoo produced an invalid set: {e}"))
    };

    // Quality: heuristic vs exact on every (family, objective), mean
    // score ratio over the case grid. The comparison mirrors the
    // lexicographic (score, tiebreak) order the co-scheduler optimizes:
    // equal scores fall through to the tiebreak ratio.
    let opts_cs = CoSchedOptions::default();
    let mut ws = SolveWorkspace::new();
    let mut quality = Vec::new();
    for family in TenantFamily::ALL {
        for objective in PartitionObjective::ALL {
            let fail = |what: &str, e: &dyn std::fmt::Display| {
                format!("{what} failed ({family}/{objective}): {e}")
            };
            let mut ratio_sum = 0.0f64;
            let mut front_hv_sum = 0.0f64;
            for case in cases {
                let set = build_set(family, case)?;
                let heur = set
                    .co_schedule(objective, &opts_cs, &mut ws)
                    .map_err(|e| fail("heuristic co-schedule", &e))?;
                let exact = set
                    .co_schedule_exact(objective, &opts_cs, &mut ws)
                    .map_err(|e| fail("exact co-schedule", &e))?;
                ratio_sum += if !approx_eq(heur.score, exact.score) {
                    exact.score / heur.score
                } else if approx_le(heur.tiebreak, exact.tiebreak) || heur.tiebreak == 0.0 {
                    1.0
                } else {
                    exact.tiebreak / heur.tiebreak
                };
                // Informational: mean per-tenant front hypervolume on the
                // heuristic partition, referenced at twice each front's
                // own extent (scale-free across heterogeneous tenants).
                let partition: Vec<Vec<usize>> =
                    heur.tenants.iter().map(|t| t.procs.clone()).collect();
                let fronts = set
                    .tenant_fronts(&partition, &opts_cs, &mut ws)
                    .map_err(|e| fail("tenant_fronts", &e))?;
                let mut hv = 0.0f64;
                for front in &fronts {
                    let ref_p = front.iter().map(|(p, _, _)| p).fold(0.0f64, f64::max) * 2.0;
                    let ref_l = front.iter().map(|(_, l, _)| l).fold(0.0f64, f64::max) * 2.0;
                    hv += front.hypervolume(ref_p, ref_l);
                }
                front_hv_sum += hv / fronts.len() as f64;
            }
            let mean_ratio = ratio_sum / cases.len() as f64;
            let mean_front_hv = front_hv_sum / cases.len() as f64;
            quality.push(Json::obj([
                ("family", family.label().into()),
                ("objective", objective.label().into()),
                ("mean_ratio", Json::fixed(mean_ratio, 4)),
                ("mean_front_hv", Json::fixed(mean_front_hv, 4)),
            ]));
        }
    }

    // Throughput (informational, not gated): the same co-schedules as
    // batch jobs through the sharded engine, repeated enough to time.
    let reps = if opts.quick { 2usize } else { 8 };
    let mut throughput = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut jobs = Vec::new();
        for _ in 0..reps {
            for family in TenantFamily::ALL {
                for case in cases {
                    let set = build_set(family, case)?;
                    for objective in PartitionObjective::ALL {
                        jobs.push((Arc::clone(&set), objective));
                    }
                }
            }
        }
        let n_jobs = jobs.len();
        let t0 = Instant::now();
        let answers = sharded_map_items_with(
            jobs,
            ShardOptions::with_threads(threads),
            SolveWorkspace::new,
            |ws, (set, objective)| set.co_schedule(objective, &CoSchedOptions::default(), ws),
        );
        let secs = t0.elapsed().as_secs_f64();
        let failures = answers.iter().filter(|a| a.is_err()).count();
        if failures > 0 {
            return Err(format!("{failures} tenant batch jobs failed"));
        }
        let jps = n_jobs as f64 / secs;
        throughput.push(Json::obj([
            ("threads", Json::num(threads)),
            ("jobs", Json::num(n_jobs)),
            ("jobs_per_sec", Json::fixed(jps, 1)),
        ]));
    }

    Ok(Json::obj([
        ("bench", "tenant".into()),
        (
            "config",
            Json::obj([
                ("quick", Json::Bool(opts.quick)),
                ("families", Json::num(TenantFamily::ALL.len())),
                ("objectives", Json::num(PartitionObjective::ALL.len())),
                ("cases", Json::num(cases.len())),
                ("throughput_reps", Json::num(reps)),
            ]),
        ),
        ("quality", Json::Arr(quality)),
        ("throughput", Json::Arr(throughput)),
    ]))
}
