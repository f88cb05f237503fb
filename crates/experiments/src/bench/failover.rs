//! `bench failover`: fault recovery. The warm-started replan
//! (`core::replan` riding `PreparedInstance::apply_in`) against a full
//! re-prepare-and-solve from scratch on the degraded platform, for a
//! speed drift and a fail-stop at each size. The two paths are asserted
//! bit-identical before any timing is trusted.

use std::time::Instant;

use pipeline_core::replan::{replan, DetectedFault};
use pipeline_core::service::{PreparedInstance, SolveRequest};
use pipeline_core::{Objective, SolveWorkspace, Strategy};
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator, ScenarioParams};

use super::{Bench, Gate, Json, Opts, Rule};

/// Timing: each case's warm-vs-scratch speedup must stay within 75% of
/// the baseline's same-(n, fault) case. The straggler drift is the reuse
/// story, so the warm path must also beat scratch outright; the
/// bottleneck loss cannot reuse trajectories (they consulted the lost
/// processor), so it is held to "not meaningfully slower". Quality: the
/// post-fault period ratio is deterministic, so its emitted decimals
/// must match the baseline exactly.
pub(super) const BENCH: Bench = Bench {
    name: "failover",
    run,
    gates: &[
        Gate {
            rows: "cases",
            key: &["n", "fault"],
            metric: "speedup",
            rule: Rule::RelFloor {
                tol: 0.75,
                hard: |row| match row.get("fault").and_then(Json::text) {
                    Some("drift-straggler") => 1.0,
                    _ => 0.7,
                },
            },
            complete: false,
        },
        Gate {
            rows: "cases",
            key: &["n", "fault"],
            metric: "period_ratio",
            rule: Rule::Exact,
            complete: false,
        },
    ],
};

fn run(opts: &Opts) -> Result<Json, String> {
    // Quick mode runs the one size the acceptance gate cares about; the
    // full run brackets it.
    let sizes: &[usize] = if opts.quick { &[120] } else { &[60, 120, 240] };
    let reps = 3usize;
    let family = ScenarioFamily::from_label("heavy-tail").expect("registered family");
    let request = SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll);

    let mut rows = Vec::new();
    for &n in sizes {
        // Half as many processors as stages: spare capacity, so a lost
        // processor is survivable and a re-plan has somewhere to go.
        let p = (n / 2).max(2);
        let gen = ScenarioGenerator::new(ScenarioParams::preset(family, n, p));
        let (app, pf) = gen.instance(2007, 0);
        let prepared = PreparedInstance::new(app.clone(), pf.clone());
        let mut ws = SolveWorkspace::new();
        let incumbent = prepared
            .solve_in(&request, &mut ws)
            .map_err(|e| format!("incumbent solve failed: {e}"))?
            .result;
        // Two victims, two stories. The *straggler* (slowest processor)
        // drifting is the common fleet event: it sits outside the
        // speed-order prefix the recorded trajectories consulted, so the
        // warm path re-solves on carried artifacts while scratch
        // re-records everything — the reuse case `apply_in` exists for.
        // The *bottleneck* (processor owning the longest cycle)
        // fail-stopping is the hard case: the artifacts consulted the
        // lost processor, reuse is structurally impossible, and the warm
        // path must merely not lose to scratch.
        let bottleneck = {
            let cm = prepared.cost_model();
            let cycles = (0..incumbent.mapping.n_intervals())
                .map(|j| (j, cm.cycle_time(&incumbent.mapping, j)));
            let (j, _) = cycles.fold((0, f64::NEG_INFINITY), |a, b| if b.1 > a.1 { b } else { a });
            incumbent.mapping.proc_of(j)
        };
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
            let mut warm_secs = f64::INFINITY;
            let mut scratch_secs = f64::INFINITY;
            let mut report = None;
            for _ in 0..reps {
                // Warm path: the incumbent's prepared instance and
                // workspace carry their artifacts through `apply_in`.
                let t0 = Instant::now();
                let (_, rep) = replan(&prepared, &incumbent.mapping, &fault, &request, &mut ws)
                    .map_err(|e| format!("replan failed: {e}"))?;
                warm_secs = warm_secs.min(t0.elapsed().as_secs_f64());

                // Scratch path: same degraded instance, but a full
                // preparation and a cold workspace.
                let delta = fault.to_delta(prepared.platform()).expect("valid fault");
                let t0 = Instant::now();
                let (app2, pf2) = delta
                    .apply_to(&app, &pf)
                    .map_err(|e| format!("delta rejected: {e}"))?;
                let scratch = PreparedInstance::new(app2, pf2)
                    .solve_in(&request, &mut SolveWorkspace::new())
                    .map_err(|e| format!("scratch solve failed: {e}"))?
                    .result;
                scratch_secs = scratch_secs.min(t0.elapsed().as_secs_f64());

                assert_eq!(
                    rep.resolved_period.to_bits(),
                    scratch.period.to_bits(),
                    "warm replan must match the scratch solve bit for bit (n={n}, {label})"
                );
                report = Some(rep);
            }
            let rep = report.expect("at least one rep ran");
            let speedup = scratch_secs / warm_secs;
            let period_ratio = rep.period_after / rep.period_nominal;
            let rideout = rep.period_before / rep.period_nominal;
            rows.push(Json::obj([
                ("n", Json::num(n)),
                ("p", Json::num(p)),
                ("fault", label.into()),
                ("warm_ms", Json::fixed(warm_secs * 1e3, 3)),
                ("scratch_ms", Json::fixed(scratch_secs * 1e3, 3)),
                ("speedup", Json::fixed(speedup, 2)),
                ("period_ratio", Json::fixed(period_ratio, 6)),
                (
                    "rideout_ratio",
                    if rideout.is_finite() {
                        Json::fixed(rideout, 6)
                    } else {
                        "inf".into()
                    },
                ),
                ("migration", Json::num(rep.migration_distance)),
                ("adopted", Json::Bool(rep.adopted)),
            ]));
        }
    }

    Ok(Json::obj([
        ("bench", "failover".into()),
        (
            "config",
            Json::obj([
                ("quick", Json::Bool(opts.quick)),
                ("family", "heavy-tail".into()),
                ("reps", Json::num(reps)),
                ("strategy", "best-of-all".into()),
            ]),
        ),
        ("cases", Json::Arr(rows)),
    ]))
}
