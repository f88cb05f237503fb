//! Differential acceptance of the incremental re-solve path:
//! [`PreparedInstance::apply`] must be observation-equivalent — bitwise,
//! via the wire encoding of every answer — to preparing the edited
//! instance from scratch, for every scenario-zoo family crossed with
//! every delta kind. An identity delta must reproduce the original
//! session's answers byte for byte (the carried caches answer verbatim).
//! A chained update stream, each edit applied to the previous edit's
//! session, must keep answering as scratch does at every step.

use pipeline_workflows::core::service::{PreparedInstance, SolveRequest};
use pipeline_workflows::core::{HeuristicKind, Objective, SolveWorkspace, Strategy};
use pipeline_workflows::model::io::format_report;
use pipeline_workflows::model::scenario::{
    DriftFamily, DriftGenerator, ScenarioFamily, ScenarioGenerator,
};
use pipeline_workflows::model::{InstanceDelta, LinkModel};

/// The wire lines of a fixed query battery — solver choice, coordinates,
/// mapping, front, and error codes all captured with round-trip float
/// formatting, so equality here is bitwise equality of everything a
/// client can observe.
fn observations(inst: &PreparedInstance, ws: &mut SolveWorkspace) -> Vec<String> {
    let p0 = inst.single_proc_period();
    let l0 = inst.optimal_latency();
    let requests = [
        SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll),
        SolveRequest::new(Objective::MinLatency),
        SolveRequest::new(Objective::MinLatencyForPeriod(0.6 * p0)).strategy(Strategy::BestOfAll),
        SolveRequest::new(Objective::MinPeriodForLatency(2.0 * l0)).strategy(Strategy::BestOfAll),
        SolveRequest::new(Objective::ParetoFront),
    ];
    wire(inst, &requests, ws)
}

/// The wire lines of `requests` answered on `inst`.
fn wire(
    inst: &PreparedInstance,
    requests: &[SolveRequest],
    ws: &mut SolveWorkspace,
) -> Vec<String> {
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| match inst.solve_in(request, ws) {
            Ok(report) => format_report(&report.to_wire(i as u64)),
            Err(err) => format_report(&err.to_wire(i as u64)),
        })
        .collect()
}

/// Every delta kind, sized for the given instance. Kinds a platform
/// class rejects (shared bandwidth on heterogeneous links, per-link
/// bandwidth on comm-homogeneous ones, an out-of-range departure) stay
/// in the battery: both paths must reject them identically.
fn delta_battery(inst: &PreparedInstance) -> Vec<InstanceDelta> {
    let pf = inst.platform();
    let slowest = *pf.procs_by_speed_desc().last().expect("non-empty");
    let fastest = pf.fastest();
    let n = inst.app().n_stages();
    vec![
        InstanceDelta::ProcSpeed {
            proc: slowest,
            speed: 0.5 * pf.speed(slowest),
        },
        InstanceDelta::ProcSpeed {
            proc: fastest,
            speed: 2.0 * pf.speed(fastest),
        },
        // Identity: same proc, bit-identical speed.
        InstanceDelta::ProcSpeed {
            proc: fastest,
            speed: pf.speed(fastest),
        },
        InstanceDelta::ProcArrival { speed: 7.5 },
        InstanceDelta::ProcDeparture { proc: slowest },
        InstanceDelta::ProcDeparture {
            proc: pf.n_procs(), // out of range: rejected
        },
        InstanceDelta::Bandwidth { bandwidth: 3.25 },
        InstanceDelta::LinkBandwidth {
            from: 0,
            to: 1 % pf.n_procs(),
            bandwidth: 2.5,
        },
        InstanceDelta::StageWeight {
            stage: n / 2,
            work: 4.75,
        },
        InstanceDelta::StageWeight {
            stage: n, // out of range: rejected
            work: 1.0,
        },
    ]
}

#[test]
fn apply_matches_scratch_preparation_for_every_family_and_delta_kind() {
    let mut ws = SolveWorkspace::new();
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(family.params(10, 5));
        let (app, pf) = gen.instance(2007, 0);
        let base = PreparedInstance::new(app, pf);
        // Warm the base session so `apply` has caches worth carrying.
        let base_obs = observations(&base, &mut ws);
        for delta in delta_battery(&base) {
            let scratch = delta.apply_to(base.app(), base.platform());
            match base.apply_in(&delta, &mut ws) {
                Ok(applied) => {
                    let (app, pf) = scratch.unwrap_or_else(|e| {
                        panic!("{family}: apply_in accepted what apply_to rejects ({e}): {delta:?}")
                    });
                    let fresh = PreparedInstance::new(app, pf);
                    assert_eq!(
                        observations(&applied, &mut ws),
                        observations(&fresh, &mut ws),
                        "{family}: incremental answers drifted from scratch for {delta:?}"
                    );
                }
                Err(e) => {
                    assert_eq!(
                        scratch.expect_err("apply_in rejected what apply_to accepts"),
                        e,
                        "{family}: rejection reasons disagree for {delta:?}"
                    );
                }
            }
        }
        // After the whole battery the base session still answers exactly
        // as before — `apply` never mutates the instance it ran on.
        assert_eq!(
            observations(&base, &mut ws),
            base_obs,
            "{family}: apply mutated the base session"
        );
    }
}

#[test]
fn identity_deltas_preserve_answers_byte_for_byte() {
    let mut ws = SolveWorkspace::new();
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(family.params(12, 6));
        let (app, pf) = gen.instance(11, 0);
        let identity = match pf.links() {
            LinkModel::Homogeneous(b) => InstanceDelta::Bandwidth { bandwidth: *b },
            LinkModel::Heterogeneous { .. } => InstanceDelta::ProcSpeed {
                proc: 0,
                speed: pf.speed(0),
            },
        };
        let base = PreparedInstance::new(app, pf);
        let before = observations(&base, &mut ws);
        let same = base.apply_in(&identity, &mut ws).expect("identity applies");
        assert_eq!(
            observations(&same, &mut ws),
            before,
            "{family}: identity delta changed an answer"
        );
    }
}

/// Chains `count` updates of the speed-drift stream at `n` stages and
/// `p` processors (seed 2007) through `apply_in` on one workspace, and
/// checks that every step answers the trajectory-backed heuristics (H1,
/// H2a, H2b) at 0.8, 0.55 and 0.4 of the current single-processor
/// period exactly as a fresh preparation of that update does.
fn assert_drift_chain_answers_like_scratch(n: usize, p: usize, count: usize) {
    let queries = |inst: &PreparedInstance| -> Vec<SolveRequest> {
        let p0 = inst.single_proc_period();
        let mut requests = Vec::new();
        for f in [0.8, 0.55, 0.4] {
            for kind in [
                HeuristicKind::SpMonoP,
                HeuristicKind::ThreeExploMono,
                HeuristicKind::ThreeExploBi,
            ] {
                requests.push(
                    SolveRequest::new(Objective::MinLatencyForPeriod(f * p0))
                        .strategy(Strategy::Heuristic(kind)),
                );
            }
        }
        requests
    };
    let gen = DriftGenerator::new(DriftFamily::SpeedDrift, n, p);
    let (mut app, mut pf) = gen.initial(2007);
    let mut ws = SolveWorkspace::new();
    let mut cur = PreparedInstance::new(app.clone(), pf.clone());
    // Warm the base session so the first update has caches to carry.
    wire(&cur, &queries(&cur), &mut ws);
    for (step, delta) in gen.updates(2007, count).iter().enumerate() {
        cur = cur.apply_in(delta, &mut ws).expect("drift update applies");
        (app, pf) = delta.apply_to(&app, &pf).expect("drift update applies");
        let fresh = PreparedInstance::new(app.clone(), pf.clone());
        assert_eq!(
            wire(&cur, &queries(&cur), &mut ws),
            wire(&fresh, &queries(&fresh), &mut SolveWorkspace::new()),
            "n={n} p={p} update {step}: incremental answers drifted from scratch for {delta:?}"
        );
    }
}

/// 20 updates at n = p = 120. On this wide platform the drift never
/// reaches the speed-order prefix the trajectories consulted, so every
/// step answers from trajectories carried through the whole chain.
#[test]
fn a_chained_speed_drift_stream_answers_like_scratch_at_every_update() {
    assert_drift_chain_answers_like_scratch(120, 120, 20);
}

/// 20 updates at n = 30, p = 8, where the drifting processor sits in
/// and around the speed-order prefix the trajectories consulted: of the
/// 60 trajectory checks in `apply_in` along the chain, 42 re-record and
/// 18 carry. Carrying a trajectory that must be re-recorded changes an
/// answer at the first update already, so this stream fails if
/// `apply_in` carries unconditionally.
#[test]
fn a_speed_drift_stream_crossing_the_consulted_prefix_answers_like_scratch() {
    assert_drift_chain_answers_like_scratch(30, 8, 20);
}
