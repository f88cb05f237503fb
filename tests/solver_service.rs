//! Acceptance tests of the solver-service API v1: Pareto-front
//! invariants, bit-identical re-queries and batched solving, solver-name
//! round-trips, and the `pwsched solve --stdin` wire service against its
//! committed golden report.

use std::sync::Arc;

use pipeline_workflows::core::service::{
    encode_mapping, PreparedInstance, SolveError, SolveRequest, SolverId,
};
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::core::{exact, HeuristicKind, Objective, Strategy};
use pipeline_workflows::experiments::{solve_batch, BatchJob, ShardOptions};
use pipeline_workflows::model::io::format_report;
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};
use proptest::prelude::*;

const EPS: f64 = 1e-9;

fn all_kinds() -> impl Iterator<Item = HeuristicKind> {
    HeuristicKind::ALL
        .into_iter()
        .chain([HeuristicKind::HeteroSplit])
}

#[test]
fn pareto_front_queries_match_the_exact_front_on_small_instances() {
    for family in ScenarioFamily::ALL
        .into_iter()
        .filter(|f| f.comm_homogeneous())
    {
        let gen = ScenarioGenerator::new(family.params(8, 5));
        for index in 0..2 {
            let (app, pf) = gen.instance(17, index);
            let session = PreparedInstance::new(app, pf);
            let report = session
                .solve(&SolveRequest::new(Objective::ParetoFront))
                .expect("auto routes n=8 to exact");
            assert_eq!(report.solver, SolverId::Exact, "{family} #{index}");
            let front = report.front.expect("front materialized");
            let reference =
                exact::exact_pareto_front_in(&session.cost_model(), &mut SolveWorkspace::new());
            assert_eq!(front.len(), reference.len(), "{family} #{index}");
            for (got, want) in front.iter().zip(reference.iter()) {
                assert_eq!(got.0.to_bits(), want.0.to_bits());
                assert_eq!(got.1.to_bits(), want.1.to_bits());
            }
        }
    }
}

#[test]
fn pareto_front_points_are_sorted_and_mutually_non_dominated() {
    // Every family (heterogeneous included) and both front strategies.
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(family.params(12, 6));
        let (app, pf) = gen.instance(5, 0);
        let session = PreparedInstance::new(app, pf);
        let report = session
            .solve(&SolveRequest::new(Objective::ParetoFront).strategy(Strategy::BestOfAll))
            .expect("trajectory union always exists");
        let front = report.front.expect("front materialized");
        assert!(!front.is_empty(), "{family}");
        for w in front.periods().windows(2) {
            assert!(w[0] < w[1], "{family}: front not sorted");
        }
        for w in front.latencies().windows(2) {
            assert!(w[0] > w[1], "{family}: dominated point survived");
        }
        // The representative result is the min-period endpoint and its
        // mapping evaluates to the reported coordinates.
        let best_period = front.periods()[0];
        assert_eq!(report.result.period.to_bits(), best_period.to_bits());
        let (p, l) = session.cost_model().evaluate(&report.result.mapping);
        assert!((p - report.result.period).abs() < EPS, "{family}");
        assert!((l - report.result.latency).abs() < EPS, "{family}");
    }
}

#[test]
fn heuristic_fronts_never_dominate_the_exact_front() {
    let gen = ScenarioGenerator::new(ScenarioFamily::E2.params(8, 5));
    let (app, pf) = gen.instance(29, 0);
    let session = PreparedInstance::new(app, pf);
    let exact_front =
        exact::exact_pareto_front_in(&session.cost_model(), &mut SolveWorkspace::new());
    let report = session
        .solve(&SolveRequest::new(Objective::ParetoFront).strategy(Strategy::BestOfAll))
        .expect("heuristic front");
    for (period, latency, _) in report.front.expect("front").iter() {
        assert!(
            exact_front.dominated(period + EPS, latency + EPS),
            "heuristic point ({period}, {latency}) dominates the exact front"
        );
    }
}

#[test]
fn prepared_re_queries_are_bit_identical_to_fresh_solves() {
    let gen = ScenarioGenerator::new(ScenarioFamily::HeavyTail.params(14, 8));
    let (app, pf) = gen.instance(3, 0);
    let session = PreparedInstance::new(app.clone(), pf.clone());
    let floor = session.best_period_floor();
    let requests = [
        SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll),
        SolveRequest::new(Objective::MinLatencyForPeriod(1.02 * floor))
            .strategy(Strategy::BestOfAll),
        SolveRequest::new(Objective::MinPeriodForLatency(
            2.0 * session.optimal_latency(),
        ))
        .strategy(Strategy::BestOfAll),
    ];
    for request in &requests {
        let fresh = PreparedInstance::new(app.clone(), pf.clone())
            .solve(request)
            .expect("solvable");
        for _ in 0..2 {
            let again = session.solve(request).expect("solvable");
            assert_eq!(again.solver, fresh.solver);
            assert_eq!(again.result.period.to_bits(), fresh.result.period.to_bits());
            assert_eq!(
                again.result.latency.to_bits(),
                fresh.result.latency.to_bits()
            );
            assert_eq!(
                encode_mapping(&again.result.mapping),
                encode_mapping(&fresh.result.mapping)
            );
        }
    }
}

#[test]
fn solve_batch_is_bit_identical_across_thread_counts() {
    let jobs = || {
        let mut jobs = Vec::new();
        for family in [ScenarioFamily::E1, ScenarioFamily::TwoTier] {
            let gen = ScenarioGenerator::new(family.params(10, 6));
            for index in 0..3 {
                let (app, pf) = gen.instance(41, index);
                let prepared = Arc::new(PreparedInstance::new(app, pf));
                let p0 = prepared.single_proc_period();
                for request in [
                    SolveRequest::new(Objective::MinPeriod),
                    SolveRequest::new(Objective::MinLatencyForPeriod(0.8 * p0))
                        .strategy(Strategy::BestOfAll),
                    SolveRequest::new(Objective::ParetoFront).strategy(Strategy::BestOfAll),
                ] {
                    jobs.push(BatchJob::new(Arc::clone(&prepared), request));
                }
            }
        }
        jobs
    };
    let canon =
        |answers: Vec<Result<pipeline_workflows::core::SolveReport, SolveError>>| -> Vec<String> {
            answers
                .iter()
                .enumerate()
                .map(|(i, a)| match a {
                    Ok(report) => format_report(&report.to_wire(i as u64)),
                    Err(err) => format_report(&err.to_wire(i as u64)),
                })
                .collect()
        };
    let reference = canon(solve_batch(jobs(), ShardOptions::with_threads(1)));
    assert_eq!(reference.len(), 18);
    for threads in [2, 4] {
        let got = canon(solve_batch(jobs(), ShardOptions::with_threads(threads)));
        assert_eq!(got, reference, "threads={threads}");
    }
}

#[test]
fn infeasible_bounds_report_a_floor_that_re_solves() {
    for family in [ScenarioFamily::E3, ScenarioFamily::CommDominant] {
        let gen = ScenarioGenerator::new(family.params(10, 6));
        let (app, pf) = gen.instance(11, 0);
        let session = PreparedInstance::new(app, pf);
        let request = SolveRequest::new(Objective::MinLatencyForPeriod(
            0.01 * session.best_period_floor(),
        ))
        .strategy(Strategy::BestOfAll);
        match session.solve(&request) {
            Err(SolveError::BoundBelowFloor { floor, .. }) => {
                let retry = SolveRequest::new(Objective::MinLatencyForPeriod(floor))
                    .strategy(Strategy::BestOfAll);
                let report = session
                    .solve(&retry)
                    .unwrap_or_else(|e| panic!("{family}: floor {floor} did not re-solve: {e}"));
                assert!(report.result.period <= floor + EPS, "{family}");
            }
            other => panic!("{family}: expected BoundBelowFloor, got {other:?}"),
        }
    }
}

#[test]
fn wire_service_matches_the_committed_golden_report() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let requests = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/service_requests.txt"
    ))
    .expect("fixture present");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/service_reports.golden"
    ))
    .expect("golden present");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pwsched"))
        .args([
            "solve",
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/service_instance.pw"
            ),
            "--stdin",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("pwsched spawns");
    child
        .stdin
        .take()
        .expect("piped")
        .write_all(requests.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("pwsched exits");
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), golden);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `HeuristicKind` name round-trips through `FromStr`, from any
    /// of its spellings and regardless of case.
    #[test]
    fn prop_heuristic_names_round_trip(idx in 0usize..7, spelling in 0usize..3, case in 0usize..2) {
        let kind = all_kinds().nth(idx).expect("7 kinds");
        let name = match spelling {
            0 => kind.to_string(),              // Display == label
            1 => kind.table_name().to_string(), // h1..h7
            _ => kind.slug().to_string(),       // kebab-case
        };
        let name = if case == 1 { name.to_ascii_uppercase() } else { name };
        prop_assert_eq!(name.parse::<HeuristicKind>().unwrap(), kind);
        // And through the Strategy/SolverId selectors built on top.
        prop_assert_eq!(name.parse::<Strategy>().unwrap(), Strategy::Heuristic(kind));
        prop_assert_eq!(name.parse::<SolverId>().unwrap(), SolverId::Heuristic(kind));
    }
}
