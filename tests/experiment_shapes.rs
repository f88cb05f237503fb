//! Reduced-scale runs of the experiment harness asserting the paper's
//! qualitative findings (Section 5.2). The `figures` and `table1`
//! binaries print the full-scale numbers; these tests pin the *shapes*
//! under `cargo test`.

use pipeline_workflows::core::HeuristicKind;
use pipeline_workflows::experiments::sweep::run_scenario;
use pipeline_workflows::experiments::table::failure_thresholds;
use pipeline_workflows::model::generator::{ExperimentKind, InstanceParams};
use pipeline_workflows::model::scenario::ScenarioFamily;

const SEED: u64 = 2007;
const INSTANCES: usize = 12; // reduced from the paper's 50 for test speed
const GRID: usize = 10;
const THREADS: usize = 4;

#[test]
fn h5_and_h6_failure_thresholds_coincide_in_every_regime() {
    // Paper §5.2.1: "Surprisingly the failure thresholds (for fixed
    // latencies) of the heuristics Sp mono L and Sp bi L are the same."
    for kind in ExperimentKind::ALL {
        for n in [5, 20] {
            let t =
                failure_thresholds(InstanceParams::paper(kind, n, 10), SEED, INSTANCES, THREADS);
            assert_eq!(t[4], t[5], "{kind} n={n}: H5 vs H6 thresholds differ");
        }
    }
}

#[test]
fn sp_mono_p_has_the_smallest_period_threshold_on_average() {
    // Paper: "Sp mono P has the smallest failure thresholds". Averaged
    // over regimes to keep the reduced-scale test robust.
    let mut h1_sum = 0.0;
    let mut others_min_sum = 0.0;
    for kind in ExperimentKind::ALL {
        let t = failure_thresholds(
            InstanceParams::paper(kind, 20, 10),
            SEED,
            INSTANCES,
            THREADS,
        );
        // Normalize by H1 so regimes weigh equally.
        h1_sum += 1.0;
        others_min_sum += t[1].min(t[2]).min(t[3]) / t[0];
    }
    assert!(
        others_min_sum >= h1_sum * 0.98,
        "H1 should be the tightest on average: ratio {others_min_sum}/{h1_sum}"
    );
}

#[test]
fn fixed_latency_heuristics_always_feasible_at_generous_budgets() {
    let fam = run_scenario(
        &ScenarioFamily::E1.params(10, 10),
        SEED,
        INSTANCES,
        GRID,
        THREADS,
    );
    for s in fam.series.iter().filter(|s| !s.kind.is_period_fixed()) {
        let last = s.points.last().expect("grid has points");
        assert_eq!(
            last.n_feasible, last.n_total,
            "{}: generous latency budget must be universally feasible",
            s.kind
        );
    }
}

#[test]
fn period_fixed_curves_slope_downward() {
    // The latency-vs-period trade-off: tighter period targets cost
    // latency. Check the fully-feasible region of the H1 curve is
    // non-increasing in the target.
    let fam = run_scenario(
        &ScenarioFamily::E2.params(20, 10),
        SEED,
        INSTANCES,
        GRID,
        THREADS,
    );
    let h1 = fam
        .series
        .iter()
        .find(|s| s.kind == HeuristicKind::SpMonoP)
        .unwrap();
    let full: Vec<_> = h1
        .points
        .iter()
        .filter(|p| p.n_feasible == p.n_total)
        .collect();
    assert!(full.len() >= 2, "need a fully-feasible region");
    for w in full.windows(2) {
        assert!(
            w[1].mean_latency <= w[0].mean_latency + 1e-9,
            "H1 latency must not increase with looser targets: {} → {}",
            w[0].mean_latency,
            w[1].mean_latency
        );
    }
}

#[test]
fn more_processors_shift_every_curve_left_and_down() {
    // Paper §5.2.2: "both periods and latencies are lower with the
    // increasing number of processors".
    let small = run_scenario(
        &ScenarioFamily::E1.params(20, 10),
        SEED,
        INSTANCES,
        GRID,
        THREADS,
    );
    let large = run_scenario(
        &ScenarioFamily::E1.params(20, 100),
        SEED,
        INSTANCES,
        GRID,
        THREADS,
    );
    assert!(
        large.stats.mean_best_floor < small.stats.mean_best_floor,
        "p = 100 must reach lower periods: {} vs {}",
        large.stats.mean_best_floor,
        small.stats.mean_best_floor
    );
    // Landmark sanity: the initial period does not depend on p (same
    // instances except platform size), but floors do.
    assert!(large.stats.mean_best_floor <= large.stats.mean_p_init);
}

#[test]
fn bi_criteria_heuristics_improve_relative_standing_at_p100() {
    // Paper §5.2.3: bi-criteria heuristics become competitive on large
    // platforms. Compare 3-Explo bi's floor to 3-Explo mono's at both
    // sizes: the bi variant must close (or reverse) the gap at p = 100.
    let floors = |p: usize| {
        let fam = run_scenario(
            &ScenarioFamily::E1.params(40, p),
            SEED,
            INSTANCES,
            GRID,
            THREADS,
        );
        let floor = |k: HeuristicKind| {
            fam.series
                .iter()
                .find(|s| s.kind == k)
                .and_then(|s| s.points.first())
                .map(|pt| pt.target)
                .unwrap_or(f64::NAN)
        };
        (
            floor(HeuristicKind::ThreeExploMono),
            floor(HeuristicKind::ThreeExploBi),
        )
    };
    let (mono10, bi10) = floors(10);
    let (mono100, bi100) = floors(100);
    let gap10 = bi10 / mono10;
    let gap100 = bi100 / mono100;
    assert!(
        gap100 <= gap10 * 1.05,
        "3-Explo bi must close the floor gap at p=100: ratio {gap10:.3} → {gap100:.3}"
    );
}
