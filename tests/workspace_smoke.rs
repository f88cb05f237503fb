//! Workspace smoke test: every heuristic, the exact solver and the
//! bounds module agree on one small shared instance. This is the
//! cheapest end-to-end crossing of the whole crate graph (model → core
//! → assign/chains) and is meant to fail loudly if any re-export or
//! cross-crate API drifts.

use pipeline_workflows::core::{bounds, exact, HeuristicKind, SolveWorkspace};
use pipeline_workflows::model::{Application, CostModel, Platform};

const EPS: f64 = 1e-9;

fn shared_instance() -> (Application, Platform) {
    let app = Application::new(
        vec![9.0, 14.0, 4.0, 11.0, 6.0],    // w_1..w_5
        vec![3.0, 5.0, 2.0, 4.0, 1.0, 2.0], // δ_0..δ_5
    )
    .expect("valid application");
    let platform =
        Platform::comm_homogeneous(vec![6.0, 11.0, 3.0, 8.0], 12.0).expect("valid platform");
    (app, platform)
}

#[test]
fn all_heuristics_and_exact_agree_on_invariants() {
    let mut ws = SolveWorkspace::new();
    let (app, platform) = shared_instance();
    let cm = CostModel::new(&app, &platform);

    let l_bound = bounds::latency_lower_bound(&cm);
    let p_bound = bounds::period_lower_bound(&cm, 10_000).value;
    let (p_exact, exact_mapping) = exact::exact_min_period_in(&cm, &mut ws);
    assert!(p_exact > 0.0 && p_exact.is_finite());
    assert!(
        p_exact >= p_bound - EPS,
        "exact period {p_exact} beats its own lower bound {p_bound}"
    );
    let (pe, le) = cm.evaluate(&exact_mapping);
    assert!((pe - p_exact).abs() < EPS, "exact mapping period mismatch");
    assert!(
        le >= l_bound - EPS,
        "exact mapping latency below Lemma-1 bound"
    );

    let p_single = cm.single_proc_period();
    for kind in HeuristicKind::ALL {
        // A generous budget every heuristic can meet on this instance.
        let target = if kind.is_period_fixed() {
            0.8 * p_single
        } else {
            3.0 * l_bound
        };
        let r = kind.run_in(&cm, target, &mut ws);
        assert!(
            r.feasible,
            "{} infeasible under a loose budget",
            kind.table_name()
        );

        // Heuristics cannot beat the exact minimal period or Lemma 1.
        assert!(
            r.period >= p_exact - EPS,
            "{}: period {} below exact optimum {}",
            kind.table_name(),
            r.period,
            p_exact
        );
        assert!(
            r.latency >= l_bound - EPS,
            "{}: latency {} below Lemma-1 bound {}",
            kind.table_name(),
            r.latency,
            l_bound
        );

        // The reported metrics match a from-scratch evaluation of the
        // mapping the heuristic returned.
        let (p, l) = cm.evaluate(&r.mapping);
        assert!(
            (p - r.period).abs() < EPS,
            "{}: stale period",
            kind.table_name()
        );
        assert!(
            (l - r.latency).abs() < EPS,
            "{}: stale latency",
            kind.table_name()
        );

        // And the constraint actually holds.
        if kind.is_period_fixed() {
            assert!(
                r.period <= target + EPS,
                "{}: period budget violated",
                kind.table_name()
            );
        } else {
            assert!(
                r.latency <= target + EPS,
                "{}: latency budget violated",
                kind.table_name()
            );
        }
    }
}
