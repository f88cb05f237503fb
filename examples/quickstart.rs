//! Quickstart: map a small pipeline, inspect both metrics, try every
//! heuristic.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pipeline_workflows::core::{HeuristicKind, SolveWorkspace, SpBiPOptions};
use pipeline_workflows::model::{Application, CostModel, Platform};

fn main() {
    // A 6-stage pipeline. Stage k performs w_k operations, reading
    // δ_{k-1} and writing δ_k data units.
    let app = Application::new(
        vec![14.0, 6.0, 25.0, 9.0, 18.0, 7.0],
        vec![5.0, 3.0, 8.0, 2.0, 6.0, 4.0, 5.0],
    )
    .expect("valid application");

    // A small lab cluster: eight workstations of different speeds behind
    // one switch (Communication Homogeneous, b = 10).
    let platform =
        Platform::comm_homogeneous(vec![12.0, 3.0, 7.0, 18.0, 5.0, 9.0, 2.0, 15.0], 10.0)
            .expect("valid platform");

    let cm = CostModel::new(&app, &platform);
    println!(
        "pipeline: {} stages, total work {:.1}",
        app.n_stages(),
        app.total_work()
    );
    println!(
        "platform: {} processors, speeds {:?}",
        platform.n_procs(),
        platform.speeds()
    );

    // Lemma 1: the latency-optimal mapping puts everything on the fastest
    // processor — but its period is poor.
    let l_opt = cm.optimal_latency();
    let p_single = cm.single_proc_period();
    println!("\nLemma-1 mapping: latency {l_opt:.3} (optimal), period {p_single:.3}");

    // Ask each heuristic for a 2× throughput improvement (period ≤ half
    // the single-processor period), or a 2× latency budget for the
    // latency-fixed ones.
    println!(
        "\n{:<16} {:>9} {:>9} {:>9}  mapping",
        "heuristic", "feasible", "period", "latency"
    );
    let mut ws = SolveWorkspace::new();
    for kind in HeuristicKind::ALL {
        let target = if kind.is_period_fixed() {
            0.5 * p_single
        } else {
            2.0 * l_opt
        };
        let res = kind.run_in(&cm, target, &mut ws);
        println!(
            "{:<16} {:>9} {:>9.3} {:>9.3}  {}",
            kind.label(),
            res.feasible,
            res.period,
            res.latency,
            res.mapping
        );
    }

    // H3 exposes its binary-search knobs.
    let custom = pipeline_workflows::core::sp_bi_p_in(
        &cm,
        0.5 * p_single,
        SpBiPOptions {
            search_iters: 50,
            ..SpBiPOptions::default()
        },
        &mut ws,
    );
    println!(
        "\nSp bi P with 50 search iterations: period {:.3}, latency {:.3}",
        custom.period, custom.latency
    );

    // Exact optimum for reference (exponential — fine at n = 6).
    let (p_exact, best) = pipeline_workflows::core::exact::exact_min_period_in(&cm, &mut ws);
    println!("exact minimal period: {p_exact:.3} via {best}");
}
