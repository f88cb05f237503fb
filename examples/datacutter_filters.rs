//! A DataCutter-style filtering chain (paper §6 related work): successive
//! filters over a very large data set, where communication dominates
//! computation — the regime of experiment E4 — plus the paper-§7
//! extensions: a fully heterogeneous network and deal-skeleton
//! replication when plain splitting hits its floor.
//!
//! ```text
//! cargo run --release --example datacutter_filters
//! ```

use pipeline_workflows::core::hetero::{hetero_sp_mono_p_in, HeteroSplitOptions};
use pipeline_workflows::core::replication::replicate_bottlenecks;
use pipeline_workflows::core::{sp_mono_p_in, SolveWorkspace};
use pipeline_workflows::model::{Application, CostModel, Platform};

fn main() {
    // Five filters progressively shrinking a 200 MB chunk; computation is
    // light relative to data movement.
    let app = Application::new(
        vec![20.0, 55.0, 35.0, 90.0, 15.0],
        vec![200.0, 160.0, 120.0, 60.0, 25.0, 10.0],
    )
    .expect("valid application");

    println!("== Communication Homogeneous cluster ==");
    let flat = Platform::comm_homogeneous(vec![30.0, 22.0, 18.0, 14.0, 9.0, 9.0, 6.0, 5.0], 10.0)
        .expect("valid platform");
    let cm = CostModel::new(&app, &flat);
    let mut ws = SolveWorkspace::new();
    println!(
        "single-proc: period {:.2}, latency {:.2}",
        cm.single_proc_period(),
        cm.optimal_latency()
    );
    // Comm-dominated pipelines split reluctantly: each cut pays δ/b twice.
    let floor = sp_mono_p_in(&cm, 0.0, &mut ws);
    println!(
        "splitting floor: period {:.2} with {} intervals — {}",
        floor.period,
        floor.mapping.n_intervals(),
        floor.mapping
    );

    // Deal-skeleton replication (paper §7): round-robin the bottleneck
    // filter over spare processors to push the period below the floor.
    let rep = replicate_bottlenecks(&cm, &floor.mapping, 0.75 * floor.period);
    println!(
        "with replication: period {:.2} ({}), {} processors enrolled, latency {:.2}",
        rep.period,
        if rep.feasible { "target met" } else { "floor" },
        rep.mapping.n_procs_used(),
        rep.latency
    );
    for (iv, group) in rep.mapping.intervals().iter().zip(rep.mapping.replicas()) {
        if group.len() > 1 {
            println!(
                "  deal skeleton on {iv}: {} replicas {group:?}",
                group.len()
            );
        }
    }

    println!("\n== Fully heterogeneous network (paper §7 extension) ==");
    // Same machines, but a two-tier network: the first four share a fast
    // switch (b = 40), the rest hang off slow links (b = 4); cross-tier
    // traffic takes the slow path. I/O enters at the fast tier.
    let p = 8;
    let mut matrix = vec![vec![4.0; p]; p];
    for (i, row) in matrix.iter_mut().enumerate().take(4) {
        for (j, b) in row.iter_mut().enumerate().take(4) {
            if i != j {
                *b = 40.0;
            }
        }
    }
    let tiered = Platform::fully_heterogeneous(
        vec![30.0, 22.0, 18.0, 14.0, 9.0, 9.0, 6.0, 5.0],
        matrix,
        40.0,
    )
    .expect("valid platform");
    let cmh = CostModel::new(&app, &tiered);
    let single = cmh.period(&pipeline_workflows::model::IntervalMapping::all_on_fastest(
        &app, &tiered,
    ));
    println!("single-proc period: {single:.2}");
    for candidates in [1, 4] {
        let res = hetero_sp_mono_p_in(
            &cmh,
            0.0,
            HeteroSplitOptions {
                candidate_procs: candidates,
            },
            &mut ws,
        );
        println!(
            "hetero splitting floor (candidate pool {candidates}): period {:.2}, latency {:.2} — {}",
            res.period, res.latency, res.mapping
        );
    }
    println!(
        "\nnote: with the tiered network the scheduler keeps intervals inside the fast\n\
         tier — widening the candidate pool lets it skip nominally-faster processors\n\
         behind slow links, which the speed-ordered paper heuristics cannot express."
    );
}
