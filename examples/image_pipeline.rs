//! A realistic scenario: an image-analysis pipeline on a heterogeneous
//! lab cluster.
//!
//! The workload mirrors the algorithmic-skeleton applications the paper's
//! introduction motivates: frames stream through decode → denoise →
//! segment → feature extraction → classification → encode. Computation
//! dominates in the middle stages (like experiment E3), communication at
//! the edges. We explore the latency/period trade-off with every
//! heuristic, validate the chosen mapping in the discrete-event
//! simulator, and compare with the exact Pareto front.
//!
//! ```text
//! cargo run --release --example image_pipeline
//! ```

use pipeline_workflows::core::{exact, HeuristicKind, SolveWorkspace};
use pipeline_workflows::model::{Application, CostModel, Platform};
use pipeline_workflows::sim::{InputPolicy, PipelineSim, SimConfig};

fn main() {
    // Volumes in MB, work in Mflop — one 4K frame through six stages.
    // decode: cheap but chatty; segmentation and features: heavy.
    let app = Application::new(
        vec![
            180.0,  // decode
            420.0,  // denoise
            1650.0, // segmentation
            980.0,  // feature extraction
            310.0,  // classification
            140.0,  // encode
        ],
        vec![
            24.0, // compressed frame in
            33.0, // raw frame
            33.0, // denoised frame
            9.0,  // segment masks
            2.5,  // feature vectors
            0.4,  // labels
            6.0,  // annotated output
        ],
    )
    .expect("valid application");

    // The lab cluster: two fast servers, four mid desktops, two old nodes,
    // all on the same gigabit switch (b = 125 MB/s scaled to 12.5).
    let platform =
        Platform::comm_homogeneous(vec![95.0, 88.0, 40.0, 38.0, 35.0, 33.0, 12.0, 10.0], 12.5)
            .expect("valid platform");

    let cm = CostModel::new(&app, &platform);
    let l_opt = cm.optimal_latency();
    let p_single = cm.single_proc_period();
    println!(
        "image pipeline: {} stages, {:.0} Mflop/frame",
        app.n_stages(),
        app.total_work()
    );
    println!(
        "single-server: latency {l_opt:.2}s, period {p_single:.2}s ({:.2} fps)",
        1.0 / p_single
    );

    // Requirement: 1 frame every 25 s (vs ~39 s on one server), with the
    // smallest possible latency.
    let target_period = 25.0;
    println!("\ntarget period {target_period}s — what does each heuristic offer?");
    println!(
        "{:<16} {:>8} {:>9} {:>9} {:>6}",
        "heuristic", "feasible", "period", "latency", "procs"
    );
    let mut best: Option<(f64, HeuristicKind)> = None;
    let mut ws = SolveWorkspace::new();
    for kind in HeuristicKind::ALL
        .into_iter()
        .filter(|k| k.is_period_fixed())
    {
        let res = kind.run_in(&cm, target_period, &mut ws);
        println!(
            "{:<16} {:>8} {:>9.2} {:>9.2} {:>6}",
            kind.label(),
            res.feasible,
            res.period,
            res.latency,
            res.mapping.n_intervals()
        );
        if res.feasible && best.as_ref().is_none_or(|(l, _)| res.latency < *l) {
            best = Some((res.latency, kind));
        }
    }
    let (_, winner) = best.expect("some heuristic meets 25s on this cluster");
    let chosen = winner.run_in(&cm, target_period, &mut ws);
    println!(
        "\nchosen: {} → {} (period {:.2}s, latency {:.2}s)",
        winner.label(),
        chosen.mapping,
        chosen.period,
        chosen.latency
    );

    // How far from optimal? n = 6 is small enough for the exact solver.
    let exact_lat = exact::exact_min_latency_for_period_in(&cm, target_period, &mut ws)
        .expect("target feasible for the exact solver");
    println!(
        "exact optimum at this period: latency {:.2}s — heuristic overhead {:.1}%",
        exact_lat.0,
        100.0 * (chosen.latency - exact_lat.0) / exact_lat.0
    );

    // Validate operationally: stream 100 frames at the mapped period.
    let sim = PipelineSim::new(
        &cm,
        &chosen.mapping,
        SimConfig {
            input: InputPolicy::Periodic(chosen.period),
            record_trace: false,
        },
    );
    let out = sim.run(100);
    println!(
        "\nsimulated 100 frames: steady period {:.2}s (analytic {:.2}s), max latency {:.2}s (analytic {:.2}s)",
        out.report.steady_period().unwrap(),
        chosen.period,
        out.report.max_latency(),
        chosen.latency
    );

    // The whole exact trade-off curve, for the write-up.
    println!("\nexact Pareto front (period, latency):");
    for (period, latency, mapping) in exact::exact_pareto_front_in(&cm, &mut ws).iter() {
        println!("  {period:>8.2}s {latency:>8.2}s  {mapping}");
    }
}
