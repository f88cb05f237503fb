//! Watch a mapping execute: discrete-event simulation with an ASCII Gantt
//! chart, comparing the analytic cost model against observed behaviour
//! under different input regimes.
//!
//! ```text
//! cargo run --example simulate_mapping
//! ```

use pipeline_workflows::core::{sp_mono_p_in, SolveWorkspace};
use pipeline_workflows::model::{Application, CostModel, Platform};
use pipeline_workflows::sim::{Gantt, InputPolicy, PipelineSim, SimConfig};

fn main() {
    let app = Application::new(vec![12.0, 30.0, 8.0, 22.0], vec![6.0, 4.0, 10.0, 3.0, 6.0])
        .expect("valid application");
    let platform =
        Platform::comm_homogeneous(vec![10.0, 6.0, 4.0, 3.0], 5.0).expect("valid platform");
    let cm = CostModel::new(&app, &platform);

    // Schedule for twice the throughput of the single-processor mapping.
    let mut ws = SolveWorkspace::new();
    let res = sp_mono_p_in(&cm, 0.5 * cm.single_proc_period(), &mut ws);
    println!("mapping: {}", res.mapping);
    println!(
        "analytic: period {:.3}, latency {:.3}\n",
        res.period, res.latency
    );

    // Regime 1 — a single data set (unloaded latency).
    let single = PipelineSim::new(
        &cm,
        &res.mapping,
        SimConfig {
            input: InputPolicy::Saturating,
            record_trace: true,
        },
    )
    .run(1);
    println!(
        "one data set: simulated latency {:.3} (analytic {:.3})",
        single.report.latency(0),
        res.latency
    );

    // Regime 2 — saturating input: throughput converges to the period.
    let sat = PipelineSim::new(
        &cm,
        &res.mapping,
        SimConfig {
            input: InputPolicy::Saturating,
            record_trace: true,
        },
    )
    .run(30);
    println!(
        "saturating input, 30 data sets: steady period {:.3} (analytic {:.3}), max latency {:.3}",
        sat.report.steady_period().unwrap(),
        res.period,
        sat.report.max_latency()
    );

    // Regime 3 — input throttled to the period: every data set gets the
    // analytic latency.
    let throttled = PipelineSim::new(
        &cm,
        &res.mapping,
        SimConfig {
            input: InputPolicy::Periodic(res.period),
            record_trace: false,
        },
    )
    .run(30);
    println!(
        "throttled input, 30 data sets: max latency {:.3} (analytic {:.3})",
        throttled.report.max_latency(),
        res.latency
    );

    // Gantt chart of the saturating run's first few cycles: each row is a
    // processor; `r` receive, `#` compute, `s` send, `.` idle. Watch the
    // bottleneck processor stay solid while others breathe.
    let horizon = sat.report.completion[8.min(sat.report.n_datasets() - 1)];
    let procs: Vec<usize> = res.mapping.procs().to_vec();
    println!("\nGantt (saturating, first ~9 data sets):");
    print!(
        "{}",
        Gantt { width: 96 }.render(&sat.trace, &procs, horizon)
    );

    // Utilization: the bottleneck processor should be near 100% busy.
    println!("\nutilization under saturation:");
    for &u in &procs {
        println!(
            "  P{u}: {:>5.1}%  (speed {})",
            100.0 * sat.report.utilization(u),
            platform.speed(u)
        );
    }
}
