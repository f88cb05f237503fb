//! Explore the latency/period trade-off on one random paper instance:
//! sweep every heuristic across targets and plot the resulting fronts
//! against the exact Pareto front.
//!
//! ```text
//! cargo run --release --example pareto_explorer [seed]
//! ```

use pipeline_workflows::core::{exact, HeuristicKind, ParetoFront, SolveWorkspace};
use pipeline_workflows::experiments::ascii::Chart;
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::util::linspace;
use pipeline_workflows::model::CostModel;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    // Small enough for the exponential exact solver, interesting enough
    // to show spread: n = 8 stages, p = 6 processors, E2 workload.
    let params = InstanceParams::paper(ExperimentKind::E2, 8, 6);
    let (app, platform) = InstanceGenerator::new(params).instance(seed, 0);
    let cm = CostModel::new(&app, &platform);

    println!(
        "instance (seed {seed}): works {:?}",
        app.works()
            .iter()
            .map(|w| (w * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!("          speeds {:?}", platform.speeds());
    let p_single = cm.single_proc_period();
    let l_opt = cm.optimal_latency();
    println!("landmarks: P_single {p_single:.2}, L_opt {l_opt:.2}\n");

    // Per-heuristic fronts over a target sweep.
    let period_grid = linspace(0.3 * p_single, 1.05 * p_single, 40);
    let latency_grid = linspace(l_opt, 3.0 * l_opt, 40);
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    let mut ws = SolveWorkspace::new();
    for kind in HeuristicKind::ALL {
        let mut front: ParetoFront<()> = ParetoFront::new();
        let grid = if kind.is_period_fixed() {
            &period_grid
        } else {
            &latency_grid
        };
        for &target in grid {
            let r = kind.run_in(&cm, target, &mut ws);
            if r.feasible {
                front.offer(r.period, r.latency, ());
            }
        }
        let pts: Vec<(f64, f64)> = front.iter().map(|(p, l, ())| (p, l)).collect();
        println!("{:<16} {:>2} non-dominated points", kind.label(), pts.len());
        series.push((kind.label().to_string(), pts));
    }

    // The exact front (exponential enumeration — fine at n = 8, p = 6).
    let exact_front = exact::exact_pareto_front_in(&cm, &mut ws);
    let exact_pts: Vec<(f64, f64)> = exact_front.iter().map(|(p, l, _)| (p, l)).collect();
    println!(
        "exact            {:>2} non-dominated points",
        exact_pts.len()
    );

    // How close do the heuristics get? Measure worst-case latency excess
    // at matched periods.
    println!("\nheuristic front vs exact front (latency excess at matched period):");
    for (label, pts) in &series {
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        let mut count = 0;
        for &(p, l) in pts {
            if let Some(l_star) = exact_front.min_latency_for_period(p + 1e-9) {
                worst = worst.max((l - l_star) / l_star);
                sum += (l - l_star) / l_star;
                count += 1;
            }
        }
        if count > 0 {
            println!(
                "  {:<16} mean +{:.1}%, worst +{:.1}%",
                label,
                100.0 * sum / count as f64,
                100.0 * worst
            );
        }
    }

    let mut plot_series = series;
    plot_series.push(("exact front".to_string(), exact_pts));
    // Markers 1..6 for the heuristics; the exact front reuses marker '1'
    // slot 7 → chart cycles markers, acceptable for a demo.
    println!(
        "\n{}",
        Chart {
            width: 90,
            height: 28,
            ..Chart::default()
        }
        .render(&plot_series)
    );
}
