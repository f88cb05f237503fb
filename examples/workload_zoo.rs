//! Tour of the workload presets: how pipeline *shape* (not just size)
//! drives the latency/period trade-off and which heuristic wins where.
//!
//! ```text
//! cargo run --release --example workload_zoo
//! ```

use pipeline_workflows::core::bounds::{gap, period_lower_bound};
use pipeline_workflows::core::refine::refine_mapping;
use pipeline_workflows::core::service::{PreparedInstance, SolveRequest};
use pipeline_workflows::core::{HeuristicKind, Objective, SolveWorkspace, Strategy};
use pipeline_workflows::model::workload::WorkloadShape;
use pipeline_workflows::model::{CostModel, Platform};

fn main() {
    // A mid-size heterogeneous cluster.
    let platform =
        Platform::comm_homogeneous(vec![18.0, 15.0, 11.0, 9.0, 7.0, 5.0, 4.0, 2.0], 10.0)
            .expect("valid platform");

    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>8} {:>7} {:>14}",
        "workload", "P_single", "P_best", "refined", "gap", "procs", "best heuristic"
    );
    for shape in WorkloadShape::ALL {
        let app = shape.build(12, 15.0, 6.0);
        let prepared = PreparedInstance::new(app, platform.clone());
        let cm = prepared.cost_model();
        let p_single = prepared.single_proc_period();

        // Best achievable period across all heuristics.
        let report = prepared
            .solve(&SolveRequest::new(Objective::MinPeriod).strategy(Strategy::BestOfAll))
            .expect("min period always solvable");

        // Local-search refinement with a 1.3× latency allowance.
        let refined = refine_mapping(&cm, &report.result.mapping, report.result.latency * 1.3);

        // Certified optimality gap.
        let lb = period_lower_bound(&cm, 5_000_000);
        println!(
            "{:<16} {:>9.2} {:>9.2} {:>9.2} {:>7.1}% {:>7} {:>14}",
            shape.name(),
            p_single,
            report.result.period,
            refined.period,
            100.0 * gap(refined.period, lb.value),
            refined.mapping.n_intervals(),
            report.solver.label()
        );
    }

    // The hotspot shape is where the deal-skeleton extension shines:
    // splitting cannot break the dominant stage.
    println!("\nhotspot + deal skeleton:");
    let app = WorkloadShape::Hotspot.build(9, 12.0, 2.0);
    let cm = CostModel::new(&app, &platform);
    let mut ws = SolveWorkspace::new();
    let floor = pipeline_workflows::core::sp_mono_p_in(&cm, 0.0, &mut ws);
    println!(
        "  splitting floor: {:.2} ({} intervals)",
        floor.period,
        floor.mapping.n_intervals()
    );
    let rep =
        pipeline_workflows::core::replication::replicate_bottlenecks(&cm, &floor.mapping, 0.0);
    println!(
        "  + replication:   {:.2} ({} processors), latency ×{:.2}",
        rep.period,
        rep.mapping.n_procs_used(),
        rep.latency / floor.latency
    );

    // Which heuristic is most sensitive to shape? Compare period floors.
    println!("\nper-heuristic period floors by shape:");
    print!("{:<16}", "workload");
    for kind in HeuristicKind::ALL
        .into_iter()
        .filter(|k| k.is_period_fixed())
    {
        print!("{:>16}", kind.label());
    }
    println!();
    for shape in WorkloadShape::ALL {
        let app = shape.build(12, 15.0, 6.0);
        let cm = CostModel::new(&app, &platform);
        print!("{:<16}", shape.name());
        for kind in HeuristicKind::ALL
            .into_iter()
            .filter(|k| k.is_period_fixed())
        {
            let floor = kind.run_in(&cm, 0.0, &mut ws);
            print!("{:>16.2}", floor.period);
        }
        println!();
    }
}
