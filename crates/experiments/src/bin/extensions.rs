//! Extension studies beyond the paper's evaluation: loaded latency under
//! saturation and robustness to a single-processor or single-link
//! slowdown.
//!
//! ```text
//! extensions [--instances K] [--seed S] [--threads T] [--datasets D] [--gamma G]
//! ```
//!
//! Counts must be positive and `G` in (0, 1]; any other value exits 2.

use pipeline_experiments::config::flag_value;
use pipeline_experiments::loaded::{loaded_latency_study, render_loaded};
use pipeline_experiments::robustness::{
    link_robustness_study, render_robustness, robustness_study, PERIOD_TARGET_FACTOR,
};
use pipeline_experiments::{out, outln};
use pipeline_model::generator::{ExperimentKind, InstanceParams};

fn main() {
    let mut instances = 30usize;
    let mut seed = 2007u64;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut datasets = 60usize;
    let mut gamma = 0.7f64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next();
        let positive = |n: &usize| *n > 0;
        match flag.as_str() {
            "--instances" => instances = flag_value(&flag, value(), "a positive integer", positive),
            "--seed" => seed = flag_value(&flag, value(), "a non-negative integer", |_| true),
            "--threads" => threads = flag_value(&flag, value(), "a positive integer", positive),
            "--datasets" => datasets = flag_value(&flag, value(), "a positive integer", positive),
            "--gamma" => {
                gamma = flag_value(&flag, value(), "a number in (0, 1]", |g: &f64| {
                    *g > 0.0 && *g <= 1.0
                })
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    outln!("Extension studies — {instances} instances, seed {seed}\n");

    outln!("A. Loaded latency: simulated max response time under saturating input");
    outln!("   (eq. 2 is the throttled value; saturation queues in front of the bottleneck)\n");
    for (kind, n, p) in [
        (ExperimentKind::E1, 20, 10),
        (ExperimentKind::E3, 10, 10),
        (ExperimentKind::E4, 20, 10),
    ] {
        outln!(
            "-- {} (n = {n}, p = {p}, target {PERIOD_TARGET_FACTOR}·P_init, {datasets} data sets)",
            kind.label()
        );
        let rows = loaded_latency_study(
            InstanceParams::paper(kind, n, p),
            seed,
            instances,
            datasets,
            threads,
        );
        out!("{}", render_loaded(&rows));
        outln!();
    }

    let pct = gamma * 100.0;
    outln!("B. Robustness: worst-case period when one enrolled processor slows down\n");
    for (kind, n, p) in [(ExperimentKind::E1, 20, 10), (ExperimentKind::E3, 10, 10)] {
        outln!(
            "-- {} (n = {n}, p = {p}, target {PERIOD_TARGET_FACTOR}·P_init)",
            kind.label()
        );
        let rows = robustness_study(
            InstanceParams::paper(kind, n, p),
            seed,
            instances,
            gamma,
            threads,
        );
        let header = format!("single-processor slowdown to {pct:.0}% of nominal speed");
        out!("{}", render_robustness(&rows, &header));
        outln!();
    }

    outln!("C. Link robustness: worst-case period when one boundary link degrades\n");
    for (kind, n, p) in [(ExperimentKind::E1, 20, 10), (ExperimentKind::E4, 20, 10)] {
        outln!(
            "-- {} (n = {n}, p = {p}, target {PERIOD_TARGET_FACTOR}·P_init)",
            kind.label()
        );
        let rows = link_robustness_study(
            InstanceParams::paper(kind, n, p),
            seed,
            instances,
            gamma,
            threads,
        );
        let header = format!("single-link slowdown to {pct:.0}% of nominal bandwidth");
        out!("{}", render_robustness(&rows, &header));
        outln!();
    }
}
