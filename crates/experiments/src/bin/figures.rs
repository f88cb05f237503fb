//! Regenerates the paper's figures 2–7: latency-vs-period curves for the
//! six heuristics, averaged over 50 random instances per family.
//!
//! ```text
//! figures [--fig N|all] [--instances K] [--grid G] [--seed S]
//!         [--threads T] [--out DIR]
//! ```
//!
//! Writes one CSV per sub-figure into `DIR` (default `results/`) and
//! prints an ASCII rendition plus the paper-shape checks.

use pipeline_experiments::ascii::Chart;
use pipeline_experiments::config::{figures_of, flag_value};
use pipeline_experiments::csvout::{fmt, write_csv};
use pipeline_experiments::summary::{checks_p10, checks_p100, render_checks};
use pipeline_experiments::sweep::run_scenario;
use pipeline_experiments::{out, outln};
use std::path::PathBuf;

struct Args {
    figs: Vec<u32>,
    instances: usize,
    grid: usize,
    seed: u64,
    threads: usize,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        figs: (2..=7).collect(),
        instances: 50,
        grid: 20,
        seed: 2007,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        out: PathBuf::from("results"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next();
        let positive = |n: &usize| *n > 0;
        match flag.as_str() {
            "--fig" => {
                let v = value();
                if v.as_deref() != Some("all") {
                    args.figs = vec![flag_value(&flag, v, "a number 2..7 or 'all'", |n| {
                        (2..=7).contains(n)
                    })];
                }
            }
            "--instances" => {
                args.instances = flag_value(&flag, value(), "a positive integer", positive)
            }
            "--grid" => {
                args.grid = flag_value(&flag, value(), "an integer of at least 2", |n| *n >= 2)
            }
            "--seed" => args.seed = flag_value(&flag, value(), "a non-negative integer", |_| true),
            "--threads" => {
                args.threads = flag_value(&flag, value(), "a positive integer", positive)
            }
            "--out" => args.out = flag_value(&flag, value(), "a directory", |_| true),
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [--fig N|all] [--instances K] [--grid G] \
                     [--seed S] [--threads T] [--out DIR]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    outln!(
        "Regenerating figures {:?} — {} instances/family, grid {}, seed {}",
        args.figs,
        args.instances,
        args.grid,
        args.seed
    );
    for fig_no in &args.figs {
        for spec in figures_of(*fig_no) {
            let t0 = std::time::Instant::now();
            let fam = run_scenario(
                &spec.params(),
                args.seed,
                args.instances,
                args.grid,
                args.threads,
            );
            outln!(
                "\n=== {} — {} [{:.1}s] ===",
                spec.id,
                spec.caption,
                t0.elapsed().as_secs_f64()
            );
            outln!(
                "    landmarks: mean P_init {:.3}, mean L_opt {:.3}, mean best floor {:.3}",
                fam.stats.mean_p_init,
                fam.stats.mean_l_opt,
                fam.stats.mean_best_floor
            );

            // CSV: one row per (heuristic, grid point).
            let mut rows = Vec::new();
            for s in &fam.series {
                for p in &s.points {
                    rows.push(vec![
                        s.kind.table_name().to_string(),
                        s.kind.label().replace(',', ";"),
                        fmt(p.target),
                        fmt(p.mean_period),
                        fmt(p.mean_latency),
                        p.n_feasible.to_string(),
                        p.n_total.to_string(),
                    ]);
                }
            }
            let path = args.out.join(format!("{}.csv", spec.id));
            write_csv(
                &path,
                &[
                    "heuristic",
                    "label",
                    "target",
                    "mean_period",
                    "mean_latency",
                    "n_feasible",
                    "n_total",
                ],
                &rows,
            )
            .expect("CSV write failed");
            outln!("    wrote {}", path.display());

            // ASCII plot.
            let chart = Chart::default();
            let series: Vec<(String, Vec<(f64, f64)>)> = fam
                .series
                .iter()
                .map(|s| (s.kind.label().to_string(), s.xy()))
                .collect();
            outln!("{}", chart.render(&series));

            // Shape checks vs the paper.
            let checks = if spec.n_procs >= 100 {
                checks_p100(&fam)
            } else {
                checks_p10(&fam)
            };
            if !checks.is_empty() {
                outln!("  paper-shape checks:");
                out!("{}", render_checks(&checks));
            }
        }
    }
}
