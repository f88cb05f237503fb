//! Regenerates the paper's Table 1: failure thresholds of the six
//! heuristics for every experiment × stage count (p = 10).
//!
//! ```text
//! table1 [--instances K] [--seed S] [--threads T] [--out DIR] [--procs P]
//! ```

use pipeline_experiments::config::{flag_value, TABLE1_STAGE_COUNTS};
use pipeline_experiments::csvout::{fmt, write_csv};
use pipeline_experiments::table::table1;
use pipeline_experiments::{out, outln};
use std::path::PathBuf;

fn main() {
    let mut instances = 50usize;
    let mut seed = 2007u64;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut out = PathBuf::from("results");
    let mut procs = 10usize;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next();
        let positive = |n: &usize| *n > 0;
        match flag.as_str() {
            "--instances" => instances = flag_value(&flag, value(), "a positive integer", positive),
            "--seed" => seed = flag_value(&flag, value(), "a non-negative integer", |_| true),
            "--threads" => threads = flag_value(&flag, value(), "a positive integer", positive),
            "--out" => out = flag_value(&flag, value(), "a directory", |_| true),
            "--procs" => procs = flag_value(&flag, value(), "a positive integer", positive),
            "--help" | "-h" => {
                eprintln!(
                    "usage: table1 [--instances K] [--seed S] [--threads T] \
                     [--out DIR] [--procs P]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    outln!("Table 1 — failure thresholds (p = {procs}, {instances} instances/cell, seed {seed})");
    let t0 = std::time::Instant::now();
    let table = table1(seed, instances, procs, &TABLE1_STAGE_COUNTS, threads);
    // Wall-clock time goes to stderr, so stdout is a function of the
    // flags alone.
    eprintln!("computed in {:.1}s", t0.elapsed().as_secs_f64());
    outln!();
    out!("{}", table.render());

    let mut rows = Vec::new();
    for r in &table.rows {
        for (h, kind) in pipeline_core::HeuristicKind::ALL.iter().enumerate() {
            rows.push(vec![
                r.kind.to_string(),
                r.n_stages.to_string(),
                kind.table_name().to_string(),
                fmt(r.thresholds[h]),
            ]);
        }
    }
    let path = out.join("table1.csv");
    write_csv(
        &path,
        &["experiment", "n_stages", "heuristic", "threshold"],
        &rows,
    )
    .expect("CSV write failed");
    outln!("wrote {}", path.display());

    // The paper's headline observations about Table 1, verified live.
    let mut h5_eq_h6 = true;
    let mut h1_min_count = 0usize;
    let mut h2_max_count = 0usize;
    for r in &table.rows {
        if (r.thresholds[4] - r.thresholds[5]).abs() > 1e-9 {
            h5_eq_h6 = false;
        }
        let period_fixed = &r.thresholds[0..4];
        let min = period_fixed.iter().copied().fold(f64::INFINITY, f64::min);
        let max = period_fixed
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if (r.thresholds[0] - min).abs() < 1e-9 {
            h1_min_count += 1;
        }
        // The paper attributes the largest thresholds to 3-Explo mono; in
        // our reproduction the 3-Exploration *family* (H2 or H3) holds the
        // max — the two variants swap depending on the fallback rule the
        // paper leaves unspecified (see `pipeline_core::explore`).
        if (r.thresholds[1] - max).abs() < 1e-9 || (r.thresholds[2] - max).abs() < 1e-9 {
            h2_max_count += 1;
        }
    }
    outln!("\npaper-shape checks:");
    outln!(
        "  [{}] H5 == H6 in every cell (paper: \"surprisingly ... the same\")",
        if h5_eq_h6 { "OK " } else { "DIFF" }
    );
    outln!(
        "  [{}] H1 (Sp mono P) has the smallest period-fixed threshold in {}/{} cells",
        if h1_min_count * 2 >= table.rows.len() {
            "OK "
        } else {
            "DIFF"
        },
        h1_min_count,
        table.rows.len()
    );
    outln!(
        "  [{}] a 3-Exploration heuristic (H2/H3) has the largest period-fixed threshold in {}/{} cells",
        if h2_max_count * 2 >= table.rows.len() { "OK " } else { "DIFF" },
        h2_max_count,
        table.rows.len()
    );
}
