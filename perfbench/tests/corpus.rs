//! Corpus generation is a pure function of the seed, and each workload's
//! operation-time histogram keeps p50 and p99 inside a cluster.

use pipeline_perfbench::corpus::{ChaosCorpus, ServeCorpus, SolveCorpus, MIN_OPS};
use pipeline_perfbench::measure::{percentile_on_gap, sorted};
use pipeline_perfbench::{Bench, Checks, Table, Workload};

const DIR: &str = "perfbench-data";

#[test]
fn the_same_seed_gives_byte_identical_corpora() {
    for seed in [0, 7, 2026] {
        assert_eq!(
            ServeCorpus::generate(seed, DIR).fingerprint(),
            ServeCorpus::generate(seed, DIR).fingerprint()
        );
        assert_eq!(
            SolveCorpus::generate(seed).fingerprint(),
            SolveCorpus::generate(seed).fingerprint()
        );
        assert_eq!(
            ChaosCorpus::generate(seed).fingerprint(),
            ChaosCorpus::generate(seed).fingerprint()
        );
    }
}

#[test]
fn another_seed_changes_every_corpus() {
    assert_ne!(
        ServeCorpus::generate(1, DIR).fingerprint(),
        ServeCorpus::generate(2, DIR).fingerprint()
    );
    assert_ne!(
        SolveCorpus::generate(1).fingerprint(),
        SolveCorpus::generate(2).fingerprint()
    );
    assert_ne!(
        ChaosCorpus::generate(1).fingerprint(),
        ChaosCorpus::generate(2).fingerprint()
    );
}

#[test]
fn every_corpus_leaves_ten_operations_beyond_p99() {
    assert!(ServeCorpus::generate(3, DIR).lines.len() >= MIN_OPS);
    assert!(SolveCorpus::generate(3).ops.len() >= MIN_OPS);
    assert!(ChaosCorpus::generate(3).incidents.len() >= MIN_OPS);
}

#[test]
fn serve_lines_cover_every_verb_strategy_and_objective() {
    let corpus = ServeCorpus::generate(5, DIR);
    for needle in [
        "stats ",
        "cosched ",
        "strategy=auto",
        "strategy=best",
        "strategy=exact",
        "strategy=h1",
        "strategy=h4",
        "strategy=h5",
        "strategy=h7",
        "objective=min-period ",
        "objective=min-latency ",
        "objective=min-latency-for-period",
        "objective=min-period-for-latency",
        "objective=pareto-front",
    ] {
        assert!(
            corpus.lines.iter().any(|l| l.contains(needle)),
            "no line contains {needle:?}"
        );
    }
}

/// One pass per in-process workload, then the gap test on p50 and p99.
/// Timing-based, so it runs only in optimized builds:
/// `cargo test --release --manifest-path perfbench/Cargo.toml`.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
fn p50_and_p99_sit_inside_a_cluster() {
    let dir = format!("out/gap-test-{}", std::process::id());
    for workload in [
        Workload::ServeWarm,
        Workload::SolveCold,
        Workload::ChaosReplan,
    ] {
        let mut bench = Bench::setup(workload, 11, &dir).expect("set-up");
        let mut table = Table::for_workload(workload, bench.ops());
        let mut checks = Checks::default();
        for _ in 0..3 {
            table.pass(&mut bench, &mut checks);
        }
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failure);
        let s = sorted(&table.estimates_us(false));
        assert!(
            !percentile_on_gap(&s, 0.5),
            "{} p50 on a gap",
            workload.name()
        );
        assert!(
            !percentile_on_gap(&s, 0.99),
            "{} p99 on a gap",
            workload.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
