//! End-to-end and per-layer benchmark of the pipeline-workflows solver
//! service, solvers, re-planner and simulator.
//!
//! Four workloads, each a seeded corpus replayed in passes by one
//! single-threaded process that calls the layers' public entry points:
//!
//! * `serve-warm` — warm request lines through `ServeState::answer_line`;
//! * `serve-tcp` — the same lines over one loopback connection;
//! * `solve-cold` — a fresh `PreparedInstance` + `solve_in` per query;
//! * `chaos-replan` — faulted run, `replan`, clean run per incident.
//!
//! See `README.md` in this directory for the metrics and how to run it.

pub mod chaos;
pub mod corpus;
pub mod host;
pub mod measure;
pub mod serve;
pub mod solve;
pub mod trace;

use host::HostSpeed;
use measure::{BestTable, MedianTable};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process warm service requests.
    ServeWarm,
    /// The same requests over loopback TCP.
    ServeTcp,
    /// Cold solves on fresh instances.
    SolveCold,
    /// Fault, re-plan, re-run incidents.
    ChaosReplan,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeWarm,
        Workload::ServeTcp,
        Workload::SolveCold,
        Workload::ChaosReplan,
    ];

    /// The command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve-warm",
            Workload::ServeTcp => "serve-tcp",
            Workload::SolveCold => "solve-cold",
            Workload::ChaosReplan => "chaos-replan",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Correctness accounting: every timed operation (and every set-up
/// check) is one attempt; a wrong or refused answer is one failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose answer was wrong or refused.
    pub failed: u64,
    /// Description of the first failure.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Counts one attempt, failed unless `ok`.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(describe());
            }
        }
    }
}

/// Directory (relative to the checkout root) the benchmark writes to.
pub const OUT_DIR: &str = "perfbench/out";

/// A set-up workload.
pub enum Bench {
    /// See [`Workload::ServeWarm`].
    Warm(serve::ServeWarm),
    /// See [`Workload::ServeTcp`].
    Tcp(Box<serve::ServeTcp>),
    /// See [`Workload::SolveCold`].
    Solve(solve::SolveCold),
    /// See [`Workload::ChaosReplan`].
    Chaos(chaos::ChaosReplan),
}

impl Bench {
    /// Runs the workload's set-up; serve workloads write their instance
    /// files under `dir`.
    pub fn setup(workload: Workload, seed: u64, dir: &str) -> Result<Bench, String> {
        Ok(match workload {
            Workload::ServeWarm => Bench::Warm(serve::ServeWarm::setup(seed, dir)?),
            Workload::ServeTcp => Bench::Tcp(Box::new(serve::ServeTcp::setup(seed, dir)?)),
            Workload::SolveCold => Bench::Solve(solve::SolveCold::setup(seed)),
            Workload::ChaosReplan => Bench::Chaos(chaos::ChaosReplan::setup(seed)),
        })
    }

    /// Set-up checks (untimed).
    pub fn verify(&mut self, checks: &mut Checks) {
        match self {
            Bench::Warm(w) => w.verify(checks),
            Bench::Tcp(t) => t.warm.verify(checks),
            Bench::Solve(_) => {}
            Bench::Chaos(c) => c.verify(checks),
        }
    }

    /// Corpus size.
    pub fn ops(&self) -> usize {
        match self {
            Bench::Warm(w) => w.ops(),
            Bench::Tcp(t) => t.ops(),
            Bench::Solve(s) => s.ops(),
            Bench::Chaos(c) => c.ops(),
        }
    }

    /// One untraced pass over the corpus.
    pub fn pass(&mut self, record: &mut dyn FnMut(usize, Duration), checks: &mut Checks) {
        match self {
            Bench::Warm(w) => w.pass(record, checks),
            Bench::Tcp(t) => t.pass(record, checks),
            Bench::Solve(s) => s.pass(record, checks),
            Bench::Chaos(c) => c.pass(record, checks),
        }
    }

    /// One traced pass over the corpus.
    pub fn traced_pass(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        match self {
            Bench::Warm(w) => w.traced_pass(tr, checks),
            Bench::Tcp(t) => t.traced_pass(tr, checks),
            Bench::Solve(s) => s.traced_pass(tr, checks),
            Bench::Chaos(c) => c.traced_pass(tr, checks),
        }
    }
}

/// Per-operation estimates of one workload: the best pass in process,
/// the median pass over TCP.
pub enum Table {
    /// Best over passes.
    Best(BestTable),
    /// Median over passes.
    Median(MedianTable),
}

/// Most TCP passes kept (preallocated, so memory does not follow host
/// speed); a run that fills the table stops early.
pub const MAX_TCP_PASSES: usize = 1024;

impl Table {
    /// The table a workload's estimator needs.
    pub fn for_workload(workload: Workload, ops: usize) -> Table {
        match workload {
            Workload::ServeTcp => Table::Median(MedianTable::new(ops, MAX_TCP_PASSES)),
            _ => Table::Best(BestTable::new(ops)),
        }
    }

    /// Whether the table holds no more passes.
    pub fn full(&self) -> bool {
        matches!(self, Table::Median(t) if t.full())
    }

    /// Completed passes.
    pub fn passes(&self) -> usize {
        match self {
            Table::Best(t) => t.passes(),
            Table::Median(t) => t.passes(),
        }
    }

    /// Per-operation estimates, µs, scaled to the nominal host speed or
    /// as measured.
    pub fn estimates_us(&self, scaled: bool) -> Vec<f64> {
        match self {
            Table::Best(t) => t.estimates_us(scaled),
            Table::Median(t) => t.estimates_us(scaled),
        }
    }

    /// Records one pass's operation times, measured on a host whose
    /// speed factor ([`HostSpeed::factor`]) was `factor`.
    pub fn record_pass(&mut self, times: &[Duration], factor: f64) {
        match self {
            Table::Best(t) => {
                for (i, &d) in times.iter().enumerate() {
                    t.record(i, d, factor);
                }
                t.end_pass();
            }
            Table::Median(t) => {
                for (i, &d) in times.iter().enumerate() {
                    t.record(i, d);
                }
                t.end_pass(factor);
            }
        }
    }

    /// Runs one untraced pass of `bench` into the table, unscaled.
    pub fn pass(&mut self, bench: &mut Bench, checks: &mut Checks) {
        let times = timed_pass(bench, checks);
        self.record_pass(&times, 1.0);
    }
}

/// One untraced pass of `bench`: every operation's time.
fn timed_pass(bench: &mut Bench, checks: &mut Checks) -> Vec<Duration> {
    let mut times = vec![Duration::ZERO; bench.ops()];
    bench.pass(&mut |i, d| times[i] = d, checks);
    times
}

/// Runs untraced passes of `bench` into `table` until `budget` has
/// elapsed (at least one pass), sampling the host's speed around every
/// pass.
pub fn run_passes(
    bench: &mut Bench,
    table: &mut Table,
    budget: Duration,
    speed: &mut HostSpeed,
    checks: &mut Checks,
) {
    let start = Instant::now();
    let mut before = speed.sample();
    loop {
        let times = timed_pass(bench, checks);
        let after = speed.sample();
        table.record_pass(&times, HostSpeed::factor(before, after));
        before = after;
        if start.elapsed() >= budget || table.full() {
            break;
        }
    }
}

/// The set-ups of one run, each timed between two reference-kernel
/// samples.
#[derive(Debug, Default)]
pub struct Setups {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Setups {
    /// Runs one set-up and records its time, as measured and scaled to
    /// the nominal host speed.
    pub fn run(
        &mut self,
        workload: Workload,
        seed: u64,
        dir: &str,
        speed: &mut HostSpeed,
    ) -> Result<Bench, String> {
        let before = speed.sample();
        let t = Instant::now();
        let bench = Bench::setup(workload, seed, dir)?;
        let elapsed = t.elapsed().as_secs_f64();
        let after = speed.sample();
        self.raw.push(elapsed);
        self.scaled.push(elapsed * HostSpeed::factor(before, after));
        Ok(bench)
    }

    /// Set-ups run.
    pub fn count(&self) -> usize {
        self.raw.len()
    }

    /// The fastest set-up, s, scaled or as measured.
    pub fn best_s(&self, scaled: bool) -> f64 {
        let times = if scaled { &self.scaled } else { &self.raw };
        times.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Alternates untraced and traced passes of `bench` until `budget` has
/// elapsed (at least one of each).
pub fn run_traced_passes(
    bench: &mut Bench,
    table: &mut Table,
    tracer: &mut Tracer,
    budget: Duration,
    checks: &mut Checks,
) {
    let start = Instant::now();
    loop {
        table.pass(bench, checks);
        bench.traced_pass(tracer, checks);
        if start.elapsed() >= budget || table.full() {
            break;
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
