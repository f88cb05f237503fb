//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`: sets the workload up several times (reporting the
//! best set-up time), replays its corpus in untraced passes for
//! `--seconds`, checks every answer, and prints the end-to-end metrics.
//! With `--trace 1`: replays every workload's corpus, alternating
//! untraced and traced passes, and prints the per-layer metrics plus the
//! selected workload's tracing overhead. The last line of standard
//! output is the result object; the lines before it are the host block
//! and the run details.

use pipeline_perfbench::corpus::CHAOS_DATASETS;
use pipeline_perfbench::host::{Host, HostSpeed};
use pipeline_perfbench::measure::{percentile, sorted, Summary};
use pipeline_perfbench::trace::{Tracer, ROOT};
use pipeline_perfbench::{
    peak_rss_mb, run_passes, run_traced_passes, Bench, Checks, Setups, Table, Workload, OUT_DIR,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups per untraced run: at least [`MIN_SETUPS`] before the timed
/// passes, more (up to [`MAX_SETUPS`]) until [`SETUP_BUDGET`] is spent,
/// so short set-ups are repeated often enough for their best time to
/// hold steady, and one more after every [`SETUP_EVERY`] of timed passes,
/// so the best set-up is drawn from the whole run rather than from its
/// first second. `setup_s` is the best of them.
const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
const MAX_SETUPS: usize = 40;
/// See [`MIN_SETUPS`].
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// See [`MIN_SETUPS`].
const SETUP_EVERY: Duration = Duration::from_secs(3);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit of the measurement.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve-warm|serve-tcp|solve-cold|chaos-replan \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let dir = format!("{OUT_DIR}/data-{}", std::process::id());
    let host = Host::probe();
    let mut speed = HostSpeed::default();
    let kernel_before = speed.burst();
    let mut checks = Checks::default();
    let mut details = String::new();
    let result = if args.trace {
        traced(&args, &dir, &mut checks, &mut details)
    } else {
        end_to_end(&args, &dir, &mut speed, &mut checks, &mut details)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let kernel_after = speed.burst();

    println!(
        "{{\"host\": {{\"nproc\": {}, \"rustc\": {}, \"profile\": {}, \"git_rev\": {}, \
         \"ref_kernel_before_us\": {}, \"ref_kernel_after_us\": {}, \"ref_kernel_min_us\": {}, \
         \"ref_kernel_median_us\": {}, \"ref_kernel_samples\": {}}}}}",
        host.nproc,
        json_str(&host.rustc),
        json_str(host.profile),
        json_str(&host.git_rev),
        json_num(kernel_before),
        json_num(kernel_after),
        json_num(speed.min_us()),
        json_num(speed.median_us()),
        speed.count()
    );
    println!(
        "{{\"run\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, {details}, \
         \"first_failure\": {}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        checks
            .first_failure
            .as_deref()
            .map_or("null".to_string(), json_str)
    );
    for m in &metrics {
        eprintln!("{:<24} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

/// The untraced run: best-of-N set-up, then timed passes. Every set-up
/// and pass is scaled to the nominal host speed by the reference-kernel
/// samples around it ([`HostSpeed::factor`]); the unscaled values go to
/// the run details.
fn end_to_end(
    args: &Args,
    dir: &str,
    speed: &mut HostSpeed,
    checks: &mut Checks,
    details: &mut String,
) -> Result<Vec<Metric>, String> {
    let mut setups = Setups::default();
    let mut bench = None;
    let started = Instant::now();
    while setups.count() < MIN_SETUPS
        || (setups.count() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(bench.take());
        bench = Some(setups.run(args.workload, args.seed, dir, speed)?);
    }
    let mut bench = bench.expect("at least one set-up");
    bench.verify(checks);
    let mut table = Table::for_workload(args.workload, bench.ops());
    let budget = Duration::from_secs(args.seconds);
    let timed = Instant::now();
    loop {
        let left = budget.saturating_sub(timed.elapsed());
        run_passes(&mut bench, &mut table, left.min(SETUP_EVERY), speed, checks);
        if timed.elapsed() >= budget || table.full() {
            break;
        }
        drop(setups.run(args.workload, args.seed, dir, speed)?);
    }
    if let Bench::Solve(s) = &bench {
        let _ = write!(details, "\"max_eval_ulps\": {}, ", s.max_eval_ulps);
    }
    let bench_ops = bench.ops();
    drop(bench);
    let summary = Summary::of(&table.estimates_us(true));
    let raw_summary = Summary::of(&table.estimates_us(false));
    let _ = write!(
        details,
        "\"ops\": {}, \"passes\": {}, \"setups\": {}, \"percentile_on_gap\": {}, \
         \"raw\": {{\"setup_s\": {}, \"p50_us\": {}, \"p99_us\": {}, \"rate_per_s\": {}}}",
        bench_ops,
        table.passes(),
        setups.count(),
        summary.on_gap,
        json_num(setups.best_s(false)),
        json_num(raw_summary.p50_us),
        json_num(raw_summary.p99_us),
        json_num(raw_summary.rate_per_s),
    );
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    Ok(vec![
        m("setup_s", setups.best_s(true), "s"),
        m("p50_us", summary.p50_us, "us"),
        m("p99_us", summary.p99_us, "us"),
        m("rate_per_s", summary.rate_per_s, "1/s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ])
}

/// p50 of `values`, 0 when empty.
fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), 0.5)
    }
}

/// One workload's traced results.
struct Traced {
    untraced: Vec<f64>,
    tracer: Tracer,
}

/// Alternates untraced and traced passes of an already set-up bench.
fn trace_one(
    bench: &mut Bench,
    workload: Workload,
    budget: Duration,
    checks: &mut Checks,
) -> Result<Traced, String> {
    let mut table = Table::for_workload(workload, bench.ops());
    let mut tracer = Tracer::new(bench.ops());
    run_traced_passes(bench, &mut table, &mut tracer, budget, checks);
    let path = format!("{OUT_DIR}/spans-{}.tsv", workload.name());
    tracer
        .write_spans(std::path::Path::new(&path))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(Traced {
        untraced: table.estimates_us(false),
        tracer,
    })
}

/// The traced run: every workload's corpus, so every layer is measured.
fn traced(
    args: &Args,
    dir: &str,
    checks: &mut Checks,
    details: &mut String,
) -> Result<Vec<Metric>, String> {
    let budget = Duration::from_secs_f64(args.seconds as f64 / 4.0);
    let mut warm_bench = Bench::setup(Workload::ServeWarm, args.seed, dir)?;
    warm_bench.verify(checks);
    let warm = trace_one(&mut warm_bench, Workload::ServeWarm, budget, checks)?;
    let Bench::Warm(warm_state) = &warm_bench else {
        unreachable!("set up as serve-warm")
    };
    let hit_ratio = warm_state.hit_ratio();
    drop(warm_bench);
    let mut tcp_bench = Bench::setup(Workload::ServeTcp, args.seed, dir)?;
    let tcp_traced = trace_one(&mut tcp_bench, Workload::ServeTcp, budget, checks)?;
    drop(tcp_bench);

    let mut solve_bench = Bench::setup(Workload::SolveCold, args.seed, dir)?;
    let solve = trace_one(&mut solve_bench, Workload::SolveCold, budget, checks)?;
    let Bench::Solve(solve_state) = &solve_bench else {
        unreachable!("set up as solve-cold")
    };
    let mut chaos_bench = Bench::setup(Workload::ChaosReplan, args.seed, dir)?;
    chaos_bench.verify(checks);
    let chaos = trace_one(&mut chaos_bench, Workload::ChaosReplan, budget, checks)?;
    let Bench::Chaos(chaos_state) = &chaos_bench else {
        unreachable!("set up as chaos-replan")
    };

    let layer = |t: &Traced, name: &str| p50(&t.tracer.layer_us(name));
    let dispatch: Vec<f64> = (0..warm.untraced.len())
        .map(|i| warm.untraced[i] - warm.tracer.op_layers_total_us(i))
        .collect();
    let transport: Vec<f64> = (0..warm.untraced.len())
        .map(|i| tcp_traced.untraced[i] - warm.untraced[i])
        .collect();
    let chaos_sim_s: f64 = (0..chaos.untraced.len())
        .map(|i| {
            chaos.tracer.op_layer_us("sim.faulted", i) + chaos.tracer.op_layer_us("sim.clean", i)
        })
        .sum::<f64>()
        / 1e6;
    let selected = match args.workload {
        Workload::ServeWarm => &warm,
        Workload::ServeTcp => &tcp_traced,
        Workload::SolveCold => &solve,
        Workload::ChaosReplan => &chaos,
    };
    let untraced_p50 = p50(&selected.untraced);
    let traced_p50 = p50(&selected.tracer.totals_us());
    let _ = write!(
        details,
        "\"passes_per_workload_s\": {}, \"traced_ops\": [{}, {}, {}, {}]",
        json_num(budget.as_secs_f64()),
        warm.untraced.len(),
        tcp_traced.untraced.len(),
        solve.untraced.len(),
        chaos.untraced.len()
    );
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    Ok(vec![
        m("io.parse_us", layer(&warm, "io.parse"), "us"),
        m("io.format_us", layer(&warm, "io.format"), "us"),
        m("cache.lookup_us", layer(&warm, "cache.lookup"), "us"),
        m("cache.hit_ratio", hit_ratio, "count"),
        m("service.answer_us", layer(&warm, "service.answer"), "us"),
        m("tenancy.cosched_us", layer(&warm, "tenancy.cosched"), "us"),
        m("serve.dispatch_us", p50(&dispatch), "us"),
        m("transport.overhead_us", p50(&transport), "us"),
        m("service.prepare_us", layer(&solve, "service.prepare"), "us"),
        m(
            "split.trajectory_us",
            layer(&solve, "split.trajectory"),
            "us",
        ),
        m("split.points", solve_state.points as f64, "count"),
        m("split.floor_us", layer(&solve, "split.floor"), "us"),
        m("service.route_us", layer(&solve, "service.route"), "us"),
        m("exact.value_us", layer(&solve, "exact.value"), "us"),
        m("exact.witness_us", layer(&solve, "exact.witness"), "us"),
        m("exact.v2_us", layer(&solve, "exact.v2"), "us"),
        m("exact.front_us", layer(&solve, "exact.front"), "us"),
        m(
            "exact.dp_share",
            solve_state.dp_routed as f64 / solve_state.exact_ops.max(1) as f64,
            "count",
        ),
        m("replan.apply_us", layer(&chaos, "replan.apply"), "us"),
        m("replan.resolve_us", layer(&chaos, "replan.resolve"), "us"),
        m(
            "replan.adopted_ratio",
            chaos_state.adopted as f64 / chaos.untraced.len() as f64,
            "count",
        ),
        m("sim.faulted_us", layer(&chaos, "sim.faulted"), "us"),
        m("sim.clean_us", layer(&chaos, "sim.clean"), "us"),
        m(
            "sim.datasets_per_s",
            (2 * CHAOS_DATASETS * chaos.untraced.len()) as f64 / chaos_sim_s,
            "1/s",
        ),
        m(
            "sim.drop_ratio",
            chaos_state.dropped as f64 / chaos_state.offered.max(1) as f64,
            "count",
        ),
        m(
            "trace.overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
            "%",
        ),
        m("trace.unattributed_us", layer(selected, ROOT), "us"),
    ])
}
