//! `pwsched` — schedule a pipeline instance from a file, serve solve
//! requests over stdin or TCP, sweep the scenario zoo, or run the chaos
//! study.
//!
//! ```text
//! pwsched <instance-file> [--period BOUND | --latency BOUND | --min-period
//!         | --min-latency | --pareto-front]
//!         [--heuristic h1|h2|h3|h4|h5|h6|h7|best|exact|auto]
//!         [--simulate N] [--gantt]
//! pwsched solve <instance-file> --stdin
//! pwsched serve <addr> [--default-instance FILE] [--max-conns N]
//!         [--cache-capacity N] [--idle-timeout-secs S]
//! pwsched load <addr> [--replay FILE | --connections N --requests M]
//! pwsched --sweep <family|all> [--stages N] [--procs P] [--instances K]
//!         [--grid G] [--threads T] [--seed S]
//! pwsched chaos [--families F1,F2|all] [--heuristics H1,H2|all] ...
//! ```
//!
//! `serve` is the persistent TCP front: the same line-oriented wire
//! format v1, one report line per request line per connection, behind a
//! shared LRU cache of prepared instances (`core::serve`). `load` is the
//! matching client — a replay mode for CI smoke diffs and a generated
//! scenario-zoo corpus for load testing.
//!
//! The instance file uses the `pipeline-instance v1` text format, and the
//! service mode speaks the line-oriented request/report wire format —
//! both in `pipeline_model::io`. `pwsched solve <file> --stdin` prepares
//! the instance once, then answers one `solve …` request per input line
//! with one `report …` line (requests may override the instance with
//! `instance=<path>`; prepared instances are cached per path), so the
//! binary can sit behind a socket or pipe and serve traffic. Default
//! objective: `--min-period`; default strategy: `auto` (exact for small
//! instances, best-of-all heuristics otherwise).
//!
//! `--sweep` runs the sharded sweep engine over one registered scenario
//! family (by stable label — `e1`…`e4`, `heavy-tail`, `two-tier`,
//! `comm-dominant`, `power-law`, `adversarial`) or over the whole zoo
//! (`all`), printing per-family landmark summaries. CI's smoke job uses
//! it to exercise every registered family on two threads.

use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pipeline_workflows::core::serve::{self, ServeConfig, ServeState};
use pipeline_workflows::core::service::{PreparedInstance, SolveRequest};
use pipeline_workflows::core::SolveWorkspace;
use pipeline_workflows::core::{Objective, Strategy};
use pipeline_workflows::experiments::{
    request_lines, run_load, run_scenario, scenario_zoo, write_zoo_instances, LoadReport,
};
use pipeline_workflows::model::io::{format_report, parse_instance};
use pipeline_workflows::model::scenario::ScenarioFamily;
use pipeline_workflows::sim::{Gantt, InputPolicy, PipelineSim, SimConfig};

fn usage() -> ! {
    eprintln!(
        "usage: pwsched <instance-file> \
         [--period B | --latency B | --min-period | --min-latency | --pareto-front]\n\
         \t[--heuristic h1|h2|h3|h4|h5|h6|h7|best|exact|auto] [--simulate N] [--gantt]\n\
         \tpwsched solve <instance-file> --stdin\n\
         \tpwsched --sweep <family|all> [--stages N] [--procs P] [--instances K]\n\
         \t[--grid G] [--threads T] [--seed S]\n\
         \tpwsched serve <addr> [--default-instance FILE] [--max-conns N]\n\
         \t[--cache-capacity N] [--idle-timeout-secs S] [--request-quota N]\n\
         \t[--conn-deadline-secs S]\n\
         \tpwsched chaos [--families F1,F2|all] [--heuristics H1,H2|all]\n\
         \t[--plans P1,P2|all] [--stages N] [--procs P] [--instances K]\n\
         \t[--datasets D] [--seed S] [--threads T] [--verify-threads]\n\
         \tpwsched load <addr> [--replay FILE | --connections N --requests M\n\
         \t[--stages n] [--procs p]]"
    );
    std::process::exit(2);
}

/// The value following `flag`, or the usage text.
fn flag_value(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("missing value for {flag}");
        usage();
    })
}

/// `value` parsed as a `T`, or the usage text.
fn parsed<T: std::str::FromStr>(value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage())
}

/// The comma-separated items of `value`, each parsed by `parse`, or the
/// usage text.
fn list<T>(value: &str, parse: impl Fn(&str) -> Result<T, String>) -> Vec<T> {
    let item = |l: &str| {
        parse(l.trim()).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        })
    };
    value.split(',').map(item).collect()
}

fn parse_strategy(s: &str) -> Strategy {
    s.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    })
}

fn load_instance(path: &str) -> PreparedInstance {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let (app, platform) = parse_instance(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    PreparedInstance::new(app, platform)
}

/// Builds the shared serve state and fails fast if the default instance
/// does not load — a misconfigured service should die at startup, not on
/// its first request.
fn serve_state(default_path: Option<String>, cache_capacity: usize) -> Arc<ServeState> {
    let state = Arc::new(ServeState::new(default_path, cache_capacity));
    if let Err(e) = state.preload_default() {
        eprintln!("{e}");
        std::process::exit(1);
    }
    state
}

/// Service mode over stdin: one report line per request line, answered
/// by the same [`ServeState::answer_line`] path as the TCP front (which
/// is what keeps the two transports byte-identical).
fn run_service(mut args: impl Iterator<Item = String>) -> ! {
    let Some(default_path) = args.next() else {
        usage()
    };
    match args.next().as_deref() {
        Some("--stdin") => {}
        _ => usage(),
    }
    if args.next().is_some() {
        usage();
    }
    let state = serve_state(Some(default_path), ServeConfig::default().cache_capacity);
    let mut ws = SolveWorkspace::new();

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut line_no: u64 = 0;
    for line in stdin.lock().lines() {
        let line = line.expect("stdin readable");
        line_no += 1;
        let Some(report) = state.answer_line(&line, line_no, &mut ws) else {
            continue;
        };
        let outcome = writeln!(out, "{}", format_report(&report)).and_then(|()| out.flush());
        match outcome {
            Ok(()) => {}
            // A disconnecting consumer (EPIPE) ends the service cleanly;
            // any other stdout failure is fatal.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
            Err(e) => {
                eprintln!("cannot write report: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

/// Installs a handler that flips `stop` on SIGINT/SIGTERM, so the serve
/// loop drains in-flight connections instead of dying mid-report. Raw
/// `signal(2)` through the libc std already links — no new dependency.
#[cfg(unix)]
fn install_stop_signals(stop: Arc<AtomicBool>) {
    use std::sync::OnceLock;
    static STOP: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    extern "C" fn on_signal(_sig: i32) {
        // Only the atomic store — everything else is deferred to the
        // accept loop's next poll.
        if let Some(flag) = STOP.get() {
            flag.store(true, Ordering::Relaxed);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    let _ = STOP.set(stop);
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_stop_signals(_stop: Arc<AtomicBool>) {}

fn resolve_addr(addr: &str) -> SocketAddr {
    match addr.to_socket_addrs().ok().and_then(|mut it| it.next()) {
        Some(resolved) => resolved,
        None => {
            eprintln!("cannot resolve address {addr:?} (want host:port)");
            std::process::exit(1);
        }
    }
}

/// `serve <addr>`: the persistent TCP front. Binds, then runs the accept
/// loop on the main thread until SIGINT/SIGTERM initiates a graceful
/// drain; final counters go to stderr.
fn run_serve(mut args: impl Iterator<Item = String>) -> ! {
    let Some(addr) = args.next() else { usage() };
    let mut config = ServeConfig::default();
    let mut default_instance: Option<String> = None;
    while let Some(flag) = args.next() {
        let value = flag_value(&flag, &mut args);
        match flag.as_str() {
            "--default-instance" => default_instance = Some(value),
            "--max-conns" => config.max_connections = parsed(&value),
            "--cache-capacity" => config.cache_capacity = parsed(&value),
            "--idle-timeout-secs" => config.idle_timeout = Duration::from_secs(parsed(&value)),
            "--request-quota" => config.request_quota = Some(parsed(&value)),
            "--conn-deadline-secs" => {
                config.conn_deadline = Some(Duration::from_secs(parsed(&value)))
            }
            _ => usage(),
        }
    }
    if config.max_connections < 1 || config.cache_capacity < 1 {
        eprintln!("--max-conns and --cache-capacity must be >= 1");
        usage();
    }
    // A zero idle timeout would close every connection before its first
    // read, and a zero deadline would refuse every first request.
    if config.request_quota == Some(0)
        || config.idle_timeout.is_zero()
        || config.conn_deadline == Some(Duration::ZERO)
    {
        eprintln!("--request-quota, --idle-timeout-secs and --conn-deadline-secs must be >= 1");
        usage();
    }
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    let state = serve_state(default_instance, config.cache_capacity);
    let stop = Arc::new(AtomicBool::new(false));
    install_stop_signals(Arc::clone(&stop));
    eprintln!(
        "pwsched serve: listening on {local} (max-conns {}, cache {}, idle-timeout {}s)",
        config.max_connections,
        config.cache_capacity,
        config.idle_timeout.as_secs()
    );
    let stats = serve::serve(listener, state, config, stop);
    eprintln!(
        "pwsched serve: drained — {} connections ({} rejected), {} requests ({} failures), \
         cache {}/{} hits ({} evictions)",
        stats.connections,
        stats.rejected,
        stats.requests,
        stats.failures,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
        stats.cache_evictions
    );
    std::process::exit(0);
}

/// Streams a request file to the server in lockstep (one request line,
/// one report line) and prints the reports to stdout — the TCP twin of
/// `pwsched solve <file> --stdin < requests`, used by the CI smoke job
/// to diff the two transports byte for byte.
fn replay_file(addr: SocketAddr, path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .unwrap_or_else(|e| {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        });
    stream.set_nodelay(true).expect("nodelay is settable");
    let mut writer = stream.try_clone().expect("socket clones");
    let mut reader = std::io::BufReader::new(stream);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in text.lines() {
        let trimmed = line.trim();
        writeln!(writer, "{line}").expect("request writes");
        writer.flush().expect("request flushes");
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue; // the server stays silent on comment lines
        }
        let mut response = String::new();
        let n = reader.read_line(&mut response).expect("report reads");
        if n == 0 {
            eprintln!("server closed the connection mid-replay");
            std::process::exit(1);
        }
        out.write_all(response.as_bytes()).expect("stdout writes");
    }
    out.flush().expect("stdout flushes");
    std::process::exit(0);
}

/// A quantile for display: the value in µs, or `-` when nothing was
/// answered (an all-errors run has no latency distribution).
fn fmt_us(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |us| us.to_string())
}

fn print_load_phase(label: &str, connections: usize, report: &LoadReport) {
    println!(
        "{label:<6} conns={connections:<2} answered={:<5} errors={:<3} \
         p50_us={:<8} p99_us={:<8} req_per_sec={:.0}",
        report.answered,
        report.errors,
        fmt_us(report.p50_us()),
        fmt_us(report.p99_us()),
        report.requests_per_sec()
    );
}

/// `load <addr>`: the load generator. `--replay FILE` streams a request
/// file and prints the reports (CI smoke); otherwise fires a generated
/// scenario-zoo corpus in a cold pass and a warm pass and prints
/// latency/throughput summaries.
fn run_load_cmd(mut args: impl Iterator<Item = String>) -> ! {
    let Some(addr) = args.next() else { usage() };
    let addr = resolve_addr(&addr);
    let mut replay: Option<String> = None;
    let mut connections = 2usize;
    let mut requests = 100usize;
    let mut stages = 24usize;
    let mut procs = 12usize;
    while let Some(flag) = args.next() {
        let value = flag_value(&flag, &mut args);
        match flag.as_str() {
            "--replay" => replay = Some(value),
            "--connections" => connections = parsed(&value),
            "--requests" => requests = parsed(&value),
            "--stages" => stages = parsed(&value),
            "--procs" => procs = parsed(&value),
            _ => usage(),
        }
    }
    if let Some(path) = replay {
        replay_file(addr, &path);
    }
    if connections < 1 || requests < 1 || stages < 2 || procs < 1 {
        eprintln!("--connections/--requests/--procs must be >= 1, --stages >= 2");
        usage();
    }
    let dir = std::env::temp_dir().join(format!("pwsched-load-{}", std::process::id()));
    let paths = write_zoo_instances(&dir, "load", stages, procs, 2007).unwrap_or_else(|e| {
        eprintln!("cannot write instance corpus: {e}");
        std::process::exit(1);
    });
    let lines = request_lines(&paths, requests);
    // Pass 1 pays instance loads and lazy trajectory memoization on the
    // server; pass 2 answers from the shared cache.
    let cold = run_load(addr, &lines, connections);
    print_load_phase("cold", connections, &cold);
    let warm = run_load(addr, &lines, connections);
    print_load_phase("warm", connections, &warm);
    let _ = std::fs::remove_dir_all(&dir);
    let failed = cold.errors + warm.errors > 0;
    std::process::exit(if failed { 1 } else { 0 });
}

/// `chaos`: run the chaos study — zoo families × heuristics × named
/// fault plans through the deterministic fault simulator, with the
/// ride-it-out vs re-plan comparison on platform faults. Output is
/// bit-identical for every `--threads` value; `--verify-threads` proves
/// it on the spot by re-running at 1/2/4 threads and comparing
/// fingerprints.
fn run_chaos(mut args: impl Iterator<Item = String>) -> ! {
    use pipeline_workflows::core::HeuristicKind;
    use pipeline_workflows::experiments::{
        chaos_fingerprint, chaos_study, render_chaos, ChaosParams, ChaosPlanKind,
    };

    let mut params = ChaosParams {
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        ..ChaosParams::default()
    };
    let mut verify_threads = false;
    while let Some(flag) = args.next() {
        if flag == "--verify-threads" {
            verify_threads = true;
            continue;
        }
        let value = flag_value(&flag, &mut args);
        match flag.as_str() {
            "--families" if value != "all" => {
                params.families = list(&value, |l| {
                    ScenarioFamily::from_label(l).ok_or(format!("unknown family {l}"))
                })
            }
            "--heuristics" if value == "all" => params.heuristics = HeuristicKind::ALL.to_vec(),
            "--heuristics" => {
                params.heuristics = list(&value, |l| l.parse().map_err(|e| format!("{e}")))
            }
            "--plans" if value != "all" => {
                params.plans = list(&value, |l| {
                    ChaosPlanKind::from_label(l).ok_or(format!(
                        "unknown plan {l} (speed-dip|fail-stop|jitter|burst)"
                    ))
                })
            }
            "--families" | "--plans" => {}
            "--stages" => params.n_stages = parsed(&value),
            "--procs" => params.n_procs = parsed(&value),
            "--instances" => params.n_instances = parsed(&value),
            "--datasets" => params.n_datasets = parsed(&value),
            "--seed" => params.seed = parsed(&value),
            "--threads" => params.threads = parsed(&value),
            _ => usage(),
        }
    }
    if params.n_stages < 2
        || params.n_procs < 1
        || params.n_instances < 1
        || params.n_datasets < 1
        || params.threads < 1
    {
        eprintln!("--stages must be >= 2, the other counts >= 1");
        usage();
    }

    let rows = chaos_study(&params);
    println!(
        "chaos study: {} famil{}, {} heuristic{}, {} plan{}, {} instances, {} data sets, seed {}",
        params.families.len(),
        if params.families.len() == 1 {
            "y"
        } else {
            "ies"
        },
        params.heuristics.len(),
        if params.heuristics.len() == 1 {
            ""
        } else {
            "s"
        },
        params.plans.len(),
        if params.plans.len() == 1 { "" } else { "s" },
        params.n_instances,
        params.n_datasets,
        params.seed
    );
    print!("{}", render_chaos(&rows));

    if verify_threads {
        let fp = chaos_fingerprint(&rows);
        for t in [1usize, 2, 4] {
            let mut p = params.clone();
            p.threads = t;
            let other = chaos_fingerprint(&chaos_study(&p));
            if other != fp {
                eprintln!("FAIL: chaos study differs at {t} thread(s)");
                std::process::exit(1);
            }
        }
        println!("thread-count invariance: OK (1/2/4 threads, fingerprint {fp:#018x})");
    }
    std::process::exit(0);
}

fn run_sweep(mut args: impl Iterator<Item = String>) -> ! {
    let Some(which) = args.next() else { usage() };
    let mut stages: Option<usize> = None;
    let mut procs: Option<usize> = None;
    let mut instances = 50usize;
    let mut grid = 20usize;
    let mut threads = 1usize;
    let mut seed = 2007u64;
    while let Some(flag) = args.next() {
        let value = flag_value(&flag, &mut args);
        match flag.as_str() {
            "--stages" => stages = Some(parsed(&value)),
            "--procs" => procs = Some(parsed(&value)),
            "--instances" => instances = parsed(&value),
            "--grid" => grid = parsed(&value),
            "--threads" => threads = parsed(&value),
            "--seed" => seed = parsed(&value),
            _ => usage(),
        }
    }
    if threads < 1 || instances < 1 || grid < 2 {
        eprintln!("--threads and --instances must be >= 1, --grid >= 2");
        usage();
    }
    if stages == Some(0) || procs == Some(0) {
        eprintln!("--stages and --procs must be >= 1");
        usage();
    }
    let specs: Vec<_> = if which == "all" {
        scenario_zoo()
    } else {
        let Some(family) = ScenarioFamily::from_label(&which) else {
            eprintln!(
                "unknown family {which:?}; registered: {}",
                ScenarioFamily::ALL.map(|f| f.label()).join(", ")
            );
            std::process::exit(2);
        };
        scenario_zoo()
            .into_iter()
            .filter(|s| s.family == family)
            .collect()
    };
    println!(
        "{:<14} {:>4} {:>4} {:>9} {:>9} {:>9} {:>7} {:>8} {:>8}",
        "family", "n", "p", "P_single", "L_opt", "floor", "curves", "skipped", "ms"
    );
    for spec in specs {
        let mut params = spec.params();
        if let Some(n) = stages {
            params.n_stages = n;
        }
        if let Some(p) = procs {
            params.n_procs = p;
        }
        let t0 = std::time::Instant::now();
        let fam = run_scenario(&params, seed, instances, grid, threads);
        let ms = t0.elapsed().as_millis();
        println!(
            "{:<14} {:>4} {:>4} {:>9.3} {:>9.3} {:>9.3} {:>7} {:>8} {:>8}",
            spec.family.label(),
            params.n_stages,
            params.n_procs,
            fam.stats.mean_p_init,
            fam.stats.mean_l_opt,
            fam.stats.mean_best_floor,
            fam.series.len(),
            fam.skipped.len(),
            ms
        );
        if !fam.skipped.is_empty() {
            println!(
                "{:<14} skipped (platform class rejects them): {}",
                "",
                fam.skipped
                    .iter()
                    .map(|k| k.table_name())
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        // Front quality vs the exact Pareto front, computed whenever n
        // is within the exact solver's Auto cutoff: hypervolume ratio
        // (1 = the heuristic recovers the whole exact front) and mean
        // relative distance to the front (0 = every point optimal).
        if !fam.quality.is_empty() {
            println!(
                "{:<14} front quality vs exact (hv ratio/distance): {}",
                "",
                fam.quality
                    .iter()
                    .map(|q| format!(
                        "{} {:.3}/{:.3}",
                        q.kind.table_name(),
                        q.hypervolume_ratio,
                        q.distance
                    ))
                    .collect::<Vec<_>>()
                    .join("  ")
            );
        }
    }
    std::process::exit(0);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else { usage() };
    if path == "--help" || path == "-h" {
        usage();
    }
    if path == "--sweep" {
        run_sweep(args);
    }
    if path == "solve" {
        run_service(args);
    }
    if path == "serve" {
        run_serve(args);
    }
    if path == "load" {
        run_load_cmd(args);
    }
    if path == "chaos" {
        run_chaos(args);
    }
    let mut objective: Option<Objective> = None;
    let mut strategy = Strategy::Auto;
    let mut simulate: Option<usize> = None;
    let mut gantt = false;
    while let Some(flag) = args.next() {
        let mut value = || flag_value(&flag, &mut args);
        match flag.as_str() {
            "--period" => objective = Some(Objective::MinLatencyForPeriod(parsed(&value()))),
            "--latency" => objective = Some(Objective::MinPeriodForLatency(parsed(&value()))),
            "--min-period" => objective = Some(Objective::MinPeriod),
            "--min-latency" => objective = Some(Objective::MinLatency),
            "--pareto-front" => objective = Some(Objective::ParetoFront),
            "--heuristic" => strategy = parse_strategy(&value()),
            "--simulate" => simulate = Some(parsed(&value())),
            "--gantt" => gantt = true,
            _ => usage(),
        }
    }
    let objective = objective.unwrap_or(Objective::MinPeriod);

    let prepared = load_instance(&path);
    let cm = prepared.cost_model();
    println!(
        "instance: {} stages (total work {:.2}), {} processors",
        prepared.app().n_stages(),
        prepared.app().total_work(),
        prepared.platform().n_procs()
    );
    println!(
        "landmarks: L_opt {:.4}, single-processor period {:.4}",
        prepared.optimal_latency(),
        prepared.single_proc_period()
    );

    let report = match prepared.solve(&SolveRequest::new(objective).strategy(strategy)) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("cannot answer {objective:?}: {err}");
            std::process::exit(1);
        }
    };
    if let Some(front) = &report.front {
        println!("\nPareto front ({} points):", front.len());
        println!("{:>12} {:>12}  solver", "period", "latency");
        for (period, latency, solver) in front.iter() {
            println!("{period:>12.4} {latency:>12.4}  {}", solver.label());
        }
    }
    println!("\nsolver:  {}", report.solver.label());
    println!("mapping: {}", report.result.mapping);
    println!("period:  {:.4}", report.result.period);
    println!("latency: {:.4}", report.result.latency);
    if !report.result.feasible {
        println!("WARNING: the requested constraint was NOT met; best effort shown.");
    }

    if let Some(n) = simulate {
        let out = PipelineSim::new(
            &cm,
            &report.result.mapping,
            SimConfig {
                input: InputPolicy::Saturating,
                record_trace: gantt,
            },
        )
        .run(n.max(1));
        println!("\nsimulated {n} data sets (saturating input):");
        if let Some(sp) = out.report.steady_period() {
            println!("  steady period: {sp:.4}");
        }
        println!("  max latency:   {:.4}", out.report.max_latency());
        for &u in report.result.mapping.procs() {
            println!(
                "  P{u} utilization: {:.1}%",
                100.0 * out.report.utilization(u)
            );
        }
        if gantt {
            let horizon = out.report.makespan.min(report.result.period * 8.0);
            println!(
                "\n{}",
                Gantt::default().render(&out.trace, report.result.mapping.procs(), horizon)
            );
        }
    }
}
