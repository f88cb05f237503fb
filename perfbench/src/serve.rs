//! serve-warm and serve-tcp: warm request lines against the solver
//! service, answered in process through `ServeState::answer_line` or over
//! one loopback connection to a `serve::spawn` server.

use crate::corpus::ServeCorpus;
use crate::trace::Tracer;
use crate::Checks;
use pipeline_core::serve::{spawn, ServeConfig, ServeHandle, ServeState};
use pipeline_core::{
    CoSchedOptions, PartitionObjective, PreparedInstance, SolveRequest, SolveWorkspace, Tenant,
    TenantSet,
};
use pipeline_model::io::{
    format_report, parse_cosched_at, parse_instance, parse_report, parse_request_at,
    parse_stats_at, WireReport,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache capacity of the service: every corpus file stays resident.
const CACHE_CAPACITY: usize = 64;

/// The in-process service with its warm cache and the reports every
/// line must reproduce.
pub struct ServeWarm {
    corpus: ServeCorpus,
    state: Arc<ServeState>,
    ws: SolveWorkspace,
    /// The cold pass's formatted report of every line.
    expected: Vec<String>,
    /// Cache misses after the cold pass (one per corpus file).
    cold_misses: u64,
    /// Cache `(hits, misses)` when the timed passes began.
    counters_at_start: (u64, u64),
}

impl ServeWarm {
    /// Set-up: generate the corpus, write its instance files under
    /// `dir`, start a service state and answer every line once (the
    /// cold pass that loads the cache and fills every memo).
    pub fn setup(seed: u64, dir: &str) -> Result<Self, String> {
        let corpus = ServeCorpus::generate(seed, dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        for (path, text) in &corpus.files {
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        }
        let state = Arc::new(ServeState::new(
            Some(corpus.default_path().to_string()),
            CACHE_CAPACITY,
        ));
        let mut ws = SolveWorkspace::new();
        let expected = corpus
            .lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                state
                    .answer_line(line, i as u64 + 1, &mut ws)
                    .map(|r| format_report(&r))
                    .unwrap_or_default()
            })
            .collect();
        let stats = state.stats();
        Ok(ServeWarm {
            corpus,
            cold_misses: stats.cache_misses,
            counters_at_start: (stats.cache_hits, stats.cache_misses),
            state,
            ws,
            expected,
        })
    }

    /// Corpus size.
    pub fn ops(&self) -> usize {
        self.corpus.lines.len()
    }

    /// Set-up checks: no cold-pass line failed, and every solve/cosched
    /// report equals a direct `solve_in`/`co_schedule` on freshly parsed
    /// instances, formatted with `format_report`.
    pub fn verify(&mut self, checks: &mut Checks) {
        let texts: HashMap<&str, &str> = self
            .corpus
            .files
            .iter()
            .map(|(p, t)| (p.as_str(), t.as_str()))
            .collect();
        let fresh = |path: &str| {
            let (app, pf) = parse_instance(texts[path]).expect("corpus files parse");
            Arc::new(PreparedInstance::new(app, pf))
        };
        let default = self.corpus.default_path().to_string();
        let mut ws = SolveWorkspace::new();
        for (i, line) in self.corpus.lines.iter().enumerate() {
            let expected = &self.expected[i];
            let direct = if line.starts_with("solve") {
                let wire = parse_request_at(line, i + 1).expect("corpus lines parse");
                let request = SolveRequest::from_wire(&wire).expect("corpus strategies exist");
                let prepared = fresh(wire.instance.as_deref().unwrap_or(&default));
                Some(match prepared.solve_in(&request, &mut ws) {
                    Ok(report) => format_report(&report.to_wire(wire.id)),
                    Err(e) => format_report(&e.to_wire(wire.id)),
                })
            } else if line.starts_with("cosched") {
                Some(direct_cosched(line, i, &default, &fresh, &mut ws))
            } else {
                None
            };
            let ok = !expected.is_empty()
                && !expected.contains("status=error")
                && direct.as_ref().is_none_or(|d| d == expected);
            checks.check(ok, || {
                format!("serve set-up line {}: {line} -> {expected}", i + 1)
            });
        }
    }

    /// Whether `report` is the right answer to line `i`: byte-identical
    /// to the cold pass, or for `stats` lines a counter snapshot with no
    /// failures and no misses since the cold pass.
    fn answer_ok(&self, i: usize, report: &str) -> bool {
        if self.corpus.lines[i].starts_with("stats") {
            matches!(parse_report(report), Ok(WireReport::Stats(s))
                if s.failures == 0 && s.cache_misses == self.cold_misses && s.cache_evictions == 0)
        } else {
            report == self.expected[i]
        }
    }

    /// One untraced pass through `answer_line` + `format_report`.
    pub fn pass(&mut self, record: &mut dyn FnMut(usize, Duration), checks: &mut Checks) {
        for i in 0..self.corpus.lines.len() {
            let line = &self.corpus.lines[i];
            let t = Instant::now();
            let report = self.state.answer_line(line, i as u64 + 1, &mut self.ws);
            let text = report.as_ref().map(format_report);
            record(i, t.elapsed());
            let ok = text.as_deref().is_some_and(|s| self.answer_ok(i, s));
            checks.check(ok, || {
                format!("serve-warm line {}: {line} -> {text:?}", i + 1)
            });
        }
    }

    /// One traced pass: the layers `answer_line` composes, called one by
    /// one. The answers must equal the untraced ones byte for byte.
    pub fn traced_pass(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        tr.begin_pass();
        let default = self.corpus.default_path().to_string();
        for i in 0..self.corpus.lines.len() {
            let line = self.corpus.lines[i].as_str();
            let no = i + 1;
            let ws = &mut self.ws;
            let state = &self.state;
            tr.begin_op(i);
            let text = if line.starts_with("solve") {
                let (wire, request) = tr.span("io.parse", || {
                    let wire = parse_request_at(line, no).expect("corpus lines parse");
                    let request = SolveRequest::from_wire(&wire).expect("known strategies");
                    (wire, request)
                });
                let path = wire.instance.as_deref().unwrap_or(&default);
                let prepared = tr.span("cache.lookup", || state.cache().get_or_load(path));
                let prepared = prepared.expect("corpus files load");
                let answer = tr.span("service.answer", || prepared.solve_in(&request, ws));
                tr.span("io.format", || {
                    format_report(&match answer {
                        Ok(report) => report.to_wire(wire.id),
                        Err(e) => e.to_wire(wire.id),
                    })
                })
            } else if line.starts_with("cosched") {
                let wire = tr.span("io.parse", || {
                    parse_cosched_at(line, no).expect("corpus lines parse")
                });
                let instances: Vec<_> = tr.span("cache.lookup", || {
                    wire.tenants
                        .iter()
                        .map(|t| {
                            let path = t.as_deref().unwrap_or(&default);
                            state.cache().get_or_load(path).expect("corpus files load")
                        })
                        .collect()
                });
                let schedule = tr.span("tenancy.cosched", || {
                    let (objective, opts, tenants) = cosched_inputs(&wire, instances);
                    TenantSet::new(tenants)
                        .expect("tenants share a platform")
                        .co_schedule(objective, &opts, ws)
                        .expect("enough processors")
                });
                tr.span("io.format", || format_report(&schedule.to_wire(wire.id)))
            } else {
                // `stats` is dispatch alone: its counters live in the
                // service state.
                let _ = parse_stats_at(line, no).expect("corpus lines parse");
                state
                    .answer_line(line, no as u64, ws)
                    .map(|r| format_report(&r))
                    .unwrap_or_default()
            };
            tr.end_op();
            let ok = self.answer_ok(i, &text);
            checks.check(ok, || {
                format!("serve-warm traced line {no}: {line} -> {text}")
            });
        }
        tr.end_pass();
    }

    /// Cache hits ÷ lookups since the timed passes began.
    pub fn hit_ratio(&self) -> f64 {
        let s = self.state.stats();
        let hits = (s.cache_hits - self.counters_at_start.0) as f64;
        let misses = (s.cache_misses - self.counters_at_start.1) as f64;
        hits / (hits + misses)
    }
}

/// The partition objective, options and tenants of a parsed `cosched`
/// line, exactly as the service builds them.
fn cosched_inputs(
    wire: &pipeline_model::io::WireCosched,
    instances: Vec<Arc<PreparedInstance>>,
) -> (PartitionObjective, CoSchedOptions, Vec<Tenant>) {
    let objective = PartitionObjective::from_label(&wire.objective).expect("known objective");
    let mut opts = CoSchedOptions {
        strategy: wire.strategy.parse().expect("known strategy"),
        ..CoSchedOptions::default()
    };
    if let Some(t) = wire.tolerance {
        opts.tolerance = t;
    }
    let tenants = instances
        .into_iter()
        .enumerate()
        .map(|(i, instance)| {
            let mut tenant = Tenant::new(instance);
            if let Some(w) = &wire.weights {
                tenant = tenant.weight(w[i]);
            }
            if let Some(Some(slo)) = wire.slos.as_ref().map(|s| s[i]) {
                tenant = tenant.slo(slo);
            }
            tenant
        })
        .collect();
    (objective, opts, tenants)
}

fn direct_cosched(
    line: &str,
    i: usize,
    default: &str,
    fresh: &dyn Fn(&str) -> Arc<PreparedInstance>,
    ws: &mut SolveWorkspace,
) -> String {
    let wire = parse_cosched_at(line, i + 1).expect("corpus lines parse");
    let instances = wire
        .tenants
        .iter()
        .map(|t| fresh(t.as_deref().unwrap_or(default)))
        .collect();
    let (objective, opts, tenants) = cosched_inputs(&wire, instances);
    match TenantSet::new(tenants).and_then(|set| set.co_schedule(objective, &opts, ws)) {
        Ok(schedule) => format_report(&schedule.to_wire(wire.id)),
        Err(e) => format!("tenancy error {}", e.code()),
    }
}

/// serve-warm's service behind a loopback TCP server, with one client
/// connection (a closed loop: the next line is sent once the previous
/// report has arrived). The client busy-polls its non-blocking socket,
/// as a latency-bound client does, so an operation's time excludes the
/// client's own wake-up.
pub struct ServeTcp {
    /// The in-process half: corpus, state and expected reports.
    pub warm: ServeWarm,
    server: Option<ServeHandle>,
    stream: Option<TcpStream>,
    requests: Vec<Vec<u8>>,
    reply: Vec<u8>,
}

/// Writes all of `bytes` to a non-blocking stream, spinning while the
/// send buffer is full.
fn send(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one `\n`-terminated reply from a non-blocking stream into
/// `reply`, spinning until it is complete.
fn receive(stream: &mut TcpStream, reply: &mut Vec<u8>) -> std::io::Result<()> {
    reply.clear();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                reply.extend_from_slice(&chunk[..n]);
                if reply.last() == Some(&b'\n') {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

impl ServeTcp {
    /// Set-up: serve-warm's set-up, then spawn the server on an
    /// ephemeral loopback port and connect.
    pub fn setup(seed: u64, dir: &str) -> Result<Self, String> {
        let warm = ServeWarm::setup(seed, dir)?;
        let server = spawn(
            "127.0.0.1:0",
            Arc::clone(&warm.state),
            ServeConfig {
                cache_capacity: CACHE_CAPACITY,
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("spawn: {e}"))?;
        let stream = TcpStream::connect(server.local_addr()).map_err(|e| format!("{e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("{e}"))?;
        stream.set_nonblocking(true).map_err(|e| format!("{e}"))?;
        let requests = warm
            .corpus
            .lines
            .iter()
            .map(|l| format!("{l}\n").into_bytes())
            .collect();
        let mut tcp = ServeTcp {
            warm,
            server: Some(server),
            stream: Some(stream),
            requests,
            reply: Vec::new(),
        };
        // The connection's first request pays the accept poll; keep it
        // out of the corpus.
        let stream = tcp.stream.as_mut().expect("connected");
        send(stream, b"stats id=0\n")
            .and_then(|()| receive(stream, &mut tcp.reply))
            .map_err(|e| format!("first request: {e}"))?;
        Ok(tcp)
    }

    /// Corpus size.
    pub fn ops(&self) -> usize {
        self.warm.ops()
    }

    fn check_reply(&self, i: usize, checks: &mut Checks, io: std::io::Result<()>) {
        let reply = std::str::from_utf8(&self.reply)
            .ok()
            .and_then(|r| r.strip_suffix('\n'));
        let ok = io.is_ok() && reply.is_some_and(|r| self.warm.answer_ok(i, r));
        checks.check(ok, || {
            format!("serve-tcp line {}: {io:?} -> {reply:?}", i + 1)
        });
    }

    /// One untraced pass: each line's round trip is one operation.
    pub fn pass(&mut self, record: &mut dyn FnMut(usize, Duration), checks: &mut Checks) {
        for i in 0..self.requests.len() {
            let stream = self.stream.as_mut().expect("connected");
            let t = Instant::now();
            let io =
                send(stream, &self.requests[i]).and_then(|()| receive(stream, &mut self.reply));
            record(i, t.elapsed());
            self.check_reply(i, checks, io);
        }
    }

    /// One traced pass: the write and the read of each round trip in
    /// spans of their own (client side only: the server's layers run in
    /// its connection thread).
    pub fn traced_pass(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        tr.begin_pass();
        for i in 0..self.requests.len() {
            let stream = self.stream.as_mut().expect("connected");
            tr.begin_op(i);
            let wrote = tr.span("tcp.write", || send(stream, &self.requests[i]));
            let read = tr.span("tcp.read", || receive(stream, &mut self.reply));
            tr.end_op();
            self.check_reply(i, checks, wrote.and(read));
        }
        tr.end_pass();
    }

    /// Closes the connection and stops the server, waiting for its
    /// threads.
    fn shutdown(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for ServeTcp {
    fn drop(&mut self) {
        self.shutdown();
    }
}
