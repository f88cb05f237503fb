//! TCP load generator for the `pwsched serve` front.
//!
//! Reuses the sharded work-queue engine's per-worker contexts for the
//! client side of the serve story: each worker owns **one TCP
//! connection** (opened lazily on its first request, reused for every
//! request the worker claims), and the request stream is the shared
//! index space the workers steal from. `connections` therefore bounds
//! the number of concurrent sockets exactly the way `threads` bounds
//! shard workers — because it *is* the shard thread count.
//!
//! The request corpus comes from the scenario zoo:
//! [`write_zoo_instances`] materializes one instance file per scenario
//! family (the serve cache is keyed by path, so each file is one cache
//! entry) and [`request_lines`] turns them into wire-format `solve`
//! lines cycling objectives across the files. Replaying the same corpus
//! twice gives the cold/warm contrast the serve benchmark reports: the
//! first pass pays instance load + lazy trajectory memoization, the
//! second answers everything from the shared prepared-instance cache.

use crate::shard::{sharded_map_indices_with, ShardOptions};
use pipeline_model::io::format_instance;
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Measured outcome of one load run: per-request wire latencies plus the
/// wall-clock of the whole run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests that received a report line.
    pub answered: usize,
    /// Requests that failed at the transport level (connect/write/read).
    pub errors: usize,
    /// Wall-clock of the whole run (all connections).
    pub wall_secs: f64,
    /// Per-request latencies in microseconds, sorted ascending.
    latencies_us: Vec<u64>,
}

impl LoadReport {
    /// The `q`-quantile latency in microseconds by the nearest-rank
    /// method (`q` clamped to `[0, 1]`; `q = 0` is the minimum, `q = 1`
    /// the maximum, a single sample answers every quantile). `None` when
    /// nothing was answered — an all-errors run must not masquerade as
    /// "every request returned in 0 µs".
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.latencies_us.is_empty() {
            return None;
        }
        let rank = ((self.latencies_us.len() as f64) * q.clamp(0.0, 1.0)).ceil() as usize;
        Some(self.latencies_us[rank.clamp(1, self.latencies_us.len()) - 1])
    }

    /// Median request latency in microseconds (`None` when nothing was
    /// answered).
    pub fn p50_us(&self) -> Option<u64> {
        self.quantile_us(0.50)
    }

    /// 99th-percentile request latency in microseconds (`None` when
    /// nothing was answered).
    pub fn p99_us(&self) -> Option<u64> {
        self.quantile_us(0.99)
    }

    /// Answered requests per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.answered as f64 / self.wall_secs
        }
    }
}

/// Writes one scenario-zoo instance file per family into `dir` (created
/// if missing) and returns the paths. Files are named
/// `<tag>-<family>.pw`; `n_stages`/`n_procs` size every instance, `seed`
/// fixes the draw. Each path is one entry of the serve instance cache.
pub fn write_zoo_instances(
    dir: &Path,
    tag: &str,
    n_stages: usize,
    n_procs: usize,
    seed: u64,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(family.params(n_stages, n_procs));
        let (app, pf) = gen.instance(seed, 0);
        let path = dir.join(format!("{tag}-{}.pw", family.label()));
        std::fs::write(&path, format_instance(&app, &pf))?;
        paths.push(path);
    }
    Ok(paths)
}

/// `count` wire-format request lines cycling over the instance files and
/// a small objective rotation (min-period / min-latency, auto and
/// best-of-all strategies). Request ids are `1..=count`; every line
/// carries an `instance=` selector, so the server's shared cache is on
/// the hot path of each request.
pub fn request_lines(paths: &[PathBuf], count: usize) -> Vec<String> {
    const OBJECTIVES: [&str; 4] = [
        "objective=min-period",
        "objective=min-latency",
        "objective=min-period strategy=best",
        "objective=min-latency strategy=best",
    ];
    assert!(!paths.is_empty(), "need at least one instance file");
    (0..count)
        .map(|i| {
            let path = paths[i % paths.len()].display();
            let objective = OBJECTIVES[(i / paths.len()) % OBJECTIVES.len()];
            format!("solve id={} {objective} instance={path}", i + 1)
        })
        .collect()
}

/// One worker's connection, opened lazily at its first request so that
/// connect time lands inside the measured window of the request that
/// pays it — not in a warm-up no one observes.
struct ClientConn {
    addr: SocketAddr,
    stream: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl ClientConn {
    fn new(addr: SocketAddr) -> Self {
        ClientConn { addr, stream: None }
    }

    fn ensure_open(&mut self) -> std::io::Result<&mut (BufReader<TcpStream>, TcpStream)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            let writer = stream.try_clone()?;
            self.stream = Some((BufReader::new(stream), writer));
        }
        Ok(self.stream.as_mut().expect("just opened"))
    }

    /// Sends one request line and waits for its report line.
    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        let (reader, writer) = self.ensure_open()?;
        writeln!(writer, "{line}")?;
        writer.flush()?;
        let mut response = String::new();
        let n = reader.read_line(&mut response)?;
        if n == 0 {
            // Server closed on us; drop the socket so the next request
            // reconnects instead of failing forever.
            self.stream = None;
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }
}

/// Fires `lines` at `addr` over `connections` concurrent sockets — the
/// shard engine with one lazily opened `ClientConn` per worker and
/// chunk size 1, so every socket keeps pulling requests until the corpus
/// is drained. Returns the latency distribution and wall-clock.
pub fn run_load(addr: SocketAddr, lines: &[String], connections: usize) -> LoadReport {
    let opts = ShardOptions {
        threads: connections.max(1),
        chunk_size: 1,
    };
    let t0 = Instant::now();
    let outcomes = sharded_map_indices_with(
        lines.len(),
        opts,
        || ClientConn::new(addr),
        |conn, i| {
            let t = Instant::now();
            conn.round_trip(&lines[i])
                .map(|_| t.elapsed().as_micros() as u64)
        },
    );
    let wall_secs = t0.elapsed().as_secs_f64();
    let mut latencies_us = Vec::with_capacity(outcomes.len());
    let mut errors = 0usize;
    for outcome in outcomes {
        match outcome {
            Ok(us) => latencies_us.push(us),
            Err(_) => errors += 1,
        }
    }
    latencies_us.sort_unstable();
    LoadReport {
        answered: latencies_us.len(),
        errors,
        wall_secs,
        latencies_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let report = LoadReport {
            answered: 4,
            errors: 0,
            wall_secs: 2.0,
            latencies_us: vec![10, 20, 30, 40],
        };
        assert_eq!(report.p50_us(), Some(20));
        assert_eq!(report.p99_us(), Some(40));
        assert_eq!(report.quantile_us(0.0), Some(10));
        assert_eq!(report.quantile_us(1.0), Some(40));
        assert!((report.requests_per_sec() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_boundary_ranks_do_not_overflow_or_lie() {
        // Zero answered: every quantile is None, never a silent 0 (an
        // all-errors run is not "all requests in 0 µs").
        let empty = LoadReport {
            answered: 0,
            errors: 3,
            wall_secs: 1.0,
            latencies_us: Vec::new(),
        };
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile_us(q), None, "q={q}");
        }
        assert_eq!(empty.p50_us(), None);
        assert_eq!(empty.p99_us(), None);
        assert_eq!(empty.requests_per_sec(), 0.0);
        // A single sample answers every quantile, including the exact
        // endpoints (rank 1 of 1 — no index-out-of-bounds at q = 1.0).
        let single = LoadReport {
            answered: 1,
            errors: 0,
            wall_secs: 1.0,
            latencies_us: vec![77],
        };
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile_us(q), Some(77), "q={q}");
        }
        // Out-of-range q is clamped, not a panic or a wild rank.
        let report = LoadReport {
            answered: 3,
            errors: 0,
            wall_secs: 1.0,
            latencies_us: vec![1, 2, 3],
        };
        assert_eq!(report.quantile_us(-0.5), Some(1));
        assert_eq!(report.quantile_us(7.0), Some(3));
    }

    #[test]
    fn request_lines_cycle_instances_and_objectives() {
        let paths = vec![PathBuf::from("/tmp/a.pw"), PathBuf::from("/tmp/b.pw")];
        let lines = request_lines(&paths, 5);
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "solve id=1 objective=min-period instance=/tmp/a.pw"
        );
        assert_eq!(
            lines[1],
            "solve id=2 objective=min-period instance=/tmp/b.pw"
        );
        assert_eq!(
            lines[2],
            "solve id=3 objective=min-latency instance=/tmp/a.pw"
        );
        assert_eq!(
            lines[4],
            "solve id=5 objective=min-period strategy=best instance=/tmp/a.pw"
        );
    }

    #[test]
    fn zoo_instances_parse_back() {
        let dir = std::env::temp_dir().join(format!("pwsched-loadgen-{}", std::process::id()));
        let paths = write_zoo_instances(&dir, "unit", 8, 4, 7).expect("writable");
        assert_eq!(paths.len(), ScenarioFamily::ALL.len());
        for path in &paths {
            let text = std::fs::read_to_string(path).unwrap();
            pipeline_model::io::parse_instance(&text).expect("round-trips");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
