//! Plain-text instance serialization.
//!
//! A tiny line-oriented format so instances can be saved, diffed, shipped
//! in bug reports and loaded by the examples — without pulling a
//! serialization framework into the workspace:
//!
//! ```text
//! # anything after '#' is a comment
//! pipeline-instance v1
//! works    4 8 2
//! deltas   2 6 4 10
//! speeds   2 4
//! bandwidth 2
//! ```
//!
//! `bandwidth` declares a Communication Homogeneous platform; fully
//! heterogeneous platforms add one `link u v b` line per directed pair
//! (unlisted pairs default to `io-bandwidth`):
//!
//! ```text
//! pipeline-instance v1
//! works    1 1
//! deltas   1 1 1
//! speeds   1 1
//! io-bandwidth 8
//! link 0 1 2.5
//! link 1 0 4
//! ```

use crate::application::Application;
use crate::delta::InstanceDelta;
use crate::platform::{LinkModel, Platform};
use crate::{ModelError, Result};

/// Errors raised while parsing the text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The `pipeline-instance v1` header is missing or wrong.
    BadHeader,
    /// A required section is missing.
    Missing(&'static str),
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        detail: String,
    },
    /// A specific `key=value` field of a wire line could not be parsed —
    /// carries the offending key so services can report it structurally
    /// (see [`WireFailure::key`]).
    BadField {
        /// 1-based line number (0 when the caller did not supply one).
        line: usize,
        /// The offending key.
        key: String,
        /// Description of the problem.
        detail: String,
    },
    /// Parsed values failed model validation.
    Model(ModelError),
}

impl ParseError {
    /// The 1-based line number the error points at, when known.
    pub fn line(&self) -> Option<usize> {
        match self {
            ParseError::BadLine { line, .. } | ParseError::BadField { line, .. } if *line > 0 => {
                Some(*line)
            }
            _ => None,
        }
    }

    /// The offending `key=value` key, when the error names one.
    pub fn key(&self) -> Option<&str> {
        match self {
            ParseError::BadField { key, .. } => Some(key),
            _ => None,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing 'pipeline-instance v1' header"),
            ParseError::Missing(what) => write!(f, "missing '{what}' section"),
            ParseError::BadLine { line, detail } => write!(f, "line {line}: {detail}"),
            ParseError::BadField { line, key, detail } => {
                write!(f, "line {line}: field '{key}': {detail}")
            }
            ParseError::Model(e) => write!(f, "invalid instance: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ModelError> for ParseError {
    fn from(e: ModelError) -> Self {
        ParseError::Model(e)
    }
}

/// Serializes an instance to the v1 text format.
pub fn format_instance(app: &Application, platform: &Platform) -> String {
    let mut out = String::from("pipeline-instance v1\n");
    let join = |vals: &[f64]| {
        vals.iter()
            .map(|v| format_f64(*v))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.push_str(&format!("works {}\n", join(app.works())));
    out.push_str(&format!("deltas {}\n", join(app.deltas())));
    out.push_str(&format!("speeds {}\n", join(platform.speeds())));
    match platform.links() {
        LinkModel::Homogeneous(b) => {
            out.push_str(&format!("bandwidth {}\n", format_f64(*b)));
        }
        LinkModel::Heterogeneous {
            matrix,
            io_bandwidth,
        } => {
            out.push_str(&format!("io-bandwidth {}\n", format_f64(*io_bandwidth)));
            for (u, row) in matrix.iter().enumerate() {
                for (v, b) in row.iter().enumerate() {
                    if u != v {
                        out.push_str(&format!("link {u} {v} {}\n", format_f64(*b)));
                    }
                }
            }
        }
    }
    out
}

fn format_f64(v: f64) -> String {
    // Shortest representation that round-trips.
    let s = format!("{v}");
    debug_assert_eq!(s.parse::<f64>().ok(), Some(v));
    s
}

/// Parses the v1 text format back into an instance.
pub fn parse_instance(text: &str) -> std::result::Result<(Application, Platform), ParseError> {
    let mut works: Option<Vec<f64>> = None;
    let mut deltas: Option<Vec<f64>> = None;
    let mut speeds: Option<Vec<f64>> = None;
    let mut bandwidth: Option<f64> = None;
    let mut io_bandwidth: Option<f64> = None;
    let mut links: Vec<(usize, usize, f64)> = Vec::new();
    let mut saw_header = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if !saw_header {
            if line == "pipeline-instance v1" {
                saw_header = true;
                continue;
            }
            return Err(ParseError::BadHeader);
        }
        let mut tokens = line.split_whitespace();
        let key = tokens.next().expect("non-empty line");
        let rest: Vec<&str> = tokens.collect();
        let parse_vec = |rest: &[&str]| -> std::result::Result<Vec<f64>, ParseError> {
            rest.iter()
                .map(|t| {
                    t.parse::<f64>().map_err(|_| ParseError::BadLine {
                        line: line_no,
                        detail: format!("bad number {t:?}"),
                    })
                })
                .collect()
        };
        let parse_one = |rest: &[&str]| -> std::result::Result<f64, ParseError> {
            if rest.len() != 1 {
                return Err(ParseError::BadLine {
                    line: line_no,
                    detail: format!("expected one value, got {}", rest.len()),
                });
            }
            parse_vec(rest).map(|v| v[0])
        };
        match key {
            "works" => works = Some(parse_vec(&rest)?),
            "deltas" => deltas = Some(parse_vec(&rest)?),
            "speeds" => speeds = Some(parse_vec(&rest)?),
            "bandwidth" => bandwidth = Some(parse_one(&rest)?),
            "io-bandwidth" => io_bandwidth = Some(parse_one(&rest)?),
            "link" => {
                if rest.len() != 3 {
                    return Err(ParseError::BadLine {
                        line: line_no,
                        detail: "link wants: link <from> <to> <bandwidth>".into(),
                    });
                }
                let u = rest[0].parse::<usize>().map_err(|_| ParseError::BadLine {
                    line: line_no,
                    detail: format!("bad processor id {:?}", rest[0]),
                })?;
                let v = rest[1].parse::<usize>().map_err(|_| ParseError::BadLine {
                    line: line_no,
                    detail: format!("bad processor id {:?}", rest[1]),
                })?;
                let b = rest[2].parse::<f64>().map_err(|_| ParseError::BadLine {
                    line: line_no,
                    detail: format!("bad bandwidth {:?}", rest[2]),
                })?;
                links.push((u, v, b));
            }
            other => {
                return Err(ParseError::BadLine {
                    line: line_no,
                    detail: format!("unknown key {other:?}"),
                })
            }
        }
    }

    if !saw_header {
        return Err(ParseError::BadHeader);
    }
    let works = works.ok_or(ParseError::Missing("works"))?;
    let deltas = deltas.ok_or(ParseError::Missing("deltas"))?;
    let speeds = speeds.ok_or(ParseError::Missing("speeds"))?;
    let app = Application::new(works, deltas)?;
    let platform = match (bandwidth, io_bandwidth) {
        (Some(b), None) if links.is_empty() => Platform::comm_homogeneous(speeds, b)?,
        (None, Some(io_b)) => {
            let p = speeds.len();
            let mut matrix = vec![vec![io_b; p]; p];
            for (u, v, b) in links {
                if u >= p || v >= p {
                    return Err(ParseError::Model(ModelError::BadAllocation {
                        detail: format!("link references unknown processor P{}", u.max(v)),
                    }));
                }
                matrix[u][v] = b;
            }
            Platform::fully_heterogeneous(speeds, matrix, io_b)?
        }
        (Some(_), Some(_)) => {
            return Err(ParseError::BadLine {
                line: 0,
                detail: "give either 'bandwidth' or 'io-bandwidth'+links, not both".into(),
            })
        }
        (Some(_), None) => {
            return Err(ParseError::BadLine {
                line: 0,
                detail: "'link' lines require 'io-bandwidth', not 'bandwidth'".into(),
            })
        }
        (None, None) => return Err(ParseError::Missing("bandwidth")),
    };
    Ok((app, platform))
}

/// Convenience alias keeping the crate-level [`Result`] usable here.
pub type _Unused = Result<()>;

// ---------------------------------------------------------------------------
// Solver-service wire format v1.2.
//
// One request or report per line, `key=value` tokens separated by spaces,
// so the `pwsched solve --stdin` service can sit behind a pipe or socket
// and serve line-oriented traffic. Values never contain spaces (mappings,
// fronts, tenant lists and partitions use `,`/`;`/`:` separators). The
// model crate owns only the *syntax*; `pipeline_core::service` converts
// to and from its typed request/report/error types.
//
// ```text
// solve id=1 objective=min-period strategy=auto
// solve id=2 objective=min-latency-for-period bound=2.5 strategy=best
// solve id=3 objective=pareto-front strategy=exact tolerance=1e-9
// update id=4 delta=proc-speed proc=2 speed=4.5
// update id=5 delta=stage-weight stage=3 work=7.25
// cosched id=6 objective=max-min tenants=-,a/b.pw weights=2:1 slos=1.5:-
// stats id=7
// report id=1 status=ok solver=h1 period=1.5 latency=3 feasible=true mapping=0-2@1,2-5@0
// report id=3 status=ok solver=exact period=1 latency=9 feasible=true mapping=0-6@2 front=1:9;2:6
// report id=6 status=ok solver=cosched objective=max-min score=3 tiebreak=5 feasible=true partition=0,2;1 periods=1.5;2 latencies=4;6 slo-met=true;true
// report id=7 status=ok solver=stats live=1 connections=3 rejected=0 requests=9 failures=1 cache-hits=4 cache-misses=2 cache-evictions=0 uptime-s=12
// report id=4 status=error code=bound-below-floor bound=0.5 floor=0.875
// report id=8 status=error code=bad-request line=7 key=objective
// ```
//
// v1.1 adds the `update` verb: an [`InstanceDelta`] applied in place to
// the service's default instance (hot reload), answered with an ordinary
// report line carrying the updated instance's baseline coordinates.
//
// v1.2 adds two verbs. `cosched` asks the service to co-schedule K
// tenant pipelines onto the shared platform: `tenants=` lists one
// instance path per tenant (`-` = the service's default instance),
// optional `weights=` / `slos=` carry `:`-separated per-tenant values
// (an SLO of `-` means "none"), and the report echoes the partition
// objective, its score/tiebreak, and the per-tenant processor groups,
// periods, latencies and SLO verdicts. `stats` reports the service's
// own counters (live/served connections, admission rejections, request
// and failure totals, instance-cache hits/misses/evictions, uptime in
// whole seconds) as an ordinary ok-report with `solver=stats`.
//
// Failure reports may carry structured diagnostics beyond the code: the
// 1-based input line number of the offending request (`line=`) and the
// offending `key=value` key (`key=`). Services add transport-level codes
// on top of the solver codes: `bad-request` (the request line did not
// parse; it still echoes the line's `id=` when that parsed, else id=0),
// `unknown-solver`, `bad-instance` (the referenced instance file
// did not load), `bad-delta` (the update could not be applied),
// `no-default-instance` (an update arrived but the service serves no
// default instance), `unknown-objective` (a cosched named no registered
// partition objective), `overloaded` (admission control refused the
// connection), and `line-too-long` (the request exceeded the service's
// line-length bound). Tenancy-layer failures reuse the tenancy error
// codes (`mismatched-platforms`, `too-few-processors`, …).
// ---------------------------------------------------------------------------

/// Objective selector of one wire request — the syntactic mirror of
/// `pipeline_core::Objective` (the model crate sits below the solvers, so
/// the wire layer carries its own copy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireObjective {
    /// Minimize latency subject to `period ≤ bound`.
    MinLatencyForPeriod(f64),
    /// Minimize period subject to `latency ≤ bound`.
    MinPeriodForLatency(f64),
    /// Minimize the period outright.
    MinPeriod,
    /// Minimize the latency outright.
    MinLatency,
    /// Materialize the full period/latency Pareto front.
    ParetoFront,
}

impl WireObjective {
    /// Stable wire token of the objective kind.
    pub fn token(&self) -> &'static str {
        match self {
            WireObjective::MinLatencyForPeriod(_) => "min-latency-for-period",
            WireObjective::MinPeriodForLatency(_) => "min-period-for-latency",
            WireObjective::MinPeriod => "min-period",
            WireObjective::MinLatency => "min-latency",
            WireObjective::ParetoFront => "pareto-front",
        }
    }

    /// The bound carried by the bounded objectives.
    pub fn bound(&self) -> Option<f64> {
        match self {
            WireObjective::MinLatencyForPeriod(b) | WireObjective::MinPeriodForLatency(b) => {
                Some(*b)
            }
            _ => None,
        }
    }
}

/// One `solve` line of the request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client correlation id, echoed back in the report.
    pub id: u64,
    /// What to optimize.
    pub objective: WireObjective,
    /// Solver selector (`auto`, `best`, `exact`, `h1`…`h7`); validated by
    /// the service layer, opaque here.
    pub strategy: String,
    /// Optional relative tolerance for bound searches.
    pub tolerance: Option<f64>,
    /// Optional instance-file override (service mode serves many
    /// instances over one stream). Paths must not contain spaces.
    pub instance: Option<String>,
}

/// A successful `report` line.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSolved {
    /// Echoed request id.
    pub id: u64,
    /// Wire code of what produced the result (`exact`, `h1`…`h7`).
    pub solver: String,
    /// Achieved period.
    pub period: f64,
    /// Achieved latency.
    pub latency: f64,
    /// Whether the requested constraint was met.
    pub feasible: bool,
    /// Compact mapping encoding `start-end@proc,…`.
    pub mapping: String,
    /// `(period, latency)` front points, present only for
    /// [`WireObjective::ParetoFront`] requests.
    pub front: Option<Vec<(f64, f64)>>,
}

/// A failed `report` line with a structured error code.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFailure {
    /// Echoed request id (0 when the request line itself did not parse).
    pub id: u64,
    /// Stable machine-readable error code (e.g. `bound-below-floor`).
    pub code: String,
    /// The offending bound, for infeasibility errors.
    pub bound: Option<f64>,
    /// The feasibility floor the bound fell below.
    pub floor: Option<f64>,
    /// 1-based input line number of the offending request, for parse
    /// failures in a streamed request sequence.
    pub line: Option<u64>,
    /// The offending `key=value` key, for parse failures that name one.
    pub key: Option<String>,
}

impl WireFailure {
    /// A bare failure: just an id and a code, no diagnostics.
    pub fn new(id: u64, code: impl Into<String>) -> Self {
        WireFailure {
            id,
            code: code.into(),
            bound: None,
            floor: None,
            line: None,
            key: None,
        }
    }

    /// Attaches the 1-based input line number of the offending request.
    pub fn at_line(mut self, line: u64) -> Self {
        self.line = Some(line);
        self
    }

    /// Attaches the offending `key=value` key.
    pub fn for_key(mut self, key: impl Into<String>) -> Self {
        self.key = Some(key.into());
        self
    }
}

/// A successful `cosched` report: the chosen partition and per-tenant
/// outcomes (wire format v1.2). Serialized with `solver=cosched`; the
/// per-tenant vectors are index-aligned and `;`-separated on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCoschedReport {
    /// Echoed request id.
    pub id: u64,
    /// Partition-objective label (`max-min`, `weighted-sum`, `slo`).
    pub objective: String,
    /// Primary objective score (smaller is better).
    pub score: f64,
    /// Secondary tie-breaking score.
    pub tiebreak: f64,
    /// Whether every tenant's SLO was met.
    pub feasible: bool,
    /// Per-tenant processor groups in original numbering
    /// (`partition=0,2;1,3`).
    pub partition: Vec<Vec<usize>>,
    /// Per-tenant achieved periods (`periods=1.5;2`).
    pub periods: Vec<f64>,
    /// Per-tenant achieved latencies (`latencies=4;6`).
    pub latencies: Vec<f64>,
    /// Per-tenant SLO verdicts (`slo-met=true;false`).
    pub slo_met: Vec<bool>,
}

/// A successful `stats` report: the service's own counters (wire format
/// v1.2). Serialized with `solver=stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStatsReport {
    /// Echoed request id.
    pub id: u64,
    /// Connections being served right now (including the asking one).
    pub live: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Connections refused by admission control.
    pub rejected: u64,
    /// Requests answered (not counting this `stats` request).
    pub requests: u64,
    /// Requests answered with an error report.
    pub failures: u64,
    /// Instance-cache hits.
    pub cache_hits: u64,
    /// Instance-cache misses.
    pub cache_misses: u64,
    /// Instance-cache evictions.
    pub cache_evictions: u64,
    /// Whole seconds since the service started.
    pub uptime_s: u64,
}

/// One line of the report stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WireReport {
    /// The request was answered.
    Solved(WireSolved),
    /// A `cosched` request was answered with a co-schedule.
    Cosched(WireCoschedReport),
    /// A `stats` request was answered with service counters.
    Stats(WireStatsReport),
    /// The request failed with a structured error.
    Failed(WireFailure),
}

impl WireReport {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            WireReport::Solved(s) => s.id,
            WireReport::Cosched(c) => c.id,
            WireReport::Stats(s) => s.id,
            WireReport::Failed(f) => f.id,
        }
    }
}

fn wire_err(detail: String) -> ParseError {
    ParseError::BadLine { line: 0, detail }
}

/// Splits a wire line into its verb and `key=value` pairs. `line_no` is
/// the 1-based stream position carried into errors (0: unknown).
fn wire_tokens(
    line: &str,
    verb: &str,
    line_no: usize,
) -> std::result::Result<Vec<(String, String)>, ParseError> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some(v) if v == verb => {}
        other => {
            return Err(ParseError::BadLine {
                line: line_no,
                detail: format!("expected '{verb} …', got {other:?}"),
            })
        }
    }
    tokens
        .map(|t| {
            t.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| ParseError::BadLine {
                    line: line_no,
                    detail: format!("expected key=value, got {t:?}"),
                })
        })
        .collect()
}

struct WireFields {
    fields: Vec<(String, String)>,
    /// 1-based line number carried into every field error (0: unknown).
    line_no: usize,
}

impl WireFields {
    fn new(fields: Vec<(String, String)>, line_no: usize) -> Self {
        WireFields { fields, line_no }
    }

    fn field_err(&self, key: &str, detail: String) -> ParseError {
        ParseError::BadField {
            line: self.line_no,
            key: key.to_string(),
            detail,
        }
    }

    fn take(&mut self, key: &str) -> Option<String> {
        let pos = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(pos).1)
    }

    fn take_f64(&mut self, key: &str) -> std::result::Result<Option<f64>, ParseError> {
        self.take(key)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| self.field_err(key, format!("bad number {v:?}")))
            })
            .transpose()
    }

    /// The optional relative `tolerance=`: finite and non-negative (0
    /// asks for an exact search).
    fn take_tolerance(&mut self) -> std::result::Result<Option<f64>, ParseError> {
        let tolerance = self.take_f64("tolerance")?;
        match tolerance {
            Some(t) if !(t.is_finite() && t >= 0.0) => Err(self.field_err(
                "tolerance",
                format!("tolerance= must be finite and >= 0, got {t}"),
            )),
            _ => Ok(tolerance),
        }
    }

    fn require(&mut self, key: &str) -> std::result::Result<String, ParseError> {
        self.take(key)
            .ok_or_else(|| self.field_err(key, format!("missing {key}=")))
    }

    fn require_f64(&mut self, key: &str) -> std::result::Result<f64, ParseError> {
        self.take_f64(key)?
            .ok_or_else(|| self.field_err(key, format!("missing {key}=")))
    }

    fn require_usize(&mut self, key: &str) -> std::result::Result<usize, ParseError> {
        let v = self.require(key)?;
        v.parse::<usize>()
            .map_err(|_| self.field_err(key, format!("bad index {v:?}")))
    }

    fn require_u64(&mut self, key: &str) -> std::result::Result<u64, ParseError> {
        let v = self.require(key)?;
        v.parse::<u64>()
            .map_err(|_| self.field_err(key, format!("bad count {v:?}")))
    }

    fn finish(mut self) -> std::result::Result<(), ParseError> {
        match self.fields.pop() {
            None => Ok(()),
            Some((k, _)) => Err(self.field_err(&k, "unknown key".into())),
        }
    }
}

/// Parses one `solve …` request line at 1-based position `line_no` of
/// its input stream (`0` when it has none): parse errors name that line
/// (and the offending key, where one is known), so streamed services can
/// answer malformed requests with a structured diagnosis instead of a
/// generic `bad-request`.
pub fn parse_request_at(
    line: &str,
    line_no: usize,
) -> std::result::Result<WireRequest, ParseError> {
    let mut fields = WireFields::new(wire_tokens(line, "solve", line_no)?, line_no);
    let id = {
        let v = fields.require("id")?;
        v.parse::<u64>()
            .map_err(|_| fields.field_err("id", format!("bad id {v:?}")))?
    };
    let obj_token = fields.require("objective")?;
    let bound = fields.take_f64("bound")?;
    let objective = match obj_token.as_str() {
        "min-latency-for-period" | "min-period-for-latency" => {
            let b = bound.ok_or_else(|| {
                fields.field_err("bound", format!("objective {obj_token:?} needs bound="))
            })?;
            if obj_token.as_str() == "min-latency-for-period" {
                WireObjective::MinLatencyForPeriod(b)
            } else {
                WireObjective::MinPeriodForLatency(b)
            }
        }
        "min-period" => WireObjective::MinPeriod,
        "min-latency" => WireObjective::MinLatency,
        "pareto-front" => WireObjective::ParetoFront,
        other => return Err(fields.field_err("objective", format!("unknown objective {other:?}"))),
    };
    if objective.bound().is_none() && bound.is_some() {
        return Err(fields.field_err("bound", format!("objective {obj_token:?} takes no bound=")));
    }
    if objective.bound().is_some_and(f64::is_nan) {
        return Err(fields.field_err("bound", "bound= must not be NaN".into()));
    }
    let strategy = fields.take("strategy").unwrap_or_else(|| "auto".into());
    let tolerance = fields.take_tolerance()?;
    let instance = fields.take("instance");
    fields.finish()?;
    Ok(WireRequest {
        id,
        objective,
        strategy,
        tolerance,
        instance,
    })
}

/// Formats one request as a `solve …` line (round-trips through
/// [`parse_request_at`]).
pub fn format_request(req: &WireRequest) -> String {
    let mut out = format!("solve id={} objective={}", req.id, req.objective.token());
    if let Some(b) = req.objective.bound() {
        out.push_str(&format!(" bound={}", format_f64(b)));
    }
    out.push_str(&format!(" strategy={}", req.strategy));
    if let Some(t) = req.tolerance {
        out.push_str(&format!(" tolerance={}", format_f64(t)));
    }
    if let Some(i) = &req.instance {
        out.push_str(&format!(" instance={i}"));
    }
    out
}

/// One `update` line of the request stream (wire format v1.1): an
/// instance delta applied in place to the service's default instance.
#[derive(Debug, Clone, PartialEq)]
pub struct WireUpdate {
    /// Client correlation id, echoed back in the report.
    pub id: u64,
    /// The edit to apply.
    pub delta: InstanceDelta,
}

/// Parses one `update …` line, its position carried into parse errors
/// as in [`parse_request_at`].
pub fn parse_update_at(line: &str, line_no: usize) -> std::result::Result<WireUpdate, ParseError> {
    let mut fields = WireFields::new(wire_tokens(line, "update", line_no)?, line_no);
    let id = {
        let v = fields.require("id")?;
        v.parse::<u64>()
            .map_err(|_| fields.field_err("id", format!("bad id {v:?}")))?
    };
    let kind = fields.require("delta")?;
    let delta = match kind.as_str() {
        "proc-speed" => InstanceDelta::ProcSpeed {
            proc: fields.require_usize("proc")?,
            speed: fields.require_f64("speed")?,
        },
        "proc-arrival" => InstanceDelta::ProcArrival {
            speed: fields.require_f64("speed")?,
        },
        "proc-departure" => InstanceDelta::ProcDeparture {
            proc: fields.require_usize("proc")?,
        },
        "bandwidth" => InstanceDelta::Bandwidth {
            bandwidth: fields.require_f64("bandwidth")?,
        },
        "link-bandwidth" => InstanceDelta::LinkBandwidth {
            from: fields.require_usize("from")?,
            to: fields.require_usize("to")?,
            bandwidth: fields.require_f64("bandwidth")?,
        },
        "stage-weight" => InstanceDelta::StageWeight {
            stage: fields.require_usize("stage")?,
            work: fields.require_f64("work")?,
        },
        other => return Err(fields.field_err("delta", format!("unknown delta kind {other:?}"))),
    };
    fields.finish()?;
    Ok(WireUpdate { id, delta })
}

/// Formats one update as an `update …` line (round-trips through
/// [`parse_update_at`]).
pub fn format_update(upd: &WireUpdate) -> String {
    let mut out = format!("update id={} delta={}", upd.id, upd.delta.kind());
    match &upd.delta {
        InstanceDelta::ProcSpeed { proc, speed } => {
            out.push_str(&format!(" proc={proc} speed={}", format_f64(*speed)));
        }
        InstanceDelta::ProcArrival { speed } => {
            out.push_str(&format!(" speed={}", format_f64(*speed)));
        }
        InstanceDelta::ProcDeparture { proc } => {
            out.push_str(&format!(" proc={proc}"));
        }
        InstanceDelta::Bandwidth { bandwidth } => {
            out.push_str(&format!(" bandwidth={}", format_f64(*bandwidth)));
        }
        InstanceDelta::LinkBandwidth {
            from,
            to,
            bandwidth,
        } => {
            out.push_str(&format!(
                " from={from} to={to} bandwidth={}",
                format_f64(*bandwidth)
            ));
        }
        InstanceDelta::StageWeight { stage, work } => {
            out.push_str(&format!(" stage={stage} work={}", format_f64(*work)));
        }
    }
    out
}

/// One `cosched` line of the request stream (wire format v1.2): K tenant
/// pipelines to co-schedule onto the service's shared platform.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCosched {
    /// Client correlation id, echoed back in the report.
    pub id: u64,
    /// Partition-objective label (`max-min`, `weighted-sum`, `slo`);
    /// validated by the service layer, opaque here.
    pub objective: String,
    /// One entry per tenant: an instance path, or `None` (wire token
    /// `-`) for the service's default instance. Paths must not contain
    /// spaces, commas or `=`.
    pub tenants: Vec<Option<String>>,
    /// Optional per-tenant weights (`weights=2:1`), index-aligned with
    /// `tenants`; absent means all-ones.
    pub weights: Option<Vec<f64>>,
    /// Optional per-tenant latency SLOs (`slos=1.5:-`), index-aligned
    /// with `tenants`; `None` entries (wire token `-`) mean "no SLO".
    pub slos: Option<Vec<Option<f64>>>,
    /// Inner-oracle solver selector (`auto`, `best`, `exact`, `h1`…`h7`);
    /// validated by the service layer, opaque here.
    pub strategy: String,
    /// Optional relative tolerance for the inner bound searches.
    pub tolerance: Option<f64>,
}

/// Parses one `cosched …` line, its position carried into parse errors
/// as in [`parse_request_at`].
pub fn parse_cosched_at(
    line: &str,
    line_no: usize,
) -> std::result::Result<WireCosched, ParseError> {
    let mut fields = WireFields::new(wire_tokens(line, "cosched", line_no)?, line_no);
    let id = {
        let v = fields.require("id")?;
        v.parse::<u64>()
            .map_err(|_| fields.field_err("id", format!("bad id {v:?}")))?
    };
    let objective = fields.require("objective")?;
    let tenants: Vec<Option<String>> = {
        let v = fields.require("tenants")?;
        v.split(',')
            .map(|t| match t {
                "" => Err(fields.field_err("tenants", "empty tenant entry".into())),
                "-" => Ok(None),
                path => Ok(Some(path.to_string())),
            })
            .collect::<std::result::Result<_, _>>()?
    };
    let weights = fields
        .take("weights")
        .map(|v| {
            let ws = v
                .split(':')
                .map(|w| {
                    w.parse::<f64>()
                        .map_err(|_| fields.field_err("weights", format!("bad weight {w:?}")))
                })
                .collect::<std::result::Result<Vec<f64>, _>>()?;
            if ws.len() != tenants.len() {
                return Err(fields.field_err(
                    "weights",
                    format!("{} weights for {} tenants", ws.len(), tenants.len()),
                ));
            }
            Ok(ws)
        })
        .transpose()?;
    let slos = fields
        .take("slos")
        .map(|v| {
            let ss = v
                .split(':')
                .map(|s| match s {
                    "-" => Ok(None),
                    other => other
                        .parse::<f64>()
                        .map(Some)
                        .map_err(|_| fields.field_err("slos", format!("bad slo {other:?}"))),
                })
                .collect::<std::result::Result<Vec<Option<f64>>, _>>()?;
            if ss.len() != tenants.len() {
                return Err(fields.field_err(
                    "slos",
                    format!("{} slos for {} tenants", ss.len(), tenants.len()),
                ));
            }
            Ok(ss)
        })
        .transpose()?;
    let strategy = fields.take("strategy").unwrap_or_else(|| "auto".into());
    let tolerance = fields.take_tolerance()?;
    fields.finish()?;
    Ok(WireCosched {
        id,
        objective,
        tenants,
        weights,
        slos,
        strategy,
        tolerance,
    })
}

/// Formats one cosched request as a `cosched …` line (round-trips
/// through [`parse_cosched_at`]).
pub fn format_cosched(req: &WireCosched) -> String {
    let tenants: Vec<&str> = req
        .tenants
        .iter()
        .map(|t| t.as_deref().unwrap_or("-"))
        .collect();
    let mut out = format!(
        "cosched id={} objective={} tenants={}",
        req.id,
        req.objective,
        tenants.join(",")
    );
    if let Some(ws) = &req.weights {
        let ws: Vec<String> = ws.iter().map(|w| format_f64(*w)).collect();
        out.push_str(&format!(" weights={}", ws.join(":")));
    }
    if let Some(ss) = &req.slos {
        let ss: Vec<String> = ss
            .iter()
            .map(|s| s.map(format_f64).unwrap_or_else(|| "-".into()))
            .collect();
        out.push_str(&format!(" slos={}", ss.join(":")));
    }
    out.push_str(&format!(" strategy={}", req.strategy));
    if let Some(t) = req.tolerance {
        out.push_str(&format!(" tolerance={}", format_f64(t)));
    }
    out
}

/// One `stats` line of the request stream (wire format v1.2): asks the
/// service for its own counters.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStats {
    /// Client correlation id, echoed back in the report.
    pub id: u64,
}

/// Parses one `stats …` line, its position carried into parse errors
/// as in [`parse_request_at`].
pub fn parse_stats_at(line: &str, line_no: usize) -> std::result::Result<WireStats, ParseError> {
    let mut fields = WireFields::new(wire_tokens(line, "stats", line_no)?, line_no);
    let id = {
        let v = fields.require("id")?;
        v.parse::<u64>()
            .map_err(|_| fields.field_err("id", format!("bad id {v:?}")))?
    };
    fields.finish()?;
    Ok(WireStats { id })
}

/// Formats one stats request as a `stats …` line (round-trips through
/// [`parse_stats_at`]).
pub fn format_stats(req: &WireStats) -> String {
    format!("stats id={}", req.id)
}

/// Parses one `report …` line.
pub fn parse_report(line: &str) -> std::result::Result<WireReport, ParseError> {
    let mut fields = WireFields::new(wire_tokens(line, "report", 0)?, 0);
    let id = {
        let v = fields.require("id")?;
        v.parse::<u64>()
            .map_err(|_| wire_err(format!("bad id {v:?}")))?
    };
    let status = fields.require("status")?;
    let report = match status.as_str() {
        "ok" if fields
            .fields
            .iter()
            .any(|(k, v)| k == "solver" && v == "cosched") =>
        {
            let _ = fields.require("solver")?;
            let objective = fields.require("objective")?;
            let score = fields.require_f64("score")?;
            let tiebreak = fields.require_f64("tiebreak")?;
            let feasible = match fields.require("feasible")?.as_str() {
                "true" => true,
                "false" => false,
                other => return Err(wire_err(format!("bad feasible {other:?}"))),
            };
            let partition: Vec<Vec<usize>> = fields
                .require("partition")?
                .split(';')
                .map(|group| {
                    group
                        .split(',')
                        .map(|t| {
                            t.parse::<usize>()
                                .map_err(|_| wire_err(format!("bad partition entry {t:?}")))
                        })
                        .collect::<std::result::Result<Vec<usize>, ParseError>>()
                })
                .collect::<std::result::Result<_, _>>()?;
            let parse_f64s = |v: String, what: &str| {
                v.split(';')
                    .map(|t| {
                        t.parse::<f64>()
                            .map_err(|_| wire_err(format!("bad {what} entry {t:?}")))
                    })
                    .collect::<std::result::Result<Vec<f64>, ParseError>>()
            };
            let periods = parse_f64s(fields.require("periods")?, "periods")?;
            let latencies = parse_f64s(fields.require("latencies")?, "latencies")?;
            let slo_met = fields
                .require("slo-met")?
                .split(';')
                .map(|t| match t {
                    "true" => Ok(true),
                    "false" => Ok(false),
                    other => Err(wire_err(format!("bad slo-met entry {other:?}"))),
                })
                .collect::<std::result::Result<Vec<bool>, ParseError>>()?;
            let k = partition.len();
            if periods.len() != k || latencies.len() != k || slo_met.len() != k {
                return Err(wire_err(format!(
                    "per-tenant arity mismatch: {k} groups, {} periods, {} latencies, {} slo-met",
                    periods.len(),
                    latencies.len(),
                    slo_met.len()
                )));
            }
            WireReport::Cosched(WireCoschedReport {
                id,
                objective,
                score,
                tiebreak,
                feasible,
                partition,
                periods,
                latencies,
                slo_met,
            })
        }
        "ok" if fields
            .fields
            .iter()
            .any(|(k, v)| k == "solver" && v == "stats") =>
        {
            let _ = fields.require("solver")?;
            WireReport::Stats(WireStatsReport {
                id,
                live: fields.require_u64("live")?,
                connections: fields.require_u64("connections")?,
                rejected: fields.require_u64("rejected")?,
                requests: fields.require_u64("requests")?,
                failures: fields.require_u64("failures")?,
                cache_hits: fields.require_u64("cache-hits")?,
                cache_misses: fields.require_u64("cache-misses")?,
                cache_evictions: fields.require_u64("cache-evictions")?,
                uptime_s: fields.require_u64("uptime-s")?,
            })
        }
        "ok" => {
            let solver = fields.require("solver")?;
            let period = fields
                .take_f64("period")?
                .ok_or_else(|| wire_err("missing period=".into()))?;
            let latency = fields
                .take_f64("latency")?
                .ok_or_else(|| wire_err("missing latency=".into()))?;
            let feasible = match fields.require("feasible")?.as_str() {
                "true" => true,
                "false" => false,
                other => return Err(wire_err(format!("bad feasible {other:?}"))),
            };
            let mapping = fields.require("mapping")?;
            let front = fields
                .take("front")
                .map(|v| {
                    v.split(';')
                        .map(|pt| {
                            let (p, l) = pt
                                .split_once(':')
                                .ok_or_else(|| wire_err(format!("bad front point {pt:?}")))?;
                            let parse = |s: &str| {
                                s.parse::<f64>()
                                    .map_err(|_| wire_err(format!("bad front number {s:?}")))
                            };
                            Ok((parse(p)?, parse(l)?))
                        })
                        .collect::<std::result::Result<Vec<_>, ParseError>>()
                })
                .transpose()?;
            WireReport::Solved(WireSolved {
                id,
                solver,
                period,
                latency,
                feasible,
                mapping,
                front,
            })
        }
        "error" => WireReport::Failed(WireFailure {
            id,
            code: fields.require("code")?,
            bound: fields.take_f64("bound")?,
            floor: fields.take_f64("floor")?,
            line: fields
                .take("line")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| wire_err(format!("bad line number {v:?}")))
                })
                .transpose()?,
            key: fields.take("key"),
        }),
        other => return Err(wire_err(format!("unknown status {other:?}"))),
    };
    fields.finish()?;
    Ok(report)
}

/// Formats one report as a `report …` line (round-trips through
/// [`parse_report`]).
pub fn format_report(report: &WireReport) -> String {
    match report {
        WireReport::Solved(s) => {
            let mut out = format!(
                "report id={} status=ok solver={} period={} latency={} feasible={} mapping={}",
                s.id,
                s.solver,
                format_f64(s.period),
                format_f64(s.latency),
                s.feasible,
                s.mapping
            );
            if let Some(front) = &s.front {
                let pts: Vec<String> = front
                    .iter()
                    .map(|(p, l)| format!("{}:{}", format_f64(*p), format_f64(*l)))
                    .collect();
                out.push_str(&format!(" front={}", pts.join(";")));
            }
            out
        }
        WireReport::Cosched(c) => {
            let partition: Vec<String> = c
                .partition
                .iter()
                .map(|group| {
                    group
                        .iter()
                        .map(|u| u.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect();
            let f64s = |vals: &[f64]| {
                vals.iter()
                    .map(|v| format_f64(*v))
                    .collect::<Vec<_>>()
                    .join(";")
            };
            let slo_met: Vec<String> = c.slo_met.iter().map(|m| m.to_string()).collect();
            format!(
                "report id={} status=ok solver=cosched objective={} score={} tiebreak={} \
                 feasible={} partition={} periods={} latencies={} slo-met={}",
                c.id,
                c.objective,
                format_f64(c.score),
                format_f64(c.tiebreak),
                c.feasible,
                partition.join(";"),
                f64s(&c.periods),
                f64s(&c.latencies),
                slo_met.join(";")
            )
        }
        WireReport::Stats(s) => format!(
            "report id={} status=ok solver=stats live={} connections={} rejected={} \
             requests={} failures={} cache-hits={} cache-misses={} cache-evictions={} \
             uptime-s={}",
            s.id,
            s.live,
            s.connections,
            s.rejected,
            s.requests,
            s.failures,
            s.cache_hits,
            s.cache_misses,
            s.cache_evictions,
            s.uptime_s
        ),
        WireReport::Failed(f) => {
            let mut out = format!("report id={} status=error code={}", f.id, f.code);
            if let Some(b) = f.bound {
                out.push_str(&format!(" bound={}", format_f64(b)));
            }
            if let Some(fl) = f.floor {
                out.push_str(&format!(" floor={}", format_f64(fl)));
            }
            if let Some(line) = f.line {
                out.push_str(&format!(" line={line}"));
            }
            if let Some(key) = &f.key {
                out.push_str(&format!(" key={key}"));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ExperimentKind, InstanceGenerator, InstanceParams};

    #[test]
    fn round_trip_comm_homogeneous() {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 8, 5));
        let (app, pf) = gen.instance(1, 0);
        let text = format_instance(&app, &pf);
        let (app2, pf2) = parse_instance(&text).expect("round trip parses");
        assert_eq!(app, app2);
        assert_eq!(pf, pf2);
    }

    #[test]
    fn round_trip_heterogeneous() {
        let app = Application::uniform(2, 1.5, 0.5).unwrap();
        let pf = Platform::fully_heterogeneous(
            vec![1.0, 2.0],
            vec![vec![8.0, 2.5], vec![4.0, 8.0]],
            8.0,
        )
        .unwrap();
        let text = format_instance(&app, &pf);
        let (app2, pf2) = parse_instance(&text).expect("round trip parses");
        assert_eq!(app, app2);
        // Diagonal entries default to io-bandwidth (8.0), matching.
        assert_eq!(pf, pf2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\npipeline-instance v1\nworks 1 2 # trailing\ndeltas 1 1 1\nspeeds 3\nbandwidth 10\n\n";
        let (app, pf) = parse_instance(text).expect("parses");
        assert_eq!(app.n_stages(), 2);
        assert_eq!(pf.n_procs(), 1);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(
            parse_instance("works 1\n").unwrap_err(),
            ParseError::BadHeader
        );
        assert_eq!(parse_instance("").unwrap_err(), ParseError::BadHeader);
    }

    #[test]
    fn missing_sections_rejected() {
        let text = "pipeline-instance v1\nworks 1\ndeltas 1 1\n";
        assert_eq!(
            parse_instance(text).unwrap_err(),
            ParseError::Missing("speeds")
        );
    }

    #[test]
    fn bad_numbers_carry_line_info() {
        let text = "pipeline-instance v1\nworks 1 oops\n";
        match parse_instance(text).unwrap_err() {
            ParseError::BadLine { line, detail } => {
                assert_eq!(line, 2);
                assert!(detail.contains("oops"));
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn model_validation_propagates() {
        let text = "pipeline-instance v1\nworks 1\ndeltas 1 1 1\nspeeds 1\nbandwidth 1\n";
        assert!(matches!(
            parse_instance(text).unwrap_err(),
            ParseError::Model(ModelError::DeltaLengthMismatch { .. })
        ));
    }

    #[test]
    fn mixed_bandwidth_declarations_rejected() {
        let text =
            "pipeline-instance v1\nworks 1\ndeltas 1 1\nspeeds 1\nbandwidth 1\nio-bandwidth 2\n";
        assert!(matches!(
            parse_instance(text).unwrap_err(),
            ParseError::BadLine { .. }
        ));
    }

    #[test]
    fn wire_request_round_trips() {
        let reqs = [
            WireRequest {
                id: 1,
                objective: WireObjective::MinPeriod,
                strategy: "auto".into(),
                tolerance: None,
                instance: None,
            },
            WireRequest {
                id: 2,
                objective: WireObjective::MinLatencyForPeriod(2.5),
                strategy: "best".into(),
                tolerance: Some(1e-9),
                instance: Some("a/b.pw".into()),
            },
            WireRequest {
                id: 3,
                objective: WireObjective::ParetoFront,
                strategy: "exact".into(),
                tolerance: None,
                instance: None,
            },
        ];
        for req in reqs {
            let line = format_request(&req);
            assert_eq!(
                parse_request_at(&line, 0).expect("round trip"),
                req,
                "{line}"
            );
        }
    }

    #[test]
    fn wire_request_defaults_and_errors() {
        let req = parse_request_at("solve id=7 objective=min-latency", 0).expect("minimal line");
        assert_eq!(req.strategy, "auto");
        assert_eq!(req.objective, WireObjective::MinLatency);
        assert!(parse_request_at("solve objective=min-period", 0).is_err()); // no id
        assert!(parse_request_at("solve id=1 objective=min-latency-for-period", 0).is_err()); // no bound
        assert!(parse_request_at("solve id=1 objective=min-period bound=2", 0).is_err()); // stray bound
        assert!(parse_request_at("solve id=1 objective=nope", 0).is_err());
        assert!(parse_request_at("solve id=1 objective=min-period junk=1", 0).is_err());
        assert!(parse_request_at("report id=1 status=ok", 0).is_err()); // wrong verb
    }

    #[test]
    fn tolerance_must_be_finite_and_non_negative() {
        for bad in ["nan", "-5", "-0.001", "inf", "-inf"] {
            let err = parse_request_at(
                &format!("solve id=1 objective=min-period tolerance={bad}"),
                0,
            )
            .unwrap_err();
            assert_eq!(err.key(), Some("tolerance"), "solve tolerance={bad}");
            let err = parse_cosched_at(
                &format!("cosched id=1 objective=max-min tenants=- tolerance={bad}"),
                0,
            )
            .unwrap_err();
            assert_eq!(err.key(), Some("tolerance"), "cosched tolerance={bad}");
        }
        for ok in ["0", "0.001", "1e-9"] {
            let want = Some(ok.parse::<f64>().unwrap());
            let req = parse_request_at(
                &format!("solve id=1 objective=min-period tolerance={ok}"),
                0,
            )
            .expect("valid tolerance");
            assert_eq!(req.tolerance, want);
            let req = parse_cosched_at(
                &format!("cosched id=1 objective=max-min tenants=- tolerance={ok}"),
                0,
            )
            .expect("valid tolerance");
            assert_eq!(req.tolerance, want);
        }
    }

    #[test]
    fn wire_update_round_trips() {
        let updates = [
            WireUpdate {
                id: 1,
                delta: InstanceDelta::ProcSpeed {
                    proc: 2,
                    speed: 4.5,
                },
            },
            WireUpdate {
                id: 2,
                delta: InstanceDelta::ProcArrival { speed: 0.125 },
            },
            WireUpdate {
                id: 3,
                delta: InstanceDelta::ProcDeparture { proc: 0 },
            },
            WireUpdate {
                id: 4,
                delta: InstanceDelta::Bandwidth { bandwidth: 16.0 },
            },
            WireUpdate {
                id: 5,
                delta: InstanceDelta::LinkBandwidth {
                    from: 1,
                    to: 3,
                    bandwidth: 2.5,
                },
            },
            WireUpdate {
                id: 6,
                delta: InstanceDelta::StageWeight {
                    stage: 7,
                    work: 1e-3,
                },
            },
        ];
        for upd in updates {
            let line = format_update(&upd);
            assert_eq!(
                parse_update_at(&line, 0).expect("round trip"),
                upd,
                "{line}"
            );
        }
    }

    #[test]
    fn wire_update_errors_name_the_line_and_key() {
        let err = parse_update_at("update id=1 delta=teleport", 11).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(11), Some("delta")));
        let err = parse_update_at("update id=1 delta=proc-speed proc=0", 12).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(12), Some("speed")));
        let err = parse_update_at("update id=1 delta=proc-speed proc=-1 speed=2", 13).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(13), Some("proc")));
        let err = parse_update_at("update delta=bandwidth bandwidth=1", 14).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(14), Some("id")));
        let err = parse_update_at("update id=1 delta=stage-weight stage=0 work=1 junk=1", 15)
            .unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(15), Some("junk")));
        // Wrong verb: a line-only diagnosis, like solve.
        let err = parse_update_at("solve id=1 objective=min-period", 16).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(16), None));
    }

    #[test]
    fn wire_report_round_trips() {
        let reports = [
            WireReport::Solved(WireSolved {
                id: 4,
                solver: "h3".into(),
                period: 1.25,
                latency: 10.5,
                feasible: true,
                mapping: "0-2@1,2-5@0".into(),
                front: None,
            }),
            WireReport::Solved(WireSolved {
                id: 5,
                solver: "exact".into(),
                period: 1.0,
                latency: 9.0,
                feasible: true,
                mapping: "0-6@2".into(),
                front: Some(vec![(1.0, 9.0), (2.0, 6.0), (4.0, 3.0)]),
            }),
            WireReport::Failed(WireFailure {
                id: 6,
                code: "bound-below-floor".into(),
                bound: Some(0.5),
                floor: Some(0.875),
                line: None,
                key: None,
            }),
            WireReport::Failed(
                WireFailure::new(0, "bad-request")
                    .at_line(7)
                    .for_key("bound"),
            ),
            WireReport::Failed(WireFailure::new(0, "line-too-long").at_line(3)),
            // Budget refusals emitted by the serve path: a request quota
            // or connection deadline exhausted mid-session.
            WireReport::Failed(WireFailure::new(0, "quota-exceeded").at_line(9)),
            WireReport::Failed(WireFailure::new(0, "deadline-exceeded").at_line(2)),
        ];
        for report in reports {
            let line = format_report(&report);
            assert_eq!(parse_report(&line).expect("round trip"), report, "{line}");
            assert_eq!(report.id(), parse_report(&line).unwrap().id());
        }
    }

    #[test]
    fn serve_refusal_codes_cross_the_wire_verbatim() {
        // The serve path refuses over-budget connections with these
        // exact lines; clients key on the code, so pin both directions.
        let table = [
            (
                "report id=0 status=error code=quota-exceeded line=3",
                WireFailure::new(0, "quota-exceeded").at_line(3),
            ),
            (
                "report id=0 status=error code=deadline-exceeded line=2",
                WireFailure::new(0, "deadline-exceeded").at_line(2),
            ),
        ];
        for (line, failure) in table {
            let report = WireReport::Failed(failure);
            assert_eq!(format_report(&report), line);
            assert_eq!(parse_report(line).expect("parses"), report);
        }
    }

    #[test]
    fn request_parse_errors_name_the_line_and_key() {
        // Unknown objective: the error points at the objective field.
        let err = parse_request_at("solve id=1 objective=take-a-guess", 29).unwrap_err();
        assert_eq!(err.line(), Some(29));
        assert_eq!(err.key(), Some("objective"));
        // Missing bound on a bounded objective.
        let err = parse_request_at("solve id=1 objective=min-latency-for-period", 4).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(4), Some("bound")));
        // Unparseable number.
        let err = parse_request_at("solve id=1 objective=min-latency-for-period bound=oops", 5)
            .unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(5), Some("bound")));
        // Unknown key.
        let err = parse_request_at("solve id=1 objective=min-period junk=1", 6).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(6), Some("junk")));
        // Bad id.
        let err = parse_request_at("solve id=x objective=min-period", 7).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(7), Some("id")));
        // A wrong verb has no key, only a line.
        let err = parse_request_at("frobnicate id=1", 8).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(8), None));
        // Line 0 means "unknown position": no line reported.
        let err = parse_request_at("solve id=1 objective=nope", 0).unwrap_err();
        assert_eq!((err.line(), err.key()), (None, Some("objective")));
    }

    #[test]
    fn wire_cosched_round_trips() {
        let reqs = [
            WireCosched {
                id: 1,
                objective: "max-min".into(),
                tenants: vec![None, None],
                weights: None,
                slos: None,
                strategy: "auto".into(),
                tolerance: None,
            },
            WireCosched {
                id: 2,
                objective: "weighted-sum".into(),
                tenants: vec![Some("a/b.pw".into()), None, Some("c.pw".into())],
                weights: Some(vec![2.0, 1.0, 0.5]),
                slos: Some(vec![Some(1.5), None, Some(12.25)]),
                strategy: "best".into(),
                tolerance: Some(1e-9),
            },
        ];
        for req in reqs {
            let line = format_cosched(&req);
            assert_eq!(
                parse_cosched_at(&line, 0).expect("round trip"),
                req,
                "{line}"
            );
        }
    }

    #[test]
    fn wire_cosched_errors_name_the_line_and_key() {
        let err = parse_cosched_at("cosched id=1 tenants=-", 3).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(3), Some("objective")));
        let err = parse_cosched_at("cosched id=1 objective=max-min", 4).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(4), Some("tenants")));
        let err = parse_cosched_at("cosched id=1 objective=max-min tenants=-,,-", 5).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(5), Some("tenants")));
        // Arity mismatches are parse-time field errors.
        let err = parse_cosched_at("cosched id=1 objective=max-min tenants=-,- weights=1", 6)
            .unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(6), Some("weights")));
        let err =
            parse_cosched_at("cosched id=1 objective=max-min tenants=- slos=1:2", 7).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(7), Some("slos")));
        let err =
            parse_cosched_at("cosched id=1 objective=max-min tenants=- slos=oops", 8).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(8), Some("slos")));
        let err =
            parse_cosched_at("cosched id=1 objective=max-min tenants=- junk=1", 9).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(9), Some("junk")));
        // Defaults: no weights/slos/tolerance, auto strategy.
        let req = parse_cosched_at("cosched id=1 objective=slo tenants=-", 0).expect("minimal");
        assert_eq!(req.strategy, "auto");
        assert_eq!((req.weights, req.slos, req.tolerance), (None, None, None));
    }

    #[test]
    fn wire_stats_round_trips_and_rejects_extras() {
        let req = WireStats { id: 42 };
        let line = format_stats(&req);
        assert_eq!(parse_stats_at(&line, 0).expect("round trip"), req, "{line}");
        let err = parse_stats_at("stats", 2).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(2), Some("id")));
        let err = parse_stats_at("stats id=1 junk=2", 3).unwrap_err();
        assert_eq!((err.line(), err.key()), (Some(3), Some("junk")));
    }

    #[test]
    fn cosched_and_stats_reports_round_trip() {
        let reports = [
            WireReport::Cosched(WireCoschedReport {
                id: 6,
                objective: "max-min".into(),
                score: 3.0,
                tiebreak: 5.5,
                feasible: true,
                partition: vec![vec![0, 2], vec![1], vec![3, 4, 5]],
                periods: vec![1.5, 2.0, 0.75],
                latencies: vec![4.0, 6.0, 2.5],
                slo_met: vec![true, true, false],
            }),
            WireReport::Stats(WireStatsReport {
                id: 7,
                live: 1,
                connections: 3,
                rejected: 0,
                requests: 9,
                failures: 1,
                cache_hits: 4,
                cache_misses: 2,
                cache_evictions: 0,
                uptime_s: 12,
            }),
        ];
        for report in reports {
            let line = format_report(&report);
            assert_eq!(parse_report(&line).expect("round trip"), report, "{line}");
            assert_eq!(report.id(), parse_report(&line).unwrap().id());
        }
    }

    #[test]
    fn cosched_report_rejects_arity_mismatch() {
        // 2 groups but 1 period.
        let line = "report id=1 status=ok solver=cosched objective=max-min score=1 \
                    tiebreak=2 feasible=true partition=0;1 periods=1 latencies=1;2 \
                    slo-met=true;true";
        assert!(parse_report(line).is_err());
        // A solver named cosched must carry cosched fields, not solve fields.
        let line = "report id=1 status=ok solver=cosched period=1 latency=1 feasible=true \
                    mapping=0-1@0";
        assert!(parse_report(line).is_err());
    }

    #[test]
    fn wire_report_rejects_malformed_lines() {
        assert!(parse_report("report id=1 status=bogus").is_err());
        assert!(parse_report("report id=1 status=ok solver=h1").is_err()); // missing fields
        assert!(parse_report(
            "report id=1 status=ok solver=h1 period=x latency=1 feasible=true mapping=0-1@0"
        )
        .is_err());
        assert!(parse_report(
            "report id=1 status=ok solver=h1 period=1 latency=1 feasible=maybe mapping=0-1@0"
        )
        .is_err());
        assert!(parse_report("report id=1 status=error").is_err()); // no code
    }

    #[test]
    fn link_to_unknown_processor_rejected() {
        let text =
            "pipeline-instance v1\nworks 1\ndeltas 1 1\nspeeds 1\nio-bandwidth 2\nlink 0 5 1\n";
        assert!(matches!(
            parse_instance(text).unwrap_err(),
            ParseError::Model(_)
        ));
    }
}
