//! The pipeline execution state machine, with deterministic fault
//! injection.
//!
//! This is the crate's one event loop. [`crate::PipelineSim`] is this
//! machine with an empty [`FaultPlan`]: a platform that never
//! misbehaves. Production platforms do: processors slow down under
//! background load, fail outright, links jitter, and the outside world
//! offers work as an open-loop arrival process rather than a saturating
//! feed. A [`FaultPlan`] scripts all of that — seeded and fully
//! deterministic — and [`FaultedSim`] runs the pipeline under the plan,
//! producing a [`DegradedReport`]: sustained throughput, tail latency
//! (p50/p99 over the data sets that made it), and the number of data
//! sets dropped or stranded.
//!
//! Two execution modes share the fault hooks:
//!
//! * **Rendezvous** (`queue_capacity: None`) — exactly the paper's
//!   machine: strictly serial stations, transfers occupying both
//!   endpoints, every enabled activity started as early as possible.
//!   Its steady state matches the paper's synchronous mode: the
//!   inter-completion time converges to `T_period` (eq. 1) — formally,
//!   the execution is a deterministic timed marked graph whose maximum
//!   cycle mean is the largest processor cycle time. Every fault hook
//!   returns its nominal input when the plan is empty: a missing
//!   slowdown takes `t_comp` untouched, zero jitter takes `t_xfer[k]`
//!   untouched, a fail-stop is a station phase no transfer predicate
//!   accepts, and no extra events enter the queue. With an empty plan
//!   the run is bit-identical to the fault-free reference loop kept in
//!   `tests/support/clean_sim.rs` (pinned by
//!   `tests/chaos_differential.rs`).
//! * **Queued** (`queue_capacity: Some(c)`) — a production-fidelity
//!   relaxation: each station owns bounded input/output buffers of
//!   capacity `c`, its network port and its CPU run concurrently (the
//!   port still serializes receives and sends — one-port), and the
//!   source sheds arrivals that find its bounded buffer full. This is
//!   the mode for open-loop arrival processes, where "dropped data
//!   sets" is a first-class outcome rather than a failure.
//!
//! Fail-stop semantics (both modes): at the scripted instant the
//! processor's station dies permanently. Data sets held by the dead
//! station — buffered, being received, computed, or sent — are
//! **dropped**; in-flight transfers touching it complete for the
//! surviving endpoint but deliver nothing. Upstream stations then stall
//! behind the dead stage (back-pressure), so their in-flight data sets
//! end the run **stranded**: offered = completed + dropped + stranded.
//! Busy-time accounting credits each activity at start, so a span cut
//! short by a mid-activity death stays credited in full — an accepted
//! approximation, as `busy` feeds utilization diagnostics only.
//!
//! Both machines start activities greedily, and only where the event
//! just popped can have enabled one: after each greedy step no activity
//! is left enabled (asserted in debug builds by a full scan of the same
//! predicates), so an event can enable only what touches the stations it
//! changed. In rendezvous mode that is at most one link per event — the
//! step costs O(1) — and in queued mode a fixpoint over a few worklist
//! entries, each started activity adding its neighbours. Together with
//! the event queue's O(log) push and pop, a run of `N` data sets through
//! `m` stations costs O(N·m·log(N + m)): O(1) greedy work per event.

use crate::engine::EventQueue;
use crate::metrics::SimReport;
use crate::trace::{TraceEvent, TraceKind};
use crate::workflow::{InputPolicy, SimConfig};
use pipeline_model::prelude::*;
use std::collections::VecDeque;

/// How the outside world offers data sets when a plan overrides the
/// [`SimConfig`] input policy. Both processes are seeded by
/// [`FaultPlan::seed`] and deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals with the given mean rate (data sets per time
    /// unit): independent exponential inter-arrival gaps.
    Poisson {
        /// Mean arrival rate (> 0).
        rate: f64,
    },
    /// Bursts of `burst` simultaneous arrivals, with exponential gaps
    /// between bursts scaled so the long-run mean rate is still `rate`.
    Bursty {
        /// Long-run mean arrival rate (> 0).
        rate: f64,
        /// Arrivals per burst (≥ 1; `1` degenerates to Poisson).
        burst: usize,
    },
}

/// One scripted slowdown: processor `proc` computes at `factor` of its
/// nominal speed for work *started* within `[at, until)`. Matches the
/// robustness study's `gamma` convention: `factor` in `(0, 1]`, where
/// `1.0` is a no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// The degraded processor.
    pub proc: ProcId,
    /// Start of the degraded window (inclusive).
    pub at: f64,
    /// End of the degraded window (exclusive).
    pub until: f64,
    /// Remaining speed fraction in `(0, 1]`.
    pub factor: f64,
}

/// One scripted fail-stop: processor `proc` dies permanently at `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailStop {
    /// The failing processor.
    pub proc: ProcId,
    /// Failure instant.
    pub at: f64,
}

/// A deterministic, seeded script of platform misbehaviour. The empty
/// plan ([`FaultPlan::default`]) injects nothing: it is the plan
/// [`crate::PipelineSim`] runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every stochastic ingredient (arrival gaps, link jitter).
    /// Two runs with the same plan are identical.
    pub seed: u64,
    /// Open-loop arrival process; `None` uses the [`SimConfig`] input
    /// policy unchanged.
    pub arrivals: Option<ArrivalProcess>,
    /// Scripted processor slowdowns (applied at compute start).
    pub slowdowns: Vec<Slowdown>,
    /// Scripted permanent processor failures.
    pub fail_stops: Vec<FailStop>,
    /// Per-transfer multiplicative jitter amplitude: each transfer of
    /// data set `d` on link `k` takes `t · (1 + jitter · u(k, d))` with
    /// `u` a deterministic uniform draw in `[0, 1)`. `0.0` disables
    /// jitter and leaves transfer times bit-identical.
    pub jitter: f64,
    /// `Some(c)`: bounded-buffer mode — per-station input/output queues
    /// of capacity `c` (≥ 1), port/CPU concurrency, and a bounded
    /// source buffer that sheds overflow arrivals. `None`: the paper's
    /// rendezvous semantics.
    pub queue_capacity: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::empty()
    }
}

impl FaultPlan {
    /// The plan that injects nothing.
    pub fn empty() -> Self {
        FaultPlan {
            seed: 0,
            arrivals: None,
            slowdowns: Vec::new(),
            fail_stops: Vec::new(),
            jitter: 0.0,
            queue_capacity: None,
        }
    }

    /// Whether this plan injects nothing (the bit-identity regime).
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_none()
            && self.slowdowns.is_empty()
            && self.fail_stops.is_empty()
            && self.jitter == 0.0
            && self.queue_capacity.is_none()
    }

    /// Panics on malformed ingredients (non-finite times, factors
    /// outside `(0, 1]`, zero rates, zero capacities).
    fn validate(&self) {
        for s in &self.slowdowns {
            assert!(
                s.factor > 0.0 && s.factor <= 1.0,
                "slowdown factor must be in (0, 1]"
            );
            assert!(
                s.at.is_finite() && s.until.is_finite() && s.at >= 0.0 && s.until >= s.at,
                "slowdown window must be finite and ordered"
            );
        }
        for f in &self.fail_stops {
            assert!(
                f.at.is_finite() && f.at >= 0.0,
                "fail-stop instant must be finite and non-negative"
            );
        }
        assert!(
            self.jitter >= 0.0 && self.jitter.is_finite(),
            "jitter amplitude must be finite and non-negative"
        );
        if let Some(c) = self.queue_capacity {
            assert!(c >= 1, "queue capacity must be at least 1");
        }
        match self.arrivals {
            Some(ArrivalProcess::Poisson { rate }) => {
                assert!(rate > 0.0 && rate.is_finite(), "arrival rate must be > 0");
            }
            Some(ArrivalProcess::Bursty { rate, burst }) => {
                assert!(rate > 0.0 && rate.is_finite(), "arrival rate must be > 0");
                assert!(burst >= 1, "burst size must be at least 1");
            }
            None => {}
        }
    }
}

/// Everything measured from one degraded run: the raw [`SimReport`]
/// (entries of data sets that never completed stay `NaN`) plus the
/// offered/completed/dropped accounting and the derived tail metrics.
#[derive(Debug, Clone)]
pub struct DegradedReport {
    /// Raw per-data-set measurements. For data sets that never entered
    /// (`start`) or never left (`completion`) the pipeline the entry is
    /// `NaN`; with an empty [`FaultPlan`] every entry is finite and the
    /// report is the one [`crate::PipelineSim`] returns.
    pub report: SimReport,
    /// Data sets offered to the pipeline.
    pub offered: usize,
    /// Data sets that fully left the pipeline.
    pub completed: usize,
    /// Data sets lost: shed at the bounded source buffer or destroyed
    /// by a fail-stop while held in a dead station.
    pub dropped: usize,
}

impl DegradedReport {
    /// Completed data sets per simulated time unit (`0` when nothing
    /// completed).
    pub fn sustained_throughput(&self) -> f64 {
        if self.report.makespan > 0.0 && self.completed > 0 {
            self.completed as f64 / self.report.makespan
        } else {
            0.0
        }
    }

    /// Response times of the completed data sets only.
    fn completed_latencies(&self) -> Vec<f64> {
        (0..self.report.n_datasets())
            .map(|d| self.report.latency(d))
            .filter(|l| l.is_finite())
            .collect()
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`) of the completed
    /// response times; `None` when nothing completed.
    fn latency_percentile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q <= 1.0, "percentile must be in (0, 1]");
        let mut ls = self.completed_latencies();
        if ls.is_empty() {
            return None;
        }
        ls.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = (q * ls.len() as f64).ceil() as usize;
        Some(ls[rank.max(1) - 1])
    }

    /// 99th-percentile completed response time.
    pub fn p99_latency(&self) -> Option<f64> {
        self.latency_percentile(0.99)
    }
}

/// Result pair of a degraded run: the report and (when requested) the
/// trace.
pub struct DegradedOutput {
    /// Measurements and accounting.
    pub degraded: DegradedReport,
    /// Trace events (empty unless `record_trace`).
    pub trace: Vec<TraceEvent>,
}

// ---------------------------------------------------------------------
// Deterministic draws (splitmix64): self-contained so the sim crate
// stays independent of any RNG crate and a plan's stream can never
// drift when unrelated generators change.

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` keyed by `(seed, stream, index)`.
fn unit_draw(seed: u64, stream: u64, index: u64) -> f64 {
    let bits = mix64(seed ^ mix64(stream ^ mix64(index)));
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Standard exponential draw (mean 1) keyed like [`unit_draw`].
fn exp_draw(seed: u64, stream: u64, index: u64) -> f64 {
    -(1.0 - unit_draw(seed, stream, index)).ln()
}

const ARRIVAL_STREAM: u64 = 0x4152_5256; // "ARRV"
const JITTER_STREAM: u64 = 0x4A49_5454; // "JITT"

/// A configured simulation of one mapping under a [`FaultPlan`].
/// Construct with [`FaultedSim::new`], execute with [`FaultedSim::run`].
pub struct FaultedSim<'a> {
    cm: &'a CostModel<'a>,
    mapping: &'a IntervalMapping,
    config: SimConfig,
    plan: FaultPlan,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitRecv,
    Receiving,
    Computing,
    WaitSend,
    Sending,
    Finished,
    /// Fail-stopped: matches no transfer predicate, so a dead station
    /// starts nothing and the no-fault path tests only the other phases.
    Dead,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Transfer on link `link` for `dataset` completed.
    TransferDone { link: usize, dataset: usize },
    /// Station `station` finished computing `dataset`.
    ComputeDone { station: usize, dataset: usize },
    /// The source's next release time has passed.
    SourceReady,
    /// Scripted fail-stop of `proc`.
    Fault { proc: ProcId },
}

struct Station {
    proc: ProcId,
    t_comp: f64,
    phase: Phase,
    /// Data set currently being handled / awaited.
    current: usize,
}

/// Measurements of one run, shared by both execution modes: start and
/// completion instants, per-processor busy time, the optional trace and
/// the dropped-data-set tally.
struct Ledger {
    start: Vec<f64>,
    completion: Vec<f64>,
    /// Busy time per processor id; `None` until its first activity.
    busy: Vec<Option<f64>>,
    record_trace: bool,
    trace: Vec<TraceEvent>,
    completed: usize,
    is_dropped: Vec<bool>,
    dropped: usize,
}

impl Ledger {
    fn new(n_datasets: usize, n_procs: usize, record_trace: bool) -> Self {
        Ledger {
            start: vec![f64::NAN; n_datasets],
            completion: vec![f64::NAN; n_datasets],
            busy: vec![None; n_procs],
            record_trace,
            trace: Vec::new(),
            completed: 0,
            is_dropped: vec![false; n_datasets],
            dropped: 0,
        }
    }

    /// Credits `proc` with the span `[from, to)` of activity `kind` on
    /// data set `d` (traced when requested).
    #[inline]
    fn record(&mut self, proc: ProcId, kind: TraceKind, d: usize, from: f64, to: f64) {
        *self.busy[proc].get_or_insert(0.0) += to - from;
        if self.record_trace {
            self.trace.push(TraceEvent {
                proc,
                kind,
                dataset: d,
                start: from,
                end: to,
            });
        }
    }

    /// Counts data set `d` as lost (idempotent).
    fn drop(&mut self, d: usize) {
        if !self.is_dropped[d] {
            self.is_dropped[d] = true;
            self.dropped += 1;
        }
    }

    /// Data set `d` left the pipeline at `now`.
    #[inline]
    fn complete(&mut self, d: usize, now: f64) {
        self.completion[d] = now;
        self.completed += 1;
    }

    fn finish(self) -> DegradedOutput {
        let makespan = self.completion.iter().copied().fold(0.0_f64, f64::max);
        DegradedOutput {
            degraded: DegradedReport {
                offered: self.start.len(),
                completed: self.completed,
                dropped: self.dropped,
                report: SimReport {
                    start: self.start,
                    completion: self.completion,
                    busy: self
                        .busy
                        .into_iter()
                        .enumerate()
                        .filter_map(|(proc, busy)| Some((proc, busy?)))
                        .collect(),
                    makespan,
                },
            },
            trace: self.trace,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum QEv {
    Arrival { dataset: usize },
    TransferDone { link: usize, dataset: usize },
    ComputeDone { station: usize, dataset: usize },
    Fault { proc: ProcId },
}

/// Bounded-buffer station state (queued mode): the port serializes
/// receives and sends, the CPU computes concurrently, and both FIFO
/// buffers hold at most `cap` data sets.
struct QStation {
    proc: ProcId,
    t_comp: f64,
    inbuf: VecDeque<usize>,
    outbuf: VecDeque<usize>,
    port_busy: bool,
    cpu_busy: bool,
    /// Data set being computed right now.
    computing: Option<usize>,
    /// Computed data set waiting for output-buffer space (keeps the CPU
    /// blocked).
    blocked: Option<usize>,
    dead: bool,
}

impl<'a> FaultedSim<'a> {
    /// Binds a cost model, a mapping, the base simulation options and a
    /// fault plan.
    pub fn new(
        cm: &'a CostModel<'a>,
        mapping: &'a IntervalMapping,
        config: SimConfig,
        plan: FaultPlan,
    ) -> Self {
        plan.validate();
        FaultedSim {
            cm,
            mapping,
            config,
            plan,
        }
    }

    /// Nominal transfer durations for links `0..=m`: source input, the
    /// `m - 1` inter-station links, sink output.
    fn transfer_times(&self) -> Vec<f64> {
        let app = self.cm.app();
        let pf = self.cm.platform();
        let m = self.mapping.n_intervals();
        let ivs = self.mapping.intervals();
        let procs = self.mapping.procs();
        let mut t_xfer = Vec::with_capacity(m + 1);
        t_xfer.push(app.input_volume(ivs[0].start) / pf.io_bandwidth_of(procs[0]));
        for k in 1..m {
            t_xfer.push(app.delta(ivs[k].start) / pf.bandwidth(procs[k - 1], procs[k]));
        }
        t_xfer.push(app.delta(app.n_stages()) / pf.io_bandwidth_of(procs[m - 1]));
        t_xfer
    }

    /// Release times for `n` data sets: the plan's arrival process when
    /// set, else the config input policy (validated here, before anything
    /// is scheduled).
    fn release_times(&self, n: usize) -> Vec<f64> {
        if let Some(arrivals) = self.plan.arrivals {
            let mut ts = Vec::with_capacity(n);
            let mut t = 0.0;
            match arrivals {
                ArrivalProcess::Poisson { rate } => {
                    for i in 0..n {
                        t += exp_draw(self.plan.seed, ARRIVAL_STREAM, i as u64) / rate;
                        ts.push(t);
                    }
                }
                ArrivalProcess::Bursty { rate, burst } => {
                    for i in 0..n {
                        if i % burst == 0 {
                            t += exp_draw(self.plan.seed, ARRIVAL_STREAM, i as u64) * burst as f64
                                / rate;
                        }
                        ts.push(t);
                    }
                }
            }
            return ts;
        }
        match &self.config.input {
            InputPolicy::Saturating => vec![0.0; n],
            InputPolicy::Periodic(p) => {
                assert!(*p >= 0.0 && p.is_finite(), "invalid input period");
                (0..n).map(|d| *p * d as f64).collect()
            }
            InputPolicy::ReleaseTimes(ts) => {
                assert!(ts.len() >= n, "not enough release times");
                assert!(
                    ts.iter().all(|t| t.is_finite() && *t >= 0.0)
                        && ts.windows(2).all(|w| w[0] <= w[1]),
                    "invalid ReleaseTimes: times must be finite, non-negative and non-decreasing"
                );
                ts[..n].to_vec()
            }
        }
    }

    /// The slowdown factor in force on `proc` at `now`, if any (worst
    /// wins when windows overlap).
    #[inline]
    fn slow_factor(&self, proc: ProcId, now: f64) -> Option<f64> {
        let mut factor: Option<f64> = None;
        for s in &self.plan.slowdowns {
            if s.proc == proc && now >= s.at && now < s.until {
                factor = Some(factor.map_or(s.factor, |g: f64| g.min(s.factor)));
            }
        }
        factor
    }

    /// Compute time of station work `t_comp` started at `now` on `proc`:
    /// the untouched value when no slowdown is in force (the bit-identity
    /// path), else `t_comp / factor`.
    #[inline]
    fn comp_time(&self, proc: ProcId, t_comp: f64, now: f64) -> f64 {
        match self.slow_factor(proc, now) {
            Some(g) => t_comp / g,
            None => t_comp,
        }
    }

    /// Duration of the transfer of data set `d` on link `k`: the
    /// untouched `t_xfer[k]` when jitter is off (the bit-identity path).
    #[inline]
    fn xfer_time(&self, t_xfer: &[f64], k: usize, d: usize) -> f64 {
        if self.plan.jitter > 0.0 {
            t_xfer[k]
                * (1.0
                    + self.plan.jitter
                        * unit_draw(self.plan.seed, JITTER_STREAM ^ k as u64, d as u64))
        } else {
            t_xfer[k]
        }
    }

    /// Runs `n_datasets` data sets through the pipeline under the plan.
    pub fn run(&self, n_datasets: usize) -> DegradedOutput {
        assert!(n_datasets > 0, "need at least one data set");
        match self.plan.queue_capacity {
            Some(cap) => self.run_queued(n_datasets, cap),
            None => self.run_rendezvous(n_datasets),
        }
    }

    /// The rendezvous machine (station semantics in [`crate::workflow`]).
    /// With an empty plan every hook returns its nominal input and no
    /// station reaches `Phase::Dead`: the run is the fault-free schedule.
    fn run_rendezvous(&self, n_datasets: usize) -> DegradedOutput {
        let app = self.cm.app();
        let pf = self.cm.platform();
        let m = self.mapping.n_intervals();
        let ivs = self.mapping.intervals();
        let procs = self.mapping.procs();
        let t_xfer = self.transfer_times();

        let mut stations: Vec<Station> = (0..m)
            .map(|j| Station {
                proc: procs[j],
                t_comp: app.interval_work(ivs[j].start, ivs[j].end) / pf.speed(procs[j]),
                phase: Phase::WaitRecv,
                current: 0,
            })
            .collect();

        let releases = self.release_times(n_datasets);
        let mut source_busy = false;
        let mut source_next = 0usize; // next data set the source will send
        let mut released = 0usize; // how many release times have passed

        let mut queue: EventQueue<Ev> = EventQueue::new();
        for &t in &releases {
            queue.schedule(t, Ev::SourceReady);
        }
        for f in &self.plan.fail_stops {
            queue.schedule(f.at, Ev::Fault { proc: f.proc });
        }

        let mut ledger = Ledger::new(n_datasets, pf.n_procs(), self.config.record_trace);

        // Whether the transfer on link `k` can start: the sender (the
        // source for `k = 0`) holds the data set the receiver awaits (the
        // sink, `k = m`, takes any). A dead station is in neither
        // `WaitRecv` nor `WaitSend`, so it starts nothing.
        macro_rules! enabled {
            ($k:expr) => {{
                let k = $k;
                if k == 0 {
                    !source_busy
                        && source_next < n_datasets
                        && source_next < released
                        && stations[0].phase == Phase::WaitRecv
                        && stations[0].current == source_next
                } else if k < m {
                    stations[k - 1].phase == Phase::WaitSend
                        && stations[k].phase == Phase::WaitRecv
                        && stations[k].current == stations[k - 1].current
                } else {
                    stations[m - 1].phase == Phase::WaitSend
                }
            }};
        }

        while ledger.completed < n_datasets {
            // A drained queue means the pipeline stalled behind a dead
            // stage: report the partial run. Without fail-stops the queue
            // cannot drain early.
            let Some((now, ev)) = queue.pop() else {
                break;
            };
            // Each arm returns the one link its event can enable, if any.
            let candidate = match ev {
                Ev::SourceReady => {
                    released += 1;
                    Some(0)
                }
                Ev::Fault { proc } => {
                    for st in stations.iter_mut().filter(|st| st.proc == proc) {
                        if matches!(
                            st.phase,
                            Phase::Receiving | Phase::Computing | Phase::WaitSend | Phase::Sending
                        ) {
                            ledger.drop(st.current);
                        }
                        st.phase = Phase::Dead;
                    }
                    None
                }
                Ev::ComputeDone { station, dataset } => {
                    // A dead station's compute produced nothing; the data
                    // set was counted dropped at the failure instant.
                    (stations[station].phase != Phase::Dead).then(|| {
                        debug_assert_eq!(stations[station].phase, Phase::Computing);
                        debug_assert_eq!(stations[station].current, dataset);
                        stations[station].phase = Phase::WaitSend;
                        station + 1
                    })
                }
                Ev::TransferDone { link, dataset } => {
                    // A live sender now awaits its next data set on link
                    // `link - 1`. The receiver either computes or, behind a
                    // dead sender, awaits on link `link` from that dead
                    // sender: neither enables a transfer.
                    let sender_freed = link > 0 && stations[link - 1].phase != Phase::Dead;
                    if link == 0 {
                        source_busy = false;
                        source_next += 1;
                    } else if sender_freed {
                        // Advance the sender past data set `dataset`.
                        let st = &mut stations[link - 1];
                        st.current = dataset + 1;
                        st.phase = if dataset + 1 == n_datasets {
                            Phase::Finished
                        } else {
                            Phase::WaitRecv
                        };
                    }
                    if link < m {
                        if stations[link].phase == Phase::Dead {
                            // Delivered into a dead station: lost
                            // (counted at the failure instant).
                        } else if link > 0 && stations[link - 1].phase == Phase::Dead {
                            // The sender died mid-transfer: the data is
                            // incomplete. The receiver frees up but the
                            // data set is gone.
                            ledger.drop(dataset);
                            stations[link].phase = Phase::WaitRecv;
                        } else {
                            // Receiver starts computing immediately.
                            let st = &mut stations[link];
                            debug_assert_eq!(st.phase, Phase::Receiving);
                            st.phase = Phase::Computing;
                            let t_done = now + self.comp_time(st.proc, st.t_comp, now);
                            ledger.record(st.proc, TraceKind::Compute, dataset, now, t_done);
                            queue.schedule(
                                t_done,
                                Ev::ComputeDone {
                                    station: link,
                                    dataset,
                                },
                            );
                        }
                    } else if stations[m - 1].phase != Phase::Dead {
                        ledger.complete(dataset, now);
                    }
                    // A final transfer whose sender died mid-send
                    // delivered nothing (counted at the failure instant).
                    sender_freed.then(|| link - 1)
                }
            };
            // Greedy, event-local: no link was enabled before the event,
            // and starting a transfer only moves its endpoints out of
            // `WaitRecv`/`WaitSend`, so the candidate is the only link to
            // test: O(1) per event.
            if let Some(k) = candidate.filter(|&k| enabled!(k)) {
                let d = if k == 0 {
                    source_next
                } else {
                    stations[k - 1].current
                };
                let dt = self.xfer_time(&t_xfer, k, d);
                if k == 0 {
                    source_busy = true;
                    ledger.start[d] = now;
                } else {
                    stations[k - 1].phase = Phase::Sending;
                    ledger.record(stations[k - 1].proc, TraceKind::Send, d, now, now + dt);
                }
                if k < m {
                    stations[k].phase = Phase::Receiving;
                    ledger.record(stations[k].proc, TraceKind::Receive, d, now, now + dt);
                }
                queue.schedule(
                    now + dt,
                    Ev::TransferDone {
                        link: k,
                        dataset: d,
                    },
                );
            }
            debug_assert!(
                (0..=m).all(|k| !enabled!(k)),
                "an enabled link was left idle at {now}"
            );
        }
        ledger.finish()
    }

    /// The bounded-buffer machine: per-station FIFO buffers of capacity
    /// `cap`, concurrent port/CPU, and a bounded source buffer that
    /// sheds overflow arrivals.
    fn run_queued(&self, n_datasets: usize, cap: usize) -> DegradedOutput {
        let app = self.cm.app();
        let pf = self.cm.platform();
        let m = self.mapping.n_intervals();
        let ivs = self.mapping.intervals();
        let procs = self.mapping.procs();
        let t_xfer = self.transfer_times();

        let mut stations: Vec<QStation> = (0..m)
            .map(|j| QStation {
                proc: procs[j],
                t_comp: app.interval_work(ivs[j].start, ivs[j].end) / pf.speed(procs[j]),
                inbuf: VecDeque::with_capacity(cap),
                outbuf: VecDeque::with_capacity(cap),
                port_busy: false,
                cpu_busy: false,
                computing: None,
                blocked: None,
                dead: false,
            })
            .collect();

        let releases = self.release_times(n_datasets);
        let mut source_q: VecDeque<usize> = VecDeque::with_capacity(cap);
        let mut source_busy = false;

        let mut queue: EventQueue<QEv> = EventQueue::new();
        for (d, &t) in releases.iter().enumerate() {
            queue.schedule(t, QEv::Arrival { dataset: d });
        }
        for f in &self.plan.fail_stops {
            queue.schedule(f.at, QEv::Fault { proc: f.proc });
        }

        let mut ledger = Ledger::new(n_datasets, pf.n_procs(), self.config.record_trace);

        // Whether the transfer on link `k` can start: both endpoints
        // alive with free ports, a data set to send (the source queue
        // for `k = 0`) and room to receive it (the sink, `k = m`, always
        // has room).
        macro_rules! xfer_ready {
            ($k:expr) => {{
                let k = $k;
                if k == 0 {
                    !stations[0].dead
                        && !source_busy
                        && !source_q.is_empty()
                        && !stations[0].port_busy
                        && stations[0].inbuf.len() < cap
                } else if k < m {
                    !stations[k - 1].dead
                        && !stations[k].dead
                        && !stations[k - 1].port_busy
                        && !stations[k].port_busy
                        && !stations[k - 1].outbuf.is_empty()
                        && stations[k].inbuf.len() < cap
                } else {
                    !stations[m - 1].dead
                        && !stations[m - 1].port_busy
                        && !stations[m - 1].outbuf.is_empty()
                }
            }};
        }

        // Whether station `j` can start a compute: alive, CPU free and a
        // buffered input.
        macro_rules! comp_ready {
            ($j:expr) => {{
                let j = $j;
                !stations[j].dead && !stations[j].cpu_busy && !stations[j].inbuf.is_empty()
            }};
        }

        // Tries to start the transfer on link `k`; true when started.
        macro_rules! try_xfer {
            ($k:expr, $now:expr) => {{
                let k = $k;
                let now = $now;
                let started = xfer_ready!(k);
                if started {
                    let d = if k == 0 {
                        source_busy = true;
                        let d = source_q.pop_front().expect("checked non-empty");
                        ledger.start[d] = now;
                        d
                    } else {
                        let sender = &mut stations[k - 1];
                        let d = sender.outbuf.pop_front().expect("checked");
                        // A blocked computed data set moves into the freed
                        // output-buffer space, releasing the CPU.
                        if let Some(b) = sender.blocked.take() {
                            sender.outbuf.push_back(b);
                            sender.cpu_busy = false;
                        }
                        d
                    };
                    let dt = self.xfer_time(&t_xfer, k, d);
                    if k > 0 {
                        stations[k - 1].port_busy = true;
                        ledger.record(stations[k - 1].proc, TraceKind::Send, d, now, now + dt);
                    }
                    if k < m {
                        stations[k].port_busy = true;
                        ledger.record(stations[k].proc, TraceKind::Receive, d, now, now + dt);
                    }
                    queue.schedule(
                        now + dt,
                        QEv::TransferDone {
                            link: k,
                            dataset: d,
                        },
                    );
                }
                started
            }};
        }

        // Tries to start a compute on station `j`; true when started.
        macro_rules! try_comp {
            ($j:expr, $now:expr) => {{
                let j = $j;
                let now = $now;
                let started = comp_ready!(j);
                if started {
                    let d = stations[j].inbuf.pop_front().expect("checked");
                    stations[j].cpu_busy = true;
                    stations[j].computing = Some(d);
                    let t_done = now + self.comp_time(stations[j].proc, stations[j].t_comp, now);
                    ledger.record(stations[j].proc, TraceKind::Compute, d, now, t_done);
                    queue.schedule(
                        t_done,
                        QEv::ComputeDone {
                            station: j,
                            dataset: d,
                        },
                    );
                }
                started
            }};
        }

        // Worklists of the greedy step: links, then stations, to test in
        // ascending order within one pass.
        let mut links: Vec<usize> = Vec::with_capacity(4);
        let mut comps: Vec<usize> = Vec::with_capacity(4);

        while ledger.completed < n_datasets {
            let Some((now, ev)) = queue.pop() else {
                break;
            };
            // Each arm queues what its event can enable.
            match ev {
                QEv::Arrival { dataset } => {
                    if source_q.len() < cap {
                        source_q.push_back(dataset);
                        links.push(0);
                    } else {
                        // Bounded source buffer full: shed the arrival.
                        ledger.drop(dataset);
                    }
                }
                QEv::Fault { proc } => {
                    for st in stations.iter_mut().take(m) {
                        if st.proc == proc && !st.dead {
                            st.dead = true;
                            for &d in st.inbuf.iter().chain(st.outbuf.iter()) {
                                ledger.drop(d);
                            }
                            if let Some(d) = st.computing {
                                ledger.drop(d);
                            }
                            if let Some(d) = st.blocked {
                                ledger.drop(d);
                            }
                        }
                    }
                }
                QEv::ComputeDone { station, dataset } => {
                    if !stations[station].dead {
                        stations[station].computing = None;
                        if stations[station].outbuf.len() < cap {
                            stations[station].outbuf.push_back(dataset);
                            stations[station].cpu_busy = false;
                            // The result can leave; the CPU can take the
                            // next input.
                            links.push(station + 1);
                            comps.push(station);
                        } else {
                            // Output buffer full: the CPU holds the
                            // result and blocks until a send frees space.
                            stations[station].blocked = Some(dataset);
                        }
                    }
                }
                QEv::TransferDone { link, dataset } => {
                    if link == 0 {
                        source_busy = false;
                        if stations[0].dead {
                            ledger.drop(dataset);
                        } else {
                            stations[0].port_busy = false;
                            stations[0].inbuf.push_back(dataset);
                        }
                    } else if link < m {
                        let s_dead = stations[link - 1].dead;
                        let r_dead = stations[link].dead;
                        if !s_dead {
                            stations[link - 1].port_busy = false;
                        }
                        if !r_dead {
                            stations[link].port_busy = false;
                        }
                        if s_dead || r_dead {
                            ledger.drop(dataset);
                        } else {
                            stations[link].inbuf.push_back(dataset);
                        }
                    } else if stations[m - 1].dead {
                        ledger.drop(dataset);
                    } else {
                        stations[m - 1].port_busy = false;
                        ledger.complete(dataset, now);
                    }
                    // Freed ports at both endpoints reopen the links
                    // around them; a delivered input can be computed.
                    links.extend(link.saturating_sub(1)..=(link + 1).min(m));
                    if link < m {
                        comps.push(link);
                    }
                }
            }
            // Greedy to fixpoint, event-local: nothing was enabled before
            // the event. Each pass tests its links ascending, then its
            // stations ascending — the order of a full scan, so every
            // activity starts as it would under one. A started transfer
            // on link `k` may unblock station `k - 1`'s CPU (tested this
            // pass); a started compute on station `j` frees input space
            // for link `j` (tested next pass). Nothing else is enabled by
            // a start, so a step costs O(1) per started activity.
            while !links.is_empty() || !comps.is_empty() {
                for &k in &links {
                    if try_xfer!(k, now) && k > 0 {
                        comps.push(k - 1);
                    }
                }
                links.clear();
                comps.sort_unstable();
                comps.dedup();
                for &j in &comps {
                    if try_comp!(j, now) {
                        links.push(j);
                    }
                }
                comps.clear();
            }
            debug_assert!(
                (0..=m).all(|k| !xfer_ready!(k)) && (0..m).all(|j| !comp_ready!(j)),
                "an enabled activity was left idle at {now}"
            );
        }

        ledger.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::PipelineSim;
    use pipeline_model::{Application, Platform};
    use std::collections::BTreeMap;

    fn two_interval_fixture() -> (Application, Platform, Vec<Interval>, Vec<usize>) {
        // Interval 1 cycle = 6, interval 2 cycle = 8, latency = 12 (the
        // workflow tests' hand-computed instance).
        let app = Application::new(vec![4.0, 8.0, 2.0], vec![2.0, 6.0, 4.0, 10.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 4.0], 2.0).unwrap();
        let ivs = vec![Interval::new(0, 2), Interval::new(2, 3)];
        let procs = vec![1, 0];
        (app, pf, ivs, procs)
    }

    #[test]
    fn slowdown_of_the_bottleneck_inflates_the_steady_period() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        // Station 2 (cycle 8) runs on P0: halve it over the whole run.
        let plan = FaultPlan {
            slowdowns: vec![Slowdown {
                proc: 0,
                at: 0.0,
                until: f64::MAX / 2.0,
                factor: 0.5,
            }],
            ..FaultPlan::empty()
        };
        let out = FaultedSim::new(&cm, &mapping, SimConfig::default(), plan).run(60);
        assert_eq!(out.degraded.completed, 60);
        let degraded = out.degraded.report.steady_period().unwrap();
        let nominal = cm.period(&mapping);
        // P0's cycle is 2 + 1 + 5 = 8; halving its speed doubles only
        // the compute term: 2 + 2 + 5 = 9.
        assert!(
            (degraded - 9.0).abs() < 1e-6,
            "slowed bottleneck: steady period {degraded} vs nominal {nominal}"
        );
    }

    #[test]
    fn transient_slowdown_recovers() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let plan = FaultPlan {
            slowdowns: vec![Slowdown {
                proc: 0,
                at: 0.0,
                until: 40.0,
                factor: 0.25,
            }],
            ..FaultPlan::empty()
        };
        let out = FaultedSim::new(&cm, &mapping, SimConfig::default(), plan).run(80);
        assert_eq!(out.degraded.completed, 80);
        // The second half of the run is clean: the steady-period tail
        // estimate converges back to the nominal period.
        let tail = out.degraded.report.steady_period().unwrap();
        let nominal = cm.period(&mapping);
        assert!(
            (tail - nominal).abs() < 0.05 * nominal,
            "post-window steady period {tail} vs nominal {nominal}"
        );
    }

    #[test]
    fn fail_stop_strands_the_tail_and_drops_in_flight_work() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let plan = FaultPlan {
            fail_stops: vec![FailStop { proc: 0, at: 50.0 }],
            ..FaultPlan::empty()
        };
        let out = FaultedSim::new(&cm, &mapping, SimConfig::default(), plan).run(60);
        let deg = &out.degraded;
        assert!(deg.completed > 0, "some data sets completed before death");
        assert!(deg.completed < 60, "the pipeline died before finishing");
        assert!(deg.dropped >= 1, "in-flight work was lost");
        assert!(deg.completed + deg.dropped <= deg.offered);
        assert!(deg.sustained_throughput() > 0.0);
        // Latency percentiles cover the completed prefix only.
        assert!(deg.p99_latency().unwrap() >= deg.latency_percentile(0.5).unwrap());
    }

    #[test]
    fn jitter_keeps_everything_completing_but_never_speeds_transfers() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let base = PipelineSim::new(&cm, &mapping, SimConfig::default())
            .run(30)
            .report;
        let plan = FaultPlan {
            seed: 7,
            jitter: 0.3,
            ..FaultPlan::empty()
        };
        let out = FaultedSim::new(&cm, &mapping, SimConfig::default(), plan).run(30);
        assert_eq!(out.degraded.completed, 30);
        assert!(out.degraded.report.makespan >= base.makespan - 1e-9);
        // Same plan, same seed: identical run.
        let plan2 = FaultPlan {
            seed: 7,
            jitter: 0.3,
            ..FaultPlan::empty()
        };
        let again = FaultedSim::new(&cm, &mapping, SimConfig::default(), plan2).run(30);
        assert_eq!(
            out.degraded.report.makespan.to_bits(),
            again.degraded.report.makespan.to_bits()
        );
    }

    #[test]
    fn queued_mode_completes_everything_and_buffering_never_hurts() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let rendezvous = PipelineSim::new(&cm, &mapping, SimConfig::default())
            .run(50)
            .report;
        let plan = FaultPlan {
            queue_capacity: Some(50),
            ..FaultPlan::empty()
        };
        let out = FaultedSim::new(&cm, &mapping, SimConfig::default(), plan).run(50);
        assert_eq!(out.degraded.completed, 50);
        assert_eq!(out.degraded.dropped, 0);
        assert!(
            out.degraded.report.makespan <= rendezvous.makespan + 1e-9,
            "buffering cannot slow the pipeline down"
        );
        // Completions stay FIFO and monotone.
        for w in out.degraded.report.completion.windows(2) {
            assert!(w[0] < w[1] + 1e-12);
        }
    }

    #[test]
    fn bursty_arrivals_overflow_a_tiny_source_buffer() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let period = cm.period(&mapping);
        let plan = FaultPlan {
            seed: 3,
            arrivals: Some(ArrivalProcess::Bursty {
                // Offered load 2x the service rate, in bursts of 8.
                rate: 2.0 / period,
                burst: 8,
            }),
            queue_capacity: Some(1),
            ..FaultPlan::empty()
        };
        let out = FaultedSim::new(&cm, &mapping, SimConfig::default(), plan).run(64);
        let deg = &out.degraded;
        assert!(deg.dropped > 0, "an overloaded 1-deep buffer must shed");
        assert!(deg.completed > 0);
        assert!(deg.completed + deg.dropped <= deg.offered);
    }

    #[test]
    fn a_blocked_cpu_restarts_when_a_send_frees_its_output() {
        // A fast station (compute 1) feeds a slow one (compute 4) through
        // 1-deep buffers, offered a data set every time unit: the fast
        // station's output fills, its CPU blocks holding a result, and
        // every send on link 1 must release that result and restart the
        // CPU on the input it holds. Transfers take 0.5, so every time
        // below is exact.
        let app = Application::new(vec![1.0, 4.0], vec![0.5, 0.5, 0.5]).unwrap();
        let pf = Platform::comm_homogeneous(vec![1.0, 1.0], 1.0).unwrap();
        let ivs = vec![Interval::new(0, 1), Interval::new(1, 2)];
        let mapping = IntervalMapping::new(&app, &pf, ivs, vec![0, 1]).unwrap();
        let cm = CostModel::new(&app, &pf);
        let config = SimConfig {
            input: InputPolicy::Periodic(1.0),
            ..SimConfig::default()
        };
        let plan = FaultPlan {
            queue_capacity: Some(1),
            ..FaultPlan::empty()
        };
        let deg = FaultedSim::new(&cm, &mapping, config, plan)
            .run(40)
            .degraded;
        assert!(deg.dropped > 0, "the offered load is 4x the slow station's");
        // Nothing is stranded behind a CPU that was never restarted.
        assert_eq!(deg.completed + deg.dropped, deg.offered);
        // The slow station never idles: results leave every 4 time units
        // from the first (0.5 in, 1 compute, 0.5 across, 4 compute, 0.5 out).
        let done: Vec<f64> = deg
            .report
            .completion
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .collect();
        assert_eq!(done.len(), deg.completed);
        for (i, &t) in done.iter().enumerate() {
            assert_eq!(t, 6.5 + 4.0 * i as f64, "completion {i}");
        }
    }

    #[test]
    fn poisson_arrivals_below_capacity_mostly_complete() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let period = cm.period(&mapping);
        let plan = FaultPlan {
            seed: 11,
            arrivals: Some(ArrivalProcess::Poisson {
                // Offered load at half the service rate.
                rate: 0.5 / period,
            }),
            queue_capacity: Some(4),
            ..FaultPlan::empty()
        };
        let out = FaultedSim::new(&cm, &mapping, SimConfig::default(), plan).run(40);
        let deg = &out.degraded;
        assert!(
            deg.completed >= 36,
            "light load should mostly complete: {} of 40",
            deg.completed
        );
        assert!(deg.sustained_throughput() > 0.0);
    }

    #[test]
    fn arrival_streams_are_deterministic_per_seed() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let mk = |seed| FaultPlan {
            seed,
            arrivals: Some(ArrivalProcess::Poisson { rate: 0.2 }),
            ..FaultPlan::empty()
        };
        let sim = |plan| FaultedSim::new(&cm, &mapping, SimConfig::default(), plan).run(20);
        let a = sim(mk(5));
        let b = sim(mk(5));
        let c = sim(mk(6));
        assert_eq!(
            a.degraded.report.makespan.to_bits(),
            b.degraded.report.makespan.to_bits()
        );
        assert_ne!(
            a.degraded.report.makespan.to_bits(),
            c.degraded.report.makespan.to_bits(),
            "different seeds draw different arrival streams"
        );
    }

    #[test]
    fn percentiles_use_nearest_rank_over_completed_only() {
        let report = SimReport {
            start: vec![0.0, 1.0, 2.0, f64::NAN],
            completion: vec![10.0, 12.0, 16.0, f64::NAN],
            busy: BTreeMap::new(),
            makespan: 16.0,
        };
        let deg = DegradedReport {
            report,
            offered: 4,
            completed: 3,
            dropped: 1,
        };
        // Latencies: [10, 11, 14].
        assert_eq!(deg.completed_latencies(), vec![10.0, 11.0, 14.0]);
        assert_eq!(deg.latency_percentile(0.5), Some(11.0));
        assert_eq!(deg.latency_percentile(1.0), Some(14.0));
        assert_eq!(deg.p99_latency(), Some(14.0));
        assert_eq!(deg.completed + deg.dropped, deg.offered);
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn invalid_slowdown_factor_rejected() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let plan = FaultPlan {
            slowdowns: vec![Slowdown {
                proc: 0,
                at: 0.0,
                until: 1.0,
                factor: 1.5,
            }],
            ..FaultPlan::empty()
        };
        let _ = FaultedSim::new(&cm, &mapping, SimConfig::default(), plan);
    }
}
