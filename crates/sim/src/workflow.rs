//! The pipeline execution state machine: stations, rendezvous transfers,
//! and the greedy (ASAP) schedule.
//!
//! Station `j` executes interval `j` of the mapping on its processor. Per
//! data set it runs three serial activities — receive, compute, send —
//! with transfers being rendezvous: a transfer starts only when the
//! sender has finished computing the data set *and* the receiver is ready
//! to take it, and it occupies both for `δ/b`. Data sets enter through a
//! one-port source (optionally throttled) and leave through a sink.
//!
//! The greedy schedule starts every enabled activity as early as
//! possible. Its steady-state behaviour matches the paper's synchronous
//! mode: the inter-completion time converges to `T_period` (eq. 1) —
//! formally, the execution is a deterministic timed marked graph whose
//! maximum cycle mean is the largest processor cycle time.

use crate::engine::EventQueue;
use crate::metrics::SimReport;
use crate::trace::{TraceEvent, TraceKind};
use pipeline_model::prelude::*;
use std::collections::BTreeMap;

/// How the source releases data sets.
#[derive(Debug, Clone)]
pub enum InputPolicy {
    /// Release everything at time 0 (saturating input; measures the
    /// achievable throughput).
    Saturating,
    /// One data set every `period` time units (throttled input; with
    /// `period = T_period` every data set sees the eq. 2 latency).
    Periodic(f64),
    /// Explicit release times (must be non-decreasing).
    ReleaseTimes(Vec<f64>),
}

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Source release policy.
    pub input: InputPolicy,
    /// Record per-activity trace events (needed for Gantt charts).
    pub record_trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            input: InputPolicy::Saturating,
            record_trace: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitRecv,
    Receiving,
    Computing,
    WaitSend,
    Sending,
    Finished,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Transfer on link `link` for `dataset` completed.
    TransferDone { link: usize, dataset: usize },
    /// Station `station` finished computing `dataset`.
    ComputeDone { station: usize, dataset: usize },
    /// The source's `dataset` release time has passed.
    SourceReady,
}

struct Station {
    proc: ProcId,
    t_comp: f64,
    phase: Phase,
    /// Data set currently being handled / awaited.
    current: usize,
}

/// A configured simulation of one mapping. Construct with
/// [`PipelineSim::new`], execute with [`PipelineSim::run`].
pub struct PipelineSim<'a> {
    cm: &'a CostModel<'a>,
    mapping: &'a IntervalMapping,
    config: SimConfig,
}

/// Result pair: the metrics report and (when requested) the trace.
pub struct SimOutput {
    /// Measured metrics.
    pub report: SimReport,
    /// Trace events (empty unless `record_trace`).
    pub trace: Vec<TraceEvent>,
}

impl<'a> PipelineSim<'a> {
    /// Binds a cost model (application + platform) and a mapping.
    pub fn new(cm: &'a CostModel<'a>, mapping: &'a IntervalMapping, config: SimConfig) -> Self {
        PipelineSim {
            cm,
            mapping,
            config,
        }
    }

    /// Runs `n_datasets` data sets through the pipeline and reports.
    pub fn run(&self, n_datasets: usize) -> SimOutput {
        assert!(n_datasets > 0, "need at least one data set");
        let app = self.cm.app();
        let pf = self.cm.platform();
        let m = self.mapping.n_intervals();
        let ivs = self.mapping.intervals();
        let procs = self.mapping.procs();

        // Transfer durations for links 0..=m.
        let mut t_xfer = Vec::with_capacity(m + 1);
        t_xfer.push(app.input_volume(ivs[0].start) / pf.io_bandwidth_of(procs[0]));
        for k in 1..m {
            t_xfer.push(app.delta(ivs[k].start) / pf.bandwidth(procs[k - 1], procs[k]));
        }
        t_xfer.push(app.delta(app.n_stages()) / pf.io_bandwidth_of(procs[m - 1]));

        let mut stations: Vec<Station> = (0..m)
            .map(|j| Station {
                proc: procs[j],
                t_comp: app.interval_work(ivs[j].start, ivs[j].end) / pf.speed(procs[j]),
                phase: Phase::WaitRecv,
                current: 0,
            })
            .collect();

        // Source bookkeeping.
        let releases: Vec<f64> = match &self.config.input {
            InputPolicy::Saturating => vec![0.0; n_datasets],
            InputPolicy::Periodic(p) => {
                assert!(*p >= 0.0 && p.is_finite(), "invalid input period");
                (0..n_datasets).map(|d| *p * d as f64).collect()
            }
            InputPolicy::ReleaseTimes(ts) => {
                assert!(ts.len() >= n_datasets, "not enough release times");
                assert!(
                    ts.windows(2).all(|w| w[0] <= w[1]),
                    "release times must be non-decreasing"
                );
                ts[..n_datasets].to_vec()
            }
        };
        let mut source_busy = false;
        let mut source_next = 0usize; // next data set the source will send
        let mut released = 0usize; // how many release times have passed

        let mut queue: EventQueue<Ev> = EventQueue::new();
        for &t in &releases {
            queue.schedule(t, Ev::SourceReady);
        }

        let mut start = vec![f64::NAN; n_datasets];
        let mut completion = vec![f64::NAN; n_datasets];
        let mut busy: BTreeMap<usize, f64> = BTreeMap::new();
        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut completed = 0usize;

        macro_rules! record {
            ($proc:expr, $kind:expr, $d:expr, $from:expr, $to:expr) => {{
                *busy.entry($proc).or_insert(0.0) += $to - $from;
                if self.config.record_trace {
                    trace.push(TraceEvent {
                        proc: $proc,
                        kind: $kind,
                        dataset: $d,
                        start: $from,
                        end: $to,
                    });
                }
            }};
        }

        // Tries to start transfer `k` at time `now`; returns true when it
        // started.
        macro_rules! try_start {
            ($k:expr, $now:expr) => {{
                let k = $k;
                let now = $now;
                let mut started = false;
                if k == 0 {
                    if !source_busy
                        && source_next < n_datasets
                        && source_next < released
                        && stations[0].phase == Phase::WaitRecv
                        && stations[0].current == source_next
                    {
                        let d = source_next;
                        source_busy = true;
                        stations[0].phase = Phase::Receiving;
                        start[d] = now;
                        record!(
                            stations[0].proc,
                            TraceKind::Receive,
                            d,
                            now,
                            now + t_xfer[0]
                        );
                        queue.schedule(
                            now + t_xfer[0],
                            Ev::TransferDone {
                                link: 0,
                                dataset: d,
                            },
                        );
                        started = true;
                    }
                } else if k < m {
                    if stations[k - 1].phase == Phase::WaitSend
                        && stations[k].phase == Phase::WaitRecv
                        && stations[k].current == stations[k - 1].current
                    {
                        let d = stations[k - 1].current;
                        stations[k - 1].phase = Phase::Sending;
                        stations[k].phase = Phase::Receiving;
                        record!(
                            stations[k - 1].proc,
                            TraceKind::Send,
                            d,
                            now,
                            now + t_xfer[k]
                        );
                        record!(
                            stations[k].proc,
                            TraceKind::Receive,
                            d,
                            now,
                            now + t_xfer[k]
                        );
                        queue.schedule(
                            now + t_xfer[k],
                            Ev::TransferDone {
                                link: k,
                                dataset: d,
                            },
                        );
                        started = true;
                    }
                } else if stations[m - 1].phase == Phase::WaitSend {
                    let d = stations[m - 1].current;
                    stations[m - 1].phase = Phase::Sending;
                    record!(
                        stations[m - 1].proc,
                        TraceKind::Send,
                        d,
                        now,
                        now + t_xfer[m]
                    );
                    queue.schedule(
                        now + t_xfer[m],
                        Ev::TransferDone {
                            link: m,
                            dataset: d,
                        },
                    );
                    started = true;
                }
                started
            }};
        }

        // Advance a station past its send of data set `d`.
        macro_rules! advance_sender {
            ($j:expr, $d:expr) => {{
                let j = $j;
                stations[j].current = $d + 1;
                stations[j].phase = if $d + 1 == n_datasets {
                    Phase::Finished
                } else {
                    Phase::WaitRecv
                };
            }};
        }

        while completed < n_datasets {
            let (now, ev) = queue
                .pop()
                .expect("simulation deadlocked: event queue drained before completion");
            match ev {
                Ev::SourceReady => {
                    released += 1;
                }
                Ev::ComputeDone { station, dataset } => {
                    debug_assert_eq!(stations[station].phase, Phase::Computing);
                    debug_assert_eq!(stations[station].current, dataset);
                    stations[station].phase = Phase::WaitSend;
                }
                Ev::TransferDone { link, dataset } => {
                    if link == 0 {
                        source_busy = false;
                        source_next += 1;
                    } else {
                        advance_sender!(link - 1, dataset);
                    }
                    if link < m {
                        // Receiver starts computing immediately.
                        let st = &mut stations[link];
                        debug_assert_eq!(st.phase, Phase::Receiving);
                        st.phase = Phase::Computing;
                        let t_done = now + st.t_comp;
                        record!(st.proc, TraceKind::Compute, dataset, now, t_done);
                        queue.schedule(
                            t_done,
                            Ev::ComputeDone {
                                station: link,
                                dataset,
                            },
                        );
                    } else {
                        completion[dataset] = now;
                        completed += 1;
                    }
                }
            }
            // Greedy: start every enabled transfer.
            for k in 0..=m {
                let _ = try_start!(k, now);
            }
        }

        let makespan = completion.iter().copied().fold(0.0_f64, f64::max);
        debug_assert!(start.iter().all(|t| t.is_finite()));
        debug_assert!(completion.iter().all(|t| t.is_finite()));
        SimOutput {
            report: SimReport {
                start,
                completion,
                busy,
                makespan,
            },
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_core::SolveWorkspace;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::{Application, Platform};

    fn two_interval_fixture() -> (Application, Platform, Vec<Interval>, Vec<usize>) {
        // Same hand-computed instance as the cost-model tests:
        // interval 1 cycle = 6, interval 2 cycle = 8, latency = 12.
        let app = Application::new(vec![4.0, 8.0, 2.0], vec![2.0, 6.0, 4.0, 10.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 4.0], 2.0).unwrap();
        let ivs = vec![Interval::new(0, 2), Interval::new(2, 3)];
        let procs = vec![1, 0];
        (app, pf, ivs, procs)
    }

    #[test]
    fn single_dataset_latency_equals_eq2() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let sim = PipelineSim::new(&cm, &mapping, SimConfig::default());
        let out = sim.run(1);
        assert!((out.report.latency(0) - cm.latency(&mapping)).abs() < 1e-9);
        assert!((out.report.max_latency() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn saturating_throughput_converges_to_eq1() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let sim = PipelineSim::new(&cm, &mapping, SimConfig::default());
        let out = sim.run(60);
        let period = cm.period(&mapping);
        assert!(
            (out.report.steady_period().unwrap() - period).abs() < 1e-9,
            "steady period {} vs analytic {period}",
            out.report.steady_period().unwrap()
        );
        assert!((out.report.steady_period_max().unwrap() - period).abs() < 1e-9);
    }

    #[test]
    fn throttled_input_gives_eq2_latency_for_every_dataset() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let period = cm.period(&mapping);
        let latency = cm.latency(&mapping);
        let sim = PipelineSim::new(
            &cm,
            &mapping,
            SimConfig {
                input: InputPolicy::Periodic(period),
                record_trace: false,
            },
        );
        let out = sim.run(40);
        for (d, l) in out.report.latencies().into_iter().enumerate() {
            assert!(
                (l - latency).abs() < 1e-9,
                "data set {d}: simulated latency {l} vs analytic {latency}"
            );
        }
    }

    #[test]
    fn saturating_latency_never_below_eq2() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let latency = cm.latency(&mapping);
        let sim = PipelineSim::new(&cm, &mapping, SimConfig::default());
        let out = sim.run(30);
        for l in out.report.latencies() {
            assert!(
                l >= latency - 1e-9,
                "simulated latency {l} beat the analytic bound"
            );
        }
    }

    #[test]
    fn completions_are_fifo_and_monotone() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let out = PipelineSim::new(&cm, &mapping, SimConfig::default()).run(20);
        for w in out.report.completion.windows(2) {
            assert!(w[0] < w[1] + 1e-12);
        }
        for w in out.report.start.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn trace_spans_never_overlap_per_processor() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let out = PipelineSim::new(
            &cm,
            &mapping,
            SimConfig {
                input: InputPolicy::Saturating,
                record_trace: true,
            },
        )
        .run(15);
        assert!(!out.trace.is_empty());
        for u in [0usize, 1] {
            let mut spans: Vec<(f64, f64)> = out
                .trace
                .iter()
                .filter(|e| e.proc == u)
                .map(|e| (e.start, e.end))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                assert!(
                    w[0].1 <= w[1].0 + 1e-9,
                    "P{u}: spans {:?} and {:?} overlap — one-port violated",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn single_interval_mapping_simulates() {
        let (app, pf, _, _) = two_interval_fixture();
        let mapping = IntervalMapping::all_on_fastest(&app, &pf);
        let cm = CostModel::new(&app, &pf);
        let out = PipelineSim::new(&cm, &mapping, SimConfig::default()).run(25);
        assert!((out.report.latency(0) - cm.latency(&mapping)).abs() < 1e-9);
        assert!((out.report.steady_period().unwrap() - cm.period(&mapping)).abs() < 1e-9);
    }

    #[test]
    fn utilization_of_bottleneck_is_full_under_saturation() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let out = PipelineSim::new(&cm, &mapping, SimConfig::default()).run(80);
        // Interval 2 (cycle 8) on P0 is the bottleneck; asymptotically its
        // utilization tends to 1.
        assert!(
            out.report.utilization(0) > 0.95,
            "bottleneck util {}",
            out.report.utilization(0)
        );
        assert!(out.report.utilization(1) < 0.95);
    }

    #[test]
    fn release_times_policy_respected() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let releases = vec![0.0, 100.0, 200.0];
        let out = PipelineSim::new(
            &cm,
            &mapping,
            SimConfig {
                input: InputPolicy::ReleaseTimes(releases.clone()),
                record_trace: false,
            },
        )
        .run(3);
        for (d, &r) in releases.iter().enumerate() {
            assert!(
                out.report.start[d] >= r - 1e-12,
                "data set {d} started before release"
            );
            // Far-apart releases: the pipeline is empty, starts exactly at
            // release.
            assert!((out.report.start[d] - r).abs() < 1e-9);
            assert!((out.report.latency(d) - cm.latency(&mapping)).abs() < 1e-9);
        }
    }

    #[test]
    fn random_instances_match_analytic_model() {
        // The headline validation: on random E2 instances with heuristic
        // mappings, the simulator reproduces eqs. 1–2.
        for seed in 0..6 {
            let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 12, 8));
            let (app, pf) = gen.instance(seed, 0);
            let cm = CostModel::new(&app, &pf);
            let res = pipeline_core::sp_mono_p_in(
                &cm,
                0.6 * cm.single_proc_period(),
                &mut SolveWorkspace::new(),
            );
            let mapping = res.mapping;
            let period = cm.period(&mapping);
            let latency = cm.latency(&mapping);
            let out = PipelineSim::new(&cm, &mapping, SimConfig::default()).run(50);
            assert!(
                (out.report.steady_period().unwrap() - period).abs() < 1e-6 * period,
                "seed {seed}: steady period {} vs analytic {period} (m = {})",
                out.report.steady_period().unwrap(),
                mapping.n_intervals()
            );
            assert!((out.report.latency(0) - latency).abs() < 1e-6 * latency.max(1.0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one data set")]
    fn zero_datasets_panics() {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let _ = PipelineSim::new(&cm, &mapping, SimConfig::default()).run(0);
    }
}
