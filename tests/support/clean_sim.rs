//! The fault-free pipeline simulator, kept as a test oracle: the
//! one-port rendezvous machine written without any fault hook. Station
//! `j` runs interval `j` on its processor and, per data set, receives,
//! computes and sends, one activity at a time; a transfer starts only
//! when the sender has finished computing the data set *and* the
//! receiver is ready to take it, and occupies both for `δ/b`. Every
//! enabled transfer starts as early as possible (greedy).
//!
//! It is the slow, obviously-correct reference that the production loop
//! (`pipeline_sim::faults`, which `PipelineSim` runs with an empty fault
//! plan) is checked against, bit for bit: starts, completions, busy
//! times, makespan and traces.
//!
//! Built on the public API only. Include it with
//! `#[path = "support/clean_sim.rs"] mod clean_sim;`.

use std::collections::BTreeMap;

use pipeline_workflows::model::{CostModel, IntervalMapping, ProcId};
use pipeline_workflows::sim::engine::EventQueue;
use pipeline_workflows::sim::{InputPolicy, SimConfig, SimReport, TraceEvent, TraceKind};

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

/// Runs `n_datasets` data sets of `mapping` through the fault-free
/// machine under `config` and returns the report and (when
/// `config.record_trace`) the trace.
pub fn clean_sim(
    cm: &CostModel<'_>,
    mapping: &IntervalMapping,
    config: &SimConfig,
    n_datasets: usize,
) -> (SimReport, Vec<TraceEvent>) {
    assert!(n_datasets > 0, "need at least one data set");
    let app = cm.app();
    let pf = cm.platform();
    let m = mapping.n_intervals();
    let ivs = mapping.intervals();
    let procs = mapping.procs();

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
    let releases: Vec<f64> = match &config.input {
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
            if config.record_trace {
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
    (
        SimReport {
            start,
            completion,
            busy,
            makespan,
        },
        trace,
    )
}
