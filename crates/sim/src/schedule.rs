//! The synchronous periodic schedule: the paper's "synchronous mode"
//! made explicit.
//!
//! The paper asserts (Section 1) that a pipeline "operates in synchronous
//! mode: after some latency due to the initialization delay, a new task
//! is completed every period". This module constructs that schedule and
//! *proves it valid* by checking every one-port constraint:
//!
//! For period `T ≥ T_period` (eq. 1), station `j` handles data set `d`
//! with offsets
//!
//! ```text
//! receive_j(d) starts at  o_{j-1} + d·T
//! compute_j(d) starts at  o_{j-1} + d·T + t_recv_j
//! send_j(d)    starts at  o_j     + d·T          where o_j = o_{j-1} + t_recv_j + t_comp_j
//! ```
//!
//! Each processor's busy block per data set has length `cycle_j ≤ T`, so
//! blocks of consecutive data sets never overlap, adjacent stations agree
//! on transfer times by construction, and every data set finishes exactly
//! `T_latency` (eq. 2) after it starts — the schedule certifies both
//! formulas simultaneously. [`SyncSchedule::validate`] re-checks all of
//! this numerically, and tests cross-validate against the greedy
//! discrete-event executor.

use pipeline_model::prelude::*;
use pipeline_model::util::{approx_le, definitely_lt, EPS};

/// A validated synchronous schedule for one mapping at period `T`.
#[derive(Debug, Clone)]
pub struct SyncSchedule {
    /// The schedule period `T`.
    pub period: f64,
    /// `offsets[j]`: when station `j` starts receiving data set 0
    /// (`offsets[m]` is when the final output transfer starts).
    pub offsets: Vec<f64>,
    /// Transfer durations for links `0..=m`.
    pub t_xfer: Vec<f64>,
    /// Computation durations per station.
    pub t_comp: Vec<f64>,
    /// Processors per station.
    pub procs: Vec<ProcId>,
    /// End-to-end latency of every data set under this schedule.
    pub latency: f64,
}

/// Builds the synchronous schedule of `mapping` at period `period`.
/// Panics when `period < T_period(mapping) − ε` — the schedule would
/// overlap a processor with itself.
pub fn build_sync_schedule(
    cm: &CostModel<'_>,
    mapping: &IntervalMapping,
    period: f64,
) -> SyncSchedule {
    let analytic = cm.period(mapping);
    assert!(
        !definitely_lt(period, analytic),
        "period {period} below the eq. 1 bound {analytic}"
    );
    let app = cm.app();
    let pf = cm.platform();
    let m = mapping.n_intervals();
    let ivs = mapping.intervals();
    let procs: Vec<ProcId> = mapping.procs().to_vec();

    let mut t_xfer = Vec::with_capacity(m + 1);
    t_xfer.push(app.input_volume(ivs[0].start) / pf.io_bandwidth_of(procs[0]));
    for k in 1..m {
        t_xfer.push(app.delta(ivs[k].start) / pf.bandwidth(procs[k - 1], procs[k]));
    }
    t_xfer.push(app.delta(app.n_stages()) / pf.io_bandwidth_of(procs[m - 1]));

    let t_comp: Vec<f64> = (0..m)
        .map(|j| app.interval_work(ivs[j].start, ivs[j].end) / pf.speed(procs[j]))
        .collect();

    // o_0 = 0; o_j = o_{j-1} + t_recv_j + t_comp_j.
    let mut offsets = Vec::with_capacity(m + 1);
    offsets.push(0.0);
    for j in 0..m {
        let prev = *offsets.last().expect("non-empty");
        offsets.push(prev + t_xfer[j] + t_comp[j]);
    }
    let latency = offsets[m] + t_xfer[m];

    SyncSchedule {
        period,
        offsets,
        t_xfer,
        t_comp,
        procs,
        latency,
    }
}

impl SyncSchedule {
    /// Number of stations.
    fn n_stations(&self) -> usize {
        self.procs.len()
    }

    /// The busy spans of station `j` for data set `d`:
    /// (receive, compute, send), each as `(start, end)`.
    pub fn spans(&self, j: usize, d: usize) -> [(f64, f64); 3] {
        let base = self.offsets[j] + d as f64 * self.period;
        let r_end = base + self.t_xfer[j];
        let c_end = r_end + self.t_comp[j];
        let s_end = c_end + self.t_xfer[j + 1];
        [(base, r_end), (r_end, c_end), (c_end, s_end)]
    }

    /// Completion time of data set `d`.
    pub fn completion(&self, d: usize) -> f64 {
        d as f64 * self.period + self.latency
    }

    /// Checks every constraint of the schedule over `n_datasets` data
    /// sets, panicking with a description on any violation:
    ///
    /// * **intra-processor**: consecutive busy blocks of one station never
    ///   overlap (needs `cycle_j ≤ T`);
    /// * **rendezvous**: the send span of station `j` equals the receive
    ///   span of station `j+1` for the same data set;
    /// * **latency**: every data set takes exactly `latency`.
    pub fn validate(&self, n_datasets: usize) {
        let m = self.n_stations();
        for j in 0..m {
            let cycle = self.t_xfer[j] + self.t_comp[j] + self.t_xfer[j + 1];
            assert!(
                approx_le(cycle, self.period),
                "station {j}: cycle {cycle} exceeds period {}",
                self.period
            );
            for d in 1..n_datasets {
                let prev_end = self.spans(j, d - 1)[2].1;
                let next_start = self.spans(j, d)[0].0;
                assert!(
                    approx_le(prev_end, next_start),
                    "station {j}: data sets {d}-1 and {d} overlap ({prev_end} > {next_start})"
                );
            }
        }
        for j in 0..m.saturating_sub(1) {
            for d in 0..n_datasets {
                let send = self.spans(j, d)[2];
                let recv = self.spans(j + 1, d)[0];
                assert!(
                    (send.0 - recv.0).abs() <= EPS && (send.1 - recv.1).abs() <= EPS,
                    "link {}: send {send:?} and receive {recv:?} disagree for data set {d}",
                    j + 1
                );
            }
        }
        for d in 0..n_datasets {
            let start = self.spans(0, d)[0].0;
            let end = self.completion(d);
            assert!(
                (end - start - self.latency).abs() <= EPS,
                "data set {d}: latency {} != schedule latency {}",
                end - start,
                self.latency
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{InputPolicy, PipelineSim, SimConfig};
    use pipeline_core::SolveWorkspace;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::{Application, Platform};

    fn fixture() -> (Application, Platform, IntervalMapping) {
        let app = Application::new(vec![4.0, 8.0, 2.0], vec![2.0, 6.0, 4.0, 10.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 4.0], 2.0).unwrap();
        let mapping = IntervalMapping::new(
            &app,
            &pf,
            vec![Interval::new(0, 2), Interval::new(2, 3)],
            vec![1, 0],
        )
        .unwrap();
        (app, pf, mapping)
    }

    #[test]
    fn schedule_at_analytic_period_is_valid() {
        let (app, pf, mapping) = fixture();
        let cm = CostModel::new(&app, &pf);
        let t = cm.period(&mapping);
        let sched = build_sync_schedule(&cm, &mapping, t);
        sched.validate(25);
        assert!((sched.latency - cm.latency(&mapping)).abs() < 1e-12);
        // One completion every T.
        assert!((sched.completion(5) - sched.completion(4) - t).abs() < 1e-12);
    }

    #[test]
    fn schedule_below_analytic_period_panics() {
        let (app, pf, mapping) = fixture();
        let cm = CostModel::new(&app, &pf);
        let t = cm.period(&mapping);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            build_sync_schedule(&cm, &mapping, 0.9 * t)
        }));
        assert!(result.is_err(), "sub-period schedules must be rejected");
    }

    #[test]
    fn synchronous_equals_greedy_when_throttled() {
        // The greedy DES with input period T produces exactly the
        // synchronous schedule's completions.
        let (app, pf, mapping) = fixture();
        let cm = CostModel::new(&app, &pf);
        let t = cm.period(&mapping);
        let sched = build_sync_schedule(&cm, &mapping, t);
        let out = PipelineSim::new(
            &cm,
            &mapping,
            SimConfig {
                input: InputPolicy::Periodic(t),
                record_trace: false,
            },
        )
        .run(20);
        for d in 0..20 {
            assert!(
                (out.report.completion[d] - sched.completion(d)).abs() < 1e-9,
                "data set {d}: greedy {} vs synchronous {}",
                out.report.completion[d],
                sched.completion(d)
            );
        }
    }

    #[test]
    fn schedules_valid_on_random_instances_and_looser_periods() {
        for seed in 0..8 {
            let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 10, 8));
            let (app, pf) = gen.instance(seed, 0);
            let cm = CostModel::new(&app, &pf);
            let res = pipeline_core::sp_mono_p_in(
                &cm,
                0.6 * cm.single_proc_period(),
                &mut SolveWorkspace::new(),
            );
            let t = cm.period(&res.mapping);
            for factor in [1.0, 1.25, 2.0] {
                let sched = build_sync_schedule(&cm, &res.mapping, t * factor);
                sched.validate(15);
                // Latency does not depend on the chosen period.
                assert!((sched.latency - res.latency).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn trace_round_trip_has_three_spans_per_station_dataset() {
        let (app, pf, mapping) = fixture();
        let cm = CostModel::new(&app, &pf);
        let sched = build_sync_schedule(&cm, &mapping, cm.period(&mapping));
        assert_eq!(sched.n_stations(), 2);
        // Receive, compute and send of every station and data set are
        // all positive spans.
        for j in 0..2 {
            for d in 0..4 {
                assert!(sched.spans(j, d).iter().all(|&(start, end)| end > start));
            }
        }
    }
}
