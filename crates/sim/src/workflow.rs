//! The fault-free pipeline simulator: [`PipelineSim`] runs a mapping
//! through the crate's one event loop ([`crate::faults`]) with an empty
//! [`FaultPlan`].
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
//! mode: the inter-completion time converges to `T_period` (eq. 1), and
//! with the source throttled to the period every data set sees
//! `T_latency` (eq. 2).

use crate::faults::{FaultPlan, FaultedSim};
use crate::metrics::SimReport;
use crate::trace::TraceEvent;
use pipeline_model::prelude::*;

/// How the source releases data sets.
#[derive(Debug, Clone)]
pub enum InputPolicy {
    /// Release everything at time 0 (saturating input; measures the
    /// achievable throughput).
    Saturating,
    /// One data set every `period` time units (throttled input; with
    /// `period = T_period` every data set sees the eq. 2 latency).
    Periodic(f64),
    /// Explicit release times (finite, non-negative and non-decreasing).
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

/// A configured simulation of one mapping. Construct with
/// [`PipelineSim::new`], execute with [`PipelineSim::run`].
pub struct PipelineSim<'a> {
    sim: FaultedSim<'a>,
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
            sim: FaultedSim::new(cm, mapping, config, FaultPlan::empty()),
        }
    }

    /// Runs `n_datasets` data sets through the pipeline and reports.
    pub fn run(&self, n_datasets: usize) -> SimOutput {
        let out = self.sim.run(n_datasets);
        assert_eq!(
            out.degraded.completed, n_datasets,
            "simulation deadlocked: event queue drained before completion"
        );
        SimOutput {
            report: out.degraded.report,
            trace: out.trace,
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

    fn run_with_releases(releases: Vec<f64>) {
        let (app, pf, ivs, procs) = two_interval_fixture();
        let mapping = IntervalMapping::new(&app, &pf, ivs, procs).unwrap();
        let cm = CostModel::new(&app, &pf);
        let config = SimConfig {
            input: InputPolicy::ReleaseTimes(releases),
            record_trace: false,
        };
        let _ = PipelineSim::new(&cm, &mapping, config).run(2);
    }

    #[test]
    #[should_panic(expected = "invalid ReleaseTimes")]
    fn negative_release_time_panics() {
        run_with_releases(vec![-1.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "invalid ReleaseTimes")]
    fn nan_release_time_panics() {
        run_with_releases(vec![f64::NAN, 5.0]);
    }

    #[test]
    #[should_panic(expected = "invalid ReleaseTimes")]
    fn infinite_release_time_panics() {
        run_with_releases(vec![0.0, f64::INFINITY]);
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
