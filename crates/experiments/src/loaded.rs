//! Loaded-latency study (extension beyond the paper's evaluation).
//!
//! The paper defines latency as "the maximum response time over all data
//! sets" but evaluates eq. 2, which is the *unloaded* response time —
//! exact when the input is throttled at the period, optimistic under
//! saturation where queueing in front of the bottleneck inflates early
//! responses. The discrete-event simulator quantifies that gap per
//! heuristic: mappings that spread cycle times evenly queue less than
//! mappings with one dominant bottleneck, even at identical periods.

use crate::robustness::heuristic_study;
use pipeline_core::HeuristicKind;
use pipeline_model::generator::InstanceParams;
use pipeline_sim::{InputPolicy, PipelineSim, SimConfig};

/// Loaded-vs-analytic latency of one heuristic on one instance family.
#[derive(Debug, Clone)]
pub struct LoadedLatencyRow {
    /// The heuristic.
    pub kind: HeuristicKind,
    /// Mean analytic (eq. 2) latency over feasible instances.
    pub mean_analytic: f64,
    /// Mean simulated max response time under *saturating* input.
    pub mean_loaded: f64,
    /// Mean simulated max response time with input throttled at the
    /// period (sanity: must equal the analytic value).
    pub mean_throttled: f64,
    /// Instances where the heuristic met the target.
    pub n_feasible: usize,
}

impl LoadedLatencyRow {
    /// Loaded inflation factor `loaded / analytic`.
    pub fn inflation(&self) -> f64 {
        self.mean_loaded / self.mean_analytic
    }
}

/// Measures loaded latency for every heuristic on one family, each at
/// its natural target: period-fixed heuristics at
/// [`crate::robustness::PERIOD_TARGET_FACTOR`] of the single-processor
/// period, latency-fixed ones at twice their optimum latency.
pub fn loaded_latency_study(
    params: InstanceParams,
    seed: u64,
    n_instances: usize,
    datasets: usize,
    threads: usize,
) -> Vec<LoadedLatencyRow> {
    heuristic_study(params, seed, n_instances, threads, |cm, res| {
        let saturated = PipelineSim::new(cm, &res.mapping, SimConfig::default()).run(datasets);
        let throttled = PipelineSim::new(
            cm,
            &res.mapping,
            SimConfig {
                input: InputPolicy::Periodic(res.period),
                record_trace: false,
            },
        )
        .run(datasets);
        [
            res.latency,
            saturated.report.max_latency(),
            throttled.report.max_latency(),
        ]
    })
    .into_iter()
    .map(
        |(kind, [mean_analytic, mean_loaded, mean_throttled], n_feasible)| LoadedLatencyRow {
            kind,
            mean_analytic,
            mean_loaded,
            mean_throttled,
            n_feasible,
        },
    )
    .collect()
}

/// Renders the study as an aligned table.
pub fn render_loaded(rows: &[LoadedLatencyRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>6} {:>10} {:>10} {:>10} {:>9}\n",
        "heuristic", "feas", "analytic", "throttled", "loaded", "inflation"
    ));
    for r in rows {
        if r.n_feasible == 0 {
            out.push_str(&format!(
                "{:<16} {:>6} (no feasible instance)\n",
                r.kind.label(),
                0
            ));
            continue;
        }
        out.push_str(&format!(
            "{:<16} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>8.1}%\n",
            r.kind.label(),
            r.n_feasible,
            r.mean_analytic,
            r.mean_throttled,
            r.mean_loaded,
            100.0 * (r.inflation() - 1.0)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::ExperimentKind;

    #[test]
    fn throttled_latency_equals_analytic_and_loaded_dominates() {
        let rows = loaded_latency_study(
            InstanceParams::paper(ExperimentKind::E1, 10, 10),
            5,
            6,
            30,
            2,
        );
        assert_eq!(rows.len(), 6);
        for r in &rows {
            if r.n_feasible == 0 {
                continue;
            }
            assert!(
                (r.mean_throttled - r.mean_analytic).abs() < 1e-6 * r.mean_analytic,
                "{}: throttled {} != analytic {}",
                r.kind,
                r.mean_throttled,
                r.mean_analytic
            );
            assert!(
                r.mean_loaded >= r.mean_analytic - 1e-9,
                "{}: loaded latency below the analytic bound",
                r.kind
            );
            assert!(r.inflation() >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn render_has_one_line_per_heuristic() {
        let rows = loaded_latency_study(
            InstanceParams::paper(ExperimentKind::E4, 8, 10),
            7,
            4,
            20,
            2,
        );
        let s = render_loaded(&rows);
        assert_eq!(s.lines().count(), 7); // header + 6 rows
        assert!(s.contains("inflation"));
    }
}
