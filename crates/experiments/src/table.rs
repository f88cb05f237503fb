//! Table 1: failure thresholds of the six heuristics.
//!
//! The paper defines the *failure threshold* as "the largest value of the
//! fixed period or latency for which the heuristic was not able to find a
//! solution", averaged over the 50 instances. Per instance:
//!
//! * for the period-fixed heuristics this is the smallest period their
//!   split path can reach (the trajectory floor for H1/H2a/H2b, the
//!   unconstrained-run floor for H3) — they fail for every target below
//!   it and succeed above;
//! * for the latency-fixed heuristics it is exactly `L_opt`: both H4 and
//!   H5 start from the Lemma-1 mapping, so any latency budget ≥ `L_opt`
//!   is satisfiable and anything below is not. This *explains* the
//!   paper's observation that the H5 and H6 rows of Table 1 coincide.

use crate::shard::{sharded_map_items_with, ShardOptions};
use pipeline_core::service::PreparedInstance;
use pipeline_core::{HeuristicKind, SolveWorkspace};
use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::util::mean;

/// Failure thresholds of every heuristic for one instance family.
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// The workload regime.
    pub kind: ExperimentKind,
    /// Number of stages.
    pub n_stages: usize,
    /// Mean thresholds in [`HeuristicKind::ALL`] order.
    pub thresholds: [f64; 6],
}

/// A full Table-1 reproduction.
#[derive(Debug, Clone)]
pub struct ThresholdTable {
    /// Rows, one per (experiment, n) pair.
    pub rows: Vec<ThresholdRow>,
    /// Number of processors (the paper's table uses 10).
    pub n_procs: usize,
    /// Instances averaged per row.
    pub n_instances: usize,
}

/// Per-instance thresholds in [`HeuristicKind::ALL`] order. Table 1 is
/// defined on the paper's Communication Homogeneous setting, where the
/// instance has the H1/H2a/H2b trajectories and the H4 floor.
fn instance_thresholds(eval: &PreparedInstance) -> [f64; 6] {
    let floor = |kind: HeuristicKind| {
        eval.trajectory(kind)
            .expect("Table 1 needs a Communication Homogeneous eval")
            .min_period()
    };
    [
        floor(HeuristicKind::SpMonoP),
        floor(HeuristicKind::ThreeExploMono),
        floor(HeuristicKind::ThreeExploBi),
        eval.sp_bi_p_floor()
            .expect("Table 1 needs a Communication Homogeneous eval"),
        eval.optimal_latency(),
        eval.optimal_latency(),
    ]
}

/// Computes the failure thresholds of one family, averaged over
/// `n_instances` seeded instances.
pub fn failure_thresholds(
    params: InstanceParams,
    seed: u64,
    n_instances: usize,
    threads: usize,
) -> [f64; 6] {
    let gen = InstanceGenerator::new(params);
    let evals = sharded_map_items_with(
        gen.batch(seed, n_instances),
        ShardOptions::with_threads(threads),
        SolveWorkspace::new,
        |ws, (app, pf)| instance_thresholds(PreparedInstance::new(app, pf).prepare_in(ws)),
    );
    let mut out = [0.0; 6];
    for (h, slot) in out.iter_mut().enumerate() {
        let vals: Vec<f64> = evals.iter().map(|t| t[h]).collect();
        *slot = mean(&vals).expect("n_instances > 0");
    }
    out
}

/// Reproduces the full Table 1 grid (`p = 10`, every experiment × stage
/// count).
pub fn table1(
    seed: u64,
    n_instances: usize,
    n_procs: usize,
    stage_counts: &[usize],
    threads: usize,
) -> ThresholdTable {
    let mut rows = Vec::new();
    for kind in ExperimentKind::ALL {
        for &n in stage_counts {
            let params = InstanceParams::paper(kind, n, n_procs);
            let thresholds = failure_thresholds(params, seed, n_instances, threads);
            rows.push(ThresholdRow {
                kind,
                n_stages: n,
                thresholds,
            });
        }
    }
    ThresholdTable {
        rows,
        n_procs,
        n_instances,
    }
}

impl ThresholdTable {
    /// Renders the table in the paper's layout (heuristics as rows,
    /// stage counts as columns, one block per experiment).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let stage_counts: Vec<usize> = {
            let mut v: Vec<usize> = self.rows.iter().map(|r| r.n_stages).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for kind in ExperimentKind::ALL {
            let block: Vec<&ThresholdRow> = self.rows.iter().filter(|r| r.kind == kind).collect();
            if block.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "{} — failure thresholds (p = {})\n",
                kind.label(),
                self.n_procs
            ));
            out.push_str("  Heur ");
            for n in &stage_counts {
                out.push_str(&format!("{n:>9}"));
            }
            out.push('\n');
            for (h, hk) in HeuristicKind::ALL.iter().enumerate() {
                out.push_str(&format!("  {:<4} ", hk.table_name()));
                for n in &stage_counts {
                    let v = block
                        .iter()
                        .find(|r| r.n_stages == *n)
                        .map(|r| r.thresholds[h])
                        .unwrap_or(f64::NAN);
                    out.push_str(&format!("{v:>9.2}"));
                }
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_have_table1_structure() {
        let params = InstanceParams::paper(ExperimentKind::E1, 8, 10);
        let t = failure_thresholds(params, 11, 8, 2);
        // H5 ≡ H6 — the paper's "surprising" observation, exact here.
        assert_eq!(t[4], t[5]);
        // All positive and finite.
        assert!(t.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn sp_mono_p_threshold_not_above_explo_mono_on_average() {
        // Paper: "Sp mono P has the smallest failure thresholds whereas
        // 3-Explo mono has the highest" (among period-fixed heuristics).
        // With few instances we assert the weaker pairwise claim.
        let params = InstanceParams::paper(ExperimentKind::E1, 20, 10);
        let t = failure_thresholds(params, 23, 10, 2);
        assert!(
            t[0] <= t[1] + 1e-9,
            "H1 threshold {} should not exceed H2 threshold {}",
            t[0],
            t[1]
        );
    }

    #[test]
    fn render_contains_all_blocks_and_rows() {
        let table = table1(3, 3, 10, &[5, 10], 2);
        assert_eq!(table.rows.len(), 8);
        let s = table.render();
        for label in ["E1", "E2", "E3", "E4"] {
            assert!(s.contains(label), "missing block {label}");
        }
        for h in ["H1", "H2", "H3", "H4", "H5", "H6"] {
            assert!(s.contains(h), "missing heuristic row {h}");
        }
    }

    #[test]
    fn per_instance_thresholds_are_reachable_targets() {
        let mut ws = SolveWorkspace::new();
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 10, 10));
        let (app, pf) = gen.instance(5, 0);
        let eval = PreparedInstance::new(app, pf);
        let t = instance_thresholds(&eval);
        let cm = eval.cost_model();
        // Running each heuristic AT its threshold must succeed.
        let h1 = pipeline_core::sp_mono_p_in(&cm, t[0], &mut ws);
        assert!(h1.feasible);
        let h5 = pipeline_core::sp_mono_l_in(&cm, t[4], &mut ws);
        assert!(h5.feasible);
        // And below it (slightly) must fail.
        assert!(!pipeline_core::sp_mono_p_in(&cm, t[0] * 0.999, &mut ws).feasible);
        assert!(!pipeline_core::sp_mono_l_in(&cm, t[4] * 0.999, &mut ws).feasible);
    }
}
