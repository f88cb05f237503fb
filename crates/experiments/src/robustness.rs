//! Robustness study (extension beyond the paper's evaluation): how much
//! does a mapping's period degrade when one processor slows down after
//! the schedule is fixed?
//!
//! Heterogeneous clusters drift: background load, thermal throttling.
//! A mapping chosen for nominal speeds keeps its *structure* but its
//! cycle times move. For each heuristic we schedule at nominal speeds,
//! then degrade each enrolled processor in turn by a factor `gamma` and
//! re-evaluate eq. 1 on the *same* mapping, reporting the worst-case
//! relative period increase. Mappings that enroll fewer processors put
//! more eggs in each basket; mappings with slack under the bottleneck
//! absorb slowdowns for free — the study quantifies both effects.

use crate::shard::{sharded_map_items_with, ShardOptions};
use pipeline_core::{HeuristicKind, SolveWorkspace};
use pipeline_model::generator::{InstanceGenerator, InstanceParams};
use pipeline_model::prelude::*;
use pipeline_model::util::mean;

/// Robustness of one heuristic's mappings on one family.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// The heuristic.
    pub kind: HeuristicKind,
    /// Mean nominal period of its mappings.
    pub mean_period: f64,
    /// Mean (over instances) of the worst-case degraded period when one
    /// enrolled processor runs at `gamma` of its nominal speed.
    pub mean_worst_degraded: f64,
    /// Mean number of processors enrolled.
    pub mean_procs: f64,
    /// Instances where the heuristic met its target.
    pub n_feasible: usize,
}

impl RobustnessRow {
    /// Worst-case relative period inflation under single-processor
    /// slowdown.
    pub fn degradation(&self) -> f64 {
        self.mean_worst_degraded / self.mean_period
    }
}

/// Re-evaluates `mapping` with processor `victim` slowed to
/// `gamma × speed`. Returns the new period.
///
/// Builds the degraded platform explicitly — fine for one-off queries;
/// the study's inner loop uses [`degraded_period_inline`], which computes
/// the same value (same expressions, same fold order) without cloning
/// the platform or the mapping per victim.
pub fn degraded_period(
    app: &Application,
    platform: &Platform,
    mapping: &IntervalMapping,
    victim: ProcId,
    gamma: f64,
) -> f64 {
    assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
    let mut speeds = platform.speeds().to_vec();
    speeds[victim] *= gamma;
    let degraded = match platform.links() {
        LinkModel::Homogeneous(b) => {
            Platform::comm_homogeneous(speeds, *b).expect("degraded platform is valid")
        }
        LinkModel::Heterogeneous {
            matrix,
            io_bandwidth,
        } => Platform::fully_heterogeneous(speeds, matrix.clone(), *io_bandwidth)
            .expect("degraded platform is valid"),
    };
    // The mapping structure is reused verbatim; only cycle times change.
    let remapped = IntervalMapping::new(
        app,
        &degraded,
        mapping.intervals().to_vec(),
        mapping.procs().to_vec(),
    )
    .expect("same shape remains valid");
    CostModel::new(app, &degraded).period(&remapped)
}

/// [`degraded_period`] without the platform/mapping rebuild: the period
/// of `mapping` when `victim` runs at `gamma × speed`, computed directly
/// from the nominal cost model. Each interval's cycle time keeps the
/// nominal transfer terms (bandwidths are untouched by a speed
/// degradation) and rescales only the victim's computation time — the
/// same arithmetic `degraded_period` performs after its clones, so both
/// return identical values (asserted by tests).
pub fn degraded_period_inline(
    cm: &CostModel<'_>,
    mapping: &IntervalMapping,
    victim: ProcId,
    gamma: f64,
) -> f64 {
    assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
    let m = mapping.n_intervals();
    let mut period = f64::NEG_INFINITY;
    for j in 0..m {
        let iv = mapping.intervals()[j];
        let u = mapping.proc_of(j);
        let pred = (j > 0).then(|| mapping.proc_of(j - 1));
        let succ = (j + 1 < m).then(|| mapping.proc_of(j + 1));
        let nominal = cm.interval_cost(iv, u, pred, succ);
        let t_comp = if u == victim {
            // Work / (speed × gamma), associated exactly as the rebuilt
            // platform computes it: speed' = speed × gamma first.
            let speed = cm.platform().speed(u) * gamma;
            cm.app().interval_work(iv.start, iv.end) / speed
        } else {
            nominal.t_comp
        };
        period = period.max(nominal.t_in + t_comp + nominal.t_out);
    }
    period
}

/// [`degraded_period_inline`]'s analogue for *links*: the period of
/// `mapping` when boundary link `link` runs at `gamma × bandwidth`.
///
/// Link indices follow the simulator's convention: link `0` feeds the
/// first interval from the outside world, link `k` (`1..m`) connects
/// interval `k-1` to interval `k`, and link `m` drains the last interval
/// to the sink. Degrading link `k` inflates interval `k`'s input
/// transfer and interval `k-1`'s output transfer (the same physical
/// wire, occupied on both sides under the one-port model); everything
/// else keeps its nominal value. Bandwidth is rescaled *first*
/// (`volume / (b × gamma)`), the association a rebuilt platform would
/// use, so the internal-link case is bitwise comparable to rebuilding
/// a heterogeneous platform with that one matrix entry scaled.
pub fn degraded_period_link_inline(
    cm: &CostModel<'_>,
    mapping: &IntervalMapping,
    link: usize,
    gamma: f64,
) -> f64 {
    assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
    let m = mapping.n_intervals();
    assert!(link <= m, "link index out of range");
    let pf = cm.platform();
    let app = cm.app();
    let mut period = f64::NEG_INFINITY;
    for j in 0..m {
        let iv = mapping.intervals()[j];
        let u = mapping.proc_of(j);
        let pred = (j > 0).then(|| mapping.proc_of(j - 1));
        let succ = (j + 1 < m).then(|| mapping.proc_of(j + 1));
        let nominal = cm.interval_cost(iv, u, pred, succ);
        let t_in = if j == link {
            let b = match pred {
                None => pf.io_bandwidth_of(u),
                Some(q) => pf.bandwidth(q, u),
            };
            app.input_volume(iv.start) / (b * gamma)
        } else {
            nominal.t_in
        };
        let t_out = if j + 1 == link {
            let b = match succ {
                None => pf.io_bandwidth_of(u),
                Some(q) => pf.bandwidth(u, q),
            };
            app.output_volume(iv.end) / (b * gamma)
        } else {
            nominal.t_out
        };
        period = period.max(t_in + nominal.t_comp + t_out);
    }
    period
}

/// Runs the robustness study for every heuristic on one family.
pub fn robustness_study(
    params: InstanceParams,
    seed: u64,
    n_instances: usize,
    target_factor: f64,
    gamma: f64,
    threads: usize,
) -> Vec<RobustnessRow> {
    let gen = InstanceGenerator::new(params);
    let opts = ShardOptions::with_threads(threads);
    // One workspace per worker shard; degraded periods are computed
    // inline (no per-victim platform/mapping clones).
    let per_instance = sharded_map_items_with(
        gen.batch(seed, n_instances),
        opts,
        SolveWorkspace::new,
        |ws, (app, pf)| {
            let cm = CostModel::new(&app, &pf);
            let p0 = cm.single_proc_period();
            let l0 = cm.optimal_latency();
            let mut rows = Vec::with_capacity(6);
            for kind in HeuristicKind::ALL {
                let target = if kind.is_period_fixed() {
                    target_factor * p0
                } else {
                    2.0 * l0
                };
                let res = kind.run_in(&cm, target, ws);
                if !res.feasible {
                    rows.push(None);
                    continue;
                }
                let worst = res
                    .mapping
                    .procs()
                    .iter()
                    .map(|&u| degraded_period_inline(&cm, &res.mapping, u, gamma))
                    .fold(f64::NEG_INFINITY, f64::max);
                rows.push(Some((res.period, worst, res.mapping.n_intervals() as f64)));
            }
            rows
        },
    );

    HeuristicKind::ALL
        .into_iter()
        .enumerate()
        .map(|(h, kind)| {
            let vals: Vec<(f64, f64, f64)> =
                per_instance.iter().filter_map(|rows| rows[h]).collect();
            let col = |f: fn(&(f64, f64, f64)) -> f64| {
                mean(&vals.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
            };
            RobustnessRow {
                kind,
                mean_period: col(|v| v.0),
                mean_worst_degraded: col(|v| v.1),
                mean_procs: col(|v| v.2),
                n_feasible: vals.len(),
            }
        })
        .collect()
}

/// Runs the *link* robustness study for every heuristic on one family:
/// schedule at nominal bandwidths, then degrade each boundary link in
/// turn to `gamma × bandwidth` and re-evaluate eq. 1 on the same
/// mapping, reporting the worst case. Reuses [`RobustnessRow`] (the
/// `mean_worst_degraded` column holds the worst *link*-degraded period)
/// so downstream rendering and summaries need no new types.
pub fn link_robustness_study(
    params: InstanceParams,
    seed: u64,
    n_instances: usize,
    target_factor: f64,
    gamma: f64,
    threads: usize,
) -> Vec<RobustnessRow> {
    let gen = InstanceGenerator::new(params);
    let opts = ShardOptions::with_threads(threads);
    let per_instance = sharded_map_items_with(
        gen.batch(seed, n_instances),
        opts,
        SolveWorkspace::new,
        |ws, (app, pf)| {
            let cm = CostModel::new(&app, &pf);
            let p0 = cm.single_proc_period();
            let l0 = cm.optimal_latency();
            let mut rows = Vec::with_capacity(6);
            for kind in HeuristicKind::ALL {
                let target = if kind.is_period_fixed() {
                    target_factor * p0
                } else {
                    2.0 * l0
                };
                let res = kind.run_in(&cm, target, ws);
                if !res.feasible {
                    rows.push(None);
                    continue;
                }
                let worst = (0..=res.mapping.n_intervals())
                    .map(|k| degraded_period_link_inline(&cm, &res.mapping, k, gamma))
                    .fold(f64::NEG_INFINITY, f64::max);
                rows.push(Some((res.period, worst, res.mapping.n_intervals() as f64)));
            }
            rows
        },
    );

    HeuristicKind::ALL
        .into_iter()
        .enumerate()
        .map(|(h, kind)| {
            let vals: Vec<(f64, f64, f64)> =
                per_instance.iter().filter_map(|rows| rows[h]).collect();
            let col = |f: fn(&(f64, f64, f64)) -> f64| {
                mean(&vals.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
            };
            RobustnessRow {
                kind,
                mean_period: col(|v| v.0),
                mean_worst_degraded: col(|v| v.1),
                mean_procs: col(|v| v.2),
                n_feasible: vals.len(),
            }
        })
        .collect()
}

/// Renders the link study with its own header, same columns as
/// [`render_robustness`].
pub fn render_link_robustness(rows: &[RobustnessRow], gamma: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "single-link slowdown to {:.0}% of nominal bandwidth\n",
        gamma * 100.0
    ));
    out.push_str(&render_rows(rows));
    out
}

/// Renders the study as an aligned table.
pub fn render_robustness(rows: &[RobustnessRow], gamma: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "single-processor slowdown to {:.0}% of nominal speed\n",
        gamma * 100.0
    ));
    out.push_str(&render_rows(rows));
    out
}

/// Shared column layout for both robustness tables.
fn render_rows(rows: &[RobustnessRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>6} {:>10} {:>12} {:>7} {:>12}\n",
        "heuristic", "feas", "period", "worst-degr.", "procs", "degradation"
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
            "{:<16} {:>6} {:>10.3} {:>12.3} {:>7.1} {:>11.1}%\n",
            r.kind.label(),
            r.n_feasible,
            r.mean_period,
            r.mean_worst_degraded,
            r.mean_procs,
            100.0 * (r.degradation() - 1.0)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::ExperimentKind;

    #[test]
    fn degraded_period_never_improves() {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 10, 8));
        let (app, pf) = gen.instance(1, 0);
        let cm = CostModel::new(&app, &pf);
        let res = pipeline_core::sp_mono_p_in(
            &cm,
            0.6 * cm.single_proc_period(),
            &mut SolveWorkspace::new(),
        );
        for &u in res.mapping.procs() {
            let d = degraded_period(&app, &pf, &res.mapping, u, 0.5);
            assert!(
                d >= res.period - 1e-9,
                "slowing P{u} cannot reduce the period"
            );
        }
        // gamma = 1: no change at all.
        let same = degraded_period(&app, &pf, &res.mapping, res.mapping.proc_of(0), 1.0);
        assert!((same - res.period).abs() < 1e-12);
    }

    #[test]
    fn inline_degradation_matches_the_rebuilding_form_bitwise() {
        for seed in 0..4 {
            let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E3, 9, 7));
            let (app, pf) = gen.instance(seed, 0);
            let cm = CostModel::new(&app, &pf);
            let res = pipeline_core::sp_mono_p_in(
                &cm,
                0.7 * cm.single_proc_period(),
                &mut SolveWorkspace::new(),
            );
            for &u in res.mapping.procs() {
                for gamma in [0.3, 0.7, 1.0] {
                    let rebuilt = degraded_period(&app, &pf, &res.mapping, u, gamma);
                    let inline = degraded_period_inline(&cm, &res.mapping, u, gamma);
                    assert_eq!(
                        rebuilt.to_bits(),
                        inline.to_bits(),
                        "seed {seed}, victim {u}, gamma {gamma}"
                    );
                }
            }
        }
    }

    #[test]
    fn degrading_a_non_bottleneck_with_slack_is_free() {
        // A two-interval mapping where one processor has lots of slack:
        // mild degradation of the slack processor leaves the period
        // untouched.
        let app = Application::new(vec![10.0, 1.0], vec![0.0, 0.0, 0.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![10.0, 10.0], 10.0).unwrap();
        let mapping = IntervalMapping::new(
            &app,
            &pf,
            vec![Interval::new(0, 1), Interval::new(1, 2)],
            vec![0, 1],
        )
        .unwrap();
        let cm = CostModel::new(&app, &pf);
        // Nominal period 1.0 (= 10/10), bottleneck P0. P1's cycle is
        // 0.1; even at half speed it stays below 1.0.
        let nominal = cm.period(&mapping);
        let d = degraded_period(&app, &pf, &mapping, 1, 0.5);
        assert!((d - nominal).abs() < 1e-12);
        // Degrading the bottleneck hurts proportionally.
        let d0 = degraded_period(&app, &pf, &mapping, 0, 0.5);
        assert!((d0 - 2.0 * nominal).abs() < 1e-12);
    }

    #[test]
    fn study_produces_consistent_rows() {
        let rows = robustness_study(
            InstanceParams::paper(ExperimentKind::E1, 10, 10),
            9,
            6,
            0.6,
            0.7,
            2,
        );
        assert_eq!(rows.len(), 6);
        for r in &rows {
            if r.n_feasible > 0 {
                assert!(r.degradation() >= 1.0 - 1e-12, "{}", r.kind);
                assert!(r.mean_procs >= 1.0);
            }
        }
        let s = render_robustness(&rows, 0.7);
        assert!(s.contains("degradation"));
    }

    #[test]
    fn link_degradation_matches_a_rebuilt_heterogeneous_platform_bitwise() {
        // Rebuild form: degrade one matrix entry of a fully
        // heterogeneous platform and re-evaluate — must agree with the
        // inline form bit for bit on internal links.
        for seed in 0..4 {
            let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E3, 9, 7));
            let (app, pf0) = gen.instance(seed, 0);
            // Solve on the comm-homogeneous platform (the split engine
            // requires it), then lift it into an explicit matrix so a
            // single entry can be rescaled.
            let cm0 = CostModel::new(&app, &pf0);
            let res = pipeline_core::sp_mono_p_in(
                &cm0,
                0.7 * cm0.single_proc_period(),
                &mut SolveWorkspace::new(),
            );
            let p = pf0.n_procs();
            let matrix: Vec<Vec<f64>> = (0..p)
                .map(|u| (0..p).map(|v| pf0.bandwidth(u, v)).collect())
                .collect();
            let pf = Platform::fully_heterogeneous(
                pf0.speeds().to_vec(),
                matrix,
                pf0.io_bandwidth_of(0),
            )
            .unwrap();
            let cm = CostModel::new(&app, &pf);
            let m = res.mapping.n_intervals();
            for k in 1..m {
                for gamma in [0.3, 0.7, 1.0] {
                    let a = res.mapping.proc_of(k - 1);
                    let b = res.mapping.proc_of(k);
                    let LinkModel::Heterogeneous {
                        matrix,
                        io_bandwidth,
                    } = pf.links()
                    else {
                        unreachable!()
                    };
                    let mut degraded = matrix.clone();
                    degraded[a][b] *= gamma;
                    let dpf = Platform::fully_heterogeneous(
                        pf.speeds().to_vec(),
                        degraded,
                        *io_bandwidth,
                    )
                    .unwrap();
                    let remapped = IntervalMapping::new(
                        &app,
                        &dpf,
                        res.mapping.intervals().to_vec(),
                        res.mapping.procs().to_vec(),
                    )
                    .unwrap();
                    let rebuilt = CostModel::new(&app, &dpf).period(&remapped);
                    let inline = degraded_period_link_inline(&cm, &res.mapping, k, gamma);
                    assert_eq!(
                        rebuilt.to_bits(),
                        inline.to_bits(),
                        "seed {seed}, link {k}, gamma {gamma}"
                    );
                }
            }
        }
    }

    #[test]
    fn link_degradation_boundary_links_behave() {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 10, 8));
        let (app, pf) = gen.instance(3, 0);
        let cm = CostModel::new(&app, &pf);
        let res = pipeline_core::sp_mono_p_in(
            &cm,
            0.6 * cm.single_proc_period(),
            &mut SolveWorkspace::new(),
        );
        let m = res.mapping.n_intervals();
        // gamma = 1 must reproduce the nominal period bitwise on every
        // link, including both io boundaries.
        for k in 0..=m {
            let same = degraded_period_link_inline(&cm, &res.mapping, k, 1.0);
            assert_eq!(same.to_bits(), res.period.to_bits(), "link {k}");
        }
        // A slower link can never shrink the period.
        for k in 0..=m {
            let d = degraded_period_link_inline(&cm, &res.mapping, k, 0.4);
            assert!(d >= res.period - 1e-9, "link {k}");
        }
    }

    #[test]
    fn link_study_produces_consistent_rows() {
        let rows = link_robustness_study(
            InstanceParams::paper(ExperimentKind::E4, 10, 8),
            11,
            6,
            0.6,
            0.5,
            2,
        );
        assert_eq!(rows.len(), 6);
        for r in &rows {
            if r.n_feasible > 0 {
                assert!(r.degradation() >= 1.0 - 1e-12, "{}", r.kind);
            }
        }
        let s = render_link_robustness(&rows, 0.5);
        assert!(s.contains("single-link slowdown"));
        assert!(s.contains("degradation"));
    }

    #[test]
    fn link_study_is_thread_count_invariant() {
        let run = |threads| {
            link_robustness_study(
                InstanceParams::paper(ExperimentKind::E1, 8, 6),
                5,
                4,
                0.6,
                0.7,
                threads,
            )
        };
        let one = run(1);
        for t in [2, 4] {
            let other = run(t);
            for (a, b) in one.iter().zip(&other) {
                assert_eq!(a.mean_period.to_bits(), b.mean_period.to_bits());
                assert_eq!(
                    a.mean_worst_degraded.to_bits(),
                    b.mean_worst_degraded.to_bits()
                );
                assert_eq!(a.n_feasible, b.n_feasible);
            }
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn zero_gamma_rejected() {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 4, 4));
        let (app, pf) = gen.instance(0, 0);
        let m = IntervalMapping::all_on_fastest(&app, &pf);
        let _ = degraded_period(&app, &pf, &m, m.proc_of(0), 0.0);
    }
}
