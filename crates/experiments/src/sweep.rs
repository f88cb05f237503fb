//! Latency-vs-period sweeps: the data behind every figure.
//!
//! For one instance family (experiment kind, `n`, `p`) and 50 seeded
//! instances:
//!
//! * the **period-fixed** heuristics (H1, H2a, H2b, H3) are swept over a
//!   grid of period targets; each grid point averages the achieved
//!   latency over the instances where the heuristic succeeded
//!   (x = target period, y = mean latency), exactly how the paper's
//!   curves are parameterized;
//! * the **latency-fixed** heuristics (H4, H5) are swept over a grid of
//!   latency targets; each point averages the achieved period
//!   (x = mean period, y = target latency).
//!
//! H1/H2a/H2b answer all period targets from one recorded trajectory per
//! instance (their split path is target-independent); H3/H4/H5 are re-run
//! per target.
//!
//! Beyond the paper families, [`run_scenario`] sweeps **any registered
//! scenario family** ([`pipeline_model::scenario`]): Communication
//! Homogeneous families get the six paper curves, fully heterogeneous
//! ones (`two-tier`, `comm-dominant`) get the §7 extension's curve
//! ([`HeuristicKind::HeteroSplit`]). Instances are generated and
//! evaluated *inside* the sharded work-queue engine ([`crate::shard`]) —
//! per-index RNG streams, chunked work stealing, and chunk-ordered
//! accumulator merges make the output bit-identical for every thread
//! count.

use crate::shard::{sharded_map_indices_with, ShardOptions};
use pipeline_core::exact::exact_pareto_front_in;
use pipeline_core::service::{PreparedInstance, SolveRequest};
use pipeline_core::{
    sp_bi_l_in, sp_bi_p_in, sp_mono_l_in, HeuristicKind, ParetoFront, SolveWorkspace, SpBiPOptions,
};
use pipeline_model::scenario::{ScenarioGenerator, ScenarioParams};
use pipeline_model::util::{linspace, mean};

/// One averaged grid point of one heuristic's sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The constraint value handed to the heuristic (a period bound for
    /// period-fixed heuristics, a latency bound otherwise).
    pub target: f64,
    /// Mean achieved period over feasible instances.
    pub mean_period: f64,
    /// Mean achieved latency over feasible instances.
    pub mean_latency: f64,
    /// Instances where the heuristic met the constraint.
    pub n_feasible: usize,
    /// Instances attempted.
    pub n_total: usize,
}

impl SweepPoint {
    /// Plot x-coordinate: target period for period-fixed heuristics, mean
    /// achieved period otherwise.
    pub fn x(&self, kind: HeuristicKind) -> f64 {
        if kind.is_period_fixed() {
            self.target
        } else {
            self.mean_period
        }
    }

    /// Plot y-coordinate: mean achieved latency for period-fixed
    /// heuristics, target latency otherwise.
    pub fn y(&self, kind: HeuristicKind) -> f64 {
        if kind.is_period_fixed() {
            self.mean_latency
        } else {
            self.target
        }
    }
}

/// One heuristic's curve.
#[derive(Debug, Clone)]
pub struct HeuristicSeries {
    /// Which heuristic.
    pub kind: HeuristicKind,
    /// Grid points with at least one feasible instance.
    pub points: Vec<SweepPoint>,
}

impl HeuristicSeries {
    /// `(x, y)` pairs ready for plotting.
    pub fn xy(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.x(self.kind), p.y(self.kind)))
            .collect()
    }
}

/// How one heuristic's achieved front compares to the **exact** Pareto
/// front, averaged over a family's instances.
///
/// Per instance, the heuristic's feasible sweep outcomes form an
/// achieved front; it is scored against the exact front with the two
/// [`ParetoFront`] metrics, using the instance's own landmarks as the
/// reference point (`P_init × 1.02`, `L_opt × 3` — the same factors
/// that bound the sweep grids):
///
/// * **hypervolume ratio** — achieved hypervolume over exact
///   hypervolume, in `[0, 1]`; 1 means the heuristic recovers the whole
///   dominated region;
/// * **distance** — mean relative distance of the achieved points to
///   the exact front ([`ParetoFront::distance_to_front`]); 0 means
///   every achieved point is exact-optimal.
#[derive(Debug, Clone, Copy)]
pub struct FrontQuality {
    /// Which heuristic.
    pub kind: HeuristicKind,
    /// Mean achieved-over-exact hypervolume ratio.
    pub hypervolume_ratio: f64,
    /// Mean relative distance of achieved points to the exact front.
    pub distance: f64,
    /// Instances where the heuristic had at least one feasible point
    /// (the mean's denominator).
    pub n_scored: usize,
}

/// Scalar landmarks of a family, averaged over its instances.
#[derive(Debug, Clone, Copy)]
pub struct FamilyStats {
    /// Mean single-processor period.
    pub mean_p_init: f64,
    /// Mean optimal latency.
    pub mean_l_opt: f64,
    /// Mean best period floor across the trajectory heuristics.
    pub mean_best_floor: f64,
    /// Instances evaluated.
    pub n_instances: usize,
}

/// Result of sweeping one instance family.
#[derive(Debug, Clone)]
pub struct FamilyResult {
    /// One curve per applicable heuristic: the six of
    /// [`HeuristicKind::ALL`] (in that order) for Communication
    /// Homogeneous families, the single
    /// [`HeuristicKind::HeteroSplit`] curve otherwise.
    pub series: Vec<HeuristicSeries>,
    /// Solvers the sweep did **not** run because
    /// [`HeuristicKind::applicable_to`] rejects them on this family's
    /// platform class (the paper's six on fully heterogeneous
    /// platforms). Recorded so a 1-curve family summary is
    /// self-explanatory instead of silently thinner than a 6-curve one.
    pub skipped: Vec<HeuristicKind>,
    /// The family's landmarks.
    pub stats: FamilyStats,
    /// The period grid used for the period-fixed heuristics.
    pub period_grid: Vec<f64>,
    /// The latency grid used for the latency-fixed heuristics.
    pub latency_grid: Vec<f64>,
    /// Per-heuristic front-quality scores against the exact Pareto
    /// front (same order as [`Self::series`]). Empty when the family
    /// cannot be scored: heterogeneous platforms (no exact solver) or
    /// `n` above [`SolveRequest::DEFAULT_EXACT_CUTOFF`].
    pub quality: Vec<FrontQuality>,
}

/// Sums of the per-instance landmark statistics a sweep reports, one
/// per chunk of instances.
#[derive(Debug, Clone, Copy, Default)]
struct StatSums {
    /// Σ single-processor periods.
    p_init: f64,
    /// Σ optimal latencies.
    l_opt: f64,
    /// Σ best trajectory floors.
    best_floor: f64,
    /// Instances absorbed.
    count: usize,
}

impl StatSums {
    /// Absorbs one instance's landmarks.
    fn absorb(&mut self, p_init: f64, l_opt: f64, best_floor: f64) {
        self.p_init += p_init;
        self.l_opt += l_opt;
        self.best_floor += best_floor;
        self.count += 1;
    }

    /// Absorbs the sums of the next chunk.
    fn merge(self, other: Self) -> Self {
        StatSums {
            p_init: self.p_init + other.p_init,
            l_opt: self.l_opt + other.l_opt,
            best_floor: self.best_floor + other.best_floor,
            count: self.count + other.count,
        }
    }
}

/// Sweeps **any registered scenario family** with the sharded engine.
///
/// Instances are generated inside worker shards from their per-index RNG
/// streams (`gen.instance(seed, i)`), evaluated, and aggregated with
/// chunk-ordered accumulators — so the result is bit-identical for every
/// `threads` value (the serial run is `threads == 1`).
pub fn run_scenario(
    params: &ScenarioParams,
    seed: u64,
    n_instances: usize,
    n_grid: usize,
    threads: usize,
) -> FamilyResult {
    assert!(n_instances > 0 && n_grid >= 2);
    let gen = ScenarioGenerator::new(*params);
    let opts = ShardOptions::with_threads(threads);
    // Platform-class caches are forced eagerly inside the shards, with
    // one SolveWorkspace per worker shard: every preparation in a shard
    // reuses the same solver scratch (trajectory recording, H4's ~30
    // probe runs), so the per-item cost is compute, not allocation.
    let evals: Vec<PreparedInstance> =
        sharded_map_indices_with(n_instances, opts, SolveWorkspace::new, |ws, i| {
            let (app, pf) = gen.instance(seed, i as u64);
            let prepared = PreparedInstance::new(app, pf);
            prepared.prepare_in(ws);
            prepared
        });

    // Landmark means: three cached values per instance, summed per chunk
    // and merged in chunk order — the association the grids have always
    // used, so they stay bit-identical.
    let sums = evals
        .chunks(opts.chunk_size)
        .map(|chunk| {
            let mut acc = StatSums::default();
            for e in chunk {
                acc.absorb(
                    e.single_proc_period(),
                    e.optimal_latency(),
                    e.best_period_floor(),
                );
            }
            acc
        })
        .reduce(StatSums::merge)
        .expect("n_instances > 0");
    let mean_p_init = sums.p_init / sums.count as f64;
    let mean_l_opt = sums.l_opt / sums.count as f64;
    let mean_best_floor = sums.best_floor / sums.count as f64;

    // Grids mirroring the paper's plot ranges: periods from just under
    // the best average floor up to the average initial period; latencies
    // from the average optimum to 3× it.
    let period_grid = linspace(mean_best_floor * 0.9, mean_p_init * 1.02, n_grid);
    let latency_grid = linspace(mean_l_opt, mean_l_opt * 3.0, n_grid);

    let comm_homogeneous = params.family.comm_homogeneous();
    // `applicable_to` rejections are recorded rather than silently
    // dropped: hetero families run only the §7 extension.
    let (kinds, skipped): (&[HeuristicKind], Vec<HeuristicKind>) = if comm_homogeneous {
        (&HeuristicKind::ALL, Vec::new())
    } else {
        (&[HeuristicKind::HeteroSplit], HeuristicKind::ALL.to_vec())
    };
    let series = kinds
        .iter()
        .map(|&kind| {
            let grid = if kind.is_period_fixed() {
                &period_grid
            } else {
                &latency_grid
            };
            HeuristicSeries {
                kind,
                points: sweep_grid(kind, &evals, grid, threads),
            }
        })
        .collect();

    // Exact ground-truth scoring: only where the exact solver is both
    // applicable (Communication Homogeneous) and interactive (n at most
    // the Auto-routing cutoff — with the v3 dominance DP that covers
    // every family the paper plots).
    let quality = if comm_homogeneous && params.n_stages <= SolveRequest::DEFAULT_EXACT_CUTOFF {
        score_front_quality(kinds, &evals, &period_grid, &latency_grid, threads)
    } else {
        Vec::new()
    };

    FamilyResult {
        series,
        skipped,
        stats: FamilyStats {
            mean_p_init,
            mean_l_opt,
            mean_best_floor,
            n_instances: evals.len(),
        },
        period_grid,
        latency_grid,
        quality,
    }
}

/// One heuristic's `(period, latency)` at one target, `None` when it
/// misses the target: trajectory heuristics answer from their recorded
/// trajectory (a coordinate-only query, no mapping materialized),
/// H4/H5/H6 re-run.
fn heuristic_outcome(
    e: &PreparedInstance,
    kind: HeuristicKind,
    target: f64,
    ws: &mut SolveWorkspace,
) -> Option<(f64, f64)> {
    let (feasible, period, latency) = match kind {
        HeuristicKind::SpMonoP
        | HeuristicKind::ThreeExploMono
        | HeuristicKind::ThreeExploBi
        | HeuristicKind::HeteroSplit => {
            let hit = e
                .trajectory(kind)
                .expect("trajectory recorded for this platform class")
                .lookup(target);
            (hit.feasible, hit.period, hit.latency)
        }
        HeuristicKind::SpBiP => {
            let r = sp_bi_p_in(&e.cost_model(), target, SpBiPOptions::default(), ws);
            (r.feasible, r.period, r.latency)
        }
        HeuristicKind::SpMonoL => {
            let r = sp_mono_l_in(&e.cost_model(), target, ws);
            (r.feasible, r.period, r.latency)
        }
        HeuristicKind::SpBiL => {
            let r = sp_bi_l_in(&e.cost_model(), target, ws);
            (r.feasible, r.period, r.latency)
        }
    };
    feasible.then_some((period, latency))
}

/// Scores every heuristic's achieved front against the exact Pareto
/// front of each instance (see [`FrontQuality`]). The per-instance work
/// — one exact front plus one sweep replay per heuristic — runs inside
/// the sharded engine; the shard merge returns scores in instance
/// order, so the final means are bit-identical for every thread count.
fn score_front_quality(
    kinds: &[HeuristicKind],
    evals: &[PreparedInstance],
    period_grid: &[f64],
    latency_grid: &[f64],
    threads: usize,
) -> Vec<FrontQuality> {
    let opts = ShardOptions::with_threads(threads);
    // Per instance: for each heuristic, `Some((hv_ratio, mean_dist))`
    // when it produced at least one feasible point, `None` otherwise.
    let per_instance: Vec<Vec<Option<(f64, f64)>>> =
        sharded_map_indices_with(evals.len(), opts, SolveWorkspace::new, |ws, i| {
            let e = &evals[i];
            let exact = exact_pareto_front_in(&e.cost_model(), ws);
            // Reference point from the instance's own landmarks, with
            // the same slack factors that bound the sweep grids.
            let (ref_p, ref_l) = (e.single_proc_period() * 1.02, e.optimal_latency() * 3.0);
            let exact_hv = exact.hypervolume(ref_p, ref_l);
            kinds
                .iter()
                .map(|&kind| {
                    let grid = if kind.is_period_fixed() {
                        period_grid
                    } else {
                        latency_grid
                    };
                    let mut achieved: ParetoFront<()> = ParetoFront::new();
                    for &target in grid {
                        if let Some((period, latency)) = heuristic_outcome(e, kind, target, ws) {
                            achieved.offer(period, latency, ());
                        }
                    }
                    if achieved.is_empty() || exact_hv <= 0.0 {
                        return None;
                    }
                    let hv_ratio = achieved.hypervolume(ref_p, ref_l) / exact_hv;
                    let dist_sum: f64 = achieved
                        .iter()
                        .map(|(p, l, ())| {
                            exact
                                .distance_to_front(p, l)
                                .expect("exact front is non-empty")
                        })
                        .sum();
                    Some((hv_ratio, dist_sum / achieved.len() as f64))
                })
                .collect()
        });
    kinds
        .iter()
        .enumerate()
        .map(|(k, &kind)| {
            let scored: Vec<(f64, f64)> = per_instance.iter().filter_map(|s| s[k]).collect();
            FrontQuality {
                kind,
                hypervolume_ratio: column_mean(&scored, |s| s.0).unwrap_or(0.0),
                distance: column_mean(&scored, |s| s.1).unwrap_or(0.0),
                n_scored: scored.len(),
            }
        })
        .collect()
}

/// Mean of one column of `pairs`, summed in order; `None` when empty.
fn column_mean(pairs: &[(f64, f64)], column: fn(&(f64, f64)) -> f64) -> Option<f64> {
    mean(&pairs.iter().map(column).collect::<Vec<_>>())
}

/// One heuristic's curve: [`heuristic_outcome`] at every grid target
/// on every instance, sharded over instances with one workspace per
/// worker, then one mean per target over the feasible instances, in
/// instance order.
fn sweep_grid(
    kind: HeuristicKind,
    evals: &[PreparedInstance],
    grid: &[f64],
    threads: usize,
) -> Vec<SweepPoint> {
    let opts = ShardOptions::with_threads(threads);
    let outcomes: Vec<Vec<Option<(f64, f64)>>> =
        sharded_map_indices_with(evals.len(), opts, SolveWorkspace::new, |ws, i| {
            grid.iter()
                .map(|&target| heuristic_outcome(&evals[i], kind, target, ws))
                .collect()
        });
    grid.iter()
        .enumerate()
        .filter_map(|(g, &target)| {
            let hits: Vec<(f64, f64)> = outcomes.iter().filter_map(|o| o[g]).collect();
            Some(SweepPoint {
                target,
                mean_period: column_mean(&hits, |h| h.0)?,
                mean_latency: column_mean(&hits, |h| h.1)?,
                n_feasible: hits.len(),
                n_total: outcomes.len(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::sharded_map_items_with;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::scenario::ScenarioFamily;

    #[test]
    fn stat_sums_merge_and_absorb() {
        let mut a = StatSums::default();
        a.absorb(1.0, 2.0, 0.5);
        let mut b = StatSums::default();
        b.absorb(3.0, 4.0, 1.5);
        let m = a.merge(b);
        assert_eq!(m.count, 2);
        assert_eq!(m.p_init, 4.0);
        assert_eq!(m.l_opt, 6.0);
        assert_eq!(m.best_floor, 2.0);
    }

    #[test]
    fn parallel_matches_serial_on_prepared_instances() {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 10, 10));
        let instances = gen.batch(3, 6);
        let mut ws = SolveWorkspace::new();
        let serial: Vec<f64> = instances
            .iter()
            .map(|(a, p)| {
                let prepared = PreparedInstance::new(a.clone(), p.clone());
                prepared.prepare_in(&mut ws).best_period_floor()
            })
            .collect();
        let parallel: Vec<f64> = sharded_map_items_with(
            instances,
            ShardOptions::with_threads(4),
            SolveWorkspace::new,
            |ws, (a, p)| {
                PreparedInstance::new(a, p)
                    .prepare_in(ws)
                    .best_period_floor()
            },
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn prepared_instance_landmarks_are_consistent() {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 12, 10));
        let (app, pf) = gen.instance(1, 0);
        let ev = PreparedInstance::new(app, pf);
        ev.prepare_in(&mut SolveWorkspace::new());
        assert!(ev.best_period_floor() <= ev.single_proc_period() + 1e-9);
        assert!(ev.optimal_latency() > 0.0);
        // Trajectory floors are reachable results.
        let h1 = ev
            .trajectory(HeuristicKind::SpMonoP)
            .expect("comm-homogeneous");
        assert!(h1.min_period() > 0.0);
        assert!(ev.sp_bi_p_floor().expect("comm-homogeneous") > 0.0);
    }

    #[test]
    fn heterogeneous_instances_record_the_extension_trajectory() {
        let gen = ScenarioGenerator::new(ScenarioFamily::TwoTier.params(8, 6));
        let (app, pf) = gen.instance(4, 0);
        assert!(!pf.is_comm_homogeneous());
        let ev = PreparedInstance::new(app, pf);
        ev.prepare_in(&mut SolveWorkspace::new());
        assert!(ev.trajectory(HeuristicKind::SpMonoP).is_none());
        assert!(ev.sp_bi_p_floor().is_none());
        let het = ev
            .trajectory(HeuristicKind::HeteroSplit)
            .expect("hetero instances record the extension");
        assert!(het.min_period() > 0.0);
        assert!(ev.best_period_floor() <= ev.single_proc_period() + 1e-9);
    }

    fn tiny_family() -> FamilyResult {
        run_scenario(&ScenarioFamily::E1.params(8, 10), 7, 6, 8, 2)
    }

    #[test]
    fn family_produces_six_series() {
        let fam = tiny_family();
        assert_eq!(fam.series.len(), 6);
        let kinds: Vec<HeuristicKind> = fam.series.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, HeuristicKind::ALL.to_vec());
        assert_eq!(fam.stats.n_instances, 6);
        assert!(fam.stats.mean_best_floor <= fam.stats.mean_p_init);
    }

    #[test]
    fn latency_fixed_series_cover_the_whole_grid() {
        // Targets ≥ L_opt are always feasible for H5/H6; the grid starts
        // at mean L_opt so instances with below-average L_opt may fail at
        // the first point, but the upper grid must be complete.
        let fam = tiny_family();
        for s in &fam.series {
            if !s.kind.is_period_fixed() {
                let last = s.points.last().expect("non-empty");
                assert_eq!(last.n_feasible, last.n_total, "{}", s.kind);
            }
        }
    }

    #[test]
    fn period_fixed_latency_decreases_with_looser_targets() {
        // Looser period targets need fewer splits → lower latency (exact
        // for trajectory heuristics on each instance, hence for means over
        // a fixed feasible set; across different feasible sets small
        // inversions are possible, so check the trend loosely).
        let fam = tiny_family();
        let h1 = &fam.series[0];
        assert!(h1.points.len() >= 2);
        let first_full = h1.points.iter().find(|p| p.n_feasible == p.n_total);
        let last = h1.points.last().unwrap();
        if let Some(f) = first_full {
            assert!(
                last.mean_latency <= f.mean_latency + 1e-9,
                "loosest target must not have higher latency than the tightest fully-feasible one"
            );
        }
    }

    #[test]
    fn xy_orientation_per_heuristic_class() {
        let fam = tiny_family();
        for s in &fam.series {
            for (pt, (x, y)) in s.points.iter().zip(s.xy()) {
                if s.kind.is_period_fixed() {
                    assert_eq!(x, pt.target);
                    assert_eq!(y, pt.mean_latency);
                } else {
                    assert_eq!(x, pt.mean_period);
                    assert_eq!(y, pt.target);
                }
            }
        }
    }

    #[test]
    fn scenario_sweep_covers_every_registered_family() {
        for family in ScenarioFamily::ALL {
            // Heterogeneous families are costlier per split; keep tiny.
            let params = family.params(6, 5);
            let fam = run_scenario(&params, 11, 3, 5, 2);
            assert_eq!(fam.stats.n_instances, 3, "{family}");
            if family.comm_homogeneous() {
                assert_eq!(fam.series.len(), 6, "{family}");
                assert!(fam.skipped.is_empty(), "{family}: nothing is rejected");
            } else {
                assert_eq!(fam.series.len(), 1, "{family}");
                assert_eq!(fam.series[0].kind, HeuristicKind::HeteroSplit);
                // The six paper heuristics are applicable_to-rejected on
                // fully heterogeneous platforms, and the sweep says so.
                assert_eq!(fam.skipped, HeuristicKind::ALL.to_vec(), "{family}");
                let platform = ScenarioGenerator::new(params).instance(11, 0).1;
                for kind in &fam.skipped {
                    assert!(!kind.applicable_to(&platform), "{family}: {kind}");
                }
            }
            // Every family must produce at least one feasible point on
            // its loosest period target.
            let first = &fam.series[0];
            let last = first.points.last().expect("non-empty series");
            assert!(last.n_feasible > 0, "{family}: no feasible point");
            assert!(fam.stats.mean_best_floor <= fam.stats.mean_p_init + 1e-9);
        }
    }

    #[test]
    fn quality_scores_are_sane_and_deterministic() {
        // n = 8 ≤ the exact cutoff on a comm-homogeneous family: every
        // heuristic gets scored against the exact front.
        let fam = tiny_family();
        assert_eq!(fam.quality.len(), 6);
        for q in &fam.quality {
            assert!(q.n_scored > 0, "{}: never scored", q.kind);
            assert!(
                (0.0..=1.0 + 1e-9).contains(&q.hypervolume_ratio),
                "{}: hv ratio {} outside [0, 1]",
                q.kind,
                q.hypervolume_ratio
            );
            assert!(q.distance >= 0.0, "{}", q.kind);
        }
        // Bit-identical across thread counts (exact fronts + instance-order
        // score merges are both deterministic).
        let again = run_scenario(&ScenarioFamily::E1.params(8, 10), 7, 6, 8, 4);
        for (a, b) in fam.quality.iter().zip(&again.quality) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.hypervolume_ratio.to_bits(), b.hypervolume_ratio.to_bits());
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            assert_eq!(a.n_scored, b.n_scored);
        }
    }

    #[test]
    fn quality_skipped_above_cutoff_and_on_hetero_platforms() {
        use pipeline_core::service::SolveRequest;
        let big = ScenarioFamily::E1.params(SolveRequest::DEFAULT_EXACT_CUTOFF + 1, 4);
        assert!(run_scenario(&big, 3, 2, 4, 1).quality.is_empty());
        let hetero = ScenarioFamily::TwoTier.params(6, 5);
        assert!(run_scenario(&hetero, 3, 2, 4, 1).quality.is_empty());
    }

    #[test]
    fn feasible_counts_monotone_for_trajectory_heuristics() {
        // A larger period target can only gain feasible instances.
        let fam = tiny_family();
        for s in &fam.series[..3] {
            let mut last = 0;
            for p in &s.points {
                assert!(p.n_feasible >= last, "{}: feasibility regressed", s.kind);
                last = p.n_feasible;
            }
        }
    }
}
