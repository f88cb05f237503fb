//! Deal-skeleton stage replication, the second "future work" direction of
//! the paper's Section 7.
//!
//! When an interval is both computationally demanding and free of
//! inter-task internal state, a *deal* skeleton can round-robin its data
//! sets over `k` replica processors: replica `r` handles data sets
//! `r, r + k, r + 2k, …`. Each replica still pays its full cycle time per
//! data set it handles, but a new data set enters the interval every
//! `cycle/k`, so the interval's period contribution becomes
//!
//! ```text
//! period_j = max_r (t_in + W_j/s_r + t_out) / k_j
//! ```
//!
//! Latency is a worst-case over data sets, i.e. over replicas: the
//! slowest replica of each interval is charged in the eq. 2 sum.
//!
//! [`replicate_bottlenecks`] greedily upgrades a plain interval mapping:
//! while the period target is missed and processors remain, the bottleneck
//! interval receives the fastest unused processor as an extra replica.
//! The ablation benchmark compares this against splitting alone.

use pipeline_model::prelude::*;
use pipeline_model::util::{approx_le, definitely_lt};

/// An interval mapping whose intervals may be replicated over several
/// processors (deal skeleton).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedMapping {
    intervals: Vec<Interval>,
    /// `replicas[j]`: the processors sharing interval `j`, non-empty,
    /// globally disjoint.
    replicas: Vec<Vec<ProcId>>,
}

impl ReplicatedMapping {
    /// Wraps a plain interval mapping (every interval has one replica).
    fn from_mapping(mapping: &IntervalMapping) -> Self {
        ReplicatedMapping {
            intervals: mapping.intervals().to_vec(),
            replicas: mapping.procs().iter().map(|&u| vec![u]).collect(),
        }
    }

    /// Builds and validates a replicated mapping.
    pub fn new(
        app: &Application,
        platform: &Platform,
        intervals: Vec<Interval>,
        replicas: Vec<Vec<ProcId>>,
    ) -> Result<Self, pipeline_model::ModelError> {
        // Validate the partition shape by building a plain mapping with
        // one representative per interval.
        let reps: Vec<ProcId> = replicas
            .iter()
            .map(|r| *r.first().expect("every interval needs a replica"))
            .collect();
        IntervalMapping::new(app, platform, intervals.clone(), reps)?;
        // Validate disjointness of the full replica sets.
        let mut seen = vec![false; platform.n_procs()];
        for group in &replicas {
            for &u in group {
                if u >= platform.n_procs() || seen[u] {
                    return Err(pipeline_model::ModelError::BadAllocation {
                        detail: format!("replica processor P{u} invalid or reused"),
                    });
                }
                seen[u] = true;
            }
        }
        Ok(ReplicatedMapping {
            intervals,
            replicas,
        })
    }

    /// The intervals.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The replica sets, parallel to [`Self::intervals`].
    pub fn replicas(&self) -> &[Vec<ProcId>] {
        &self.replicas
    }

    /// Total processors enrolled.
    pub fn n_procs_used(&self) -> usize {
        self.replicas.iter().map(Vec::len).sum()
    }

    /// Period under the deal model: `max_j max_r cycle(j, r) / k_j`.
    pub fn period(&self, cm: &CostModel<'_>) -> f64 {
        self.intervals
            .iter()
            .zip(&self.replicas)
            .map(|(&iv, group)| {
                let k = group.len() as f64;
                group
                    .iter()
                    .map(|&u| cm.interval_cost(iv, u, None, None).cycle_time())
                    .fold(f64::NEG_INFINITY, f64::max)
                    / k
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Worst-case latency: each interval charges its slowest replica.
    pub fn latency(&self, cm: &CostModel<'_>) -> f64 {
        let app = cm.app();
        let pf = cm.platform();
        let mut total = 0.0;
        for (&iv, group) in self.intervals.iter().zip(&self.replicas) {
            total += group
                .iter()
                .map(|&u| cm.interval_cost(iv, u, None, None).latency_term())
                .fold(f64::NEG_INFINITY, f64::max);
        }
        let last_group = self.replicas.last().expect("non-empty");
        let out_b = last_group
            .iter()
            .map(|&u| pf.io_bandwidth_of(u))
            .fold(f64::INFINITY, f64::min);
        total + app.delta(app.n_stages()) / out_b
    }
}

/// Result of [`replicate_bottlenecks`].
#[derive(Debug, Clone)]
pub struct ReplicationResult {
    /// The replicated mapping.
    pub mapping: ReplicatedMapping,
    /// Its deal-model period.
    pub period: f64,
    /// Its worst-case latency.
    pub latency: f64,
    /// Whether the period target was met.
    pub feasible: bool,
}

/// Greedily replicates bottleneck intervals of `base` until the period
/// target is met or no unused processor remains.
///
/// Replication never changes the latency-charged slowest replica for the
/// worse only when the added processor is no slower than the group's
/// slowest — the greedy adds the *fastest* unused processor, so latency
/// can only grow via extra groups, not within a group.
pub fn replicate_bottlenecks(
    cm: &CostModel<'_>,
    base: &IntervalMapping,
    period_target: f64,
) -> ReplicationResult {
    let pf = cm.platform();
    let mut used = vec![false; pf.n_procs()];
    for &u in base.procs() {
        used[u] = true;
    }
    let mut rep = ReplicatedMapping::from_mapping(base);
    let order: Vec<ProcId> = pf.procs_by_speed_desc().to_vec();
    loop {
        let period = rep.period(cm);
        if approx_le(period, period_target) {
            let latency = rep.latency(cm);
            return ReplicationResult {
                mapping: rep,
                period,
                latency,
                feasible: true,
            };
        }
        let Some(next) = order.iter().copied().find(|&u| !used[u]) else {
            let latency = rep.latency(cm);
            return ReplicationResult {
                mapping: rep,
                period,
                latency,
                feasible: false,
            };
        };
        // Bottleneck interval under the deal model.
        let group_period = |iv: Interval, group: &[ProcId]| {
            group
                .iter()
                .map(|&u| cm.interval_cost(iv, u, None, None).cycle_time())
                .fold(f64::NEG_INFINITY, f64::max)
                / group.len() as f64
        };
        let j = rep
            .intervals
            .iter()
            .zip(&rep.replicas)
            .enumerate()
            .max_by(|(_, (ia, ga)), (_, (ib, gb))| {
                group_period(**ia, ga)
                    .partial_cmp(&group_period(**ib, gb))
                    .expect("finite")
            })
            .map(|(j, _)| j)
            .expect("non-empty");
        // Adding a replica helps iff max(old_max, c_new)/(k+1) < old_max/k.
        // A too-slow newcomer (c_new > old_max·(k+1)/k) would *worsen* the
        // group — and the fastest unused processor is the best possible
        // newcomer, so if it does not help nothing will: stop.
        let old = group_period(rep.intervals[j], &rep.replicas[j]);
        let mut with_next = rep.replicas[j].clone();
        with_next.push(next);
        if !definitely_lt(group_period(rep.intervals[j], &with_next), old) {
            let latency = rep.latency(cm);
            return ReplicationResult {
                mapping: rep,
                period,
                latency,
                feasible: false,
            };
        }
        used[next] = true;
        rep.replicas[j] = with_next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::sp_mono_p_in;
    use crate::SolveWorkspace;
    use pipeline_model::{Application, Platform};

    fn fixture() -> (Application, Platform) {
        let app = Application::new(vec![20.0, 5.0, 20.0], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        // Six equal processors: three for the splitting floor (one per
        // stage) and three spare for replication, plus a slow straggler
        // exercising the mixed-speed latency rule.
        let pf = Platform::comm_homogeneous(vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0], 10.0).unwrap();
        (app, pf)
    }

    #[test]
    fn plain_mapping_round_trip() {
        let (app, pf) = fixture();
        let cm = CostModel::new(&app, &pf);
        let m = IntervalMapping::all_on_fastest(&app, &pf);
        let rep = ReplicatedMapping::from_mapping(&m);
        assert!((rep.period(&cm) - cm.period(&m)).abs() < 1e-12);
        assert!((rep.latency(&cm) - cm.latency(&m)).abs() < 1e-12);
        assert_eq!(rep.n_procs_used(), 1);
    }

    #[test]
    fn replication_divides_period() {
        let (app, pf) = fixture();
        let cm = CostModel::new(&app, &pf);
        // One interval on P0, replicated on P0+P1 (both speed 2):
        // cycle = 0.1 + 45/2 + 0.1 = 22.7 → period 11.35 with k = 2.
        let rep =
            ReplicatedMapping::new(&app, &pf, vec![Interval::new(0, 3)], vec![vec![0, 1]]).unwrap();
        assert!((rep.period(&cm) - 22.7 / 2.0).abs() < 1e-9);
        // Latency is the slowest replica's full path — unchanged.
        assert!((rep.latency(&cm) - 22.7).abs() < 1e-9);
    }

    #[test]
    fn mixed_speed_replicas_use_slowest_for_latency() {
        let (app, pf) = fixture();
        let cm = CostModel::new(&app, &pf);
        // Replicas P0 (speed 2) and P6 (speed 1): cycles 22.7 and 45.2.
        let rep =
            ReplicatedMapping::new(&app, &pf, vec![Interval::new(0, 3)], vec![vec![0, 6]]).unwrap();
        assert!((rep.period(&cm) - 45.2 / 2.0).abs() < 1e-9);
        assert!((rep.latency(&cm) - 45.2).abs() < 1e-9);
    }

    #[test]
    fn greedy_replication_reaches_targets_splitting_cannot() {
        let (app, pf) = fixture();
        let cm = CostModel::new(&app, &pf);
        // Splitting alone bottoms out at the heaviest stage's cycle:
        let floor = sp_mono_p_in(&cm, 0.0, &mut SolveWorkspace::new());
        let target = floor.period * 0.6;
        let rep = replicate_bottlenecks(&cm, &floor.mapping, target);
        assert!(
            rep.feasible,
            "replication must push below the splitting floor {} (target {target})",
            floor.period
        );
        assert!(rep.period <= target + EPS);
        assert!(rep.mapping.n_procs_used() > floor.mapping.n_intervals());
    }

    #[test]
    fn replication_without_processors_fails_gracefully() {
        let app = Application::uniform(2, 10.0, 1.0).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 2.0], 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let base = sp_mono_p_in(&cm, 0.0, &mut SolveWorkspace::new());
        let rep = replicate_bottlenecks(&cm, &base.mapping, 1e-12);
        assert!(!rep.feasible);
        assert_eq!(rep.mapping.n_procs_used(), 2);
    }

    #[test]
    fn replication_never_worsens_the_period() {
        // Regression: on E3-like instances (huge work spread, slow
        // stragglers) a naive greedy would add a slow replica whose cycle
        // dominates the group max, *increasing* max/k. The guard must
        // refuse such replicas.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let works: Vec<f64> = (0..8).map(|_| rng.random_range(10.0..1000.0)).collect();
            let deltas: Vec<f64> = (0..=8).map(|_| rng.random_range(1.0..20.0)).collect();
            let app = Application::new(works, deltas).unwrap();
            let speeds: Vec<f64> = (0..10).map(|_| rng.random_range(1..=20) as f64).collect();
            let pf = Platform::comm_homogeneous(speeds, 10.0).unwrap();
            let cm = CostModel::new(&app, &pf);
            let base = sp_mono_p_in(&cm, 0.0, &mut SolveWorkspace::new());
            let rep = replicate_bottlenecks(&cm, &base.mapping, 0.0);
            assert!(
                rep.period <= base.period + EPS,
                "seed {seed}: replication worsened the period {} → {}",
                base.period,
                rep.period
            );
        }
    }

    #[test]
    fn rejects_reused_replicas() {
        let (app, pf) = fixture();
        let res = ReplicatedMapping::new(
            &app,
            &pf,
            vec![Interval::new(0, 2), Interval::new(2, 3)],
            vec![vec![0, 1], vec![1]],
        );
        assert!(res.is_err());
    }

    #[test]
    fn deal_period_formula_matches_manual_round_robin_reasoning() {
        // k replicas of identical speed s: period = cycle/k exactly.
        let app = Application::new(vec![30.0], vec![0.0, 0.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![3.0, 3.0, 3.0], 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let rep = ReplicatedMapping::new(&app, &pf, vec![Interval::new(0, 1)], vec![vec![0, 1, 2]])
            .unwrap();
        // cycle = 10, k = 3 → period 10/3.
        assert!((rep.period(&cm) - 10.0 / 3.0).abs() < 1e-9);
    }
}
