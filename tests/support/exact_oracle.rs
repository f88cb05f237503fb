//! The v1 exact solvers, kept as a test oracle: blind enumeration of
//! every interval partition with a fresh assignment solve per partition
//! (and per period threshold for the front). No pruning, no memoization,
//! no DP. It is the slow, obviously-correct reference that the pruned
//! partition walks and the dominance DP of `pipeline_core::exact` are
//! checked against. Every cycle is eq. 1's, straight from
//! `CostModel::interval_cost`, and latencies use the production walks'
//! expression in the same association order, so results agree **bit
//! for bit**, mappings and tie-breaks included (strict improvements
//! only: the leftmost winner in enumeration order is kept).
//!
//! Built on the public API only. Include it with
//! `#[path = "support/exact_oracle.rs"] mod exact_oracle;`.

use pipeline_workflows::assign::{
    bottleneck_assignment, hungarian_in, BottleneckScratch, CostMatrix, HungarianScratch,
};
use pipeline_workflows::core::exact::{self, MAX_STAGES};
use pipeline_workflows::core::{ParetoFront, SolveWorkspace};
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::util::{approx_le, EPS};
use pipeline_workflows::model::{CostModel, Interval, IntervalCost, IntervalMapping, LinkModel};

/// Calls `visit` with the boundary vector (`0 = b_0 < … < b_m = n`) of
/// every partition of `[0, n)` into at most `max_parts` intervals, in
/// lexicographic order.
pub fn enumerate_partitions(n: usize, max_parts: usize, mut visit: impl FnMut(&[usize])) {
    assert!(n > 0, "no stage to partition");
    assert!(
        n <= MAX_STAGES,
        "refusing to enumerate 2^{} partitions",
        n - 1
    );
    let mut bounds = vec![0usize];
    fn rec(n: usize, max_parts: usize, bounds: &mut Vec<usize>, visit: &mut impl FnMut(&[usize])) {
        let start = *bounds.last().expect("never empty");
        let parts_used = bounds.len() - 1;
        if start == n {
            visit(bounds);
            return;
        }
        if parts_used == max_parts {
            return;
        }
        for end in start + 1..=n {
            bounds.push(end);
            rec(n, max_parts, bounds, visit);
            bounds.pop();
        }
    }
    rec(n, max_parts.max(1), &mut bounds, &mut visit);
}

/// Per-partition interval descriptors used to build assignment matrices.
struct PartitionCosts<'c, 'a> {
    cm: &'c CostModel<'a>,
    intervals: Vec<Interval>,
    /// Constant latency part: `δ_n/b + Σ t_in`.
    latency_base: f64,
}

impl PartitionCosts<'_, '_> {
    /// Interval `j` on processor `u`: eq. 1's cycle time and its parts.
    /// Homogeneous links make the neighbours irrelevant.
    fn cost(&self, j: usize, u: usize) -> IntervalCost {
        self.cm.interval_cost(self.intervals[j], u, None, None)
    }
}

fn partition_costs<'c, 'a>(cm: &'c CostModel<'a>, bounds: &[usize]) -> PartitionCosts<'c, 'a> {
    let app = cm.app();
    let &LinkModel::Homogeneous(b) = cm.platform().links() else {
        panic!("exact solver requires a Communication Homogeneous platform")
    };
    let intervals: Vec<Interval> = bounds
        .windows(2)
        .map(|w| Interval::new(w[0], w[1]))
        .collect();
    let mut latency_base = app.delta(app.n_stages()) / b;
    for iv in &intervals {
        latency_base += app.input_volume(iv.start) / b;
    }
    PartitionCosts {
        cm,
        intervals,
        latency_base,
    }
}

fn build_mapping(
    cm: &CostModel<'_>,
    intervals: &[Interval],
    assigned: &[usize],
) -> IntervalMapping {
    IntervalMapping::new(
        cm.app(),
        cm.platform(),
        intervals.to_vec(),
        assigned.to_vec(),
    )
    .expect("enumerated partitions are valid")
}

/// Exact minimum period: a bottleneck assignment per partition.
pub fn exact_min_period_blind(cm: &CostModel<'_>) -> (f64, IntervalMapping) {
    let p = cm.platform().n_procs();
    let mut best: Option<(f64, IntervalMapping)> = None;
    enumerate_partitions(cm.app().n_stages(), p, |bounds| {
        let pc = partition_costs(cm, bounds);
        let m = pc.intervals.len();
        let costs = CostMatrix::from_fn(m, p, |j, u| pc.cost(j, u).cycle_time());
        if let Some(a) = bottleneck_assignment(&costs, &mut BottleneckScratch::default()) {
            if best.as_ref().is_none_or(|(v, _)| a.objective < *v) {
                best = Some((a.objective, build_mapping(cm, &pc.intervals, &a.assigned)));
            }
        }
    });
    best.expect("the single-interval partition is always assignable")
}

/// Exact minimum latency under `period ≤ period_bound`: a Hungarian
/// solve per partition with too-slow pairs forbidden. `None` when no
/// mapping meets the bound.
pub fn exact_min_latency_for_period_blind(
    cm: &CostModel<'_>,
    period_bound: f64,
) -> Option<(f64, IntervalMapping)> {
    let p = cm.platform().n_procs();
    let mut best: Option<(f64, IntervalMapping)> = None;
    enumerate_partitions(cm.app().n_stages(), p, |bounds| {
        let pc = partition_costs(cm, bounds);
        let m = pc.intervals.len();
        let costs = CostMatrix::from_fn(m, p, |j, u| {
            let c = pc.cost(j, u);
            if approx_le(c.cycle_time(), period_bound) {
                c.t_comp
            } else {
                f64::INFINITY
            }
        });
        if let Some(a) = hungarian_in(&costs, &mut HungarianScratch::default()) {
            let latency = pc.latency_base + a.objective;
            if best.as_ref().is_none_or(|(v, _)| latency < *v) {
                best = Some((latency, build_mapping(cm, &pc.intervals, &a.assigned)));
            }
        }
    });
    best
}

/// Exact Pareto front: one Hungarian solve per (partition, distinct
/// cycle-value threshold) pair.
pub fn exact_pareto_front_blind(cm: &CostModel<'_>) -> ParetoFront<IntervalMapping> {
    let p = cm.platform().n_procs();
    let mut front: ParetoFront<IntervalMapping> = ParetoFront::new();
    enumerate_partitions(cm.app().n_stages(), p, |bounds| {
        let pc = partition_costs(cm, bounds);
        let m = pc.intervals.len();
        let mut thresholds: Vec<f64> = Vec::with_capacity(m * p);
        for j in 0..m {
            thresholds.extend((0..p).map(|u| pc.cost(j, u).cycle_time()));
        }
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        thresholds.dedup_by(|a, b| (*a - *b).abs() <= EPS);
        for &t in &thresholds {
            let costs = CostMatrix::from_fn(m, p, |j, u| {
                let c = pc.cost(j, u);
                if approx_le(c.cycle_time(), t) {
                    c.t_comp
                } else {
                    f64::INFINITY
                }
            });
            let Some(a) = hungarian_in(&costs, &mut HungarianScratch::default()) else {
                continue;
            };
            let latency = pc.latency_base + a.objective;
            let achieved = a
                .assigned
                .iter()
                .enumerate()
                .map(|(j, &u)| pc.cost(j, u).cycle_time())
                .fold(f64::NEG_INFINITY, f64::max);
            if !front.dominated(achieved, latency) {
                let mapping = build_mapping(cm, &pc.intervals, &a.assigned);
                front.offer(achieved, latency, mapping);
            }
        }
    });
    front
}

#[test]
fn enumerate_counts_match_compositions() {
    // Partitions of n into at most k parts = Σ_{m=1..k} C(n-1, m-1).
    let mut count = 0;
    enumerate_partitions(5, 3, |_| count += 1);
    // C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6 = 11.
    assert_eq!(count, 11);
    let mut all = 0;
    enumerate_partitions(5, 5, |_| all += 1);
    assert_eq!(all, 16); // 2^4
}

#[test]
fn enumerate_yields_valid_bounds() {
    enumerate_partitions(4, 4, |b| {
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 4);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    });
}

#[test]
#[should_panic(expected = "refusing to enumerate")]
fn enumeration_guard() {
    enumerate_partitions(40, 10, |_| {});
}

/// The load-bearing property of every solver generation: pruning must
/// never change a result. Checks the DP-routed entry points and the v2
/// walks (the witness entry points with no known value) against the
/// blind oracle on a few paper instances. (The scenario-zoo sweep is
/// `exact_solvers_agree_three_ways_on_every_zoo_family`.)
#[test]
fn v2_matches_blind_reference_bitwise() {
    let mut ws = SolveWorkspace::new();
    for (n, p, seed) in [(6usize, 4usize, 0u64), (8, 5, 1), (9, 6, 2), (10, 4, 3)] {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, n, p));
        let (app, pf) = gen.instance(seed, 0);
        let cm = CostModel::new(&app, &pf);

        let (v1, m1) = exact_min_period_blind(&cm);
        for (v, m) in [
            exact::exact_min_period_in(&cm, &mut ws),
            exact::exact_min_period_from_value(&cm, f64::INFINITY, &mut ws),
        ] {
            assert_eq!(v.to_bits(), v1.to_bits(), "n={n} p={p} seed={seed}");
            assert_eq!(m, m1, "n={n} p={p} seed={seed}");
        }

        for factor in [1.0, 1.3, 2.0] {
            let bound = v1 * factor;
            let b = exact_min_latency_for_period_blind(&cm, bound);
            for a in [
                exact::exact_min_latency_for_period_in(&cm, bound, &mut ws),
                exact::exact_min_latency_from_value(&cm, bound, f64::MAX, &mut ws),
            ] {
                match (a, &b) {
                    (None, None) => {}
                    (Some((la, ma)), Some((lb, mb))) => {
                        assert_eq!(la.to_bits(), lb.to_bits(), "bound {bound}");
                        assert_eq!(&ma, mb, "bound {bound}");
                    }
                    other => panic!("feasibility disagreement at {bound}: {other:?}"),
                }
            }
        }

        let f1 = exact_pareto_front_blind(&cm);
        for f2 in [
            exact::exact_pareto_front_in(&cm, &mut ws),
            exact::exact_front_from_shadow(&cm, &ParetoFront::new(), &mut ws),
        ] {
            assert_eq!(f2.len(), f1.len(), "n={n} p={p} seed={seed}");
            for (a, b) in f2.iter().zip(f1.iter()) {
                assert_eq!(a.0.to_bits(), b.0.to_bits());
                assert_eq!(a.1.to_bits(), b.1.to_bits());
                assert_eq!(a.2, b.2);
            }
        }
    }
}
