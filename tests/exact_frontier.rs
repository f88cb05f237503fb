//! The exact frontier, three ways: the v3 dominance DP (public entry
//! points, routed per instance), the v2 branch-and-bound partition walk
//! (the witness entry points with no known value: `v_star = +∞`, a
//! latency ceiling of `f64::MAX`, an empty shadow front), and the v1
//! blind enumeration (the test oracle in `support/exact_oracle.rs`) must
//! produce **bit-identical** results — values and mappings — on every
//! Communication Homogeneous zoo family. The public entries start from
//! the heuristics' achieved points and the witness entries do not, so
//! each comparison also pins the seeds. The sharded entry points must
//! match the sequential ones at any thread count. And dominance pruning
//! must never drop a Pareto point (property-based, against the blind
//! oracle).

#[path = "support/exact_oracle.rs"]
mod exact_oracle;

use exact_oracle::{
    exact_min_latency_for_period_blind, exact_min_period_blind, exact_pareto_front_blind,
};
use pipeline_workflows::core::exact::{self, SharedIncumbent};
use pipeline_workflows::core::{ParetoFront, SolveWorkspace};
use pipeline_workflows::experiments::{
    exact_min_latency_for_period_sharded, exact_min_period_sharded, exact_pareto_front_sharded,
    ShardOptions,
};
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_workflows::model::util::EPS;
use pipeline_workflows::model::{Application, CostModel, IntervalMapping, Platform};
use proptest::prelude::*;
use std::cell::RefCell;

/// Bit-level equality of two fronts, mappings included.
fn assert_fronts_identical(
    a: &ParetoFront<IntervalMapping>,
    b: &ParetoFront<IntervalMapping>,
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "{label}: front sizes differ");
    for (i, ((pa, la, ma), (pb, lb, mb))) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            pa.to_bits(),
            pb.to_bits(),
            "{label}: period bits, point {i}"
        );
        assert_eq!(
            la.to_bits(),
            lb.to_bits(),
            "{label}: latency bits, point {i}"
        );
        assert_eq!(ma, mb, "{label}: mapping, point {i}");
    }
}

/// The v2 walks: each operation's witness entry point with no known
/// value.
fn v2_min_period(cm: &CostModel<'_>, ws: &mut SolveWorkspace) -> (f64, IntervalMapping) {
    exact::exact_min_period_from_value(cm, f64::INFINITY, ws)
}

fn v2_min_latency(
    cm: &CostModel<'_>,
    bound: f64,
    ws: &mut SolveWorkspace,
) -> Option<(f64, IntervalMapping)> {
    exact::exact_min_latency_from_value(cm, bound, f64::MAX, ws)
}

fn v2_front(cm: &CostModel<'_>, ws: &mut SolveWorkspace) -> ParetoFront<IntervalMapping> {
    exact::exact_front_from_shadow(cm, &ParetoFront::new(), ws)
}

/// One instance of every Communication Homogeneous zoo family at
/// (n, p), generated from the family's registered stream.
fn zoo_instances(n: usize, p: usize, seed: u64) -> Vec<(ScenarioFamily, Application, Platform)> {
    ScenarioFamily::ALL
        .into_iter()
        .filter(|f| f.comm_homogeneous())
        .map(|f| {
            let (app, pf) = ScenarioGenerator::new(f.params(n, p)).instance(seed, 0);
            (f, app, pf)
        })
        .collect()
}

/// DP-routed public entries vs the v2 partition walk vs the v1 blind
/// enumeration, bit-for-bit: minimum period, minimum latency under a
/// spread of period bounds (including an infeasible one), and the full
/// Pareto front with mappings. Blind enumeration caps the size at
/// n = 10; the DP-vs-v2 comparison continues to n = 16 below.
#[test]
fn exact_solvers_agree_three_ways_on_every_zoo_family() {
    let mut ws = SolveWorkspace::new();
    for (family, app, pf) in zoo_instances(8, 5, 3) {
        let cm = CostModel::new(&app, &pf);
        let label = family.label();

        let (v_dp, m_dp) = exact::exact_min_period_in(&cm, &mut ws);
        let (v_v2, m_v2) = v2_min_period(&cm, &mut ws);
        let (v_blind, m_blind) = exact_min_period_blind(&cm);
        assert_eq!(v_dp.to_bits(), v_v2.to_bits(), "{label}: period dp/v2");
        assert_eq!(
            v_dp.to_bits(),
            v_blind.to_bits(),
            "{label}: period dp/blind"
        );
        assert_eq!(m_dp, m_v2, "{label}: period mapping dp/v2");
        assert_eq!(m_dp, m_blind, "{label}: period mapping dp/blind");

        // Bounds from infeasible (below the optimum) to slack.
        for factor in [0.5f64, 1.0, 1.15, 1.4, 2.0] {
            let bound = v_dp * factor;
            let dp = exact::exact_min_latency_for_period_in(&cm, bound, &mut ws);
            let v2 = v2_min_latency(&cm, bound, &mut ws);
            let blind = exact_min_latency_for_period_blind(&cm, bound);
            for (other, tag) in [(&v2, "v2"), (&blind, "blind")] {
                match (&dp, other) {
                    (Some((la, ma)), Some((lb, mb))) => {
                        assert_eq!(la.to_bits(), lb.to_bits(), "{label}@{factor}: dp/{tag}");
                        assert_eq!(ma, mb, "{label}@{factor}: mapping dp/{tag}");
                    }
                    (None, None) => {}
                    other => panic!("{label}@{factor}: feasibility dp/{tag}: {other:?}"),
                }
            }
        }

        let f_dp = exact::exact_pareto_front_in(&cm, &mut ws);
        assert_fronts_identical(&f_dp, &v2_front(&cm, &mut ws), label);
        assert_fronts_identical(&f_dp, &exact_pareto_front_blind(&cm), label);
    }
}

/// DP-routed public entries vs the v2 partition walk at the sizes the
/// blind oracle can no longer reach: n = 13 and n = 16 over every
/// Communication Homogeneous zoo family.
#[test]
fn dp_matches_partition_search_at_n16() {
    let mut ws = SolveWorkspace::new();
    for (n, p, seed) in [(13usize, 6usize, 1u64), (16, 6, 2)] {
        for (family, app, pf) in zoo_instances(n, p, seed) {
            let cm = CostModel::new(&app, &pf);
            let label = format!("{} n={n}", family.label());

            let (v_dp, m_dp) = exact::exact_min_period_in(&cm, &mut ws);
            let (v_v2, m_v2) = v2_min_period(&cm, &mut ws);
            assert_eq!(v_dp.to_bits(), v_v2.to_bits(), "{label}: period");
            assert_eq!(m_dp, m_v2, "{label}: period mapping");

            for factor in [1.0f64, 1.3, 1.8] {
                let bound = v_dp * factor;
                let dp = exact::exact_min_latency_for_period_in(&cm, bound, &mut ws);
                let v2 = v2_min_latency(&cm, bound, &mut ws);
                match (&dp, &v2) {
                    (Some((la, ma)), Some((lb, mb))) => {
                        assert_eq!(la.to_bits(), lb.to_bits(), "{label}@{factor}");
                        assert_eq!(ma, mb, "{label}@{factor}: mapping");
                    }
                    (None, None) => {}
                    other => panic!("{label}@{factor}: feasibility: {other:?}"),
                }
            }

            assert_fronts_identical(
                &exact::exact_pareto_front_in(&cm, &mut ws),
                &v2_front(&cm, &mut ws),
                &label,
            );
        }
    }
}

/// Exact periods are eq. 1 of their own mapping: every exact min-period
/// answer and every exact front point reports the period
/// `CostModel::period` computes for its mapping, bit for bit, over every
/// Communication Homogeneous zoo family at n ∈ {8, 12, 16} and
/// p ∈ {4, 8, 16} (DP-routed and v2-routed instances alike).
#[test]
fn exact_periods_are_eq_1_of_their_own_mapping() {
    let mut ws = SolveWorkspace::new();
    for n in [8usize, 12, 16] {
        for p in [4usize, 8, 16] {
            for (family, app, pf) in zoo_instances(n, p, 1) {
                let cm = CostModel::new(&app, &pf);
                let label = format!("{} n={n} p={p}", family.label());
                let (period, mapping) = exact::exact_min_period_in(&cm, &mut ws);
                let eq1 = cm.period(&mapping);
                assert_eq!(period.to_bits(), eq1.to_bits(), "{label}: min period");
                let front = exact::exact_pareto_front_in(&cm, &mut ws);
                for (i, (period, _, mapping)) in front.iter().enumerate() {
                    let eq1 = cm.period(mapping);
                    assert_eq!(period.to_bits(), eq1.to_bits(), "{label}: front point {i}");
                }
            }
        }
    }
}

/// The sharded branch-and-bound must be bit-identical to the sequential
/// entry points at 1, 2 and 4 threads — on a uniform-speed cluster
/// where the DP fans its roots out, and on a zoo instance that falls
/// back to the sequential path.
#[test]
fn sharded_solvers_are_bit_identical_at_1_2_4_threads() {
    // Uniform-speed cluster: the DP's home regime (root fan-out runs).
    let mut ws = SolveWorkspace::new();
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 18, 16));
    let (app, _) = gen.instance(5, 0);
    let uniform = Platform::comm_homogeneous(vec![10.0; 16], 10.0).expect("valid platform");
    // Zoo instance with pairwise-distinct speeds: routing declines the
    // DP and the sharded entries fall back to the sequential solvers.
    let (zoo_app, zoo_pf) = ScenarioGenerator::new(ScenarioFamily::E2.params(12, 8)).instance(7, 0);

    for (app, pf, label) in [(&app, &uniform, "uniform"), (&zoo_app, &zoo_pf, "zoo")] {
        let cm = CostModel::new(app, pf);
        let (v_seq, m_seq) = exact::exact_min_period_in(&cm, &mut ws);
        let front_seq = exact::exact_pareto_front_in(&cm, &mut ws);
        // 0.5× is infeasible: the DP finds no value and the witness
        // entry point answers `None` without walking.
        let bounds = [0.5, 1.0, 1.4].map(|factor| v_seq * factor);
        let lat_seq =
            bounds.map(|bound| exact::exact_min_latency_for_period_in(&cm, bound, &mut ws));
        assert!(
            lat_seq[0].is_none(),
            "{label}: 0.5x the optimum is infeasible"
        );
        assert!(lat_seq[1].is_some(), "{label}: the optimum is feasible");
        for threads in [1usize, 2, 4] {
            let opts = ShardOptions::with_threads(threads);
            let (v, m) = exact_min_period_sharded(&cm, opts);
            assert_eq!(v.to_bits(), v_seq.to_bits(), "{label} t={threads}: period");
            assert_eq!(m, m_seq, "{label} t={threads}: period mapping");
            for (&bound, seq) in bounds.iter().zip(&lat_seq) {
                match (exact_min_latency_for_period_sharded(&cm, bound, opts), seq) {
                    (Some((la, ma)), Some((lb, mb))) => {
                        assert_eq!(la.to_bits(), lb.to_bits(), "{label} t={threads}@{bound}");
                        assert_eq!(&ma, mb, "{label} t={threads}@{bound}: mapping");
                    }
                    (None, None) => {}
                    other => panic!("{label} t={threads}@{bound}: feasibility: {other:?}"),
                }
            }
            assert_fronts_identical(
                &exact_pareto_front_sharded(&cm, opts),
                &front_seq,
                &format!("{label} t={threads}"),
            );
        }
    }
}

/// The DP-routed min-period witness (the forward pass over the DP's
/// states at the DP's value) against the plain v2 walk, bit for bit, on
/// the generator's E2/E3/E4 instances at p = 16 with speeds 1–3: three
/// speed classes, so the DP routes, and ties between equal-speed
/// processors everywhere. Sizes run to n = 24, where plain v2 still
/// finishes within ~0.5 s per instance in a debug build. The sharded
/// entry point runs the same witness pass after a parallel value phase.
#[test]
fn dp_min_period_witness_matches_v2_on_three_speed_platforms() {
    let mut ws = SolveWorkspace::new();
    for kind in [ExperimentKind::E2, ExperimentKind::E3, ExperimentKind::E4] {
        for (n, seed) in [(12usize, 1u64), (16, 2), (20, 5), (24, 1), (24, 2)] {
            let gen = InstanceGenerator::new(InstanceParams {
                n_stages: n,
                n_procs: 16,
                kind,
                bandwidth: 10.0,
                speed_range: (1, 3),
            });
            let (app, pf) = gen.instance(seed, 0);
            let cm = CostModel::new(&app, &pf);
            let label = format!("{kind:?} n={n} seed={seed}");
            assert!(exact::supports_dominance_dp(&cm), "{label}: routes");

            let (v_dp, m_dp) = exact::exact_min_period_in(&cm, &mut ws);
            let (v_v2, m_v2) = v2_min_period(&cm, &mut ws);
            assert_eq!(v_dp.to_bits(), v_v2.to_bits(), "{label}: period");
            assert_eq!(m_dp, m_v2, "{label}: mapping");
            let (v_sh, m_sh) = exact_min_period_sharded(&cm, ShardOptions::with_threads(2));
            assert_eq!(v_sh.to_bits(), v_v2.to_bits(), "{label}: sharded period");
            assert_eq!(m_sh, m_v2, "{label}: sharded mapping");
        }
    }
}

/// The DP roots three ways: in [`exact::exact_root_order`] sharing one
/// incumbent (or shadow front), in reverse order sharing one, and each
/// root alone with its own, combined afterwards (the minimum, or the
/// merged front). Values are exact in any order, so all three agree.
fn dp_values_three_ways<S>(
    cm: &CostModel<'_>,
    fresh: impl Fn() -> S,
    run_root: impl Fn(usize, &S, &mut SolveWorkspace),
    combine: impl Fn(&S, &S),
) -> [S; 3] {
    let mut ws = SolveWorkspace::new();
    let roots = exact::exact_root_order(cm);
    let (forward, reverse, alone) = (fresh(), fresh(), fresh());
    for &end in &roots {
        run_root(end, &forward, &mut ws);
    }
    for &end in roots.iter().rev() {
        run_root(end, &reverse, &mut ws);
    }
    for &end in &roots {
        let one = fresh();
        run_root(end, &one, &mut ws);
        combine(&alone, &one);
    }
    [forward, reverse, alone]
}

/// The DP value phase pinned directly, not through the witness walks
/// (which hide a DP value that is too high: a loose latency ceiling or
/// shadow prune only loses pruning). E2/E3/E4 at p = 16 with speeds 1–3,
/// so the DP routes, and its roots run three ways
/// ([`dp_values_three_ways`]). The min-period value must have the v2
/// period's exact bits; the latency value must sit within 1e-12
/// relative of the v2 latency (the DP sums eq. 2, the v2 leaf its base
/// plus the Hungarian sum), must not exceed eq. 2 of the v2 witness (it
/// is eq. 2's minimum), and must agree on feasibility at 0.5×, 1.0× and
/// 1.4× the optimum; the merged shadow front must match the v2 front's
/// coordinates point for point within 4·EPS.
#[test]
fn dp_value_phase_matches_v2_values_three_ways() {
    let mut ws = SolveWorkspace::new();
    for kind in [ExperimentKind::E2, ExperimentKind::E3, ExperimentKind::E4] {
        for (n, seed) in [(12usize, 3u64), (16, 4), (20, 6)] {
            let gen = InstanceGenerator::new(InstanceParams {
                n_stages: n,
                n_procs: 16,
                kind,
                bandwidth: 10.0,
                speed_range: (1, 3),
            });
            let (app, pf) = gen.instance(seed, 0);
            let cm = CostModel::new(&app, &pf);
            let label = format!("{kind:?} n={n} seed={seed}");
            assert!(exact::supports_dominance_dp(&cm), "{label}: routes");

            let incumbent_min = |all: &SharedIncumbent, one: &SharedIncumbent| {
                all.observe(one.current());
            };
            let (v_v2, _) = v2_min_period(&cm, &mut ws);
            let periods = dp_values_three_ways(
                &cm,
                SharedIncumbent::new,
                |end, inc, ws| exact::exact_min_period_value_root(&cm, end, inc, ws),
                incumbent_min,
            );
            for (way, inc) in periods.iter().enumerate() {
                assert_eq!(
                    inc.current().to_bits(),
                    v_v2.to_bits(),
                    "{label} way {way}: period"
                );
            }

            for factor in [0.5f64, 1.0, 1.4] {
                let bound = v_v2 * factor;
                let v2 = v2_min_latency(&cm, bound, &mut ws);
                let latencies = dp_values_three_ways(
                    &cm,
                    SharedIncumbent::new,
                    |end, inc, ws| exact::exact_min_latency_value_root(&cm, bound, end, inc, ws),
                    incumbent_min,
                );
                for (way, inc) in latencies.iter().enumerate() {
                    let dp = inc.current();
                    match &v2 {
                        Some((l_v2, witness)) => {
                            assert!(
                                (dp - l_v2).abs() <= 1e-12 * l_v2,
                                "{label}@{factor} way {way}: DP latency {dp} vs v2 {l_v2}"
                            );
                            let l_eq2 = cm.latency(witness);
                            assert!(
                                dp <= l_eq2,
                                "{label}@{factor} way {way}: DP latency {dp} above eq. 2 {l_eq2}"
                            );
                        }
                        None => assert!(
                            dp.is_infinite(),
                            "{label}@{factor} way {way}: DP found {dp}, v2 infeasible"
                        ),
                    }
                }
                assert_eq!(v2.is_none(), factor < 1.0, "{label}@{factor}: feasibility");
            }

            let v2 = v2_front(&cm, &mut ws);
            let shadows = dp_values_three_ways(
                &cm,
                || RefCell::new(ParetoFront::<()>::new()),
                |end, shadow, ws| {
                    exact::exact_front_shadow_root(&cm, end, &mut shadow.borrow_mut(), ws)
                },
                |all, one| {
                    let mut all = all.borrow_mut();
                    for (period, latency, ()) in one.borrow().iter() {
                        if !all.dominated(period, latency) {
                            all.offer(period, latency, ());
                        }
                    }
                },
            );
            for (way, shadow) in shadows.iter().enumerate() {
                let shadow = shadow.borrow();
                assert_eq!(shadow.len(), v2.len(), "{label} way {way}: front size");
                for (i, ((ps, ls, ()), (pv, lv, _))) in shadow.iter().zip(v2.iter()).enumerate() {
                    assert!(
                        (ps - pv).abs() <= 4.0 * EPS && (ls - lv).abs() <= 4.0 * EPS,
                        "{label} way {way} point {i}: shadow ({ps}, {ls}) vs v2 ({pv}, {lv})"
                    );
                }
            }
        }
    }
}

/// v2-routed instances against the blind oracle, bit for bit: twenty
/// pairwise-distinct speeds in scrambled column order put the platform
/// far past the DP's state budget, so the public min-period,
/// min-latency and front entries walk v2 — its one-probe min-period
/// leaves, the latency walk under its seeded ceiling and the bitset
/// bottleneck search of every front leaf — while the oracle runs the
/// full search on every partition. E1's constant volumes make ties
/// between partitions common; E3 and E4 put computation, then
/// communication, in charge of the cycle times.
#[test]
fn v2_routed_twenty_speed_platforms_match_the_blind_oracle() {
    let speeds: Vec<f64> = (0..20).map(|u| 1.0 + ((u * 7) % 20) as f64 / 4.0).collect();
    let pf = Platform::comm_homogeneous(speeds, 10.0).expect("valid platform");
    let mut ws = SolveWorkspace::new();
    for kind in [ExperimentKind::E1, ExperimentKind::E3, ExperimentKind::E4] {
        for (n, seed) in [(3usize, 0u64), (5, 1), (7, 2), (9, 3)] {
            let gen = InstanceGenerator::new(InstanceParams::paper(kind, n, 20));
            let (app, _) = gen.instance(seed, 0);
            let cm = CostModel::new(&app, &pf);
            let label = format!("{kind:?} n={n} seed={seed}");
            assert!(!exact::supports_dominance_dp(&cm), "{label}: v2-routed");

            let (v, m) = exact::exact_min_period_in(&cm, &mut ws);
            let (v_blind, m_blind) = exact_min_period_blind(&cm);
            assert_eq!(v.to_bits(), v_blind.to_bits(), "{label}: period");
            assert_eq!(m, m_blind, "{label}: mapping");
            // Below the optimum (infeasible), at it, and with slack.
            for factor in [0.9f64, 1.0, 1.5] {
                let bound = v * factor;
                match (
                    exact::exact_min_latency_for_period_in(&cm, bound, &mut ws),
                    exact_min_latency_for_period_blind(&cm, bound),
                ) {
                    (Some((la, ma)), Some((lb, mb))) => {
                        assert_eq!(la.to_bits(), lb.to_bits(), "{label}@{factor}: latency");
                        assert_eq!(ma, mb, "{label}@{factor}: mapping");
                    }
                    (None, None) => assert!(factor < 1.0, "{label}@{factor}: infeasible"),
                    other => panic!("{label}@{factor}: feasibility: {other:?}"),
                }
            }
            assert_fronts_identical(
                &exact::exact_pareto_front_in(&cm, &mut ws),
                &exact_pareto_front_blind(&cm),
                &label,
            );
        }
    }
}

/// The seeded public entries against the unseeded walks, bit for bit,
/// values and mappings: the DP min-period sweep and the v2 walks start
/// capped by the best heuristic point and the front's shadow starts with
/// the heuristic points, which only prunes. Paper E1–E4 at p = 16 with
/// speeds 1–20 (v2-routed) and 1–3 (DP-routed), over every exact
/// objective, the latency one at three bounds. E2 and E4 run at n = 17
/// and 20; E1 and E3 at n = 14, since from n = 16 on their unseeded v2
/// fronts take 0.2–0.6 s each in a release build.
#[test]
fn seeded_entries_match_the_unseeded_walks() {
    let mut ws = SolveWorkspace::new();
    for (kind, sizes) in [
        (ExperimentKind::E1, &[(14usize, 1u64)][..]),
        (ExperimentKind::E2, &[(17, 2), (20, 3)]),
        (ExperimentKind::E3, &[(14, 1)]),
        (ExperimentKind::E4, &[(17, 2), (20, 3)]),
    ] {
        for (speed_range, dp) in [((1, 20), false), ((1, 3), true)] {
            for &(n, seed) in sizes {
                let gen = InstanceGenerator::new(InstanceParams {
                    n_stages: n,
                    n_procs: 16,
                    kind,
                    bandwidth: 10.0,
                    speed_range,
                });
                let (app, pf) = gen.instance(seed, 0);
                let cm = CostModel::new(&app, &pf);
                let label = format!("{kind:?} n={n} seed={seed} speeds={speed_range:?}");
                assert_eq!(exact::supports_dominance_dp(&cm), dp, "{label}: route");

                let (v, m) = exact::exact_min_period_in(&cm, &mut ws);
                let (v_v2, m_v2) = v2_min_period(&cm, &mut ws);
                assert_eq!(v.to_bits(), v_v2.to_bits(), "{label}: period");
                assert_eq!(m, m_v2, "{label}: period mapping");

                for factor in [1.0f64, 1.25, 1.6] {
                    let bound = v * factor;
                    let seeded = exact::exact_min_latency_for_period_in(&cm, bound, &mut ws);
                    let (l, ml) = seeded.expect("the optimum period is feasible");
                    let (l_v2, ml_v2) = v2_min_latency(&cm, bound, &mut ws).expect("feasible");
                    assert_eq!(l.to_bits(), l_v2.to_bits(), "{label}@{factor}: latency");
                    assert_eq!(ml, ml_v2, "{label}@{factor}: latency mapping");
                }

                assert_fronts_identical(
                    &exact::exact_pareto_front_in(&cm, &mut ws),
                    &v2_front(&cm, &mut ws),
                    &label,
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tie-heavy instances for the min-period witness: small integer
    /// works with zeros, a constant δ and two speed classes give many
    /// partitions (and assignments) at the optimum, so the witness must
    /// pick the blind enumeration's leftmost winner among them. Both the
    /// routed entry point and the witness pass handed the oracle's value
    /// must return the oracle's period bits and mapping.
    #[test]
    fn min_period_witness_keeps_the_leftmost_winner_under_ties(
        works in proptest::collection::vec(0u32..=3, 2..=10),
        delta in 0u32..=3,
        p in 2usize..=6,
        speed_a in 1u32..=3,
        speed_b in 1u32..=3,
    ) {
        let n = works.len();
        let app = Application::new(
            works.iter().map(|&w| w as f64).collect(),
            vec![delta as f64; n + 1],
        )
        .expect("valid application");
        let speeds: Vec<f64> = (0..p)
            .map(|u| if u % 2 == 0 { speed_a as f64 } else { speed_b as f64 })
            .collect();
        let pf = Platform::comm_homogeneous(speeds, 2.0).expect("valid platform");
        let cm = CostModel::new(&app, &pf);
        prop_assert!(exact::supports_dominance_dp(&cm));

        let (v_blind, m_blind) = exact_min_period_blind(&cm);
        let mut ws = SolveWorkspace::new();
        let (v_dp, m_dp) = exact::exact_min_period_in(&cm, &mut ws);
        prop_assert_eq!(v_dp.to_bits(), v_blind.to_bits());
        prop_assert_eq!(&m_dp, &m_blind);
        let (v_w, m_w) = exact::exact_min_period_from_value(&cm, v_blind, &mut ws);
        prop_assert_eq!(v_w.to_bits(), v_blind.to_bits());
        prop_assert_eq!(&m_w, &m_blind);
    }

    /// Dominance pruning never drops a Pareto point: on random
    /// comm-homogeneous instances with few speed classes (so the DP
    /// always routes), the DP-routed front equals the blind
    /// enumeration's front bit-for-bit, mappings included.
    #[test]
    fn dominance_pruning_never_drops_a_pareto_point(
        n in 4usize..=12,
        p in 2usize..=6,
        seed in 0u64..1000,
        speed_a in 1u32..=4,
        speed_b in 1u32..=4,
    ) {
        // Works/deltas from the generator's stream; a two-class speed
        // vector keeps the canonical-mask space small enough that
        // `supports_dominance_dp` accepts every case.
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p));
        let (app, _) = gen.instance(seed, 0);
        let speeds: Vec<f64> = (0..p)
            .map(|u| if u % 2 == 0 { speed_a as f64 } else { speed_b as f64 })
            .collect();
        let pf = Platform::comm_homogeneous(speeds, 10.0).expect("valid platform");
        let cm = CostModel::new(&app, &pf);
        prop_assert!(exact::supports_dominance_dp(&cm));

        let mut ws = SolveWorkspace::new();
        let dp = exact::exact_pareto_front_in(&cm, &mut ws);
        let blind = exact_pareto_front_blind(&cm);
        prop_assert_eq!(dp.len(), blind.len(), "front sizes differ");
        for ((pa, la, ma), (pb, lb, mb)) in dp.iter().zip(blind.iter()) {
            prop_assert_eq!(pa.to_bits(), pb.to_bits());
            prop_assert_eq!(la.to_bits(), lb.to_bits());
            prop_assert_eq!(ma, mb);
        }
    }
}
