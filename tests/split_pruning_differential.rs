//! The pruned split searches against their unpruned oracle
//! (`support/split_oracle.rs`): the H2a, H2b and H7 trajectories must be
//! **bit-identical** — every point's period, latency and mapping — on
//! every scenario family (H2a/H2b on the Communication Homogeneous ones,
//! H7 on all nine) across small, odd and large sizes, and on tie-heavy
//! instances where the pruning bounds sit exactly on candidate values —
//! H2b's ratio bound included, where a later candidate ties the
//! incumbent's `Δlatency/Δperiod` bit for bit.

#[path = "support/split_oracle.rs"]
mod split_oracle;

use pipeline_workflows::core::state::Split3;
use pipeline_workflows::core::trajectory::TrajectoryKind;
use pipeline_workflows::core::{
    fixed_period_trajectory_in, hetero_trajectory_in, HeteroSplitOptions, SolveWorkspace,
    SplitBuffers, SplitState, Trajectory,
};
use pipeline_workflows::model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_workflows::model::util::definitely_lt;
use pipeline_workflows::model::{Application, CostModel, Platform};
use proptest::prelude::*;

fn assert_identical(what: &str, pruned: &Trajectory, oracle: &Trajectory) {
    assert_eq!(pruned.len(), oracle.len(), "{what}: trajectory length");
    for i in 0..oracle.len() {
        assert_eq!(
            pruned.period(i).to_bits(),
            oracle.period(i).to_bits(),
            "{what}: period of point {i}"
        );
        assert_eq!(
            pruned.latency(i).to_bits(),
            oracle.latency(i).to_bits(),
            "{what}: latency of point {i}"
        );
        assert_eq!(pruned.mapping(i), oracle.mapping(i), "{what}: mapping {i}");
    }
}

/// Checks H2a and H2b (Communication Homogeneous platforms only) and H7
/// with its default and a one-processor pool.
fn check_instance(what: &str, app: &Application, pf: &Platform, ws: &mut SolveWorkspace) {
    let cm = CostModel::new(app, pf);
    if pf.is_comm_homogeneous() {
        for (kind, bi) in [
            (TrajectoryKind::ExploMono, false),
            (TrajectoryKind::ExploBi, true),
        ] {
            assert_identical(
                &format!("{what} {kind:?}"),
                &fixed_period_trajectory_in(&cm, kind, ws),
                &split_oracle::explo_trajectory(&cm, bi),
            );
        }
    }
    for candidate_procs in [HeteroSplitOptions::default().candidate_procs, 1] {
        assert_identical(
            &format!("{what} H7/{candidate_procs}"),
            &hetero_trajectory_in(&cm, HeteroSplitOptions { candidate_procs }, ws),
            &split_oracle::hetero_trajectory(&cm, candidate_procs),
        );
    }
}

/// Every family at `n` stages and `p` processors.
fn check_size(n: usize, p: usize, seed: u64) {
    let mut ws = SolveWorkspace::new();
    for family in ScenarioFamily::ALL {
        let (app, pf) = ScenarioGenerator::new(family.params(n, p)).instance(seed, 0);
        check_instance(&format!("{family:?} n={n} p={p}"), &app, &pf, &mut ws);
    }
}

/// `p ∈ {n/2, n, 2n}` at every size up to 120 stages.
#[test]
fn sizes_up_to_120_match_the_oracle() {
    for (n, seeds) in [
        (3, 1..=3),
        (4, 1..=3),
        (5, 1..=3),
        (7, 1..=3),
        (16, 1..=1),
        (40, 2..=2),
    ] {
        for seed in seeds {
            for p in [(n / 2).max(1), n, 2 * n] {
                check_size(n, p, seed);
            }
        }
    }
}

#[test]
fn n120_matches_the_oracle() {
    for p in [60, 120, 240] {
        check_size(120, p, 3);
    }
}

// The largest size runs one test per processor count, so the three
// share the test threads.
#[test]
fn n240_p120_matches_the_oracle() {
    check_size(240, 120, 4);
}

#[test]
fn n240_p240_matches_the_oracle() {
    check_size(240, 240, 4);
}

#[test]
fn n240_p480_matches_the_oracle() {
    check_size(240, 480, 4);
}

/// Tie-heavy instances: small integer works with zero-work stages, equal
/// speeds, one constant communication volume, and link bandwidths of
/// one or two values (`b` or `2b`) for the heterogeneous platform.
fn arb_tied_instance() -> impl Strategy<Value = (Application, Vec<f64>, f64, Vec<u32>)> {
    (
        proptest::collection::vec(0u32..4, 3..24),
        0u32..3,
        1u32..3,
        2usize..14,
        1u32..4,
        proptest::collection::vec(1u32..3, 1..8),
    )
        .prop_filter_map(
            "the application must be valid",
            |(works, delta, speed, p, bandwidth, link_factors)| {
                let n = works.len();
                let works = works.into_iter().map(f64::from).collect();
                let app = Application::new(works, vec![f64::from(delta); n + 1]).ok()?;
                Some((
                    app,
                    vec![f64::from(speed); p],
                    f64::from(bandwidth),
                    link_factors,
                ))
            },
        )
}

/// Two values and one choice bit per slot.
type TwoValued = ((u32, u32), Vec<u32>);

/// Ratio-tie draws for H2b's bound: speeds and communication volumes
/// from two values each, one bit per processor or stage boundary.
/// Unequal speeds make the fastest processor beat the next (`k > 0` in
/// the bound), and two volumes make cut pairs differ in their transfers
/// while still tying often.
fn arb_two_valued() -> impl Strategy<Value = (TwoValued, TwoValued)> {
    (
        ((1u32..5, 1u32..5), proptest::collection::vec(0u32..2, 14)),
        ((0u32..4, 0u32..4), proptest::collection::vec(0u32..2, 25)),
    )
}

/// The first `len` slots, each set to the value its bit picks.
fn two_valued((values, bits): &TwoValued, len: usize) -> Vec<f64> {
    bits[..len]
        .iter()
        .map(|&bit| f64::from(if bit == 0 { values.0 } else { values.1 }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On a homogeneous and a two-valued-links heterogeneous platform
    /// alike, exact ties everywhere must resolve exactly as the oracle
    /// does; so must the same works with two-valued speeds and volumes.
    #[test]
    fn tie_heavy_instances_match_the_oracle(
        (app, speeds, b, link_factors) in arb_tied_instance(),
        (two_speeds, two_deltas) in arb_two_valued(),
    ) {
        let mut ws = SolveWorkspace::new();
        let p = speeds.len();
        let homogeneous = Platform::comm_homogeneous(speeds.clone(), b).expect("valid platform");
        check_instance("tied homogeneous", &app, &homogeneous, &mut ws);
        let links = (0..p)
            .map(|u| {
                (0..p)
                    .map(|v| b * f64::from(link_factors[(u * p + v) % link_factors.len()]))
                    .collect()
            })
            .collect();
        let tied_links = Platform::fully_heterogeneous(speeds, links, b).expect("valid platform");
        check_instance("tied links", &app, &tied_links, &mut ws);
        let n = app.n_stages();
        let two_valued_app = Application::new(
            app.works().to_vec(),
            two_valued(&two_deltas, n + 1),
        )
        .expect("valid application");
        let two_valued_pf = Platform::comm_homogeneous(two_valued(&two_speeds, p), b)
            .expect("valid platform");
        check_instance("two-valued", &two_valued_app, &two_valued_pf, &mut ws);
    }
}

/// The first H2b step of this instance meets a later candidate whose
/// ratio equals the incumbent's exactly (1.0), and that candidate wins
/// on its smaller local max. Its pair's ratio bound equals the incumbent
/// ratio up to rounding, so a bound that skipped ties, or rounded without
/// slack, would keep the earlier candidate.
#[test]
fn an_exact_ratio_tie_reaches_the_comparator() {
    let app = Application::new(
        vec![1.0, 1.0, 4.0, 2.0, 3.0, 3.0, 1.0],
        vec![3.0, 1.0, 1.0, 1.0, 3.0, 3.0, 1.0, 1.0],
    )
    .expect("valid application");
    let pf = Platform::comm_homogeneous(vec![2.0, 2.0, 4.0], 3.0).expect("valid platform");
    let cm = CostModel::new(&app, &pf);

    // The tie is there: in enumeration order, the winner is not the
    // first qualifying candidate with its ratio.
    let st = SplitState::new_in(&cm, SplitBuffers::default());
    let (old, lat) = (st.entries()[0].cycle, st.latency());
    let cands = split_oracle::all_splits3(&st, 0);
    let winner = split_oracle::select3_bi(old, lat, &cands).expect("an improving split");
    let ratio = |s: &Split3| (s.new_latency - lat) / (old - s.local_max());
    assert_eq!(ratio(&winner), 1.0);
    let first_tied = cands
        .iter()
        .find(|s| definitely_lt(s.local_max(), old) && ratio(s) == ratio(&winner))
        .expect("the winner itself qualifies");
    assert!((first_tied.cut1, first_tied.cut2) < (winner.cut1, winner.cut2));
    assert!(first_tied.local_max() > winner.local_max());

    let mut ws = SolveWorkspace::new();
    check_instance("exact ratio tie", &app, &pf, &mut ws);
}
