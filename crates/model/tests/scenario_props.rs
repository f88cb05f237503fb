//! Property tests for the scenario registry: seeded determinism,
//! range respect, `batch` ≡ individual draws, and legacy-stream
//! parity — mirroring and extending the `generator.rs` unit tests for
//! every registered family.

use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator};
use proptest::prelude::*;

#[test]
fn batch_matches_individual_instances_for_every_family() {
    for family in ScenarioFamily::ALL {
        let gen = ScenarioGenerator::new(family.params(7, 6));
        let batch = gen.batch(99, 4);
        assert_eq!(batch.len(), 4);
        for (i, (app, pf)) in batch.iter().enumerate() {
            let (a, p) = gen.instance(99, i as u64);
            assert_eq!(*app, a, "{family} #{i}");
            assert_eq!(*pf, p, "{family} #{i}");
        }
    }
}

#[test]
fn paper_families_reproduce_the_legacy_generator_streams() {
    for (family, kind) in [
        (ScenarioFamily::E1, ExperimentKind::E1),
        (ScenarioFamily::E2, ExperimentKind::E2),
        (ScenarioFamily::E3, ExperimentKind::E3),
        (ScenarioFamily::E4, ExperimentKind::E4),
    ] {
        let zoo = ScenarioGenerator::new(family.params(12, 9));
        let legacy = InstanceGenerator::new(InstanceParams::paper(kind, 12, 9));
        for i in 0..5 {
            let (a1, p1) = zoo.instance(2007, i);
            let (a2, p2) = legacy.instance(2007, i);
            assert_eq!(a1, a2, "{family}: application stream diverged");
            assert_eq!(p1, p2, "{family}: platform stream diverged");
        }
    }
}

#[test]
fn heavy_tail_respects_its_configured_ranges() {
    let gen = ScenarioGenerator::new(ScenarioFamily::HeavyTail.params(30, 40));
    for idx in 0..5 {
        let (app, pf) = gen.instance(3, idx);
        for &s in pf.speeds() {
            assert!(
                (1.0..=100.0).contains(&s),
                "speed {s} outside Pareto support"
            );
        }
        for &w in app.works() {
            assert!((1.0..=20.0).contains(&w));
        }
        for &d in app.deltas() {
            assert!((1.0..=20.0).contains(&d));
        }
    }
}

#[test]
fn two_tier_speeds_respect_their_tier_ranges() {
    let gen = ScenarioGenerator::new(ScenarioFamily::TwoTier.params(6, 12));
    // A quarter of the processors are fast.
    let n_fast = 3;
    for idx in 0..5 {
        let (_, pf) = gen.instance(4, idx);
        for (u, &s) in pf.speeds().iter().enumerate() {
            let (lo, hi) = if u < n_fast { (15, 30) } else { (1, 5) };
            assert!(
                s >= lo as f64 && s <= hi as f64,
                "P{u} speed {s} outside its tier range"
            );
            assert_eq!(s.fract(), 0.0, "tier speeds are integers");
        }
    }
}

#[test]
fn comm_dominant_respects_its_configured_ranges() {
    let gen = ScenarioGenerator::new(ScenarioFamily::CommDominant.params(10, 7));
    for idx in 0..5 {
        let (app, pf) = gen.instance(5, idx);
        for &d in app.deltas() {
            assert!((50.0..=200.0).contains(&d));
        }
        for &w in app.works() {
            assert!((0.01..=5.0).contains(&w));
        }
        for u in 0..7 {
            for v in 0..7 {
                if u == v {
                    continue;
                }
                let b = pf.bandwidth(u, v);
                assert!((1.0..=10.0).contains(&b));
                assert_eq!(b, pf.bandwidth(v, u), "links must be symmetric");
            }
        }
        let io = pf.io_bandwidth_of(0);
        assert!((1.0..=10.0).contains(&io));
    }
}

#[test]
fn power_law_works_respect_their_support() {
    let gen = ScenarioGenerator::new(ScenarioFamily::PowerLawWork.params(40, 6));
    for idx in 0..5 {
        let (app, pf) = gen.instance(6, idx);
        for &w in app.works() {
            assert!(
                (1.0..=1000.0).contains(&w),
                "work {w} outside Pareto support"
            );
        }
        for &d in app.deltas() {
            assert!((1.0..=20.0).contains(&d));
        }
        for &s in pf.speeds() {
            assert!((1.0..=20.0).contains(&s));
            assert_eq!(s.fract(), 0.0, "speeds are integers");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Determinism and index-distinctness for every family under random
    /// seeds: `instance(seed, i)` is reproducible and consecutive indices
    /// draw different applications.
    #[test]
    fn prop_seeded_determinism_and_distinct_indices(
        seed in 0u64..100_000,
        family_idx in 0usize..ScenarioFamily::ALL.len(),
    ) {
        let family = ScenarioFamily::ALL[family_idx];
        let gen = ScenarioGenerator::new(family.params(10, 6));
        let (a1, p1) = gen.instance(seed, 0);
        let (a2, p2) = gen.instance(seed, 0);
        prop_assert_eq!(&a1, &a2);
        prop_assert_eq!(&p1, &p2);
        let (b, _) = gen.instance(seed, 1);
        prop_assert!(a1 != b, "indices 0 and 1 collided for {}", family);
    }

    /// Every family builds valid model objects at random sizes (the
    /// constructors validate shapes and numeric ranges).
    #[test]
    fn prop_every_family_builds_valid_instances(
        seed in 0u64..10_000,
        n in 1usize..16,
        p in 1usize..10,
        family_idx in 0usize..ScenarioFamily::ALL.len(),
    ) {
        let family = ScenarioFamily::ALL[family_idx];
        let gen = ScenarioGenerator::new(family.params(n, p));
        let (app, pf) = gen.instance(seed, 2);
        prop_assert_eq!(app.n_stages(), n);
        prop_assert_eq!(pf.n_procs(), p);
        prop_assert!(app.total_work() >= 0.0);
        prop_assert!(pf.max_speed() > 0.0);
    }
}
