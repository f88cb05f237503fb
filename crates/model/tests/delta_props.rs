//! Property tests for instance deltas: the `update` wire verb
//! round-trips for every delta kind under random parameters, applied
//! deltas always yield valid instances, and reconstructing deltas
//! restore the original instance bit-for-bit.

use pipeline_model::io::{format_update, parse_update_at, WireUpdate};
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator};
use pipeline_model::InstanceDelta;
use proptest::prelude::*;

/// Builds one delta of the given kind from raw draws. `a`/`b` are index
/// draws, `x` a positive magnitude; out-of-range indices are exercised
/// on purpose — `apply_to` must reject them structurally.
fn delta_from(kind: usize, a: usize, b: usize, x: f64) -> InstanceDelta {
    match kind {
        0 => InstanceDelta::ProcSpeed { proc: a, speed: x },
        1 => InstanceDelta::ProcArrival { speed: x },
        2 => InstanceDelta::ProcDeparture { proc: a },
        3 => InstanceDelta::Bandwidth { bandwidth: x },
        4 => InstanceDelta::LinkBandwidth {
            from: a,
            to: b,
            bandwidth: x,
        },
        _ => InstanceDelta::StageWeight { stage: a, work: x },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `format_update` → `parse_update_at` is the identity for every delta
    /// kind with arbitrary (round-trippable) numeric payloads.
    #[test]
    fn prop_update_wire_round_trips(
        id in 0u64..1_000_000,
        kind in 0usize..6,
        a in 0usize..32,
        b in 0usize..32,
        x in 1e-6f64..1e6,
    ) {
        let upd = WireUpdate { id, delta: delta_from(kind, a, b, x) };
        let line = format_update(&upd);
        prop_assert_eq!(parse_update_at(&line, 0).expect("round trip"), upd, "{}", line);
    }

    /// Applying a random delta to a random zoo instance either fails with
    /// a structured error or yields a fully valid instance (the
    /// constructors re-validate everything).
    #[test]
    fn prop_applied_deltas_yield_valid_instances(
        seed in 0u64..10_000,
        family_idx in 0usize..ScenarioFamily::ALL.len(),
        kind in 0usize..6,
        a in 0usize..12,
        b in 0usize..12,
        x in 0.01f64..100.0,
    ) {
        let family = ScenarioFamily::ALL[family_idx];
        let gen = ScenarioGenerator::new(family.params(8, 5));
        let (app, pf) = gen.instance(seed, 0);
        if let Ok((app2, pf2)) = delta_from(kind, a, b, x).apply_to(&app, &pf) {
            prop_assert!(app2.n_stages() >= 1);
            prop_assert!(pf2.n_procs() >= 1);
            prop_assert!(pf2.max_speed() > 0.0);
            // The speed order is rebuilt, not inherited.
            let order = pf2.procs_by_speed_desc();
            for w in order.windows(2) {
                prop_assert!(pf2.speed(w[0]) >= pf2.speed(w[1]));
            }
        }
    }

    /// A delta followed by its reconstructing inverse restores the
    /// original instance exactly (bitwise, via `PartialEq` on the model
    /// types) — the property `PreparedInstance::apply` relies on for its
    /// byte-identity guarantee.
    #[test]
    fn prop_reconstructing_deltas_restore_the_instance(
        seed in 0u64..10_000,
        family_idx in 0usize..ScenarioFamily::ALL.len(),
        proc in 0usize..5,
        stage in 0usize..8,
        x in 0.01f64..100.0,
    ) {
        let family = ScenarioFamily::ALL[family_idx];
        let gen = ScenarioGenerator::new(family.params(8, 5));
        let (app, pf) = gen.instance(seed, 1);

        let old_speed = pf.speed(proc);
        let (app1, pf1) = InstanceDelta::ProcSpeed { proc, speed: x }
            .apply_to(&app, &pf).expect("in range");
        let (app2, pf2) = InstanceDelta::ProcSpeed { proc, speed: old_speed }
            .apply_to(&app1, &pf1).expect("in range");
        prop_assert_eq!(&app2, &app);
        prop_assert_eq!(&pf2, &pf);

        let old_work = app.work(stage);
        let (app3, pf3) = InstanceDelta::StageWeight { stage, work: x }
            .apply_to(&app, &pf).expect("in range");
        let (app4, pf4) = InstanceDelta::StageWeight { stage, work: old_work }
            .apply_to(&app3, &pf3).expect("in range");
        prop_assert_eq!(&app4, &app);
        prop_assert_eq!(&pf4, &pf);

        // Arrival then departure of the new processor is the identity.
        let (app5, pf5) = InstanceDelta::ProcArrival { speed: x }
            .apply_to(&app, &pf).expect("valid");
        let (app6, pf6) = InstanceDelta::ProcDeparture { proc: pf.n_procs() }
            .apply_to(&app5, &pf5).expect("in range");
        prop_assert_eq!(&app6, &app);
        prop_assert_eq!(&pf6, &pf);
    }
}
