//! Property-based stress of the splitting engine: arbitrary admissible
//! split sequences must preserve every state invariant, and the cached
//! incremental quantities must track full recomputation exactly.

use pipeline_core::state::{SplitBuffers, SplitState};
use pipeline_model::prelude::*;
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = (Application, Platform)> {
    (
        proptest::collection::vec(0.1_f64..50.0, 2..20),
        proptest::collection::vec(0.0_f64..30.0, 2..21),
        proptest::collection::vec(1.0_f64..20.0, 2..12),
        1.0_f64..20.0,
    )
        .prop_filter_map(
            "delta length must be n+1",
            |(works, mut deltas, speeds, b)| {
                let n = works.len();
                deltas.resize(n + 1, 1.0);
                let app = Application::new(works, deltas).ok()?;
                let pf = Platform::comm_homogeneous(speeds, b).ok()?;
                Some((app, pf))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drive the engine with a pseudo-random mix of 2-way and 3-way
    /// splits on pseudo-random entries (not only the bottleneck): caches
    /// must agree with recomputation after every step.
    #[test]
    fn caches_track_recomputation_under_arbitrary_splits(
        (app, pf) in arb_instance(),
        choices in proptest::collection::vec((0u8..2, 0usize..64, 0usize..64), 1..12),
    ) {
        let cm = CostModel::new(&app, &pf);
        let mut st = SplitState::new_in(&cm, SplitBuffers::default());
        for (mode, pick, cut_pick) in choices {
            let j = pick % st.entries().len();
            match mode {
                0 => {
                    let cands = st.candidate_splits2(j);
                    if cands.is_empty() { continue; }
                    let split = cands[cut_pick % cands.len()];
                    st.apply_split2(j, split);
                }
                _ => {
                    let cands = st.candidate_splits3(j);
                    if cands.is_empty() { continue; }
                    let split = cands[cut_pick % cands.len()];
                    st.apply_split3(j, split);
                }
            }
            // Invariants after every mutation.
            let mapping = st.to_mapping(); // validates partition + procs
            let (p, l) = cm.evaluate(&mapping);
            prop_assert!((p - st.period()).abs() < 1e-9,
                "period cache drifted: {} vs {}", st.period(), p);
            prop_assert!((l - st.latency()).abs() < 1e-9,
                "latency cache drifted: {} vs {}", st.latency(), l);
            // Entries stay contiguous, cover all stages, distinct procs.
            let mut covered = 0;
            let mut seen = vec![false; pf.n_procs()];
            for e in st.entries() {
                prop_assert_eq!(e.start, covered);
                covered = e.end;
                prop_assert!(!seen[e.proc], "processor reuse");
                seen[e.proc] = true;
            }
            prop_assert_eq!(covered, app.n_stages());
        }
    }

    /// The candidate enumeration is complete and consistent: every
    /// 2-way candidate's predicted cycles/latency match a from-scratch
    /// evaluation of the corresponding mapping.
    #[test]
    fn candidate_predictions_match_reality(
        (app, pf) in arb_instance(),
        cand_pick in 0usize..256,
    ) {
        prop_assume!(app.n_stages() >= 2 && pf.n_procs() >= 2);
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        let cands = st.candidate_splits2(0);
        prop_assume!(!cands.is_empty());
        let c = cands[cand_pick % cands.len()];
        let mut st2 = st.clone();
        st2.apply_split2(0, c);
        let mapping = st2.to_mapping();
        let (p, l) = cm.evaluate(&mapping);
        prop_assert!((l - c.new_latency).abs() < 1e-9,
            "latency prediction off: {} vs {}", c.new_latency, l);
        prop_assert!((p - c.local_max().max(0.0)).abs() < 1e-9
            || p <= c.local_max() + 1e-9,
            "period cannot exceed the predicted local max on a 2-entry state");
    }

    /// Bottleneck selection returns the first maximal entry, and applying
    /// the engine's best mono split never increases the period.
    #[test]
    fn best_mono_split_is_monotone(
        (app, pf) in arb_instance(),
    ) {
        let cm = CostModel::new(&app, &pf);
        let mut st = SplitState::new_in(&cm, SplitBuffers::default());
        let mut prev = st.period();
        while let Some(s) = st.best_split2_mono(st.bottleneck(), None) {
            let j = st.bottleneck();
            st.apply_split2(j, s);
            let now = st.period();
            prop_assert!(now <= prev + 1e-9, "period increased {} -> {}", prev, now);
            prev = now;
        }
        // Exhaustion: no further improving split on the bottleneck.
        prop_assert!(st.best_split2_mono(st.bottleneck(), None).is_none());
    }
}
