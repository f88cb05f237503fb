//! Span-level cross-validation: the analytically constructed synchronous
//! schedule and the greedy discrete-event executor must agree *activity
//! by activity* when the source is throttled at the schedule period.

use pipeline_core::SolveWorkspace;
use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::prelude::*;
use pipeline_sim::schedule::build_sync_schedule;
use pipeline_sim::{InputPolicy, PipelineSim, SimConfig, TraceKind};
use proptest::prelude::*;

fn spans_by_proc(
    trace: &[pipeline_sim::TraceEvent],
    proc: usize,
    kind: TraceKind,
) -> Vec<(usize, f64, f64)> {
    let mut v: Vec<(usize, f64, f64)> = trace
        .iter()
        .filter(|e| e.proc == proc && e.kind == kind)
        .map(|e| (e.dataset, e.start, e.end))
        .collect();
    v.sort_by_key(|e| e.0);
    v
}

#[test]
fn greedy_trace_matches_synchronous_schedule_exactly() {
    for seed in 0..6 {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 12, 8));
        let (app, pf) = gen.instance(seed, 0);
        let cm = CostModel::new(&app, &pf);
        let res = pipeline_core::sp_mono_p_in(
            &cm,
            0.55 * cm.single_proc_period(),
            &mut SolveWorkspace::new(),
        );
        let mapping = res.mapping;
        let t = cm.period(&mapping);
        let n_data = 12;

        let sched = build_sync_schedule(&cm, &mapping, t);
        sched.validate(n_data);
        let out = PipelineSim::new(
            &cm,
            &mapping,
            SimConfig {
                input: InputPolicy::Periodic(t),
                record_trace: true,
            },
        )
        .run(n_data);

        for (j, &proc) in mapping.procs().iter().enumerate() {
            for (kind, which) in [
                (TraceKind::Receive, 0usize),
                (TraceKind::Compute, 1),
                (TraceKind::Send, 2),
            ] {
                let observed = spans_by_proc(&out.trace, proc, kind);
                assert_eq!(observed.len(), n_data, "seed {seed} P{proc} {kind:?}");
                for &(d, start, end) in &observed {
                    let expected = sched.spans(j, d)[which];
                    assert!(
                        (start - expected.0).abs() < 1e-9 && (end - expected.1).abs() < 1e-9,
                        "seed {seed}: P{proc} {kind:?} data {d}: \
                         greedy [{start}, {end}] vs schedule {expected:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn schedule_latency_invariant_under_period_slack() {
    // Looser synchronous periods shift completions but never the
    // per-data-set latency.
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 10, 8));
    let (app, pf) = gen.instance(3, 0);
    let cm = CostModel::new(&app, &pf);
    let res = pipeline_core::sp_mono_p_in(
        &cm,
        0.6 * cm.single_proc_period(),
        &mut SolveWorkspace::new(),
    );
    let t = cm.period(&res.mapping);
    let base = build_sync_schedule(&cm, &res.mapping, t);
    for slack in [1.0, 1.1, 1.7, 3.0] {
        let s = build_sync_schedule(&cm, &res.mapping, t * slack);
        s.validate(8);
        assert!((s.latency - base.latency).abs() < 1e-12);
        // Completion spacing equals the configured period.
        assert!((s.completion(3) - s.completion(2) - t * slack).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The synchronous schedule is valid for every random instance,
    /// heuristic mapping and admissible period.
    #[test]
    fn prop_sync_schedule_always_valid(
        seed in 0u64..10_000,
        kind_idx in 0usize..4,
        slack in 1.0_f64..2.0,
    ) {
        let kind = ExperimentKind::ALL[kind_idx];
        let gen = InstanceGenerator::new(InstanceParams::paper(kind, 9, 6));
        let (app, pf) = gen.instance(seed, 0);
        let cm = CostModel::new(&app, &pf);
        let res = pipeline_core::sp_mono_p_in(&cm, 0.0, &mut SolveWorkspace::new());
        let t = cm.period(&res.mapping) * slack;
        let sched = build_sync_schedule(&cm, &res.mapping, t);
        sched.validate(10);
        prop_assert!((sched.latency - res.latency).abs() < 1e-9);
    }
}
