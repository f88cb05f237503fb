//! Allocation-regression guard for the zero-allocation solve path.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! a [`SolveWorkspace`]'s buffers, then counts heap allocations during
//! (a) the steady-state split loops of a warm-buffer solve — two-way,
//! and the three-way loops of H2a and H2b — and (b) a re-queried
//! `PreparedInstance` bound lookup, and (c) the bottleneck kernel's
//! threshold probes on a warm scratch, and (d) appending a solved and a
//! co-scheduling report line into a warm buffer. All must be **zero** —
//! that is the contract the workspace/arena refactor establishes, and
//! any future `clone()`/`Vec::new()` sneaking into those paths fails
//! this test loudly. `format_report` allocates once, its returned
//! `String`.
//!
//! The strict zero assertions run in release builds (CI runs
//! `cargo test --release --test alloc_regression`): debug builds keep
//! the `debug_assert!` state invariants of `SplitState::apply_split2`
//! and `apply_split3`, which rebuild a mapping per split on purpose, so
//! there the test only checks the lookup path and that the loops run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pipeline_workflows::assign::{
    bottleneck_assignment, bottleneck_below, BottleneckScratch, CostMatrix,
};
use pipeline_workflows::core::service::PreparedInstance;
use pipeline_workflows::core::{HeuristicKind, SolveWorkspace, SplitBuffers, SplitState};
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_workflows::model::io::{
    format_report, push_report, WireCoschedReport, WireReport, WireSolved,
};
use pipeline_workflows::model::CostModel;

/// Counts allocations (alloc + realloc + alloc_zeroed) while enabled.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting on; returns how many allocations it
/// performed. The test binary contains a single `#[test]`, so no other
/// thread can pollute the counter.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// The zero-allocation contract of a steady-state split loop, enforced
/// in release builds only (see the module docs).
fn assert_no_loop_allocations(what: &str, allocs: u64) {
    if cfg!(debug_assertions) {
        // Debug builds re-validate the whole state per split
        // (debug_assert invariants), which allocates by design.
        eprintln!(
            "debug build: {what} split loop performed {allocs} allocations (invariant checks)"
        );
    } else {
        assert_eq!(
            allocs, 0,
            "steady-state {what} split loop allocated {allocs} times on warm buffers"
        );
    }
}

#[test]
fn warm_solve_paths_do_not_allocate() {
    let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 60, 30));
    let (app, pf) = gen.instance(7, 0);
    let cm = CostModel::new(&app, &pf);

    // --- (a) steady-state split loop -----------------------------------
    // Warm-up pass: grows every buffer to its high-water mark.
    let warm = {
        let mut st = SplitState::new_in(&cm, SplitBuffers::default());
        let mut splits = 0usize;
        while let Some(s) = st.best_split2_mono(st.bottleneck(), None) {
            let j = st.bottleneck();
            st.apply_split2(j, s);
            splits += 1;
        }
        assert!(splits > 10, "instance too small to exercise the loop");
        st.into_buffers()
    };
    // Steady-state pass on the recycled buffers: construction + every
    // split selection + application, allocation-free.
    let mut st = SplitState::new_in(&cm, warm);
    let mut splits = 0usize;
    let allocs = count_allocations(|| {
        while let Some(s) = st.best_split2_mono(st.bottleneck(), None) {
            let j = st.bottleneck();
            st.apply_split2(j, s);
            splits += 1;
        }
    });
    assert!(splits > 10, "steady-state loop must actually split");
    assert_no_loop_allocations("two-way", allocs);

    // The three-way loops of H2a and H2b on the same buffers, once to
    // warm them (H2b's row-bound buffer grows on its first call) and
    // once counted.
    let mut buffers = st.into_buffers();
    for (what, bi) in [("H2a three-way", false), ("H2b three-way", true)] {
        for counted in [false, true] {
            let mut st = SplitState::new_in(&cm, buffers);
            let mut splits = 0usize;
            let mut run = || loop {
                let j = st.bottleneck();
                let split = if bi {
                    st.best_split3_bi(j)
                } else {
                    st.best_split3_mono(j)
                };
                let Some(s) = split else { break };
                st.apply_split3(j, s);
                splits += 1;
            };
            if counted {
                let allocs = count_allocations(run);
                assert_no_loop_allocations(what, allocs);
            } else {
                run();
            }
            assert!(splits > 3, "{what}: the loop must actually split");
            buffers = st.into_buffers();
        }
    }

    // --- (b) re-queried PreparedInstance bound lookup ------------------
    let prepared = PreparedInstance::new(app.clone(), pf.clone());
    prepared.prepare_in(&mut SolveWorkspace::new());
    let traj = prepared
        .trajectory(HeuristicKind::SpMonoP)
        .expect("comm-homogeneous instance");
    let p0 = prepared.single_proc_period();
    let targets: Vec<f64> = (0..256).map(|i| p0 * (1.1 - 0.004 * i as f64)).collect();
    // Warm query (the lookup path itself holds no lazy state, but keep
    // the measurement strictly steady-state).
    black_box(traj.lookup(targets[0]));
    let allocs = count_allocations(|| {
        for &t in &targets {
            black_box(traj.lookup(t));
        }
    });
    // No debug_asserts on this path: zero in every profile.
    assert_eq!(
        allocs, 0,
        "re-queried bound lookups allocated {allocs} times"
    );

    // The lookups that were just counted agree with the allocating query.
    for &t in targets.iter().step_by(50) {
        let hit = traj.lookup(t);
        let full = traj.result_for_period(t);
        assert_eq!(hit.period.to_bits(), full.period.to_bits());
        assert_eq!(hit.latency.to_bits(), full.latency.to_bits());
        assert_eq!(hit.feasible, full.feasible);
    }

    // --- (c) warm bottleneck threshold probes --------------------------
    // A 14-interval × 16-processor cycle matrix, the shape of a min-period
    // leaf at p = 16.
    let costs = CostMatrix::from_fn(14, 16, |j, u| {
        3.0 + (j * 7 % 5) as f64 + 10.0 / (1 + u) as f64
    });
    let mut scratch = BottleneckScratch::default();
    let optimum = bottleneck_assignment(&costs, &mut scratch)
        .expect("finite costs always match")
        .objective;
    let bounds = [optimum * 0.9, optimum, optimum * 1.1, f64::INFINITY];
    let mut below = [false; 4];
    let allocs = count_allocations(|| {
        for (hit, &bound) in below.iter_mut().zip(&bounds) {
            *hit = black_box(bottleneck_below(&costs, bound, &mut scratch));
        }
    });
    assert_eq!(allocs, 0, "warm bottleneck probes allocated {allocs} times");
    assert_eq!(below, [false, false, true, true]);
    // The full search allocates only the returned assignment.
    let allocs = count_allocations(|| {
        black_box(bottleneck_assignment(&costs, &mut scratch));
    });
    assert_eq!(
        allocs, 1,
        "a warm bottleneck search allocated {allocs} times"
    );

    // --- (d) report lines appended into a warm buffer ------------------
    // What `serve` does per answer: clear the connection's buffer and
    // append the report. No debug_asserts allocate here either.
    let solved = WireReport::Solved(WireSolved {
        id: 7,
        solver: "h3".into(),
        period: 0.1 + 0.2,
        latency: 123.456,
        feasible: true,
        mapping: "0-30@4,30-60@1".into(),
        front: Some((1..40).map(|i| (1.0 / i as f64, 7.0 * i as f64)).collect()),
    });
    let cosched = WireReport::Cosched(WireCoschedReport {
        id: 8,
        objective: "max-min".into(),
        score: 0.75,
        tiebreak: 1e-9,
        feasible: true,
        partition: vec![vec![0, 2, 5], vec![1, 3], vec![4, 6, 7]],
        periods: vec![2.5, 1.0 / 3.0, 4.0],
        latencies: vec![10.25, 11.0, 1e300],
        slo_met: vec![true, false, true],
    });
    let mut buf = String::new();
    for report in [&solved, &cosched] {
        push_report(&mut buf, report);
        assert_eq!(buf, format_report(report));
        buf.clear();
    }
    for report in [&solved, &cosched] {
        let allocs = count_allocations(|| {
            buf.clear();
            push_report(&mut buf, black_box(report));
        });
        assert_eq!(
            allocs, 0,
            "appending {buf:?} to a warm buffer allocated {allocs} times"
        );
    }
    // `format_report` builds in a warm per-thread buffer (the checks
    // above warmed it) and copies the line out: one allocation, the
    // returned `String`, whatever the line's length.
    let plain = WireReport::Solved(WireSolved {
        id: 9,
        solver: "h2b".into(),
        period: 0.1 + 0.2,
        latency: 123.456,
        feasible: true,
        mapping: "0-3@4,3-7@1,7-9@6,9-12@2,12-16@0".into(),
        front: None,
    });
    for report in [&plain, &solved, &cosched] {
        let mut line = String::new();
        let allocs = count_allocations(|| line = format_report(black_box(report)));
        assert_eq!(allocs, 1, "formatting {line:?} allocated {allocs} times");
        assert_eq!(line.capacity(), line.len());
    }
}
