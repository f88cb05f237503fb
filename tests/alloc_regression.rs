//! Allocation-regression guard for the zero-allocation solve path.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! a [`SolveWorkspace`]'s buffers, then counts heap allocations during
//! (a) the steady-state split loops of a warm-buffer solve — two-way,
//! and the three-way loops of H2a and H2b — and (b) a re-queried
//! `PreparedInstance` bound lookup. All must be **zero** —
//! that is the contract the workspace/arena refactor establishes, and
//! any future `clone()`/`Vec::new()` sneaking into those paths fails
//! this test loudly.
//!
//! The strict zero assertions run in release builds (CI runs
//! `cargo test --release --test alloc_regression`): debug builds keep
//! the `debug_assert!` state invariants of `SplitState::apply_split2`
//! and `apply_split3`, which rebuild a mapping per split on purpose, so
//! there the test only checks the lookup path and that the loops run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pipeline_workflows::core::service::PreparedInstance;
use pipeline_workflows::core::{HeuristicKind, SolveWorkspace, SplitBuffers, SplitState};
use pipeline_workflows::model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
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
}
