//! Parallel-engine correctness: the sharded sweep and the engine
//! primitives must be **bit identical** to the serial run
//! (`threads == 1`) for a fixed seed, regardless of thread count.
//! Batched solves through the engine are checked by the crate's
//! `service::tests` unit tests.

use pipeline_experiments::shard::{sharded_map_indices_with, ShardOptions};
use pipeline_experiments::sweep::{run_scenario, FamilyResult};
use pipeline_model::scenario::ScenarioFamily;

/// Flattens every f64 a sweep result carries, in a fixed order.
fn fingerprint(fam: &FamilyResult) -> Vec<u64> {
    let mut bits = vec![
        fam.stats.mean_p_init.to_bits(),
        fam.stats.mean_l_opt.to_bits(),
        fam.stats.mean_best_floor.to_bits(),
        fam.stats.n_instances as u64,
    ];
    for g in fam.period_grid.iter().chain(&fam.latency_grid) {
        bits.push(g.to_bits());
    }
    for s in &fam.series {
        bits.push(s.points.len() as u64);
        for p in &s.points {
            bits.extend([
                p.target.to_bits(),
                p.mean_period.to_bits(),
                p.mean_latency.to_bits(),
                p.n_feasible as u64,
                p.n_total as u64,
            ]);
        }
    }
    bits
}

#[test]
fn sharded_sweep_is_bit_identical_to_serial_for_any_thread_count() {
    // One homogeneous paper family, one new homogeneous family, one
    // heterogeneous family — 16 instances span 8 default-size chunks, so
    // the threads=8 run genuinely schedules 8 workers.
    for family in [
        ScenarioFamily::E2,
        ScenarioFamily::PowerLawWork,
        ScenarioFamily::TwoTier,
    ] {
        let params = family.params(7, 6);
        let serial = fingerprint(&run_scenario(&params, 4242, 16, 6, 1));
        for threads in [2, 8] {
            let parallel = fingerprint(&run_scenario(&params, 4242, 16, 6, threads));
            assert_eq!(
                serial, parallel,
                "{family}: sweep output diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn engine_primitives_are_thread_count_invariant() {
    // Index map: order preserved exactly.
    let reference: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
    for threads in [1usize, 2, 8, 32] {
        let opts = ShardOptions {
            threads,
            chunk_size: 8,
        };
        let got = sharded_map_indices_with(100, opts, || (), |(), i| (i as f64).sqrt());
        assert_eq!(got, reference);
    }
}
