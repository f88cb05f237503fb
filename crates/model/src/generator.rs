//! Random instances matching the experimental setting of the paper's
//! Section 5.1.
//!
//! Common to every experiment: link bandwidth `b = 10`, processor speeds
//! drawn as integers uniform in `[1, 20]`, and four workload regimes:
//!
//! | Experiment | δ (communication)      | w (computation) |
//! |------------|------------------------|-----------------|
//! | E1         | constant 10            | U[1, 20]        |
//! | E2         | U[1, 100]              | U[1, 20]        |
//! | E3         | U[1, 20]               | U[10, 1000]     |
//! | E4         | U[1, 20]               | U[0.01, 10]     |
//!
//! The paper says values are "randomly chosen between" the bounds; only the
//! processor speeds are stated to be integers, so `δ` and `w` are drawn
//! from continuous uniforms here (a substitution: the paper gives no
//! distribution beyond the bounds).
//!
//! Everything is seeded: the same [`InstanceParams`] plus the same seed
//! always regenerate the same application/platform pair, which the
//! experiment harness relies on for reproducible figures.

use crate::application::Application;
use crate::platform::Platform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four workload regimes of the paper's Section 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentKind {
    /// Balanced communications/computations, homogeneous communications.
    E1,
    /// Balanced communications/computations, heterogeneous communications.
    E2,
    /// Computation-dominated ("large computations").
    E3,
    /// Communication-dominated ("small computations").
    E4,
}

impl ExperimentKind {
    /// All four experiments, in paper order.
    pub const ALL: [ExperimentKind; 4] = [
        ExperimentKind::E1,
        ExperimentKind::E2,
        ExperimentKind::E3,
        ExperimentKind::E4,
    ];

    /// The paper's name of the experiment.
    pub fn label(&self) -> &'static str {
        match self {
            ExperimentKind::E1 => "E1 balanced, homogeneous comms",
            ExperimentKind::E2 => "E2 balanced, heterogeneous comms",
            ExperimentKind::E3 => "E3 large computations",
            ExperimentKind::E4 => "E4 small computations",
        }
    }

    /// Communication-volume distribution `(lo, hi)`; `lo == hi` encodes the
    /// constant distribution of E1.
    pub fn delta_range(&self) -> (f64, f64) {
        match self {
            ExperimentKind::E1 => (10.0, 10.0),
            ExperimentKind::E2 => (1.0, 100.0),
            ExperimentKind::E3 | ExperimentKind::E4 => (1.0, 20.0),
        }
    }

    /// Computation-volume distribution `(lo, hi)`.
    pub fn work_range(&self) -> (f64, f64) {
        match self {
            ExperimentKind::E1 | ExperimentKind::E2 => (1.0, 20.0),
            ExperimentKind::E3 => (10.0, 1000.0),
            ExperimentKind::E4 => (0.01, 10.0),
        }
    }
}

impl std::fmt::Display for ExperimentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentKind::E1 => write!(f, "E1"),
            ExperimentKind::E2 => write!(f, "E2"),
            ExperimentKind::E3 => write!(f, "E3"),
            ExperimentKind::E4 => write!(f, "E4"),
        }
    }
}

/// Full parameterization of one random instance family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceParams {
    /// Number of pipeline stages `n`.
    pub n_stages: usize,
    /// Number of processors `p`.
    pub n_procs: usize,
    /// Workload regime.
    pub kind: ExperimentKind,
    /// Link bandwidth `b` (the paper fixes 10).
    pub bandwidth: f64,
    /// Speed distribution: integers uniform in `[lo, hi]` (paper: 1..20).
    pub speed_range: (u32, u32),
}

impl InstanceParams {
    /// The paper's setting for a given experiment/size: `b = 10`, speeds
    /// integer-uniform in `[1, 20]`.
    pub fn paper(kind: ExperimentKind, n_stages: usize, n_procs: usize) -> Self {
        InstanceParams {
            n_stages,
            n_procs,
            kind,
            bandwidth: 10.0,
            speed_range: (1, 20),
        }
    }
}

/// Seeded generator of application/platform pairs.
#[derive(Debug, Clone)]
pub struct InstanceGenerator {
    params: InstanceParams,
}

impl InstanceGenerator {
    /// Creates a generator for one instance family.
    pub fn new(params: InstanceParams) -> Self {
        assert!(params.n_stages > 0, "need at least one stage");
        assert!(params.n_procs > 0, "need at least one processor");
        assert!(params.speed_range.0 >= 1, "speeds must be positive");
        assert!(
            params.speed_range.0 <= params.speed_range.1,
            "empty speed range"
        );
        InstanceGenerator { params }
    }

    /// The generator's parameters.
    pub fn params(&self) -> &InstanceParams {
        &self.params
    }

    /// Generates the `index`-th instance of the family under `seed`.
    ///
    /// Each `(seed, index)` pair deterministically identifies one
    /// application/platform pair; the experiment harness uses indices
    /// `0..50` to reproduce the paper's "average over 50 random pairs".
    pub fn instance(&self, seed: u64, index: u64) -> (Application, Platform) {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, index));
        self.instance_with_rng(&mut rng)
    }

    /// Generates an instance from a caller-provided RNG.
    pub fn instance_with_rng<R: Rng + ?Sized>(&self, rng: &mut R) -> (Application, Platform) {
        let p = &self.params;
        let (dlo, dhi) = p.kind.delta_range();
        let (wlo, whi) = p.kind.work_range();
        let works: Vec<f64> = (0..p.n_stages)
            .map(|_| sample_uniform(rng, wlo, whi))
            .collect();
        let deltas: Vec<f64> = (0..=p.n_stages)
            .map(|_| sample_uniform(rng, dlo, dhi))
            .collect();
        let speeds: Vec<f64> = (0..p.n_procs)
            .map(|_| rng.random_range(p.speed_range.0..=p.speed_range.1) as f64)
            .collect();
        let app = Application::new(works, deltas).expect("generated apps are valid");
        let platform =
            Platform::comm_homogeneous(speeds, p.bandwidth).expect("generated platforms are valid");
        (app, platform)
    }

    /// Generates the first `count` instances of the family under `seed`.
    pub fn batch(&self, seed: u64, count: usize) -> Vec<(Application, Platform)> {
        (0..count as u64).map(|i| self.instance(seed, i)).collect()
    }
}

/// Derives the RNG seed of stream `(seed, index)` — splitmix-style mixing
/// keeps distinct `(seed, index)` pairs decorrelated even for consecutive
/// indices. Shared with the scenario-zoo generators
/// ([`crate::scenario`]), which additionally salt `seed` per family.
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB)
}

/// Uniform draw from `[lo, hi)`, with `lo == hi` encoding the constant
/// distribution. Shared with the scenario-zoo generators so a change here
/// cannot silently diverge their streams from the paper families'.
pub(crate) fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    if lo == hi {
        lo
    } else {
        rng.random_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed_and_index() {
        let g = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 10, 10));
        let (a1, p1) = g.instance(42, 3);
        let (a2, p2) = g.instance(42, 3);
        assert_eq!(a1, a2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_indices_differ() {
        let g = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 10, 10));
        let (a1, _) = g.instance(42, 0);
        let (a2, _) = g.instance(42, 1);
        assert_ne!(a1, a2);
    }

    #[test]
    fn e1_communications_are_constant_ten() {
        let g = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 20, 10));
        let (app, _) = g.instance(7, 0);
        assert!(app.deltas().iter().all(|&d| d == 10.0));
        assert!(app.works().iter().all(|&w| (1.0..20.0).contains(&w)));
    }

    #[test]
    fn ranges_respected_in_all_experiments() {
        for kind in ExperimentKind::ALL {
            let g = InstanceGenerator::new(InstanceParams::paper(kind, 40, 100));
            let (dlo, dhi) = kind.delta_range();
            let (wlo, whi) = kind.work_range();
            for idx in 0..5 {
                let (app, pf) = g.instance(11, idx);
                assert_eq!(app.n_stages(), 40);
                assert_eq!(pf.n_procs(), 100);
                for &d in app.deltas() {
                    assert!(
                        d >= dlo && d <= dhi,
                        "{kind}: δ = {d} outside [{dlo},{dhi}]"
                    );
                }
                for &w in app.works() {
                    assert!(
                        w >= wlo && w <= whi,
                        "{kind}: w = {w} outside [{wlo},{whi}]"
                    );
                }
                for &s in pf.speeds() {
                    assert!((1.0..=20.0).contains(&s));
                    assert_eq!(s.fract(), 0.0, "speeds are integers");
                }
            }
        }
    }

    #[test]
    fn batch_matches_individual_instances() {
        let g = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E3, 5, 10));
        let batch = g.batch(99, 4);
        assert_eq!(batch.len(), 4);
        for (i, (app, pf)) in batch.iter().enumerate() {
            let (a, p) = g.instance(99, i as u64);
            assert_eq!(*app, a);
            assert_eq!(*pf, p);
        }
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(ExperimentKind::E3.to_string(), "E3");
        assert!(ExperimentKind::E4.label().contains("small"));
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_family_panics() {
        let mut p = InstanceParams::paper(ExperimentKind::E1, 1, 1);
        p.n_stages = 0;
        let _ = InstanceGenerator::new(p);
    }
}
