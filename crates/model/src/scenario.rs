//! The scenario zoo: a registry of random instance families.
//!
//! The paper's experiments E1–E4 ([`crate::generator`]) sample uniform
//! random workloads on Communication Homogeneous platforms. The stream
//! workflow literature motivates far more diverse workloads — heavy-tailed
//! processor speeds, clustered two-tier platforms, communication-dominant
//! pipelines on heterogeneous links, power-law stage weights, and
//! adversarial chains-to-chains instances. This module registers them all
//! behind one uniform interface:
//!
//! * [`ScenarioFamily`] — the registry: every family has a **stable
//!   label** (`"e1"` … `"adversarial"`), a one-line description of what
//!   it stresses, and its parameterization at a given size;
//! * [`ScenarioParams`] — a family at a size; each family samples with
//!   its own fixed constants (ranges, tail exponents, bandwidths),
//!   pinned bit for bit by `tests/bench_identity.rs`;
//! * [`ScenarioGenerator`] — seeded, deterministic instance generation:
//!   `instance(seed, i)` always regenerates the same application/platform
//!   pair, and distinct `(family, seed, i)` triples are decorrelated by
//!   per-family stream salts.
//!
//! The four paper families delegate to [`InstanceGenerator`], so
//! `ScenarioFamily::E2` reproduces the legacy E2 stream *bit for bit* —
//! experiment seeds stay valid across the refactor (tested in
//! `tests/scenario_props.rs`).
//!
//! | label | platform links | what it stresses |
//! |----------------|---------------|---------------------------------------------|
//! | `e1`…`e4` | homogeneous | the paper's Section 5 regimes |
//! | `heavy-tail` | homogeneous | few very fast processors (Pareto/Zipf speeds)|
//! | `two-tier` | heterogeneous | clustered platforms, slow inter-cluster links|
//! | `comm-dominant`| heterogeneous | transfers dwarf computation, per-link b/w |
//! | `power-law` | homogeneous | a few dominant stages (Pareto stage weights) |
//! | `adversarial` | homogeneous | NMWTS-style knife-edge partitioning ties |

use crate::application::Application;
use crate::delta::InstanceDelta;
use crate::generator::{
    sample_uniform, stream_seed, ExperimentKind, InstanceGenerator, InstanceParams,
};
use crate::platform::Platform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stable identifier of a registered scenario family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    /// Paper E1: balanced comms/comp, constant communication volumes.
    E1,
    /// Paper E2: balanced comms/comp, heterogeneous communication volumes.
    E2,
    /// Paper E3: computation-dominated.
    E3,
    /// Paper E4: communication-dominated (homogeneous links).
    E4,
    /// Heavy-tailed (bounded-Pareto/Zipf) processor speeds: most
    /// processors are slow, a few are very fast.
    HeavyTail,
    /// Clustered two-tier platform: a small fast cluster and a large slow
    /// one, fast intra-cluster links, slow inter-cluster links
    /// (heterogeneous [`crate::LinkModel`]).
    TwoTier,
    /// Communication-dominant pipeline on fully heterogeneous links:
    /// transfer volumes dwarf computation.
    CommDominant,
    /// Power-law (bounded-Pareto) stage weights: a few dominant stages.
    PowerLawWork,
    /// Degenerate NMWTS-style instances: identical unit-speed processors,
    /// zero communication, power-of-two stage works — period minimization
    /// collapses to chains-to-chains partitioning with knife-edge ties.
    Adversarial,
}

impl ScenarioFamily {
    /// Every registered family, paper families first.
    pub const ALL: [ScenarioFamily; 9] = [
        ScenarioFamily::E1,
        ScenarioFamily::E2,
        ScenarioFamily::E3,
        ScenarioFamily::E4,
        ScenarioFamily::HeavyTail,
        ScenarioFamily::TwoTier,
        ScenarioFamily::CommDominant,
        ScenarioFamily::PowerLawWork,
        ScenarioFamily::Adversarial,
    ];

    /// Stable machine-readable label (CLI/CSV/CI key).
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioFamily::E1 => "e1",
            ScenarioFamily::E2 => "e2",
            ScenarioFamily::E3 => "e3",
            ScenarioFamily::E4 => "e4",
            ScenarioFamily::HeavyTail => "heavy-tail",
            ScenarioFamily::TwoTier => "two-tier",
            ScenarioFamily::CommDominant => "comm-dominant",
            ScenarioFamily::PowerLawWork => "power-law",
            ScenarioFamily::Adversarial => "adversarial",
        }
    }

    /// Looks a family up by its stable label (case-insensitive).
    pub fn from_label(label: &str) -> Option<ScenarioFamily> {
        let needle = label.to_ascii_lowercase();
        ScenarioFamily::ALL
            .into_iter()
            .find(|f| f.label() == needle)
    }

    /// One line on what the family stresses.
    pub fn stresses(&self) -> &'static str {
        match self {
            ScenarioFamily::E1 => "balanced comms/comp, constant volumes (paper E1)",
            ScenarioFamily::E2 => "balanced comms/comp, mixed volumes (paper E2)",
            ScenarioFamily::E3 => "computation-dominated stages (paper E3)",
            ScenarioFamily::E4 => "communication-dominated stages (paper E4)",
            ScenarioFamily::HeavyTail => "a few very fast processors among many slow ones",
            ScenarioFamily::TwoTier => "clustered platforms with slow inter-cluster links",
            ScenarioFamily::CommDominant => "transfers dwarfing computation on per-link bandwidths",
            ScenarioFamily::PowerLawWork => "a few dominant stages in an otherwise light pipeline",
            ScenarioFamily::Adversarial => "knife-edge chains-to-chains partitioning ties",
        }
    }

    /// True when every instance of the family lives on a Communication
    /// Homogeneous platform — the class the paper's six heuristics (and
    /// the exact solver) are defined for. The other families need the
    /// §7 heterogeneous extension.
    pub fn comm_homogeneous(&self) -> bool {
        !matches!(self, ScenarioFamily::TwoTier | ScenarioFamily::CommDominant)
    }

    /// The family's parameterization at a given size.
    pub fn params(&self, n_stages: usize, n_procs: usize) -> ScenarioParams {
        ScenarioParams {
            n_stages,
            n_procs,
            family: *self,
        }
    }

    /// The paper regime a paper family delegates to, `None` for the zoo's
    /// own families.
    fn paper_kind(&self) -> Option<ExperimentKind> {
        match self {
            ScenarioFamily::E1 => Some(ExperimentKind::E1),
            ScenarioFamily::E2 => Some(ExperimentKind::E2),
            ScenarioFamily::E3 => Some(ExperimentKind::E3),
            ScenarioFamily::E4 => Some(ExperimentKind::E4),
            _ => None,
        }
    }

    /// Per-family stream salt, mixed into the seed so the same seed draws
    /// decorrelated streams across families. Paper families use salt 0:
    /// their streams must stay bit-identical to the legacy
    /// [`InstanceGenerator`].
    fn salt(&self) -> u64 {
        match self {
            ScenarioFamily::E1 | ScenarioFamily::E2 | ScenarioFamily::E3 | ScenarioFamily::E4 => 0,
            ScenarioFamily::HeavyTail => 0x6865_6176_795F_7461, // "heavy_ta"
            ScenarioFamily::TwoTier => 0x7477_6F5F_7469_6572,   // "two_tier"
            ScenarioFamily::CommDominant => 0x636F_6D6D_5F64_6F6D, // "comm_dom"
            ScenarioFamily::PowerLawWork => 0x706F_7765_725F_6C61, // "power_la"
            ScenarioFamily::Adversarial => 0x6164_7665_7273_6172, // "adversar"
        }
    }
}

/// The registered family of a paper regime.
impl From<ExperimentKind> for ScenarioFamily {
    fn from(kind: ExperimentKind) -> Self {
        match kind {
            ExperimentKind::E1 => ScenarioFamily::E1,
            ExperimentKind::E2 => ScenarioFamily::E2,
            ExperimentKind::E3 => ScenarioFamily::E3,
            ExperimentKind::E4 => ScenarioFamily::E4,
        }
    }
}

impl std::fmt::Display for ScenarioFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Uniform stage-work and communication-volume range (the paper's E2
/// range) of the heavy-tail, two-tier and tenant families, and the volume
/// range of the power-law family.
const WEIGHT_RANGE: (f64, f64) = (1.0, 20.0);
/// Link bandwidth of the homogeneous-link families (the paper's `b`).
const BANDWIDTH: f64 = 10.0;
/// Integer-uniform processor-speed range (the paper's 1–20).
const SPEEDS: (u32, u32) = (1, 20);

/// Heavy-tail: Pareto tail exponent of the speed draw (smaller is a
/// heavier tail) and its support.
const HEAVY_TAIL_ALPHA: f64 = 1.2;
const HEAVY_TAIL_SPEEDS: (f64, f64) = (1.0, 100.0);

/// Two-tier (and the het-sharing tenant platform): the fast cluster's share of the processors (rounded,
/// clamped to `[1, p]`), the two clusters' integer speed ranges, and the
/// bandwidths inside a cluster and between the clusters (the latter also
/// to the outside world).
const TWO_TIER_FAST_FRACTION: f64 = 0.25;
const TWO_TIER_FAST_SPEEDS: (u32, u32) = (15, 30);
const TWO_TIER_SLOW_SPEEDS: (u32, u32) = (1, 5);
const TWO_TIER_INTRA_BANDWIDTH: f64 = 100.0;
const TWO_TIER_INTER_BANDWIDTH: f64 = 5.0;

/// Comm-dominant: large volumes, small works, and the range each
/// unordered processor pair (and the I/O link) draws its bandwidth from.
const COMM_DOMINANT_DELTAS: (f64, f64) = (50.0, 200.0);
const COMM_DOMINANT_WORKS: (f64, f64) = (0.01, 5.0);
const COMM_DOMINANT_BANDWIDTHS: (f64, f64) = (1.0, 10.0);

/// Power-law: Pareto tail exponent of the stage-work draw and its
/// support.
const POWER_LAW_ALPHA: f64 = 1.1;
const POWER_LAW_WORKS: (f64, f64) = (1.0, 1000.0);

/// Adversarial: stage works are `2^e` with `e` integer-uniform in
/// `[0, ADVERSARIAL_MAX_EXPONENT]`.
const ADVERSARIAL_MAX_EXPONENT: u32 = 6;

/// Parameterization of one scenario instance family: its size. Each
/// family samples with its own fixed constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioParams {
    /// Number of pipeline stages `n`.
    pub n_stages: usize,
    /// Number of processors `p`.
    pub n_procs: usize,
    /// The registered family.
    pub family: ScenarioFamily,
}

impl ScenarioParams {
    /// The registry's parameterization of `family` at the given size —
    /// shorthand for [`ScenarioFamily::params`].
    pub fn preset(family: ScenarioFamily, n_stages: usize, n_procs: usize) -> Self {
        family.params(n_stages, n_procs)
    }
}

/// Seeded generator of application/platform pairs for any registered
/// family. The scenario-zoo counterpart of [`InstanceGenerator`] — for
/// the paper families it *is* the legacy generator (delegation, identical
/// streams).
#[derive(Debug, Clone)]
pub struct ScenarioGenerator {
    params: ScenarioParams,
}

impl ScenarioGenerator {
    /// Creates a generator.
    pub fn new(params: ScenarioParams) -> Self {
        assert!(params.n_stages > 0, "need at least one stage");
        assert!(params.n_procs > 0, "need at least one processor");
        ScenarioGenerator { params }
    }

    /// Generates the `index`-th instance of the family under `seed`.
    /// Deterministic: the same `(params, seed, index)` always regenerates
    /// the same pair, and each index is its own decorrelated RNG stream —
    /// which is what lets the sharded sweep engine generate instances
    /// inside worker shards in any order.
    pub fn instance(&self, seed: u64, index: u64) -> (Application, Platform) {
        let p = &self.params;
        match p.family.paper_kind() {
            // Delegate so paper-family streams stay bit-identical to the
            // legacy generator.
            Some(kind) => {
                InstanceGenerator::new(InstanceParams::paper(kind, p.n_stages, p.n_procs))
                    .instance(seed, index)
            }
            None => {
                let mut rng = StdRng::seed_from_u64(stream_seed(seed ^ p.family.salt(), index));
                self.sample(&mut rng)
            }
        }
    }

    /// Generates the first `count` instances of the family under `seed`.
    pub fn batch(&self, seed: u64, count: usize) -> Vec<(Application, Platform)> {
        (0..count as u64).map(|i| self.instance(seed, i)).collect()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Application, Platform) {
        let n = self.params.n_stages;
        let p = self.params.n_procs;
        match self.params.family {
            ScenarioFamily::E1 | ScenarioFamily::E2 | ScenarioFamily::E3 | ScenarioFamily::E4 => {
                unreachable!("paper families delegate")
            }
            ScenarioFamily::HeavyTail => {
                let works = sample_vec(rng, n, WEIGHT_RANGE);
                let deltas = sample_vec(rng, n + 1, WEIGHT_RANGE);
                let (lo, hi) = HEAVY_TAIL_SPEEDS;
                let speeds: Vec<f64> = (0..p)
                    .map(|_| bounded_pareto(rng, HEAVY_TAIL_ALPHA, lo, hi))
                    .collect();
                let app = Application::new(works, deltas).expect("valid application");
                let pf = Platform::comm_homogeneous(speeds, BANDWIDTH).expect("valid platform");
                (app, pf)
            }
            ScenarioFamily::TwoTier => {
                let works = sample_vec(rng, n, WEIGHT_RANGE);
                let deltas = sample_vec(rng, n + 1, WEIGHT_RANGE);
                let n_fast = ((p as f64 * TWO_TIER_FAST_FRACTION).round() as usize).clamp(1, p);
                let app = Application::new(works, deltas).expect("valid application");
                let pf = two_tier_platform(rng, p, n_fast);
                (app, pf)
            }
            ScenarioFamily::CommDominant => {
                let works = sample_vec(rng, n, COMM_DOMINANT_WORKS);
                let deltas = sample_vec(rng, n + 1, COMM_DOMINANT_DELTAS);
                let speeds = sample_speeds(rng, p);
                // Symmetric link draws: one bandwidth per unordered pair,
                // drawn in row-major upper-triangle order.
                let (b_lo, b_hi) = COMM_DOMINANT_BANDWIDTHS;
                let upper: Vec<f64> = (0..p * p.saturating_sub(1) / 2)
                    .map(|_| sample_uniform(rng, b_lo, b_hi))
                    .collect();
                let pair = |u: usize, v: usize| {
                    let (a, b) = if u < v { (u, v) } else { (v, u) };
                    // Row offset Σ_{k<a}(p-1-k) = a(2p-a-1)/2, then column.
                    a * (2 * p - a - 1) / 2 + (b - a - 1)
                };
                let matrix: Vec<Vec<f64>> = (0..p)
                    .map(|u| {
                        (0..p)
                            .map(|v| {
                                // Diagonal entries are unused by the model.
                                if u == v {
                                    b_hi
                                } else {
                                    upper[pair(u, v)]
                                }
                            })
                            .collect()
                    })
                    .collect();
                let io = sample_uniform(rng, b_lo, b_hi);
                let app = Application::new(works, deltas).expect("valid application");
                let pf = Platform::fully_heterogeneous(speeds, matrix, io).expect("valid platform");
                (app, pf)
            }
            ScenarioFamily::PowerLawWork => {
                let (lo, hi) = POWER_LAW_WORKS;
                let works: Vec<f64> = (0..n)
                    .map(|_| bounded_pareto(rng, POWER_LAW_ALPHA, lo, hi))
                    .collect();
                let deltas = sample_vec(rng, n + 1, WEIGHT_RANGE);
                let speeds = sample_speeds(rng, p);
                let app = Application::new(works, deltas).expect("valid application");
                let pf = Platform::comm_homogeneous(speeds, BANDWIDTH).expect("valid platform");
                (app, pf)
            }
            ScenarioFamily::Adversarial => {
                let works: Vec<f64> = (0..n)
                    .map(|_| f64::from(1u32 << rng.random_range(0..=ADVERSARIAL_MAX_EXPONENT)))
                    .collect();
                let deltas = vec![0.0; n + 1];
                let speeds = vec![1.0; p];
                let app = Application::new(works, deltas).expect("valid application");
                // Volumes are zero, so the bandwidth only has to be valid.
                let pf = Platform::comm_homogeneous(speeds, BANDWIDTH).expect("valid platform");
                (app, pf)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Drifting scenarios: an instance plus a deterministic update stream.
//
// The static zoo above answers "what does the platform look like?"; the
// drift registry answers "how does it *change* while the service is
// running?". Each drift family pairs a base instance (a paper-E2 draw,
// so the full heuristic/exact stack applies) with a seeded stream of
// `InstanceDelta`s that stays valid when applied in order — every prefix
// of the stream is a valid instance. The session layer's incremental
// re-solve (`PreparedInstance::apply`) replays these streams, checked
// against scratch preparation in `tests/delta_differential.rs`.
// ---------------------------------------------------------------------------

/// Stable identifier of a registered drift family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriftFamily {
    /// One processor's speed drifts multiplicatively (thermal envelopes,
    /// co-tenants, DVFS): every update rescales the *slowest* base
    /// processor by a factor in `[0.5, 2]`.
    SpeedDrift,
    /// One stage's computational weight drifts per release: every update
    /// rescales a random stage's work by a factor in `[0.5, 2]`.
    WeightDrift,
    /// Processors churn: arrivals (random speed) alternate with
    /// departures of the most recently arrived processor, so the
    /// platform never shrinks below its base size.
    Churn,
}

impl DriftFamily {
    /// Every registered drift family.
    pub const ALL: [DriftFamily; 3] = [
        DriftFamily::SpeedDrift,
        DriftFamily::WeightDrift,
        DriftFamily::Churn,
    ];

    /// Stable machine-readable label (CLI/CSV/CI key).
    pub fn label(&self) -> &'static str {
        match self {
            DriftFamily::SpeedDrift => "speed-drift",
            DriftFamily::WeightDrift => "weight-drift",
            DriftFamily::Churn => "churn",
        }
    }

    /// Looks a drift family up by its stable label (case-insensitive).
    pub fn from_label(label: &str) -> Option<DriftFamily> {
        let needle = label.to_ascii_lowercase();
        DriftFamily::ALL.into_iter().find(|f| f.label() == needle)
    }

    /// One line on what the stream stresses.
    pub fn stresses(&self) -> &'static str {
        match self {
            DriftFamily::SpeedDrift => "single-processor speed drift under load",
            DriftFamily::WeightDrift => "per-release stage-weight changes",
            DriftFamily::Churn => "processors joining and leaving the platform",
        }
    }

    /// Per-family stream salt (same role as [`ScenarioFamily::salt`]).
    fn salt(&self) -> u64 {
        match self {
            DriftFamily::SpeedDrift => 0x7370_645F_6472_6674, // "spd_drft"
            DriftFamily::WeightDrift => 0x7767_745F_6472_6674, // "wgt_drft"
            DriftFamily::Churn => 0x6368_7572_6E5F_5F5F,      // "churn___"
        }
    }
}

impl std::fmt::Display for DriftFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Seeded generator of one drifting scenario: a base instance and the
/// update stream that mutates it. `initial(seed)` and `updates(seed, k)`
/// are deterministic, and applying `updates` in order to `initial` keeps
/// every intermediate instance valid.
#[derive(Debug, Clone)]
pub struct DriftGenerator {
    family: DriftFamily,
    n_stages: usize,
    n_procs: usize,
}

impl DriftGenerator {
    /// A drift generator at the given base size.
    pub fn new(family: DriftFamily, n_stages: usize, n_procs: usize) -> Self {
        assert!(n_stages > 0, "need at least one stage");
        assert!(n_procs > 0, "need at least one processor");
        DriftGenerator {
            family,
            n_stages,
            n_procs,
        }
    }

    /// The drift family being generated.
    pub fn family(&self) -> DriftFamily {
        self.family
    }

    /// The base instance the stream starts from: the paper-E2 draw at
    /// this size (comm-homogeneous, so every solver applies).
    pub fn initial(&self, seed: u64) -> (Application, Platform) {
        ScenarioGenerator::new(ScenarioFamily::E2.params(self.n_stages, self.n_procs))
            .instance(seed, 0)
    }

    /// The first `count` updates of the stream under `seed`. Applied in
    /// order to [`DriftGenerator::initial`], every prefix yields a valid
    /// instance (speeds and works are clamped to `[1e-3, 1e6]`;
    /// departures only remove processors the stream itself added).
    pub fn updates(&self, seed: u64, count: usize) -> Vec<InstanceDelta> {
        let (app, pf) = self.initial(seed);
        let mut rng = StdRng::seed_from_u64(stream_seed(seed ^ self.family.salt(), 0));
        let mut out = Vec::with_capacity(count);
        match self.family {
            DriftFamily::SpeedDrift => {
                // The slowest base processor: last in the deterministic
                // speed-descending order.
                let proc = *pf.procs_by_speed_desc().last().expect("non-empty");
                let mut speed = pf.speed(proc);
                for _ in 0..count {
                    speed = (speed * drift_factor(&mut rng)).clamp(1e-3, 1e6);
                    out.push(InstanceDelta::ProcSpeed { proc, speed });
                }
            }
            DriftFamily::WeightDrift => {
                let mut works = app.works().to_vec();
                for _ in 0..count {
                    let stage = rng.random_range(0..works.len());
                    works[stage] = (works[stage] * drift_factor(&mut rng)).clamp(1e-3, 1e6);
                    out.push(InstanceDelta::StageWeight {
                        stage,
                        work: works[stage],
                    });
                }
            }
            DriftFamily::Churn => {
                let mut n_procs = pf.n_procs();
                for i in 0..count {
                    if i % 2 == 0 {
                        let speed = rng.random_range(1..=20u32) as f64;
                        out.push(InstanceDelta::ProcArrival { speed });
                        n_procs += 1;
                    } else {
                        n_procs -= 1;
                        out.push(InstanceDelta::ProcDeparture { proc: n_procs });
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Tenant scenarios: K pipelines sharing one platform.
//
// The static zoo generates one pipeline per draw; the tenant registry
// generates *sets* of pipelines competing for one shared platform — the
// input of the multi-tenant co-scheduler. A separate registry (not part
// of `ScenarioFamily::ALL`) so single-pipeline consumers — the kernel
// identity suite above all — never see tenant draws.
// ---------------------------------------------------------------------------

/// Stable identifier of a registered tenant family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantFamily {
    /// Mixed-size pipelines in the paper's E2 workload regime on a
    /// paper-style platform: tenant `i`'s stage count is the base count
    /// scaled by `1.0 / 0.5 / 1.5` cyclically, all weights 1, no SLOs.
    MixedPaper,
    /// Same platform class, but tenant `i` carries weight `2^i` and a
    /// latency SLO at 1.5× its own full-platform optimal latency — the
    /// co-scheduler must trade fairness against feasibility.
    SkewedWeights,
    /// Mixed-size pipelines sharing a clustered two-tier heterogeneous
    /// platform (fast cluster, slow cluster, slow inter-cluster links):
    /// partitions decide who gets the fast tier.
    HetSharing,
}

impl TenantFamily {
    /// Every registered tenant family.
    pub const ALL: [TenantFamily; 3] = [
        TenantFamily::MixedPaper,
        TenantFamily::SkewedWeights,
        TenantFamily::HetSharing,
    ];

    /// Stable machine-readable label (CLI/CSV/CI key).
    pub fn label(&self) -> &'static str {
        match self {
            TenantFamily::MixedPaper => "mixed-paper",
            TenantFamily::SkewedWeights => "skewed-weights",
            TenantFamily::HetSharing => "het-sharing",
        }
    }

    /// Looks a tenant family up by its stable label (case-insensitive).
    pub fn from_label(label: &str) -> Option<TenantFamily> {
        let needle = label.to_ascii_lowercase();
        TenantFamily::ALL.into_iter().find(|f| f.label() == needle)
    }

    /// One line on what the family stresses.
    pub fn stresses(&self) -> &'static str {
        match self {
            TenantFamily::MixedPaper => "mixed tenant sizes on a paper-style shared platform",
            TenantFamily::SkewedWeights => "skewed weights with per-tenant latency SLOs",
            TenantFamily::HetSharing => "contention for the fast tier of a clustered platform",
        }
    }

    /// True when every scenario of the family lives on a Communication
    /// Homogeneous platform.
    pub fn comm_homogeneous(&self) -> bool {
        !matches!(self, TenantFamily::HetSharing)
    }

    /// Per-family stream salt (same role as [`ScenarioFamily::salt`]).
    fn salt(&self) -> u64 {
        match self {
            TenantFamily::MixedPaper => 0x6D69_7864_5F74_656E, // "mixd_ten"
            TenantFamily::SkewedWeights => 0x736B_6577_5F77_6774, // "skew_wgt"
            TenantFamily::HetSharing => 0x6865_745F_7368_6172, // "het_shar"
        }
    }
}

impl std::fmt::Display for TenantFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One tenant of a generated scenario: its pipeline, weight and optional
/// latency SLO. The model-layer mirror of the co-scheduler's tenant
/// entry (the solver-facing type lives above the model crate).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The tenant's pipeline.
    pub app: Application,
    /// Scheduling weight (finite, strictly positive).
    pub weight: f64,
    /// Latency SLO, when the tenant carries one.
    pub slo: Option<f64>,
}

/// One generated tenant scenario: K tenants and the platform they share.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantScenario {
    /// The shared platform.
    pub platform: Platform,
    /// The tenants, in enrollment order.
    pub tenants: Vec<TenantSpec>,
}

/// Seeded generator of tenant scenarios. `scenario(seed, i)` is
/// deterministic and per-family salted, mirroring [`ScenarioGenerator`].
#[derive(Debug, Clone)]
pub struct TenantScenarioGenerator {
    family: TenantFamily,
    n_tenants: usize,
    n_base_stages: usize,
    n_procs: usize,
}

impl TenantScenarioGenerator {
    /// A generator of `n_tenants`-way scenarios whose pipelines have
    /// about `n_base_stages` stages (tenant sizes mix around the base)
    /// on a shared `n_procs`-processor platform.
    pub fn new(
        family: TenantFamily,
        n_tenants: usize,
        n_base_stages: usize,
        n_procs: usize,
    ) -> Self {
        assert!(n_tenants > 0, "need at least one tenant");
        assert!(n_base_stages >= 2, "need at least two base stages");
        assert!(n_procs > 0, "need at least one processor");
        TenantScenarioGenerator {
            family,
            n_tenants,
            n_base_stages,
            n_procs,
        }
    }

    /// The tenant family being generated.
    pub fn family(&self) -> TenantFamily {
        self.family
    }

    /// Generates the `index`-th scenario of the family under `seed`.
    /// Deterministic: the same `(family, sizes, seed, index)` always
    /// regenerates the same scenario.
    pub fn scenario(&self, seed: u64, index: u64) -> TenantScenario {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed ^ self.family.salt(), index));
        let p = self.n_procs;
        let platform = match self.family {
            TenantFamily::MixedPaper | TenantFamily::SkewedWeights => {
                let speeds = sample_speeds(&mut rng, p);
                Platform::comm_homogeneous(speeds, BANDWIDTH).expect("valid platform")
            }
            TenantFamily::HetSharing => two_tier_platform(&mut rng, p, (p / 4).max(1)),
        };
        let tenants = (0..self.n_tenants)
            .map(|i| {
                let scale = [1.0, 0.5, 1.5][i % 3];
                let n = ((self.n_base_stages as f64 * scale).round() as usize).max(2);
                let works = sample_vec(&mut rng, n, WEIGHT_RANGE);
                let deltas = sample_vec(&mut rng, n + 1, WEIGHT_RANGE);
                let app = Application::new(works, deltas).expect("valid application");
                let (weight, slo) = match self.family {
                    TenantFamily::MixedPaper | TenantFamily::HetSharing => (1.0, None),
                    TenantFamily::SkewedWeights => {
                        // An SLO at 1.5× the tenant's own full-platform
                        // optimum: tight enough to bind once the tenant
                        // only owns a share of the processors.
                        let l_opt = crate::cost::CostModel::new(&app, &platform).optimal_latency();
                        ((1u64 << i) as f64, Some(1.5 * l_opt))
                    }
                };
                TenantSpec { app, weight, slo }
            })
            .collect();
        TenantScenario { platform, tenants }
    }

    /// The first `count` scenarios under `seed`.
    pub fn batch(&self, seed: u64, count: usize) -> Vec<TenantScenario> {
        (0..count as u64).map(|i| self.scenario(seed, i)).collect()
    }
}

/// One multiplicative drift step in `[1/2, 2]`, log-symmetric so the
/// walk is unbiased: `E[log factor] = 0`, and a drifting quantity
/// wanders around its base value instead of compounding upward the way
/// a factor uniform in `[0.5, 2]` (mean 1.25) would.
fn drift_factor<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    (2.0f64).powf(sample_uniform(rng, -1.0, 1.0))
}

/// A clustered platform of `p` processors whose first `n_fast` form the
/// fast cluster: integer speeds uniform in the tier's range, fast links
/// inside a cluster, slow ones between the clusters and to the outside
/// world.
fn two_tier_platform<R: Rng + ?Sized>(rng: &mut R, p: usize, n_fast: usize) -> Platform {
    let speeds: Vec<f64> = (0..p)
        .map(|u| {
            let (lo, hi) = if u < n_fast {
                TWO_TIER_FAST_SPEEDS
            } else {
                TWO_TIER_SLOW_SPEEDS
            };
            rng.random_range(lo..=hi) as f64
        })
        .collect();
    let matrix: Vec<Vec<f64>> = (0..p)
        .map(|u| {
            (0..p)
                .map(|v| {
                    if (u < n_fast) == (v < n_fast) {
                        TWO_TIER_INTRA_BANDWIDTH
                    } else {
                        TWO_TIER_INTER_BANDWIDTH
                    }
                })
                .collect()
        })
        .collect();
    Platform::fully_heterogeneous(speeds, matrix, TWO_TIER_INTER_BANDWIDTH).expect("valid platform")
}

/// `p` integer speeds uniform in [`SPEEDS`].
fn sample_speeds<R: Rng + ?Sized>(rng: &mut R, p: usize) -> Vec<f64> {
    (0..p)
        .map(|_| rng.random_range(SPEEDS.0..=SPEEDS.1) as f64)
        .collect()
}

fn sample_vec<R: Rng + ?Sized>(rng: &mut R, count: usize, range: (f64, f64)) -> Vec<f64> {
    (0..count)
        .map(|_| sample_uniform(rng, range.0, range.1))
        .collect()
}

/// One draw from the bounded Pareto distribution with tail exponent
/// `alpha` on support `[lo, hi]` (inverse-CDF sampling). Heavier tails
/// (smaller `alpha`) push more mass toward `hi`-sized rare events while
/// most draws stay near `lo` — the standard model for Zipf-like speed and
/// work distributions.
fn bounded_pareto<R: Rng + ?Sized>(rng: &mut R, alpha: f64, lo: f64, hi: f64) -> f64 {
    assert!(
        alpha > 0.0 && lo > 0.0 && lo <= hi,
        "invalid Pareto support"
    );
    if lo == hi {
        return lo;
    }
    let u: f64 = rng.random_range(0.0..1.0);
    let l = lo.powf(-alpha);
    let h = hi.powf(-alpha);
    (l - u * (l - h)).powf(-1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_labels_are_stable_and_unique() {
        let labels: Vec<&str> = ScenarioFamily::ALL.iter().map(|f| f.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ScenarioFamily::ALL.len(), "duplicate labels");
        for family in ScenarioFamily::ALL {
            assert_eq!(ScenarioFamily::from_label(family.label()), Some(family));
            assert_eq!(
                ScenarioFamily::from_label(&family.label().to_ascii_uppercase()),
                Some(family)
            );
            assert_eq!(family.to_string(), family.label());
            assert!(!family.stresses().is_empty());
        }
        assert_eq!(ScenarioFamily::from_label("no-such-family"), None);
    }

    #[test]
    fn every_family_generates_valid_sized_instances() {
        for family in ScenarioFamily::ALL {
            let gen = ScenarioGenerator::new(family.params(9, 7));
            let (app, pf) = gen.instance(1, 0);
            assert_eq!(app.n_stages(), 9, "{family}");
            assert_eq!(pf.n_procs(), 7, "{family}");
            assert_eq!(
                pf.is_comm_homogeneous(),
                family.comm_homogeneous(),
                "{family}: platform class mismatch"
            );
        }
    }

    #[test]
    fn same_seed_same_instance_distinct_indices_differ() {
        for family in ScenarioFamily::ALL {
            let gen = ScenarioGenerator::new(family.params(10, 6));
            let (a1, p1) = gen.instance(42, 3);
            let (a2, p2) = gen.instance(42, 3);
            assert_eq!(a1, a2, "{family}");
            assert_eq!(p1, p2, "{family}");
            let (b, _) = gen.instance(42, 4);
            assert_ne!(a1, b, "{family}: consecutive indices collided");
        }
    }

    #[test]
    fn family_salts_decorrelate_streams() {
        // Same (seed, index), different non-paper families: the raw draws
        // must differ (works are sampled first in every family).
        let ht = ScenarioGenerator::new(ScenarioFamily::HeavyTail.params(10, 6));
        let tt = ScenarioGenerator::new(ScenarioFamily::TwoTier.params(10, 6));
        let (a1, _) = ht.instance(7, 0);
        let (a2, _) = tt.instance(7, 0);
        assert_ne!(a1.works(), a2.works());
    }

    #[test]
    fn bounded_pareto_respects_support() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let v = bounded_pareto(&mut rng, 1.2, 2.0, 50.0);
            assert!((2.0..=50.0).contains(&v), "draw {v} escaped the support");
        }
        assert_eq!(bounded_pareto(&mut rng, 1.0, 3.0, 3.0), 3.0);
    }

    #[test]
    fn adversarial_instances_are_degenerate() {
        let gen = ScenarioGenerator::new(ScenarioFamily::Adversarial.params(12, 5));
        let (app, pf) = gen.instance(9, 1);
        assert!(app.deltas().iter().all(|&d| d == 0.0));
        assert!(pf.speeds().iter().all(|&s| s == 1.0));
        for &w in app.works() {
            let e = w.log2();
            assert_eq!(e.fract(), 0.0, "work {w} is not a power of two");
            assert!((0.0..=6.0).contains(&e));
        }
    }

    #[test]
    fn two_tier_platform_has_two_bandwidth_classes() {
        let gen = ScenarioGenerator::new(ScenarioFamily::TwoTier.params(6, 8));
        let (_, pf) = gen.instance(3, 0);
        let (intra, inter) = (TWO_TIER_INTRA_BANDWIDTH, TWO_TIER_INTER_BANDWIDTH);
        let mut seen_intra = false;
        let mut seen_inter = false;
        for u in 0..8 {
            for v in 0..8 {
                if u == v {
                    continue;
                }
                let b = pf.bandwidth(u, v);
                assert!(b == intra || b == inter);
                seen_intra |= b == intra;
                seen_inter |= b == inter;
            }
        }
        assert!(seen_intra && seen_inter, "both link classes must appear");
        assert_eq!(pf.io_bandwidth_of(0), inter);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_scenario_panics() {
        let _ = ScenarioGenerator::new(ScenarioFamily::HeavyTail.params(0, 4));
    }

    #[test]
    fn drift_labels_are_stable_and_unique() {
        let labels: Vec<&str> = DriftFamily::ALL.iter().map(|f| f.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), DriftFamily::ALL.len(), "duplicate labels");
        for family in DriftFamily::ALL {
            assert_eq!(DriftFamily::from_label(family.label()), Some(family));
            assert_eq!(family.to_string(), family.label());
            assert!(!family.stresses().is_empty());
        }
        assert_eq!(DriftFamily::from_label("no-such-drift"), None);
    }

    #[test]
    fn drift_streams_are_deterministic_and_stay_valid() {
        for family in DriftFamily::ALL {
            let gen = DriftGenerator::new(family, 12, 6);
            let (app0, pf0) = gen.initial(11);
            assert_eq!(gen.initial(11), (app0.clone(), pf0.clone()), "{family}");
            let stream = gen.updates(11, 24);
            assert_eq!(stream, gen.updates(11, 24), "{family}: stream drifted");
            assert_eq!(stream.len(), 24);
            // Every prefix applies cleanly.
            let (mut app, mut pf) = (app0, pf0);
            for (i, delta) in stream.iter().enumerate() {
                let (a, p) = delta
                    .apply_to(&app, &pf)
                    .unwrap_or_else(|e| panic!("{family} update #{i} invalid: {e}"));
                app = a;
                pf = p;
            }
            assert_eq!(app.n_stages(), 12, "{family}");
            assert!(pf.n_procs() >= 6, "{family}");
        }
    }

    #[test]
    fn speed_drift_touches_exactly_one_processor() {
        let gen = DriftGenerator::new(DriftFamily::SpeedDrift, 10, 5);
        let (_, pf) = gen.initial(3);
        let slowest = *pf.procs_by_speed_desc().last().unwrap();
        for delta in gen.updates(3, 16) {
            match delta {
                InstanceDelta::ProcSpeed { proc, speed } => {
                    assert_eq!(proc, slowest);
                    assert!((1e-3..=1e6).contains(&speed));
                }
                other => panic!("unexpected delta {other:?}"),
            }
        }
    }

    #[test]
    fn tenant_labels_are_stable_and_unique() {
        let labels: Vec<&str> = TenantFamily::ALL.iter().map(|f| f.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), TenantFamily::ALL.len(), "duplicate labels");
        for family in TenantFamily::ALL {
            assert_eq!(TenantFamily::from_label(family.label()), Some(family));
            assert_eq!(family.to_string(), family.label());
            assert!(!family.stresses().is_empty());
        }
        assert_eq!(TenantFamily::from_label("no-such-tenancy"), None);
        // Tenant families are their own registry, not zoo families.
        for family in TenantFamily::ALL {
            assert_eq!(ScenarioFamily::from_label(family.label()), None);
        }
    }

    #[test]
    fn tenant_scenarios_are_deterministic_with_mixed_sizes() {
        for family in TenantFamily::ALL {
            let gen = TenantScenarioGenerator::new(family, 3, 6, 5);
            let s1 = gen.scenario(42, 2);
            assert_eq!(s1, gen.scenario(42, 2), "{family}: stream drifted");
            assert_ne!(s1, gen.scenario(42, 3), "{family}: indices collided");
            assert_eq!(s1.tenants.len(), 3, "{family}");
            assert_eq!(s1.platform.n_procs(), 5, "{family}");
            assert_eq!(
                s1.platform.is_comm_homogeneous(),
                family.comm_homogeneous(),
                "{family}: platform class mismatch"
            );
            // Base 6 scaled by 1.0/0.5/1.5: stage counts 6, 3, 9.
            let sizes: Vec<usize> = s1.tenants.iter().map(|t| t.app.n_stages()).collect();
            assert_eq!(sizes, vec![6, 3, 9], "{family}");
            for t in &s1.tenants {
                assert!(t.weight.is_finite() && t.weight > 0.0, "{family}");
                if let Some(slo) = t.slo {
                    assert!(slo.is_finite() && slo > 0.0, "{family}");
                }
            }
        }
    }

    #[test]
    fn skewed_weights_carry_slos_and_doubling_weights() {
        let gen = TenantScenarioGenerator::new(TenantFamily::SkewedWeights, 3, 5, 4);
        let s = gen.scenario(7, 0);
        let weights: Vec<f64> = s.tenants.iter().map(|t| t.weight).collect();
        assert_eq!(weights, vec![1.0, 2.0, 4.0]);
        for t in &s.tenants {
            let l_opt = crate::cost::CostModel::new(&t.app, &s.platform).optimal_latency();
            assert_eq!(t.slo, Some(1.5 * l_opt));
        }
        // The unweighted families carry neither.
        let plain = TenantScenarioGenerator::new(TenantFamily::MixedPaper, 2, 5, 4).scenario(7, 0);
        assert!(plain
            .tenants
            .iter()
            .all(|t| t.weight == 1.0 && t.slo.is_none()));
    }

    #[test]
    fn churn_never_shrinks_below_the_base_platform() {
        let gen = DriftGenerator::new(DriftFamily::Churn, 8, 4);
        let mut n = 4usize;
        for delta in gen.updates(5, 11) {
            match delta {
                InstanceDelta::ProcArrival { .. } => n += 1,
                InstanceDelta::ProcDeparture { proc } => {
                    assert_eq!(proc, n - 1, "departures remove the newest processor");
                    n -= 1;
                }
                other => panic!("unexpected delta {other:?}"),
            }
            assert!(n >= 4);
        }
    }
}
