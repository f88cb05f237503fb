//! Seeded corpora: every workload replays a fixed list of operations
//! generated from the `--seed` argument alone. The same seed always
//! yields byte-identical corpora (see [`ServeCorpus::fingerprint`] and
//! friends, pinned by `tests/corpus.rs`).
//!
//! Every corpus has a fixed composition: how many operations of each
//! kind, at which sizes, is the same for every seed. The seed draws the
//! instances, the bounds and the replay order. Runs on different seeds
//! therefore differ only in instance content, which the corpus averages
//! over many instances, and not in what the corpus is made of.
//!
//! Every corpus holds at least [`MIN_OPS`] operations, so its p99 has at
//! least ten operations beyond it.

use pipeline_core::{
    HeuristicKind, Objective, PreparedInstance, SolveRequest, SolveWorkspace, Strategy,
};
use pipeline_experiments::chaos::ChaosPlanKind;
use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
use pipeline_model::io::format_instance;
use pipeline_model::prelude::*;
use pipeline_model::scenario::{ScenarioFamily, ScenarioGenerator, ScenarioParams};

/// Smallest corpus size of any workload.
pub const MIN_OPS: usize = 1000;

/// splitmix64: a tiny self-contained generator, so corpora never drift
/// when a library RNG changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one corpus stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

// ---------------------------------------------------------------------
// serve-warm / serve-tcp
// ---------------------------------------------------------------------

/// Stages and processors of the zoo instances the service answers for.
pub const ZOO_STAGES: usize = 16;
/// See [`ZOO_STAGES`].
pub const ZOO_PROCS: usize = 8;
/// Instances per zoo family.
pub const ZOO_REPLICAS: usize = 3;
/// Request lines of the serve corpus: 1% `stats`, 5% `cosched`, the
/// rest `solve`.
pub const SERVE_LINES: usize = 1200;
const STATS_LINES: usize = 12;
const COSCHED_LINES: usize = 60;

/// The instance files and request lines of the serve workloads. Lines
/// name their instance by path (`instance=<dir>/<file>`); the `cosched`
/// tenant `-` selects the service's default instance,
/// [`ServeCorpus::default_path`].
#[derive(Debug, Clone)]
pub struct ServeCorpus {
    /// `(path, text)` of every instance file.
    pub files: Vec<(String, String)>,
    /// The request lines, replayed in order.
    pub lines: Vec<String>,
}

impl ServeCorpus {
    /// Generates the corpus for `seed`, with instance files under `dir`.
    ///
    /// Three instances of each of the nine zoo families at n=16, p=8,
    /// and one tenant group per paper-family (e1–e4) instance: two more
    /// pipelines on that instance's platform. The solve lines walk every instance's menu of
    /// (strategy, objective) pairs in a fixed order; bounds are drawn
    /// between each strategy's own feasibility floor and the
    /// single-processor period (or above `L_opt` for latency bounds), so
    /// every line is answerable. The line order is shuffled.
    pub fn generate(seed: u64, dir: &str) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut ws = SolveWorkspace::new();
        let mut files = Vec::new();
        let mut menus: Vec<(String, Vec<Entry>, Floors)> = Vec::new();
        let mut groups = Vec::new();
        for replica in 0..ZOO_REPLICAS {
            for family in ScenarioFamily::ALL {
                let gen =
                    ScenarioGenerator::new(ScenarioParams::preset(family, ZOO_STAGES, ZOO_PROCS));
                let (app, pf) = gen.instance(seed, replica as u64);
                let path = format!("{dir}/zoo-{}-{replica}.pw", family.label());
                files.push((path.clone(), format_instance(&app, &pf)));
                if matches!(
                    family,
                    ScenarioFamily::E1
                        | ScenarioFamily::E2
                        | ScenarioFamily::E3
                        | ScenarioFamily::E4
                ) {
                    groups.push((path.clone(), pf.clone()));
                }
                let floors = Floors::of(&PreparedInstance::new(app, pf), &mut ws);
                menus.push((path, floors.menu(), floors));
            }
        }
        let mut tenant_groups = Vec::new();
        for (g, (base, platform)) in groups.into_iter().enumerate() {
            // Group 0's base is the default instance, selected by `-`.
            let mut members = vec![if g == 0 { "-".to_string() } else { base }];
            for (k, family) in [ScenarioFamily::E3, ScenarioFamily::PowerLawWork]
                .into_iter()
                .enumerate()
            {
                let gen =
                    ScenarioGenerator::new(ScenarioParams::preset(family, 10 + 2 * k, ZOO_PROCS));
                let app = gen.instance(seed, 100 + g as u64).0;
                let path = format!("{dir}/tenant-{g}-{k}.pw");
                files.push((path.clone(), format_instance(&app, &platform)));
                members.push(path);
            }
            tenant_groups.push(members);
        }

        let mut lines: Vec<String> = Vec::with_capacity(SERVE_LINES);
        lines.extend((0..STATS_LINES).map(|_| "stats".to_string()));
        for i in 0..COSCHED_LINES {
            let members = &tenant_groups[i % tenant_groups.len()];
            lines.push(cosched_line(i / tenant_groups.len(), members, &mut rng));
        }
        let entries: Vec<(usize, Entry)> = menus
            .iter()
            .enumerate()
            .flat_map(|(m, (_, menu, _))| menu.iter().map(move |&e| (m, e)))
            .collect();
        for &(m, entry) in entries.iter().cycle().take(SERVE_LINES - lines.len()) {
            let (path, _, floors) = &menus[m];
            lines.push(solve_line(path, entry, floors, &mut rng));
        }
        rng.shuffle(&mut lines);
        for (i, line) in lines.iter_mut().enumerate() {
            let (verb, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
            *line = format!("{verb} id={} {rest}", i + 1).trim_end().to_string();
        }
        ServeCorpus { files, lines }
    }

    /// The service's default instance (the first zoo file).
    pub fn default_path(&self) -> &str {
        &self.files[0].0
    }

    /// Every byte of the corpus, for determinism checks.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (path, text) in &self.files {
            out.push_str(&format!("== {path}\n{text}"));
        }
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// One `(strategy, objective)` pair a zoo instance can answer.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    strategy: &'static str,
    objective: &'static str,
}

/// The feasibility landmarks bounds are drawn against.
#[derive(Debug, Clone)]
struct Floors {
    comm_homogeneous: bool,
    p_init: f64,
    l_opt: f64,
    /// `(strategy, period floor)` for every strategy that answers
    /// `min-latency-for-period`.
    period: Vec<(&'static str, f64)>,
}

impl Floors {
    fn of(prepared: &PreparedInstance, ws: &mut SolveWorkspace) -> Self {
        let comm_homogeneous = prepared.platform().is_comm_homogeneous();
        let mut traj = |k: HeuristicKind| {
            prepared
                .trajectory_in(k, ws)
                .expect("trajectory kinds apply")
                .min_period()
        };
        let h7 = traj(HeuristicKind::HeteroSplit);
        let mut period = vec![("h7", h7)];
        if comm_homogeneous {
            let (h1, h2, h3) = (
                traj(HeuristicKind::SpMonoP),
                traj(HeuristicKind::ThreeExploMono),
                traj(HeuristicKind::ThreeExploBi),
            );
            let h4 = prepared.sp_bi_p_floor_in(ws).expect("comm-homogeneous");
            let best = h1.min(h2).min(h3).min(h4).min(h7);
            period.extend([
                ("h1", h1),
                ("h2", h2),
                ("h3", h3),
                ("h4", h4),
                ("best", best),
            ]);
        } else {
            period.extend([("best", h7), ("auto", h7)]);
        }
        Floors {
            comm_homogeneous,
            p_init: prepared.single_proc_period(),
            l_opt: prepared.optimal_latency(),
            period,
        }
    }

    fn period_floor(&self, strategy: &str) -> f64 {
        self.period
            .iter()
            .find(|(s, _)| *s == strategy)
            .expect("strategy has a floor")
            .1
    }

    fn menu(&self) -> Vec<Entry> {
        const ALL5: [&str; 5] = [
            "min-period",
            "min-latency",
            "min-latency-for-period",
            "min-period-for-latency",
            "pareto-front",
        ];
        const PERIOD_FIXED: [&str; 4] = [
            "min-period",
            "min-latency",
            "min-latency-for-period",
            "pareto-front",
        ];
        let mut menu = Vec::new();
        let mut add = |strategy: &'static str, objectives: &[&'static str]| {
            for &objective in objectives {
                menu.push(Entry {
                    strategy,
                    objective,
                });
            }
        };
        if self.comm_homogeneous {
            // Exact min-latency-for-period re-runs the exact solver on
            // every request (nothing bound-dependent is memoized), so it
            // belongs to solve-cold, not to the warm path.
            for s in ["auto", "exact"] {
                add(s, &ALL5[..2]);
                add(s, &ALL5[3..]);
            }
            add("best", &ALL5);
            for s in ["h1", "h2", "h3", "h7"] {
                add(s, &PERIOD_FIXED);
            }
            add("h4", &PERIOD_FIXED[..3]);
            for s in ["h5", "h6"] {
                add(s, &["min-period", "min-period-for-latency"]);
            }
        } else {
            // Only the §7 extension runs on per-link bandwidths, and it
            // is period-fixed.
            for s in ["auto", "best", "h7"] {
                add(s, &PERIOD_FIXED);
            }
        }
        menu
    }
}

/// A `solve` line without its id (assigned after shuffling).
fn solve_line(path: &str, entry: Entry, floors: &Floors, rng: &mut Rng) -> String {
    let mut line = format!(
        "solve objective={} strategy={}",
        entry.objective, entry.strategy
    );
    match entry.objective {
        "min-latency-for-period" => {
            let floor = floors.period_floor(entry.strategy);
            let bound = floor + (0.2 + 0.7 * rng.unit()) * (floors.p_init - floor);
            line.push_str(&format!(" bound={bound}"));
        }
        "min-period-for-latency" => {
            let bound = floors.l_opt * (1.1 + 1.4 * rng.unit());
            line.push_str(&format!(" bound={bound}"));
        }
        _ => {}
    }
    if entry.strategy == "h4" && rng.unit() < 0.5 {
        line.push_str(" tolerance=0.001");
    }
    line.push_str(&format!(" instance={path}"));
    line
}

/// The `i`-th `cosched` line (without its id) of a tenant group: the
/// objective and tenant count cycle, the weights and SLOs are drawn.
fn cosched_line(i: usize, members: &[String], rng: &mut Rng) -> String {
    const OBJECTIVES: [&str; 3] = ["max-min", "weighted-sum", "slo"];
    let objective = OBJECTIVES[i % 3];
    // SLO tenants ask for min-period under a latency bound, which only
    // the latency-fixed heuristics express.
    let strategy = match objective {
        "slo" if i.is_multiple_of(2) => "h5",
        "slo" => "h6",
        _ => "h1",
    };
    let k = 2 + (i / 3) % 2;
    let mut line = format!(
        "cosched objective={objective} strategy={strategy} tenants={}",
        members[..k].join(",")
    );
    match objective {
        "weighted-sum" => {
            let w: Vec<String> = (0..k).map(|_| rng.range(1, 4).to_string()).collect();
            line.push_str(&format!(" weights={}", w.join(":")));
        }
        "slo" => {
            let s: Vec<String> = (0..k)
                .map(|j| match j {
                    0 => format!("{}", 200.0 + 400.0 * rng.unit()),
                    _ => "-".into(),
                })
                .collect();
            line.push_str(&format!(" slos={}", s.join(":")));
        }
        _ => {}
    }
    line
}

// ---------------------------------------------------------------------
// solve-cold
// ---------------------------------------------------------------------

/// Operations of the solve-cold corpus.
pub const SOLVE_OPS: usize = 1000;
/// Best-of-all heuristic operations.
const BEST_OPS: usize = 160;
/// Exact operations: min-period, min-latency-for-period, pareto-front.
const EXACT_OPS: [usize; 3] = [60, 54, 6];

/// Heuristic sizes; `p = n/2`.
const HEURISTIC_SIZES: [usize; 7] = [60, 90, 120, 150, 180, 210, 240];

/// What a solve-cold operation exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveClass {
    /// A splitting heuristic (or best-of-all) at n=60–240.
    Heuristic,
    /// An exact solve at n=14–24, p=16.
    Exact,
}

/// One solve-cold operation: a fresh instance and the query to answer.
#[derive(Debug, Clone)]
pub struct SolveOp {
    /// The pipeline.
    pub app: Application,
    /// The platform.
    pub platform: Platform,
    /// The query.
    pub request: SolveRequest,
    /// Heuristic or exact.
    pub class: SolveClass,
}

/// The solve-cold corpus.
#[derive(Debug, Clone)]
pub struct SolveCorpus {
    /// The operations, replayed in order.
    pub ops: Vec<SolveOp>,
}

/// A heuristic operation's objective, before its bound is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Goal {
    /// `min-latency-for-period`, bound a fraction of `P_init`.
    PeriodBound,
    /// `min-period-for-latency`, bound a multiple of `L_opt`.
    LatencyBound,
    MinPeriod,
    MinLatency,
    Front,
}

impl SolveCorpus {
    /// Generates the corpus for `seed`: 880 heuristic operations — 160
    /// best-of-all over the five objectives, 720 single H1–H6 over every
    /// objective each expresses — cycling through n = 60..240 (p = n/2)
    /// on the paper families and the heavy-tail/power-law zoo families;
    /// and 120 exact operations (min-period, min-latency-for-period,
    /// pareto-front) at n = 14–24, p = 16. The exact cells are the
    /// (family, size, speed range) cells whose solve time stayed within
    /// ~50 ms on every probed seed; cells with two or three speed values
    /// route to the dominance DP, cells with twenty to v2. The operation
    /// order is shuffled.
    pub fn generate(seed: u64) -> Self {
        use HeuristicKind::*;
        let mut rng = Rng::new(seed, 2);
        let mut ops = Vec::with_capacity(SOLVE_OPS);
        let goals = [
            Goal::PeriodBound,
            Goal::LatencyBound,
            Goal::MinPeriod,
            Goal::MinLatency,
            Goal::Front,
        ];
        for j in 0..BEST_OPS {
            let goal = goals[j % goals.len()];
            let op = heuristic_op(seed, ops.len(), Strategy::BestOfAll, goal, j, &mut rng);
            ops.push(op);
        }
        let mut combos = Vec::new();
        for kind in [SpMonoP, ThreeExploMono, ThreeExploBi] {
            for goal in [
                Goal::PeriodBound,
                Goal::MinPeriod,
                Goal::MinLatency,
                Goal::Front,
            ] {
                combos.push((kind, goal));
            }
        }
        for goal in [Goal::PeriodBound, Goal::MinPeriod, Goal::MinLatency] {
            combos.push((SpBiP, goal));
        }
        for kind in [SpMonoL, SpBiL] {
            for goal in [Goal::LatencyBound, Goal::MinPeriod] {
                combos.push((kind, goal));
            }
        }
        let singles = SOLVE_OPS - BEST_OPS - EXACT_OPS.iter().sum::<usize>();
        for j in 0..singles {
            let (kind, goal) = combos[j % combos.len()];
            let strategy = Strategy::Heuristic(kind);
            let op = heuristic_op(seed, ops.len(), strategy, goal, j, &mut rng);
            ops.push(op);
        }
        for (objective, &count) in EXACT_OPS.iter().enumerate() {
            for j in 0..count {
                ops.push(exact_op(seed, ops.len(), objective, j, &mut rng));
            }
        }
        rng.shuffle(&mut ops);
        SolveCorpus { ops }
    }

    /// Every byte of the corpus, for determinism checks.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&format!("== {:?} {:?}\n", op.class, op.request));
            out.push_str(&format_instance(&op.app, &op.platform));
        }
        out
    }
}

/// The `j`-th heuristic operation of its class: size and family cycle
/// (sizes fastest, so every objective meets every size), bounds are
/// drawn. Period bounds are drawn only on the paper families, whose
/// floors sit far below half the single-processor period at these sizes.
fn heuristic_op(
    seed: u64,
    index: usize,
    strategy: Strategy,
    goal: Goal,
    j: usize,
    rng: &mut Rng,
) -> SolveOp {
    const PAPER: [ScenarioFamily; 4] = [
        ScenarioFamily::E1,
        ScenarioFamily::E2,
        ScenarioFamily::E3,
        ScenarioFamily::E4,
    ];
    const ZOO: [ScenarioFamily; 6] = [
        ScenarioFamily::E1,
        ScenarioFamily::E2,
        ScenarioFamily::E3,
        ScenarioFamily::E4,
        ScenarioFamily::HeavyTail,
        ScenarioFamily::PowerLawWork,
    ];
    let n = HEURISTIC_SIZES[j % HEURISTIC_SIZES.len()];
    let families: &[ScenarioFamily] = if goal == Goal::PeriodBound {
        &PAPER
    } else {
        &ZOO
    };
    let family = families[(j / HEURISTIC_SIZES.len()) % families.len()];
    let gen = ScenarioGenerator::new(ScenarioParams::preset(family, n, n / 2));
    let (app, platform) = gen.instance(seed, index as u64);
    let cm = CostModel::new(&app, &platform);
    let objective = match goal {
        Goal::PeriodBound => {
            Objective::MinLatencyForPeriod(cm.single_proc_period() * (0.5 + 0.5 * rng.unit()))
        }
        Goal::LatencyBound => {
            Objective::MinPeriodForLatency(cm.optimal_latency() * (1.1 + 0.9 * rng.unit()))
        }
        Goal::MinPeriod => Objective::MinPeriod,
        Goal::MinLatency => Objective::MinLatency,
        Goal::Front => Objective::ParetoFront,
    };
    SolveOp {
        app,
        platform,
        request: SolveRequest::new(objective).strategy(strategy),
        class: SolveClass::Heuristic,
    }
}

/// The `j`-th exact operation of one objective (0: min-period, 1:
/// min-latency-for-period, 2: pareto-front): even `j` go to a
/// DP-routed cell, odd `j` to a v2 cell, cycling through each side's
/// cells.
fn exact_op(seed: u64, index: usize, objective: usize, j: usize, rng: &mut Rng) -> SolveOp {
    use ExperimentKind::*;
    const FEW: (u32, u32) = (1, 3);
    const MANY: (u32, u32) = (1, 20);
    const DP_MIN_PERIOD: [(ExperimentKind, usize); 6] =
        [(E3, 14), (E3, 16), (E3, 18), (E3, 20), (E3, 22), (E3, 24)];
    const V2_MIN_PERIOD: [(ExperimentKind, usize); 4] = [(E2, 14), (E2, 16), (E3, 14), (E4, 14)];
    const DP_LATENCY: [(ExperimentKind, usize); 6] =
        [(E1, 14), (E3, 16), (E4, 18), (E1, 20), (E3, 22), (E4, 24)];
    const V2_LATENCY: [(ExperimentKind, usize); 6] =
        [(E1, 14), (E3, 16), (E4, 18), (E3, 14), (E4, 16), (E1, 18)];
    const DP_FRONT: [(ExperimentKind, usize); 3] = [(E2, 14), (E3, 14), (E3, 16)];
    const V2_FRONT: [(ExperimentKind, usize); 2] = [(E2, 14), (E4, 14)];
    let cells: &[(ExperimentKind, usize)] = match (objective, j.is_multiple_of(2)) {
        (0, true) => &DP_MIN_PERIOD,
        (0, false) => &V2_MIN_PERIOD,
        (1, true) => &DP_LATENCY,
        (1, false) => &V2_LATENCY,
        (_, true) => &DP_FRONT,
        (_, false) => &V2_FRONT,
    };
    let (kind, n) = cells[(j / 2) % cells.len()];
    let gen = InstanceGenerator::new(InstanceParams {
        n_stages: n,
        n_procs: 16,
        kind,
        bandwidth: 10.0,
        speed_range: if j.is_multiple_of(2) { FEW } else { MANY },
    });
    let (app, platform) = gen.instance(seed, index as u64);
    let objective = match objective {
        0 => Objective::MinPeriod,
        1 => {
            let p0 = CostModel::new(&app, &platform).single_proc_period();
            Objective::MinLatencyForPeriod(p0 * (0.75 + 0.2 * rng.unit()))
        }
        _ => Objective::ParetoFront,
    };
    SolveOp {
        app,
        platform,
        request: SolveRequest::new(objective).strategy(Strategy::Exact),
        class: SolveClass::Exact,
    }
}

// ---------------------------------------------------------------------
// chaos-replan
// ---------------------------------------------------------------------

/// Incidents of the chaos-replan corpus.
pub const CHAOS_OPS: usize = 1000;
/// Data sets per simulated run (faulted and clean).
pub const CHAOS_DATASETS: usize = 100;
/// Base instances per (family, size) cell.
const CHAOS_REPLICAS: usize = 32;

/// Which processor a detected fault hits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The slowest processor drifts to `factor` of its speed: the reuse
    /// case (it sits outside the speed-order prefix the cached
    /// trajectories consulted).
    DriftStraggler {
        /// Remaining speed fraction.
        factor: f64,
    },
    /// The processor owning the bottleneck interval fail-stops: no
    /// cached trajectory survives.
    LossBottleneck,
}

/// One incident: a fault on one base instance, plus the fault plan the
/// incumbent mapping is executed under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incident {
    /// Index into [`ChaosCorpus::bases`].
    pub base: usize,
    /// The fault handed to the re-planner.
    pub fault: FaultKind,
    /// The named fault plan the simulator executes.
    pub plan: ChaosPlanKind,
    /// Seed of the plan's stochastic ingredients.
    pub plan_seed: u64,
}

/// The chaos-replan corpus.
#[derive(Debug, Clone)]
pub struct ChaosCorpus {
    /// Base instances: 32 each of heavy-tail and E2 at n = 60, 80, 100,
    /// 120, p = n/2.
    pub bases: Vec<(Application, Platform)>,
    /// The incidents, replayed in order.
    pub incidents: Vec<Incident>,
}

impl ChaosCorpus {
    /// Generates the corpus for `seed`. Incident `j` hits base `j mod
    /// 256` with a drift (even `j / 256`) or a loss, under plan kind
    /// `(j + j / 256) mod 4`, so most bases meet both faults and all four
    /// plans; drift factors and plan seeds are drawn, and the order is
    /// shuffled. Many bases, few incidents each: an incident's cost
    /// follows its base's incumbent mapping, so the corpus averages over
    /// many mappings.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut bases = Vec::new();
        for family in [ScenarioFamily::HeavyTail, ScenarioFamily::E2] {
            for n in [60, 80, 100, 120] {
                let gen = ScenarioGenerator::new(ScenarioParams::preset(family, n, n / 2));
                for r in 0..CHAOS_REPLICAS {
                    bases.push(gen.instance(seed, (n * CHAOS_REPLICAS + r) as u64));
                }
            }
        }
        let mut incidents: Vec<Incident> = (0..CHAOS_OPS)
            .map(|j| Incident {
                base: j % bases.len(),
                fault: if (j / bases.len()) % 2 == 0 {
                    FaultKind::DriftStraggler {
                        factor: 0.3 + 0.4 * rng.unit(),
                    }
                } else {
                    FaultKind::LossBottleneck
                },
                plan: ChaosPlanKind::ALL[(j + j / bases.len()) % ChaosPlanKind::ALL.len()],
                plan_seed: rng.next_u64(),
            })
            .collect();
        rng.shuffle(&mut incidents);
        ChaosCorpus { bases, incidents }
    }

    /// Every byte of the corpus, for determinism checks.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (app, pf) in &self.bases {
            out.push_str(&format_instance(app, pf));
        }
        for inc in &self.incidents {
            out.push_str(&format!("{inc:?}\n"));
        }
        out
    }
}
