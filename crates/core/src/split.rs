//! The two-way splitting heuristics: H1 (`Sp mono P`), H3 (`Sp bi P`),
//! H4 (`Sp mono L`) and H5 (`Sp bi L`) of the paper's Section 4.
//!
//! Each heuristic is a thin policy over the shared drive loop of
//! [`crate::engine::SplitEngine`]; this module keeps the public
//! free-function entry points and H3's binary search over the authorized
//! latency.

use crate::engine::{BiPeriodPolicy, BudgetedPolicy, MonoPeriodPolicy, SplitEngine};
use crate::state::{BiCriteriaResult, SplitMemo};
use crate::workspace::SolveWorkspace;
use pipeline_model::prelude::*;

/// H1 — *Splitting mono-criterion, fixed period*.
///
/// While the period exceeds `period_target`, split the bottleneck
/// processor's interval choosing the cut/orientation minimizing
/// `max(period(j), period(j'))`; stop when the target is reached or no
/// split improves the bottleneck.
pub fn sp_mono_p_in(
    cm: &CostModel<'_>,
    period_target: f64,
    ws: &mut SolveWorkspace,
) -> BiCriteriaResult {
    SplitEngine::run_in(
        &mut MonoPeriodPolicy {
            target: period_target,
        },
        cm,
        ws,
    )
}

/// H4 — *Splitting mono-criterion, fixed latency*.
///
/// Starts from the latency-optimal mapping and keeps splitting the
/// bottleneck (mono-criterion choice) as long as some split both improves
/// the period and keeps the global latency within `latency_target`.
/// Infeasible only when even the initial mapping exceeds the budget
/// (i.e. `latency_target < L_opt`).
pub fn sp_mono_l_in(
    cm: &CostModel<'_>,
    latency_target: f64,
    ws: &mut SolveWorkspace,
) -> BiCriteriaResult {
    SplitEngine::run_in(&mut BudgetedPolicy::mono(latency_target), cm, ws)
}

/// H5 — *Splitting bi-criteria, fixed latency*.
///
/// Like [`sp_mono_l_in`] but each step picks the split minimizing
/// `max_{i∈{j,j'}} Δlatency/Δperiod(i)` among those within the latency
/// budget.
pub fn sp_bi_l_in(
    cm: &CostModel<'_>,
    latency_target: f64,
    ws: &mut SolveWorkspace,
) -> BiCriteriaResult {
    SplitEngine::run_in(&mut BudgetedPolicy::bi(latency_target), cm, ws)
}

/// Knobs of [`sp_bi_p_in`].
#[derive(Debug, Clone, Copy)]
pub struct SpBiPOptions {
    /// Binary-search iterations over the authorized latency.
    pub search_iters: usize,
    /// Stop early when the bracket is relatively smaller than this.
    pub rel_tolerance: f64,
    /// Use `Δperiod(i)` (as in H5) in the ratio denominator; the paper's
    /// H3 formula prints `Δperiod(j)` which we treat as a typo — set to
    /// `false` to reproduce the literal formula (the ablation experiment
    /// compares both).
    pub denominator_over_i: bool,
}

impl Default for SpBiPOptions {
    fn default() -> Self {
        SpBiPOptions {
            search_iters: 30,
            rel_tolerance: 1e-9,
            denominator_over_i: true,
        }
    }
}

/// H3 — *Splitting bi-criteria, fixed period* (binary search over the
/// authorized latency).
///
/// The optimal latency `L_opt` is the Lemma-1 single-processor latency.
/// The heuristic binary searches the *authorized* latency `L_auth ∈
/// [L_opt, L_ub]`: each probe runs bi-criteria splitting constrained to
/// latency ≤ `L_auth`, succeeding when the period target is met. `L_ub`
/// comes from an unconstrained run (when even that fails, the heuristic
/// fails). While a probe is feasible the authorized increase shrinks,
/// minimizing the final latency.
///
/// All probe runs share one `SplitMemo`: consecutive probes replay the
/// same split prefix until their budgets diverge, and the memoized
/// selections turn those replayed steps into cache hits. The ~30 probe
/// runs share the workspace's split buffers *and* its selection memo,
/// which is reset at the start of every call (its table capacity kept),
/// so the memo lives for exactly one binary search on one instance.
pub fn sp_bi_p_in(
    cm: &CostModel<'_>,
    period_target: f64,
    opts: SpBiPOptions,
    ws: &mut SolveWorkspace,
) -> BiCriteriaResult {
    let mut memo = ws.take_memo();
    let result = sp_bi_p_with_memo(cm, period_target, opts, &mut memo, ws);
    ws.restore_memo(memo);
    result
}

fn sp_bi_p_with_memo(
    cm: &CostModel<'_>,
    period_target: f64,
    opts: SpBiPOptions,
    memo: &mut SplitMemo,
    ws: &mut SolveWorkspace,
) -> BiCriteriaResult {
    // Run to exhaustion without latency budget to learn feasibility and
    // an upper bound on the needed latency.
    let unconstrained = run_bi_to_period(cm, period_target, None, opts, memo, ws);
    if !unconstrained.feasible {
        return unconstrained;
    }
    let l_opt = cm.optimal_latency();
    let mut lo = l_opt; // infeasible or trivially optimal
    let mut hi = unconstrained.latency; // feasible
    let mut best = unconstrained;

    // The lower end may already be feasible (period target satisfied by
    // the initial mapping).
    let at_lo = run_bi_to_period(cm, period_target, Some(lo), opts, memo, ws);
    if at_lo.feasible {
        return at_lo;
    }
    for _ in 0..opts.search_iters {
        if hi - lo <= opts.rel_tolerance * l_opt.max(1.0) {
            break;
        }
        let mid = 0.5 * (lo + hi);
        let probe = run_bi_to_period(cm, period_target, Some(mid), opts, memo, ws);
        if probe.feasible {
            // Tighten using the latency actually achieved, which may be
            // well below the authorization.
            hi = probe.latency.min(mid);
            best = probe;
        } else {
            lo = mid;
        }
    }
    best
}

/// Inner loop of H3: bi-criteria splitting until the period target is
/// reached or no split qualifies.
fn run_bi_to_period(
    cm: &CostModel<'_>,
    period_target: f64,
    latency_budget: Option<f64>,
    opts: SpBiPOptions,
    memo: &mut SplitMemo,
    ws: &mut SolveWorkspace,
) -> BiCriteriaResult {
    SplitEngine::run_in(
        &mut BiPeriodPolicy {
            target: period_target,
            budget: latency_budget,
            denominator_over_i: opts.denominator_over_i,
            memo,
        },
        cm,
        ws,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::util::EPS;
    use pipeline_model::{Application, Platform};

    fn paper_instance(seed: u64) -> (Application, Platform) {
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E1, 10, 10));
        gen.instance(seed, 0)
    }

    #[test]
    fn sp_mono_p_trivial_target_returns_lemma1() {
        let (app, pf) = paper_instance(3);
        let cm = CostModel::new(&app, &pf);
        let res = sp_mono_p_in(
            &cm,
            cm.single_proc_period() + 1.0,
            &mut SolveWorkspace::new(),
        );
        assert!(res.feasible);
        assert_eq!(res.mapping.n_intervals(), 1);
        assert!((res.latency - cm.optimal_latency()).abs() < 1e-9);
    }

    #[test]
    fn sp_mono_p_reaches_tighter_periods_by_splitting() {
        let (app, pf) = paper_instance(3);
        let cm = CostModel::new(&app, &pf);
        let p0 = cm.single_proc_period();
        let res = sp_mono_p_in(&cm, 0.8 * p0, &mut SolveWorkspace::new());
        if res.feasible {
            assert!(res.period <= 0.8 * p0 + EPS);
            assert!(
                res.mapping.n_intervals() > 1,
                "must have split at least once"
            );
            assert!(res.latency >= cm.optimal_latency() - EPS);
        }
    }

    #[test]
    fn sp_mono_p_impossible_target_fails_at_its_floor() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = paper_instance(3);
        let cm = CostModel::new(&app, &pf);
        let res = sp_mono_p_in(&cm, 0.0, &mut ws);
        assert!(!res.feasible);
        // The returned mapping is the heuristic's best effort; its period
        // is the heuristic's failure threshold for this instance.
        assert!(res.period > 0.0);
        // No further mono split can improve it.
        let res2 = sp_mono_p_in(&cm, res.period, &mut ws);
        assert!(res2.feasible);
        assert!((res2.period - res.period).abs() < 1e-9);
    }

    #[test]
    fn sp_mono_l_infeasible_below_optimal_latency() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = paper_instance(5);
        let cm = CostModel::new(&app, &pf);
        let l_opt = cm.optimal_latency();
        let res = sp_mono_l_in(&cm, l_opt * 0.99, &mut ws);
        assert!(!res.feasible);
        let res_ok = sp_mono_l_in(&cm, l_opt, &mut ws);
        assert!(res_ok.feasible);
    }

    #[test]
    fn sp_mono_l_latency_budget_respected_and_period_improves() {
        let (app, pf) = paper_instance(5);
        let cm = CostModel::new(&app, &pf);
        let l_opt = cm.optimal_latency();
        let p0 = cm.single_proc_period();
        let res = sp_mono_l_in(&cm, 2.0 * l_opt, &mut SolveWorkspace::new());
        assert!(res.feasible);
        assert!(res.latency <= 2.0 * l_opt + EPS);
        assert!(res.period <= p0 + EPS);
    }

    #[test]
    fn sp_bi_l_same_feasibility_threshold_as_mono() {
        // The paper observes (Table 1) that H5 and H6 share failure
        // thresholds: both are feasible iff L ≥ L_opt.
        let mut ws = SolveWorkspace::new();
        let (app, pf) = paper_instance(7);
        let cm = CostModel::new(&app, &pf);
        let l_opt = cm.optimal_latency();
        for budget in [0.9 * l_opt, l_opt, 1.5 * l_opt] {
            let mono = sp_mono_l_in(&cm, budget, &mut ws);
            let bi = sp_bi_l_in(&cm, budget, &mut ws);
            assert_eq!(
                mono.feasible, bi.feasible,
                "thresholds must coincide at {budget}"
            );
        }
    }

    #[test]
    fn larger_latency_budget_never_worsens_sp_mono_l_period() {
        let (app, pf) = paper_instance(11);
        let cm = CostModel::new(&app, &pf);
        let l_opt = cm.optimal_latency();
        let mut last_period = f64::INFINITY;
        for factor in [1.0, 1.5, 2.0, 3.0, 5.0] {
            let res = sp_mono_l_in(&cm, factor * l_opt, &mut SolveWorkspace::new());
            assert!(res.feasible);
            // Greedy is not strictly monotone in theory, but each larger
            // budget admits at least the smaller budget's split sequence;
            // the greedy choice being budget-filtered keeps this monotone
            // in practice. Tolerate tiny numeric noise.
            assert!(
                res.period <= last_period + 1e-6,
                "period {} worsened with budget {factor}×L_opt",
                res.period
            );
            last_period = res.period;
        }
    }

    #[test]
    fn sp_bi_p_meets_period_and_minimizes_latency() {
        let (app, pf) = paper_instance(13);
        let cm = CostModel::new(&app, &pf);
        let p0 = cm.single_proc_period();
        let target = 0.7 * p0;
        let bi = sp_bi_p_in(
            &cm,
            target,
            SpBiPOptions::default(),
            &mut SolveWorkspace::new(),
        );
        if bi.feasible {
            assert!(bi.period <= target + EPS);
            // H3 aims at latency: it should not be (much) worse than the
            // unconstrained bi run, and never below L_opt.
            assert!(bi.latency >= cm.optimal_latency() - EPS);
        }
    }

    #[test]
    fn sp_bi_p_trivial_target() {
        let (app, pf) = paper_instance(13);
        let cm = CostModel::new(&app, &pf);
        let res = sp_bi_p_in(
            &cm,
            cm.single_proc_period(),
            SpBiPOptions::default(),
            &mut SolveWorkspace::new(),
        );
        assert!(res.feasible);
        assert!((res.latency - cm.optimal_latency()).abs() < 1e-9);
    }

    #[test]
    fn sp_bi_p_infeasible_when_unconstrained_run_fails() {
        let (app, pf) = paper_instance(17);
        let cm = CostModel::new(&app, &pf);
        let res = sp_bi_p_in(
            &cm,
            1e-6,
            SpBiPOptions::default(),
            &mut SolveWorkspace::new(),
        );
        assert!(!res.feasible);
    }

    #[test]
    fn sp_bi_p_denominator_variants_both_work() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = paper_instance(19);
        let cm = CostModel::new(&app, &pf);
        let target = 0.75 * cm.single_proc_period();
        let over_i = sp_bi_p_in(&cm, target, SpBiPOptions::default(), &mut ws);
        let over_j = sp_bi_p_in(
            &cm,
            target,
            SpBiPOptions {
                denominator_over_i: false,
                ..SpBiPOptions::default()
            },
            &mut ws,
        );
        if over_i.feasible {
            assert!(over_i.period <= target + EPS);
        }
        if over_j.feasible {
            assert!(over_j.period <= target + EPS);
        }
    }

    #[test]
    fn results_always_self_consistent() {
        let mut ws = SolveWorkspace::new();
        let (app, pf) = paper_instance(23);
        let cm = CostModel::new(&app, &pf);
        let p0 = cm.single_proc_period();
        let l_opt = cm.optimal_latency();
        let checks: Vec<BiCriteriaResult> = vec![
            sp_mono_p_in(&cm, 0.6 * p0, &mut ws),
            sp_bi_p_in(&cm, 0.6 * p0, SpBiPOptions::default(), &mut ws),
            sp_mono_l_in(&cm, 2.5 * l_opt, &mut ws),
            sp_bi_l_in(&cm, 2.5 * l_opt, &mut ws),
        ];
        for res in checks {
            let (p, l) = cm.evaluate(&res.mapping);
            assert!((p - res.period).abs() < 1e-9);
            assert!((l - res.latency).abs() < 1e-9);
        }
    }

    #[test]
    fn fixed_latency_heuristics_use_budget_to_trade_latency_for_period() {
        // On an instance with several stages, a generous budget must let
        // SpMonoL beat the single-processor period whenever a second
        // processor helps.
        let app =
            Application::new(vec![10.0, 10.0, 10.0, 10.0], vec![1.0, 1.0, 1.0, 1.0, 1.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 2.0], 10.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let res = sp_mono_l_in(&cm, cm.optimal_latency() * 3.0, &mut SolveWorkspace::new());
        assert!(res.feasible);
        assert!(
            res.period < cm.single_proc_period() - EPS,
            "splitting 40 work over two equal processors must help"
        );
        assert_eq!(res.mapping.n_intervals(), 2);
    }

    #[test]
    fn boundary_targets_exactly_equal_to_reachable_values_are_feasible() {
        // Tolerance regression (routed through `pipeline_model::util`):
        // a bound exactly equal to a reachable period/latency must be
        // feasible — the comparisons are `approx_le`, not strict.
        let mut ws = SolveWorkspace::new();
        let (app, pf) = paper_instance(29);
        let cm = CostModel::new(&app, &pf);
        let floor = sp_mono_p_in(&cm, 0.0, &mut ws);
        let at_floor = sp_mono_p_in(&cm, floor.period, &mut ws);
        assert!(at_floor.feasible, "target == reachable period must pass");
        assert_eq!(at_floor.period.to_bits(), floor.period.to_bits());
        // Latency side: the Lemma-1 latency is reachable by definition.
        let at_l_opt = sp_mono_l_in(&cm, cm.optimal_latency(), &mut ws);
        assert!(at_l_opt.feasible, "budget == L_opt must pass");
        let bi_at_l_opt = sp_bi_l_in(&cm, cm.optimal_latency(), &mut ws);
        assert!(bi_at_l_opt.feasible);
    }
}
