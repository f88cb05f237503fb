//! Objective/strategy vocabulary of the solver service.
//!
//! The solving engine itself lives in [`crate::service`]: prepare an
//! instance once with [`crate::PreparedInstance`], then answer any number
//! of typed [`crate::SolveRequest`]s (an [`Objective`] × [`Strategy`])
//! from its memoized trajectories.

use crate::service::UnknownSolver;
use crate::HeuristicKind;

/// What to optimize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize latency subject to `period ≤ bound`.
    MinLatencyForPeriod(f64),
    /// Minimize period subject to `latency ≤ bound`.
    MinPeriodForLatency(f64),
    /// Minimize the period outright (no latency constraint).
    MinPeriod,
    /// Minimize the latency outright (Lemma 1 — trivial).
    MinLatency,
    /// Materialize the full period/latency Pareto front (exact on small
    /// instances, the union of the bound-independent heuristic
    /// trajectories otherwise).
    ParetoFront,
}

impl Objective {
    /// The bound carried by the bounded objectives.
    pub fn bound(&self) -> Option<f64> {
        match self {
            Objective::MinLatencyForPeriod(b) | Objective::MinPeriodForLatency(b) => Some(*b),
            _ => None,
        }
    }
}

/// How to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One specific heuristic.
    Heuristic(HeuristicKind),
    /// Run every applicable heuristic, keep the best result.
    BestOfAll,
    /// Exhaustive exact solve (guarded: requires small `n`).
    Exact,
    /// [`Strategy::Exact`] when `n ≤ exact_cutoff`, else
    /// [`Strategy::BestOfAll`].
    Auto,
}

impl std::str::FromStr for Strategy {
    type Err = UnknownSolver;

    /// Parses the CLI/wire strategy selector: `auto`, `best`, `exact`,
    /// or any heuristic name [`HeuristicKind`] accepts (`h1`…`h7`,
    /// labels, slugs) — case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(Strategy::Auto),
            "best" | "best-of-all" => Ok(Strategy::BestOfAll),
            "exact" => Ok(Strategy::Exact),
            _ => s.parse::<HeuristicKind>().map(Strategy::Heuristic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact, PreparedInstance, SolveRequest, SolveWorkspace, SolverId};
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};

    fn instance(n: usize, p: usize) -> PreparedInstance {
        let (app, pf) =
            InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, n, p)).instance(3, 0);
        PreparedInstance::new(app, pf)
    }

    #[test]
    fn auto_uses_exact_on_small_instances() {
        let prepared = instance(6, 5);
        let report = prepared
            .solve(&SolveRequest::new(Objective::MinPeriod))
            .expect("min period always solvable");
        assert_eq!(report.solver, SolverId::Exact);
        let (p_opt, _) =
            exact::exact_min_period_in(&prepared.cost_model(), &mut SolveWorkspace::new());
        assert!((report.result.period - p_opt).abs() < 1e-9);
    }

    #[test]
    fn auto_uses_heuristics_on_large_instances() {
        let report = instance(30, 10)
            .solve(&SolveRequest::new(Objective::MinPeriod))
            .expect("solvable");
        assert_ne!(report.solver, SolverId::Exact);
        assert!(report.result.period > 0.0);
    }

    #[test]
    fn exact_cutoff_is_configurable() {
        let request = SolveRequest::new(Objective::MinPeriod).exact_cutoff(4);
        let report = instance(10, 6).solve(&request).unwrap();
        assert_ne!(
            report.solver,
            SolverId::Exact,
            "cutoff 4 must route n=10 to heuristics"
        );
    }

    #[test]
    fn auto_clamps_an_unbounded_cutoff_to_the_exact_guard() {
        let prepared = instance(exact::MAX_STAGES + 1, 6);
        assert!(prepared.platform().is_comm_homogeneous());
        let request = SolveRequest::new(Objective::MinPeriod).exact_cutoff(usize::MAX);
        let report = prepared
            .solve(&request)
            .expect("Auto above the exact guard must fall back to heuristics");
        assert_ne!(report.solver, SolverId::Exact);
    }

    #[test]
    fn strategy_parses_cli_and_wire_selectors() {
        assert_eq!("auto".parse::<Strategy>().unwrap(), Strategy::Auto);
        assert_eq!("BEST".parse::<Strategy>().unwrap(), Strategy::BestOfAll);
        assert_eq!("exact".parse::<Strategy>().unwrap(), Strategy::Exact);
        assert_eq!(
            "h3".parse::<Strategy>().unwrap(),
            Strategy::Heuristic(HeuristicKind::ThreeExploBi)
        );
        assert!("h9".parse::<Strategy>().is_err());
    }
}
