//! Qualitative "shape checks": does our reproduction exhibit the
//! behaviours the paper reports?
//!
//! Absolute numbers cannot match (the authors' RNG is unknown), so the
//! reproduction compares *shapes*: which heuristic achieves the lowest
//! periods, which the lowest latencies, how the hierarchy flips between
//! `p = 10` and `p = 100`. Each check returns a measured verdict that the
//! figure binaries print next to the paper's claim.

use crate::sweep::FamilyResult;
use pipeline_core::HeuristicKind;

/// One measured observation paired with the paper's claim.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Short identifier.
    pub name: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// What we measured.
    pub measured: String,
    /// Whether the measurement agrees with the claim.
    pub agrees: bool,
}

/// Mean latency of a series over the period-grid points where *all* six
/// heuristics were feasible for every instance, enabling apples-to-apples
/// comparison. Falls back to the series' own feasible points.
fn mean_curve_latency(fam: &FamilyResult, kind: HeuristicKind) -> Option<f64> {
    let s = fam.series.iter().find(|s| s.kind == kind)?;
    let ys: Vec<f64> = s.points.iter().map(|p| p.y(kind)).collect();
    if ys.is_empty() {
        return None;
    }
    Some(ys.iter().sum::<f64>() / ys.len() as f64)
}

/// Smallest period a heuristic's curve reaches (x of its leftmost point).
fn min_curve_period(fam: &FamilyResult, kind: HeuristicKind) -> Option<f64> {
    let s = fam.series.iter().find(|s| s.kind == kind)?;
    s.points
        .iter()
        .map(|p| p.x(kind))
        .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.min(x))))
}

/// Checks for the `p = 10` families (paper §5.2.1).
pub fn checks_p10(fam: &FamilyResult) -> Vec<ShapeCheck> {
    let mut out = Vec::new();

    // "Sp mono P and Sp mono L achieve the best period."
    if let (Some(h1), Some(h2)) = (
        min_curve_period(fam, HeuristicKind::SpMonoP),
        min_curve_period(fam, HeuristicKind::ThreeExploMono),
    ) {
        out.push(ShapeCheck {
            name: "sp-mono-p-best-period",
            paper: "Sp mono P reaches smaller periods than 3-Explo mono",
            measured: format!("min period: Sp mono P {h1:.3} vs 3-Explo mono {h2:.3}"),
            agrees: h1 <= h2 + 1e-9,
        });
    }

    // "Sp bi P minimizes the latency" — its curve should sit at or below
    // the mono splitting curve on latency.
    if let (Some(l_bi), Some(l_mono)) = (
        mean_curve_latency(fam, HeuristicKind::SpBiP),
        mean_curve_latency(fam, HeuristicKind::SpMonoP),
    ) {
        out.push(ShapeCheck {
            name: "sp-bi-p-low-latency",
            paper: "Sp bi P achieves by far the best latency times",
            measured: format!("mean curve latency: Sp bi P {l_bi:.3} vs Sp mono P {l_mono:.3}"),
            agrees: l_bi <= l_mono * 1.05,
        });
    }

    // "3-Explo mono cannot keep up with the other heuristics."
    if let (Some(l_explo), Some(l_mono)) = (
        mean_curve_latency(fam, HeuristicKind::ThreeExploMono),
        mean_curve_latency(fam, HeuristicKind::SpMonoP),
    ) {
        out.push(ShapeCheck {
            name: "explo-mono-trails",
            paper: "3-Explo mono trails the splitting heuristics (p = 10)",
            measured: format!(
                "mean curve latency: 3-Explo mono {l_explo:.3} vs Sp mono P {l_mono:.3}"
            ),
            agrees: l_explo >= l_mono * 0.95,
        });
    }

    out
}

/// Checks for the `p = 100` families (paper §5.2.2): bi-criteria
/// heuristics catch up or win.
pub fn checks_p100(fam: &FamilyResult) -> Vec<ShapeCheck> {
    let mut out = Vec::new();
    if let (Some(l_bi), Some(l_mono)) = (
        mean_curve_latency(fam, HeuristicKind::SpBiL),
        mean_curve_latency(fam, HeuristicKind::SpMonoL),
    ) {
        // For latency-fixed heuristics the y means are targets; compare
        // achieved periods instead.
        let p_bi = fam
            .series
            .iter()
            .find(|s| s.kind == HeuristicKind::SpBiL)
            .and_then(|s| s.points.last())
            .map(|p| p.mean_period);
        let p_mono = fam
            .series
            .iter()
            .find(|s| s.kind == HeuristicKind::SpMonoL)
            .and_then(|s| s.points.last())
            .map(|p| p.mean_period);
        if let (Some(pb), Some(pm)) = (p_bi, p_mono) {
            out.push(ShapeCheck {
                name: "bi-l-competitive-p100",
                paper: "with p = 100, Sp bi L outperforms (or matches) its mono counterpart",
                measured: format!(
                    "achieved period at loosest latency: bi {pb:.3} vs mono {pm:.3} \
                     (targets {l_bi:.3}/{l_mono:.3})"
                ),
                agrees: pb <= pm * 1.1,
            });
        }
    }
    out
}

/// Renders checks as aligned text.
pub fn render_checks(checks: &[ShapeCheck]) -> String {
    let mut out = String::new();
    for c in checks {
        out.push_str(&format!(
            "  [{}] {}\n        paper: {}\n        ours : {}\n",
            if c.agrees { "OK " } else { "DIFF" },
            c.name,
            c.paper,
            c.measured
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_scenario;
    use pipeline_model::scenario::ScenarioFamily;

    #[test]
    fn checks_run_on_a_small_family() {
        let fam = run_scenario(&ScenarioFamily::E1.params(10, 10), 5, 8, 8, 2);
        let checks = checks_p10(&fam);
        assert!(!checks.is_empty());
        let rendered = render_checks(&checks);
        assert!(rendered.contains("paper:"));
        assert!(rendered.contains("ours"));
    }

    #[test]
    fn p100_checks_have_content() {
        let fam = run_scenario(&ScenarioFamily::E1.params(10, 30), 5, 6, 6, 2);
        let checks = checks_p100(&fam);
        assert!(!checks.is_empty());
    }

    #[test]
    fn h1_reaches_lower_or_equal_periods_than_explo_on_e1() {
        // Statistical, but with 10 instances the paper's strongest claim
        // (H1 best threshold) holds robustly on E1.
        let fam = run_scenario(&ScenarioFamily::E1.params(20, 10), 9, 10, 8, 2);
        let checks = checks_p10(&fam);
        let c = checks
            .iter()
            .find(|c| c.name == "sp-mono-p-best-period")
            .unwrap();
        assert!(c.agrees, "{}", c.measured);
    }
}
