//! The paper's figure and table specifications, the scenario-zoo
//! default sweep sizes, and the flag-value parser and stdout writer the
//! experiment binaries share.

use pipeline_model::generator::ExperimentKind;
use pipeline_model::scenario::{ScenarioFamily, ScenarioParams};
use std::str::FromStr;

/// Parses the `value` given to command-line `flag`. A missing value, one
/// that does not parse as `T`, or one that fails `valid` ends the
/// process with exit status 2 (the unknown-flag status) and a message
/// naming the flag and the `expected` kind of value — bad input is
/// refused before any study runs.
pub fn flag_value<T: FromStr>(
    flag: &str,
    value: Option<String>,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> T {
    match value.as_deref().map(str::parse::<T>) {
        Some(Ok(v)) if valid(&v) => v,
        _ => {
            eprintln!("{flag} wants {expected}");
            std::process::exit(2);
        }
    }
}

/// Writes `args` to stdout: the body of the [`out!`](crate::out) and
/// [`outln!`](crate::outln) macros the experiment binaries print with. A
/// reader that closes stdout early (`… | head`) ends the process quietly
/// with exit status 0, as `pwsched solve --stdin` does for a consumer
/// that disconnects; any other write failure exits 1 with a message.
pub fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let written = std::io::stdout().lock().write_fmt(args);
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`config::emit`](crate::config::emit): a closed
/// stdout ends the process quietly instead of panicking.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::config::emit(format_args!($($arg)*))
    };
}

/// `println!` through [`config::emit`](crate::config::emit): a closed
/// stdout ends the process quietly instead of panicking.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::config::emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::config::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// One sub-figure of the paper: an instance family plotted as
/// latency-vs-period curves.
#[derive(Debug, Clone, Copy)]
pub struct FigureSpec {
    /// Identifier used in file names, e.g. `"fig2a"`.
    pub id: &'static str,
    /// Paper caption, e.g. `"(E1) 10 stages, p = 10"`.
    pub caption: &'static str,
    /// Workload regime.
    pub kind: ExperimentKind,
    /// Number of stages.
    pub n_stages: usize,
    /// Number of processors.
    pub n_procs: usize,
}

impl FigureSpec {
    /// The paper family's parameters for this figure.
    pub fn params(&self) -> ScenarioParams {
        ScenarioFamily::from(self.kind).params(self.n_stages, self.n_procs)
    }

    /// The figure number this sub-figure belongs to (2–7).
    fn figure_number(&self) -> u32 {
        self.id.as_bytes()[3] as u32 - b'0' as u32
    }
}

/// Every sub-figure of the paper's Section 5, in order.
pub const PAPER_FIGURES: &[FigureSpec] = &[
    FigureSpec {
        id: "fig2a",
        caption: "(E1) balanced, homogeneous comms — 10 stages, p = 10",
        kind: ExperimentKind::E1,
        n_stages: 10,
        n_procs: 10,
    },
    FigureSpec {
        id: "fig2b",
        caption: "(E1) balanced, homogeneous comms — 40 stages, p = 10",
        kind: ExperimentKind::E1,
        n_stages: 40,
        n_procs: 10,
    },
    FigureSpec {
        id: "fig3a",
        caption: "(E2) balanced, heterogeneous comms — 10 stages, p = 10",
        kind: ExperimentKind::E2,
        n_stages: 10,
        n_procs: 10,
    },
    FigureSpec {
        id: "fig3b",
        caption: "(E2) balanced, heterogeneous comms — 40 stages, p = 10",
        kind: ExperimentKind::E2,
        n_stages: 40,
        n_procs: 10,
    },
    FigureSpec {
        id: "fig4a",
        caption: "(E3) large computations — 5 stages, p = 10",
        kind: ExperimentKind::E3,
        n_stages: 5,
        n_procs: 10,
    },
    FigureSpec {
        id: "fig4b",
        caption: "(E3) large computations — 20 stages, p = 10",
        kind: ExperimentKind::E3,
        n_stages: 20,
        n_procs: 10,
    },
    FigureSpec {
        id: "fig5a",
        caption: "(E4) small computations — 5 stages, p = 10",
        kind: ExperimentKind::E4,
        n_stages: 5,
        n_procs: 10,
    },
    FigureSpec {
        id: "fig5b",
        caption: "(E4) small computations — 20 stages, p = 10",
        kind: ExperimentKind::E4,
        n_stages: 20,
        n_procs: 10,
    },
    FigureSpec {
        id: "fig6a",
        caption: "(E1) homogeneous comms — 40 stages, p = 100",
        kind: ExperimentKind::E1,
        n_stages: 40,
        n_procs: 100,
    },
    FigureSpec {
        id: "fig6b",
        caption: "(E2) heterogeneous comms — 40 stages, p = 100",
        kind: ExperimentKind::E2,
        n_stages: 40,
        n_procs: 100,
    },
    FigureSpec {
        id: "fig7a",
        caption: "(E3) large computations — 10 stages, p = 100",
        kind: ExperimentKind::E3,
        n_stages: 10,
        n_procs: 100,
    },
    FigureSpec {
        id: "fig7b",
        caption: "(E4) small computations — 40 stages, p = 100",
        kind: ExperimentKind::E4,
        n_stages: 40,
        n_procs: 100,
    },
];

/// Table 1's grid: every experiment × stage count, with `p = 10`.
pub const TABLE1_STAGE_COUNTS: [usize; 4] = [5, 10, 20, 40];

/// One scenario-zoo entry: a registered family at its default sweep
/// size. What the `pwsched --sweep` CLI and the scenario benchmarks
/// enumerate.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// The registered family.
    pub family: ScenarioFamily,
    /// Number of stages.
    pub n_stages: usize,
    /// Number of processors.
    pub n_procs: usize,
}

impl ScenarioSpec {
    /// The family's default parameters at this size.
    pub fn params(&self) -> ScenarioParams {
        self.family.params(self.n_stages, self.n_procs)
    }
}

/// Every registered scenario family at its default sweep size. The
/// heterogeneous-platform families run smaller: their splitting extension
/// evaluates candidates against the full mapping (O(m) per candidate), so
/// equal sizes would dominate the zoo's runtime.
pub fn scenario_zoo() -> Vec<ScenarioSpec> {
    ScenarioFamily::ALL
        .iter()
        .map(|&family| {
            let (n_stages, n_procs) = if family.comm_homogeneous() {
                (10, 10)
            } else {
                (8, 8)
            };
            ScenarioSpec {
                family,
                n_stages,
                n_procs,
            }
        })
        .collect()
}

/// All sub-figures of a numbered figure (2–7).
pub fn figures_of(number: u32) -> Vec<&'static FigureSpec> {
    PAPER_FIGURES
        .iter()
        .filter(|f| f.figure_number() == number)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Looks a figure spec up by id (`"fig2a"` … `"fig7b"`).
    fn figure_by_id(id: &str) -> Option<&'static FigureSpec> {
        PAPER_FIGURES.iter().find(|f| f.id == id)
    }

    #[test]
    fn twelve_subfigures_cover_figures_2_to_7() {
        assert_eq!(PAPER_FIGURES.len(), 12);
        for n in 2..=7 {
            assert_eq!(figures_of(n).len(), 2, "figure {n} must have two panels");
        }
    }

    #[test]
    fn lookup_by_id() {
        let f = figure_by_id("fig6b").unwrap();
        assert_eq!(f.kind, ExperimentKind::E2);
        assert_eq!(f.n_procs, 100);
        assert!(figure_by_id("fig9z").is_none());
    }

    #[test]
    fn params_match_spec() {
        let f = figure_by_id("fig4a").unwrap();
        let p = f.params();
        assert_eq!(p.n_stages, 5);
        assert_eq!(p.n_procs, 10);
        assert_eq!(p.family, ScenarioFamily::E3);
    }

    #[test]
    fn figure_numbers_parse() {
        assert_eq!(figure_by_id("fig2a").unwrap().figure_number(), 2);
        assert_eq!(figure_by_id("fig7b").unwrap().figure_number(), 7);
    }

    #[test]
    fn zoo_enumerates_every_registered_family_once() {
        let zoo = scenario_zoo();
        assert_eq!(zoo.len(), ScenarioFamily::ALL.len());
        for (spec, family) in zoo.iter().zip(ScenarioFamily::ALL) {
            assert_eq!(spec.family, family);
            let p = spec.params();
            assert_eq!(p.n_stages, spec.n_stages);
            assert_eq!(p.family, family);
        }
    }
}
