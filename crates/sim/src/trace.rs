//! Execution traces and ASCII Gantt rendering.

/// What an entity was doing during a traced span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Receiving an interval input (occupies the receiving processor).
    Receive,
    /// Computing an interval.
    Compute,
    /// Sending an interval output (occupies the sending processor).
    Send,
}

impl TraceKind {
    /// One-character glyph used by the Gantt renderer.
    fn glyph(&self) -> char {
        match self {
            TraceKind::Receive => 'r',
            TraceKind::Compute => '#',
            TraceKind::Send => 's',
        }
    }
}

/// One busy span of one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Processor id (platform [`pipeline_model::ProcId`]).
    pub proc: usize,
    /// Activity.
    pub kind: TraceKind,
    /// Data set index.
    pub dataset: usize,
    /// Span start time.
    pub start: f64,
    /// Span end time.
    pub end: f64,
}

/// An ASCII Gantt chart of a trace.
///
/// Rows are processors, columns are time buckets; each cell shows the
/// activity glyph (receive `r`, compute `#`, send `s`, idle `.`).
#[derive(Debug, Clone)]
pub struct Gantt {
    /// Rendering width in character columns.
    pub width: usize,
}

impl Default for Gantt {
    fn default() -> Self {
        Gantt { width: 100 }
    }
}

impl Gantt {
    /// Renders `events` (any order) over `[0, horizon]` for the given
    /// processors (row order preserved); spans starting at or after the
    /// horizon are left out and spans crossing it are clipped. Returns a
    /// multi-line string.
    pub fn render(&self, events: &[TraceEvent], procs: &[usize], horizon: f64) -> String {
        assert!(horizon > 0.0, "empty horizon");
        assert!(self.width >= 10, "Gantt needs at least 10 columns");
        let scale = self.width as f64 / horizon;
        let mut out = String::new();
        for &p in procs {
            let mut row = vec!['.'; self.width];
            for e in events.iter().filter(|e| e.proc == p && e.start < horizon) {
                let from = ((e.start * scale) as usize).min(self.width - 1);
                let to = ((e.end * scale).ceil() as usize).clamp(from + 1, self.width);
                for cell in &mut row[from..to] {
                    *cell = e.kind.glyph();
                }
            }
            out.push_str(&format!("P{p:<3} |"));
            out.extend(row);
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "     0{:>width$.2}\n",
            horizon,
            width = self.width + 4
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(proc: usize, kind: TraceKind, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            proc,
            kind,
            dataset: 0,
            start,
            end,
        }
    }

    #[test]
    fn glyphs_are_distinct() {
        let g: Vec<char> = [TraceKind::Receive, TraceKind::Compute, TraceKind::Send]
            .iter()
            .map(|k| k.glyph())
            .collect();
        let mut dedup = g.clone();
        dedup.dedup();
        assert_eq!(g, dedup);
    }

    #[test]
    fn render_marks_busy_spans() {
        let gantt = Gantt { width: 10 };
        let events = vec![
            ev(0, TraceKind::Receive, 0.0, 1.0),
            ev(0, TraceKind::Compute, 1.0, 8.0),
            ev(0, TraceKind::Send, 8.0, 10.0),
        ];
        let s = gantt.render(&events, &[0], 10.0);
        let row = s.lines().next().unwrap();
        assert!(row.starts_with("P0"));
        assert!(row.contains('r'));
        assert!(row.contains('#'));
        assert!(row.contains('s'));
        assert!(!row.contains("............"), "row should be mostly busy");
    }

    #[test]
    fn render_skips_spans_past_the_horizon() {
        let gantt = Gantt { width: 10 };
        let events = vec![ev(0, TraceKind::Compute, 20.0, 25.0)];
        let s = gantt.render(&events, &[0], 10.0);
        assert_eq!(s.lines().next().unwrap(), "P0   |..........|");
        // A span crossing the horizon is clipped to the last columns.
        let events = vec![ev(0, TraceKind::Send, 8.0, 12.0)];
        let s = gantt.render(&events, &[0], 10.0);
        assert_eq!(s.lines().next().unwrap(), "P0   |........ss|");
    }

    #[test]
    fn render_idle_processor_is_dots() {
        let gantt = Gantt { width: 12 };
        let s = gantt.render(&[], &[3], 5.0);
        let row = s.lines().next().unwrap();
        assert!(row.contains("............"));
        assert!(row.starts_with("P3"));
    }

    #[test]
    fn render_multiple_rows_in_order() {
        let gantt = Gantt { width: 10 };
        let events = vec![ev(1, TraceKind::Compute, 0.0, 5.0)];
        let s = gantt.render(&events, &[0, 1], 5.0);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("P0"));
        assert!(lines[1].starts_with("P1"));
        assert!(lines[1].contains('#'));
    }

    #[test]
    #[should_panic(expected = "empty horizon")]
    fn zero_horizon_panics() {
        Gantt::default().render(&[], &[0], 0.0);
    }
}
