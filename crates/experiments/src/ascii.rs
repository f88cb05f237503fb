//! Terminal scatter/line plots for the figure binaries.

/// A multi-series character plot.
#[derive(Debug, Clone)]
pub struct Chart {
    /// Plot area width in columns.
    pub width: usize,
    /// Plot area height in rows.
    pub height: usize,
    /// Axis labels.
    pub x_label: String,
    /// Axis labels.
    pub y_label: String,
}

impl Default for Chart {
    fn default() -> Self {
        Chart {
            width: 72,
            height: 24,
            x_label: "Period".into(),
            y_label: "Latency".into(),
        }
    }
}

/// Series markers, one per heuristic in Table-1 order.
const MARKERS: [char; 6] = ['1', '2', '3', '4', '5', '6'];

impl Chart {
    /// Renders `series` (label, points) into a plot with axes and legend.
    /// Points outside the data bounding box never occur (bounds are
    /// computed from the data); empty series are listed in the legend as
    /// `(no feasible point)`.
    pub fn render(&self, series: &[(String, Vec<(f64, f64)>)]) -> String {
        assert!(self.width >= 20 && self.height >= 8, "chart too small");
        let all: Vec<(f64, f64)> = series
            .iter()
            .flat_map(|(_, pts)| pts.iter().copied())
            .collect();
        if all.is_empty() {
            return "(no data)\n".to_string();
        }
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &all {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
        // Degenerate ranges get a small pad so everything maps mid-plot.
        if x_max - x_min < 1e-12 {
            x_min -= 0.5;
            x_max += 0.5;
        }
        if y_max - y_min < 1e-12 {
            y_min -= 0.5;
            y_max += 0.5;
        }

        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, (_, pts)) in series.iter().enumerate() {
            let marker = MARKERS[si % MARKERS.len()];
            for &(x, y) in pts {
                let cx = ((x - x_min) / (x_max - x_min) * (self.width - 1) as f64).round() as usize;
                let cy =
                    ((y - y_min) / (y_max - y_min) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - cy; // y grows upward
                let cell = &mut grid[row][cx];
                // Overlapping series: show the later one (closest to the
                // legend order the paper uses).
                *cell = marker;
            }
        }

        let mut out = String::new();
        out.push_str(&format!(
            "{} ({} ↑)\n",
            self.y_label,
            self.y_label.to_lowercase()
        ));
        for (r, row) in grid.iter().enumerate() {
            let y_here = y_max - (y_max - y_min) * r as f64 / (self.height - 1) as f64;
            let label = if r == 0 || r == self.height - 1 || r == self.height / 2 {
                format!("{y_here:>8.2} |")
            } else {
                format!("{:>8} |", "")
            };
            out.push_str(&label);
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!("{:>9}+{}\n", "", "-".repeat(self.width)));
        out.push_str(&format!(
            "{:>9} {:<12.2}{:>width$.2}  ({})\n",
            "",
            x_min,
            x_max,
            self.x_label,
            width = self.width - 12
        ));
        out.push_str("  legend: ");
        for (si, (label, pts)) in series.iter().enumerate() {
            let marker = MARKERS[si % MARKERS.len()];
            if pts.is_empty() {
                out.push_str(&format!("[{marker}] {label} (no feasible point)  "));
            } else {
                out.push_str(&format!("[{marker}] {label}  "));
            }
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markers_and_legend() {
        let chart = Chart::default();
        let series = vec![
            ("alpha".to_string(), vec![(1.0, 1.0), (2.0, 2.0)]),
            ("beta".to_string(), vec![(1.0, 2.0)]),
        ];
        let s = chart.render(&series);
        assert!(s.contains('1'));
        assert!(s.contains('2'));
        assert!(s.contains("alpha"));
        assert!(s.contains("beta"));
        assert!(s.contains("legend"));
    }

    #[test]
    fn empty_series_listed_as_infeasible() {
        let chart = Chart::default();
        let series = vec![
            ("ok".to_string(), vec![(0.0, 0.0), (1.0, 1.0)]),
            ("never".to_string(), vec![]),
        ];
        let s = chart.render(&series);
        assert!(s.contains("never (no feasible point)"));
    }

    #[test]
    fn no_data_at_all() {
        let chart = Chart::default();
        let s = chart.render(&[("x".to_string(), vec![])]);
        assert_eq!(s, "(no data)\n");
    }

    #[test]
    fn degenerate_single_point() {
        let chart = Chart::default();
        let s = chart.render(&[("pt".to_string(), vec![(5.0, 5.0)])]);
        assert!(s.contains('1'));
    }

    #[test]
    fn extreme_points_stay_in_bounds() {
        let chart = Chart {
            width: 30,
            height: 10,
            ..Chart::default()
        };
        let series = vec![(
            "s".to_string(),
            vec![(0.0, 0.0), (100.0, 100.0), (50.0, 25.0)],
        )];
        // Must not panic on boundary indices.
        let s = chart.render(&series);
        assert!(s.lines().count() > 10);
    }
}
