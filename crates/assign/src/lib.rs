//! Assignment algorithms used by the exact bi-criteria solvers of
//! `pipeline-core`.
//!
//! An interval partition of a pipeline fixes the *shape* of a mapping; what
//! remains is matching intervals to processors. Three classical tools cover
//! the cases that arise:
//!
//! * [`hungarian_in`] — minimum-**sum** assignment (O(n³) shortest augmenting
//!   paths with potentials). Used to minimize latency, which is additive
//!   over intervals (paper eq. 2).
//! * [`bottleneck_assignment`] — minimum-**max** assignment, by binary
//!   searching the sorted cost values with a feasibility matching. Used to
//!   minimize the period, which is a max over intervals (paper eq. 1).
//!   [`bottleneck_below`] is its one-probe decision form ("is the optimum
//!   below this bound?").
//! * Kuhn's augmenting-path bipartite matching on row bitsets, the
//!   feasibility oracle behind the bottleneck search. Its buffers are
//!   caller-owned ([`BottleneckScratch`]), like [`HungarianScratch`].
//!
//! Cost matrices are rectangular `rows × cols` with `rows ≤ cols` (every
//! row must be assigned, columns may stay free). `f64::INFINITY` marks a
//! forbidden pair.

mod bottleneck;
mod hungarian;
#[cfg(test)]
mod matching;

pub use bottleneck::{
    bottleneck_assignment, bottleneck_assignment_at, bottleneck_below, BottleneckScratch,
};
pub use hungarian::{hungarian_in, HungarianScratch};

/// A dense rectangular cost matrix.
///
/// Row-major storage; `rows ≤ cols` is required by the solvers (pad with a
/// dummy column of zeros when modelling unassigned rows is needed).
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for CostMatrix {
    fn default() -> Self {
        CostMatrix::empty()
    }
}

impl CostMatrix {
    /// Builds a matrix from row-major data. Panics when the data length
    /// does not equal `rows * cols` or any entry is NaN.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "cost data length mismatch");
        assert!(data.iter().all(|c| !c.is_nan()), "costs must not be NaN");
        CostMatrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut out = CostMatrix {
            rows: 0,
            cols: 0,
            data: Vec::with_capacity(rows * cols),
        };
        out.refill(rows, cols, &mut f);
        out
    }

    /// An empty matrix to be (re)filled with [`Self::refill`] — the
    /// reusable-buffer counterpart of [`Self::from_fn`]. Also the
    /// [`Default`] value.
    pub fn empty() -> Self {
        CostMatrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// Refills the matrix in place from `f(row, col)`, reusing the data
    /// buffer's capacity. Produces exactly what
    /// [`Self::from_fn(rows, cols, f)`](Self::from_fn) would.
    pub fn refill(&mut self, rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.reserve(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = f(r, c);
                assert!(!v.is_nan(), "costs must not be NaN");
                self.data.push(v);
            }
        }
    }

    /// Number of rows (items to assign).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (slots).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cost of assigning row `r` to column `c`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Row `r`'s costs, by column.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// All finite cost values, unsorted.
    #[cfg(test)]
    pub(crate) fn finite_values(&self) -> Vec<f64> {
        self.data
            .iter()
            .copied()
            .filter(|c| c.is_finite())
            .collect()
    }
}

/// Result of an assignment solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `assigned[r]` is the column matched to row `r`.
    pub assigned: Vec<usize>,
    /// Objective value: total cost for [`hungarian_in`], max cost for
    /// [`bottleneck_assignment`].
    pub objective: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_matrix_accessors() {
        let m = CostMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.at(0, 2), 3.0);
        assert_eq!(m.at(1, 0), 4.0);
    }

    #[test]
    fn from_fn_matches_from_rows() {
        let a = CostMatrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64);
        let b = CostMatrix::from_rows(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn finite_values_skips_forbidden() {
        let m = CostMatrix::from_rows(1, 3, vec![1.0, f64::INFINITY, 3.0]);
        assert_eq!(m.finite_values(), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bad_shape_panics() {
        let _ = CostMatrix::from_rows(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_cost_panics() {
        let _ = CostMatrix::from_rows(1, 1, vec![f64::NAN]);
    }
}
