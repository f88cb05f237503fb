//! Small numeric helpers shared across the workspace: tolerant float
//! comparisons, prefix sums and grid generation.

/// Absolute tolerance used by the tolerant float comparisons.
///
/// The cost model only adds/divides a handful of values per interval, so a
/// tight absolute epsilon is appropriate.
pub const EPS: f64 = 1e-9;

/// `a ≤ b` up to [`EPS`].
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPS
}

/// `a < b` by strictly more than [`EPS`].
#[inline]
pub fn definitely_lt(a: f64, b: f64) -> bool {
    a < b - EPS
}

/// `a == b` up to [`EPS`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// `a == b` up to a relative tolerance scaled by the magnitudes involved.
#[cfg(test)]
pub(crate) fn approx_eq_rel(a: f64, b: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= EPS * scale
}

/// Inclusive prefix sums supporting O(1) range-sum queries over `f64`
/// weights.
///
/// `PrefixSums::range(i, j)` returns `Σ values[i..j]` (half-open). Sums are
/// accumulated once at construction; range queries are a single
/// subtraction, which keeps the split-exploration loops of the heuristics
/// cheap. For the value magnitudes used in this workspace (≤ ~10⁵ summed
/// over ≤ ~10³ elements) the cancellation error of the subtraction trick is
/// far below [`EPS`].
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixSums {
    acc: Vec<f64>,
}

impl PrefixSums {
    /// Builds prefix sums over `values`.
    pub fn new(values: &[f64]) -> Self {
        let mut acc = Vec::with_capacity(values.len() + 1);
        acc.push(0.0);
        let mut total = 0.0;
        for &v in values {
            total += v;
            acc.push(total);
        }
        PrefixSums { acc }
    }

    /// Number of underlying elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.acc.len() - 1
    }

    /// True when there are no underlying elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of `values[i..j]` (half-open range). Panics when `i > j` or
    /// `j > len`.
    #[inline]
    pub fn range(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i <= j && j < self.acc.len());
        self.acc[j] - self.acc[i]
    }

    /// Sum of every element.
    #[inline]
    pub fn total(&self) -> f64 {
        *self.acc.last().expect("prefix sums always hold a zero")
    }

    /// Largest `j ≥ i` such that `range(i, j) ≤ bound` (greedy maximal
    /// prefix). Elements are assumed non-negative so the range sum is
    /// monotone in `j`; found by binary search in O(log n).
    pub fn max_prefix_within(&self, i: usize, bound: f64) -> usize {
        let n = self.len();
        debug_assert!(i <= n);
        let (mut lo, mut hi) = (i, n);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if approx_le(self.range(i, mid), bound) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

/// `count` evenly spaced values covering `[lo, hi]` inclusively.
///
/// Returns `[lo]` for `count == 1`. Panics when `count == 0` or when the
/// bounds are not finite.
pub fn linspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(count > 0, "linspace needs at least one point");
    assert!(
        lo.is_finite() && hi.is_finite(),
        "linspace bounds must be finite"
    );
    if count == 1 {
        return vec![lo];
    }
    let step = (hi - lo) / (count - 1) as f64;
    (0..count).map(|k| lo + step * k as f64).collect()
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums_ranges() {
        let ps = PrefixSums::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ps.len(), 4);
        assert!(approx_eq(ps.range(0, 0), 0.0));
        assert!(approx_eq(ps.range(0, 4), 10.0));
        assert!(approx_eq(ps.range(1, 3), 5.0));
        assert!(approx_eq(ps.total(), 10.0));
    }

    #[test]
    fn prefix_sums_empty() {
        let ps = PrefixSums::new(&[]);
        assert!(ps.is_empty());
        assert!(approx_eq(ps.total(), 0.0));
    }

    #[test]
    fn max_prefix_within_finds_greedy_boundary() {
        let ps = PrefixSums::new(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        // From 0 with bound 8: 3+1+4 = 8 fits, +1 = 9 does not.
        assert_eq!(ps.max_prefix_within(0, 8.0), 3);
        // Bound smaller than the first element: empty prefix.
        assert_eq!(ps.max_prefix_within(0, 2.0), 0);
        // Bound covering everything.
        assert_eq!(ps.max_prefix_within(0, 100.0), 5);
        // Starting mid-array.
        assert_eq!(ps.max_prefix_within(2, 5.0), 4);
    }

    #[test]
    fn max_prefix_within_tolerates_eps() {
        let ps = PrefixSums::new(&[0.1, 0.2]);
        // 0.1 + 0.2 != 0.3 exactly in binary floating point; the tolerant
        // comparison must still accept the full prefix.
        assert_eq!(ps.max_prefix_within(0, 0.3), 2);
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let g = linspace(2.0, 4.0, 5);
        assert_eq!(g.len(), 5);
        assert!(approx_eq(g[0], 2.0));
        assert!(approx_eq(g[4], 4.0));
        assert!(approx_eq(g[1] - g[0], 0.5));
        assert_eq!(linspace(7.0, 9.0, 1), vec![7.0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn linspace_zero_points_panics() {
        let _ = linspace(0.0, 1.0, 0);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), None);
        assert!(approx_eq(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0));
    }

    #[test]
    fn tolerant_comparisons() {
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0 + EPS / 2.0, 1.0));
        assert!(!approx_le(1.0 + 10.0 * EPS, 1.0));
        assert!(definitely_lt(0.9, 1.0));
        assert!(!definitely_lt(1.0 - EPS / 2.0, 1.0));
        assert!(approx_eq_rel(1e12, 1e12 + 1e2));
        assert!(!approx_eq_rel(1e12, 1e12 + 1e6));
    }
}
