//! Bottleneck (min-max) assignment by threshold search over the sorted
//! cost values, on one Kuhn matching over row bitsets.

use crate::{Assignment, CostMatrix};

/// Marks a column no row is matched to.
const FREE: usize = usize::MAX;

/// Reusable buffers of the bottleneck kernel: the candidate thresholds,
/// the allowed pairs as row bitsets and the matching state. One scratch
/// serves any matrix size — buffers are resized (never shrunk) per call,
/// so a warm scratch makes every threshold probe allocation-free; only
/// the returned [`Assignment`] allocates.
#[derive(Debug, Clone, Default)]
pub struct BottleneckScratch {
    /// Distinct finite costs at or above the row-minimum bound, ascending.
    values: Vec<f64>,
    /// Allowed pairs: `words` `u64`s per row, column `c` at bit `c % 64`
    /// of the row's word `c / 64`.
    rows: Vec<u64>,
    /// Words per row: `⌈cols / 64⌉`.
    words: usize,
    /// Columns the current augmenting-path search has visited.
    visited: Vec<u64>,
    /// `owner[c]` is the row matched to column `c`, or [`FREE`].
    owner: Vec<usize>,
}

impl BottleneckScratch {
    /// Loads the pairs whose cost `allowed` admits as row bitsets, then
    /// runs Kuhn's augmenting-path matching row by row. True when every
    /// row is matched; stops at the first row that cannot be. Each DFS
    /// tries a row's columns in ascending order, so the matching is the
    /// one the textbook adjacency-list formulation finds.
    fn matches_all_rows(&mut self, costs: &CostMatrix, allowed: impl Fn(f64) -> bool) -> bool {
        let words = costs.cols().div_ceil(64);
        self.words = words;
        self.rows.clear();
        for r in 0..costs.rows() {
            for chunk in costs.row(r).chunks(64) {
                let mut word = 0u64;
                for (bit, &c) in chunk.iter().enumerate() {
                    word |= u64::from(allowed(c)) << bit;
                }
                self.rows.push(word);
            }
        }
        self.owner.clear();
        self.owner.resize(costs.cols(), FREE);
        self.visited.resize(words, 0);
        (0..costs.rows()).all(|r| {
            self.visited.fill(0);
            self.augment(r)
        })
    }

    /// Tries to match `row` along an augmenting path through unvisited
    /// columns, lowest column first.
    fn augment(&mut self, row: usize) -> bool {
        for w in 0..self.words {
            loop {
                // Re-read each step: the recursion marks columns visited.
                let open = self.rows[row * self.words + w] & !self.visited[w];
                if open == 0 {
                    break;
                }
                let bit = open.trailing_zeros() as usize;
                self.visited[w] |= 1 << bit;
                let col = w * 64 + bit;
                let owner = self.owner[col];
                if owner == FREE || self.augment(owner) {
                    self.owner[col] = row;
                    return true;
                }
            }
        }
        false
    }
}

/// Solves the bottleneck assignment problem: match every row to a distinct
/// column minimizing the **largest** selected cost.
///
/// Binary searches the sorted distinct finite costs, starting at the
/// row-minimum lower bound (every row pays at least its least cost).
/// Each candidate threshold `T` is one feasibility probe: the pairs with
/// cost ≤ `T` become row bitsets of `⌈cols/64⌉` words and Kuhn's
/// augmenting-path matching tests for a row-perfect matching in
/// O(rows · cols · ⌈cols/64⌉) word operations. With `k` distinct costs
/// that is ~log2 k probes plus one full-finite-graph reject test; the
/// answer is [`bottleneck_assignment_at`] the smallest feasible
/// threshold. The buffers are caller-owned, so a warm `scratch` probes
/// without allocating.
///
/// Returns `None` when even the full finite graph admits no row-perfect
/// matching. Requires `rows ≤ cols`.
pub fn bottleneck_assignment(
    costs: &CostMatrix,
    scratch: &mut BottleneckScratch,
) -> Option<Assignment> {
    let n = costs.rows();
    let m = costs.cols();
    assert!(n <= m, "bottleneck requires rows ({n}) <= cols ({m})");
    if n == 0 {
        return bottleneck_assignment_at(costs, f64::NEG_INFINITY, scratch);
    }
    // Quick reject: even the most permissive threshold may be infeasible.
    if !scratch.matches_all_rows(costs, f64::is_finite) {
        return None;
    }
    let lb = (0..n)
        .map(|r| costs.row(r).iter().copied().fold(f64::INFINITY, f64::min))
        .fold(f64::NEG_INFINITY, f64::max);
    let values = &mut scratch.values;
    values.clear();
    for r in 0..n {
        values.extend(costs.row(r).iter().filter(|&&c| c.is_finite() && c >= lb));
    }
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    values.dedup();

    // Binary search the smallest feasible threshold. A finite row-perfect
    // matching exists, and its largest cost is a value ≥ `lb`.
    let (mut lo, mut hi) = (0usize, scratch.values.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let t = scratch.values[mid];
        if scratch.matches_all_rows(costs, |c| c <= t) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let t = scratch.values[lo];
    Some(bottleneck_assignment_at(costs, t, scratch).expect("threshold verified feasible"))
}

/// The row-perfect matching over the pairs with cost ≤ `threshold`, or
/// `None` when there is none. At the bottleneck optimum this is exactly
/// what [`bottleneck_assignment`] returns, so a caller that already
/// knows the optimum skips the threshold search. The objective is the
/// largest selected cost (`-∞` for an empty matrix).
pub fn bottleneck_assignment_at(
    costs: &CostMatrix,
    threshold: f64,
    scratch: &mut BottleneckScratch,
) -> Option<Assignment> {
    if !scratch.matches_all_rows(costs, |c| c <= threshold) {
        return None;
    }
    let mut assigned = vec![FREE; costs.rows()];
    for (col, &row) in scratch.owner.iter().enumerate() {
        if row != FREE {
            assigned[row] = col;
        }
    }
    let objective = assigned
        .iter()
        .enumerate()
        .map(|(r, &c)| costs.at(r, c))
        .fold(f64::NEG_INFINITY, f64::max);
    Some(Assignment {
        assigned,
        objective,
    })
}

/// Whether the bottleneck optimum of `costs` is strictly below `bound`:
/// exactly when some row-perfect matching uses only costs `< bound`, so
/// one feasibility probe decides it without the threshold search. Agrees
/// with `bottleneck_assignment(costs, _).map_or(false, |a| a.objective <
/// bound)`; allocation-free once `scratch` is warm.
pub fn bottleneck_below(costs: &CostMatrix, bound: f64, scratch: &mut BottleneckScratch) -> bool {
    if costs.rows() == 0 {
        return f64::NEG_INFINITY < bound;
    }
    scratch.matches_all_rows(costs, |c| c < bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::brute_force_min_sum;
    use crate::matching::{has_perfect_matching, max_bipartite_matching};

    fn solve(costs: &CostMatrix) -> Option<Assignment> {
        bottleneck_assignment(costs, &mut BottleneckScratch::default())
    }

    /// The adjacency-list reference the bitset kernel must match bit for
    /// bit: a fresh `Vec<Vec<usize>>` graph and a full Kuhn matching per
    /// threshold, binary searching every distinct finite cost.
    fn reference_at(costs: &CostMatrix, threshold: f64) -> Option<Assignment> {
        let (n, m) = (costs.rows(), costs.cols());
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|r| (0..m).filter(|&c| costs.at(r, c) <= threshold).collect())
            .collect();
        let (size, ml) = max_bipartite_matching(&adj, m);
        if size < n {
            return None;
        }
        let assigned: Vec<usize> = ml.into_iter().map(|c| c.unwrap()).collect();
        let objective = assigned
            .iter()
            .enumerate()
            .map(|(r, &c)| costs.at(r, c))
            .fold(f64::NEG_INFINITY, f64::max);
        Some(Assignment {
            assigned,
            objective,
        })
    }

    fn reference(costs: &CostMatrix) -> Option<Assignment> {
        let (n, m) = (costs.rows(), costs.cols());
        if n == 0 {
            return reference_at(costs, f64::NEG_INFINITY);
        }
        let mut values = costs.finite_values();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        values.dedup();
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|r| (0..m).filter(|&c| costs.at(r, c).is_finite()).collect())
            .collect();
        if values.is_empty() || !has_perfect_matching(&adj, m) {
            return None;
        }
        let (mut lo, mut hi) = (0usize, values.len() - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if reference_at(costs, values[mid]).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        reference_at(costs, values[lo])
    }

    /// Exponential reference: minimize the max cost over all injections.
    fn brute_force_min_max(costs: &CostMatrix) -> Option<f64> {
        // Reuse the min-sum brute force on transformed costs? Max is not
        // additive, so enumerate directly.
        fn rec(costs: &CostMatrix, r: usize, used: &mut [bool], acc: f64, best: &mut f64) {
            if r == costs.rows() {
                *best = best.min(acc);
                return;
            }
            for c in 0..costs.cols() {
                let v = costs.at(r, c);
                if !used[c] && v.is_finite() {
                    used[c] = true;
                    rec(costs, r + 1, used, acc.max(v), best);
                    used[c] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        let mut used = vec![false; costs.cols()];
        rec(costs, 0, &mut used, f64::NEG_INFINITY, &mut best);
        best.is_finite().then_some(best)
    }

    #[test]
    fn empty_and_singleton() {
        let empty = CostMatrix::from_rows(0, 2, vec![]);
        assert!(solve(&empty).is_some());
        let one = CostMatrix::from_rows(1, 1, vec![3.5]);
        let a = solve(&one).unwrap();
        assert_eq!(a.assigned, vec![0]);
        assert_eq!(a.objective, 3.5);
    }

    #[test]
    fn bottleneck_differs_from_min_sum() {
        // Min-sum picks (0,0)+(1,1) = 1+10 = 11 with max 10;
        // bottleneck prefers (0,1)+(1,0) with max 6.
        let costs = CostMatrix::from_rows(2, 2, vec![1.0, 6.0, 5.0, 10.0]);
        let b = solve(&costs).unwrap();
        assert_eq!(b.objective, 6.0);
        let s = brute_force_min_sum(&costs).unwrap();
        assert_eq!(s.objective, 11.0);
    }

    #[test]
    fn forbidden_pairs_and_infeasibility() {
        let inf = f64::INFINITY;
        let feasible = CostMatrix::from_rows(2, 2, vec![inf, 2.0, 3.0, inf]);
        let a = solve(&feasible).unwrap();
        assert_eq!(a.assigned, vec![1, 0]);
        assert_eq!(a.objective, 3.0);

        let infeasible = CostMatrix::from_rows(2, 2, vec![1.0, inf, 2.0, inf]);
        assert!(solve(&infeasible).is_none());

        let all_forbidden = CostMatrix::from_rows(1, 1, vec![inf]);
        assert!(solve(&all_forbidden).is_none());
    }

    #[test]
    fn rectangular_uses_spare_columns() {
        let costs = CostMatrix::from_rows(2, 3, vec![9.0, 9.0, 1.0, 9.0, 2.0, 9.0]);
        let a = solve(&costs).unwrap();
        assert_eq!(a.assigned, vec![2, 1]);
        assert_eq!(a.objective, 2.0);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 50.0
        };
        for (rows, cols) in [(3, 3), (4, 4), (4, 6), (5, 5), (6, 6)] {
            let costs = CostMatrix::from_fn(rows, cols, |_, _| next());
            let fast = solve(&costs).unwrap();
            let slow = brute_force_min_max(&costs).unwrap();
            assert!(
                (fast.objective - slow).abs() < 1e-9,
                "{rows}x{cols}: bottleneck {} != brute force {slow}",
                fast.objective,
            );
        }
    }

    #[test]
    fn the_known_optimum_gives_the_searched_assignment() {
        // Few distinct costs, so ties between matchings abound.
        let mut state = 0x0123_4567_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 4) as f64
        };
        let mut scratch = BottleneckScratch::default();
        for (rows, cols) in [(0, 2), (1, 1), (3, 3), (4, 6), (6, 6), (5, 8)] {
            let costs = CostMatrix::from_fn(rows, cols, |_, _| next());
            let searched = bottleneck_assignment(&costs, &mut scratch).unwrap();
            let at = bottleneck_assignment_at(&costs, searched.objective, &mut scratch);
            assert_eq!(at.as_ref(), Some(&searched), "{rows}x{cols}");
            if rows > 0 {
                let below = searched.objective - 0.5;
                assert!(bottleneck_assignment_at(&costs, below, &mut scratch).is_none());
            }
        }
    }

    #[test]
    fn ties_are_resolved_consistently() {
        // All costs equal: any assignment is optimal, objective = the value.
        let costs = CostMatrix::from_rows(3, 3, vec![7.0; 9]);
        let a = solve(&costs).unwrap();
        assert_eq!(a.objective, 7.0);
        let mut cols = a.assigned.clone();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2]);
    }

    /// The bitset kernel against the adjacency-list reference it
    /// replaced, on one warm scratch: the same `assigned` vector and
    /// objective bits from the search, and the strict-below probe agrees
    /// with the searched optimum at every bound tried — each matrix
    /// entry itself, its neighbours and ±∞. Tie-heavy (2–4 distinct
    /// values) and continuous costs, forbidden (`∞`) pairs, square and
    /// rectangular shapes, and widths past one 64-bit word.
    #[test]
    fn the_bitset_kernel_matches_the_adjacency_list_reference() {
        let mut state = 0x5EED_u64;
        let mut next = move |k: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % k
        };
        let mut scratch = BottleneckScratch::default();
        let shapes = [
            (1, 1),
            (2, 5),
            (4, 4),
            (5, 9),
            (8, 8),
            (14, 16),
            (20, 64),
            (24, 65),
            (30, 70),
            (40, 130),
        ];
        let mut cases = 0;
        for round in 0..12u64 {
            for &(rows, cols) in &shapes {
                let distinct = [2, 3, 4, 1000][round as usize % 4];
                let forbid = [0, 10, 40][round as usize % 3];
                let costs = CostMatrix::from_fn(rows, cols, |_, _| {
                    if next(100) < forbid {
                        f64::INFINITY
                    } else {
                        next(distinct) as f64 * 1.5
                    }
                });
                let label = format!("round {round}, {rows}x{cols}");
                let fast = bottleneck_assignment(&costs, &mut scratch);
                let slow = reference(&costs);
                assert_eq!(
                    fast.as_ref().map(|a| (&a.assigned, a.objective.to_bits())),
                    slow.as_ref().map(|a| (&a.assigned, a.objective.to_bits())),
                    "{label}"
                );
                let mut bounds = vec![f64::NEG_INFINITY, f64::INFINITY];
                for r in 0..rows.min(3) {
                    for c in 0..cols.min(3) {
                        let v = costs.at(r, c);
                        bounds.extend([v, v - 0.75, v + 0.75]);
                    }
                }
                if let Some(a) = &slow {
                    bounds.push(a.objective);
                }
                for bound in bounds {
                    assert_eq!(
                        bottleneck_below(&costs, bound, &mut scratch),
                        slow.as_ref().is_some_and(|a| a.objective < bound),
                        "{label} below {bound}"
                    );
                }
                cases += 1;
            }
        }
        assert_eq!(cases, 12 * shapes.len());
    }
}
