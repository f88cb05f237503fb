//! Bottleneck (min-max) assignment by threshold search over the sorted
//! cost values.

use crate::matching::has_perfect_matching;
use crate::{Assignment, CostMatrix};

/// Solves the bottleneck assignment problem: match every row to a distinct
/// column minimizing the **largest** selected cost.
///
/// Binary searches the sorted distinct finite costs; each candidate
/// threshold `T` is checked by building the bipartite graph of pairs with
/// cost ≤ `T` and testing for a row-perfect matching. O(n² log n) matching
/// calls in the worst case, each O(V·E). The answer is
/// [`bottleneck_assignment_at`] the smallest feasible threshold.
///
/// Returns `None` when even the full finite graph admits no row-perfect
/// matching. Requires `rows ≤ cols`.
pub fn bottleneck_assignment(costs: &CostMatrix) -> Option<Assignment> {
    let n = costs.rows();
    let m = costs.cols();
    assert!(n <= m, "bottleneck requires rows ({n}) <= cols ({m})");
    if n == 0 {
        return bottleneck_assignment_at(costs, f64::NEG_INFINITY);
    }

    let mut values = costs.finite_values();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values.dedup();
    if values.is_empty() {
        return None;
    }

    // Quick reject: even the most permissive threshold may be infeasible.
    if !{
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|r| (0..m).filter(|&c| costs.at(r, c).is_finite()).collect())
            .collect();
        has_perfect_matching(&adj, m)
    } {
        return None;
    }

    // Binary search the smallest feasible threshold.
    let (mut lo, mut hi) = (0usize, values.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if bottleneck_assignment_at(costs, values[mid]).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(bottleneck_assignment_at(costs, values[lo]).expect("threshold verified feasible"))
}

/// The row-perfect matching over the pairs with cost ≤ `threshold`, or
/// `None` when there is none. At the bottleneck optimum this is exactly
/// what [`bottleneck_assignment`] returns, so a caller that already
/// knows the optimum skips the threshold search. The objective is the
/// largest selected cost (`-∞` for an empty matrix).
pub fn bottleneck_assignment_at(costs: &CostMatrix, threshold: f64) -> Option<Assignment> {
    let n = costs.rows();
    let m = costs.cols();
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|r| (0..m).filter(|&c| costs.at(r, c) <= threshold).collect())
        .collect();
    let (size, ml) = crate::matching::max_bipartite_matching(&adj, m);
    if size < n {
        return None;
    }
    let assigned: Vec<usize> = ml
        .into_iter()
        .map(|c| c.expect("perfect on rows"))
        .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::brute_force_min_sum;

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
        assert!(bottleneck_assignment(&empty).is_some());
        let one = CostMatrix::from_rows(1, 1, vec![3.5]);
        let a = bottleneck_assignment(&one).unwrap();
        assert_eq!(a.assigned, vec![0]);
        assert_eq!(a.objective, 3.5);
    }

    #[test]
    fn bottleneck_differs_from_min_sum() {
        // Min-sum picks (0,0)+(1,1) = 1+10 = 11 with max 10;
        // bottleneck prefers (0,1)+(1,0) with max 6.
        let costs = CostMatrix::from_rows(2, 2, vec![1.0, 6.0, 5.0, 10.0]);
        let b = bottleneck_assignment(&costs).unwrap();
        assert_eq!(b.objective, 6.0);
        let s = brute_force_min_sum(&costs).unwrap();
        assert_eq!(s.objective, 11.0);
    }

    #[test]
    fn forbidden_pairs_and_infeasibility() {
        let inf = f64::INFINITY;
        let feasible = CostMatrix::from_rows(2, 2, vec![inf, 2.0, 3.0, inf]);
        let a = bottleneck_assignment(&feasible).unwrap();
        assert_eq!(a.assigned, vec![1, 0]);
        assert_eq!(a.objective, 3.0);

        let infeasible = CostMatrix::from_rows(2, 2, vec![1.0, inf, 2.0, inf]);
        assert!(bottleneck_assignment(&infeasible).is_none());

        let all_forbidden = CostMatrix::from_rows(1, 1, vec![inf]);
        assert!(bottleneck_assignment(&all_forbidden).is_none());
    }

    #[test]
    fn rectangular_uses_spare_columns() {
        let costs = CostMatrix::from_rows(2, 3, vec![9.0, 9.0, 1.0, 9.0, 2.0, 9.0]);
        let a = bottleneck_assignment(&costs).unwrap();
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
            let fast = bottleneck_assignment(&costs).unwrap();
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
        for (rows, cols) in [(0, 2), (1, 1), (3, 3), (4, 6), (6, 6), (5, 8)] {
            let costs = CostMatrix::from_fn(rows, cols, |_, _| next());
            let searched = bottleneck_assignment(&costs).unwrap();
            let at = bottleneck_assignment_at(&costs, searched.objective);
            assert_eq!(at.as_ref(), Some(&searched), "{rows}x{cols}");
            if rows > 0 {
                let below = searched.objective - 0.5;
                assert!(bottleneck_assignment_at(&costs, below).is_none());
            }
        }
    }

    #[test]
    fn ties_are_resolved_consistently() {
        // All costs equal: any assignment is optimal, objective = the value.
        let costs = CostMatrix::from_rows(3, 3, vec![7.0; 9]);
        let a = bottleneck_assignment(&costs).unwrap();
        assert_eq!(a.objective, 7.0);
        let mut cols = a.assigned.clone();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2]);
    }
}
