//! Minimum-cost assignment by shortest augmenting paths with potentials
//! (the O(n³) "Hungarian algorithm" in its Jonker–Volgenant style).

use crate::{Assignment, CostMatrix};

/// Reusable buffers of [`hungarian_in`]: the dual potentials, matching
/// and per-row path state. One scratch serves any matrix size — buffers
/// are resized (never shrunk) per call, so a warm scratch makes repeated
/// solves allocation-free.
#[derive(Debug, Clone, Default)]
pub struct HungarianScratch {
    u: Vec<f64>,
    v: Vec<f64>,
    match_col: Vec<usize>,
    min_v: Vec<f64>,
    way: Vec<usize>,
    used: Vec<bool>,
}

/// Resets `buf` to `len` copies of `value`, reusing capacity.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Solves the rectangular min-cost assignment problem: match every row of
/// `costs` to a distinct column minimizing the total cost.
///
/// `f64::INFINITY` entries are forbidden pairs. Returns `None` when no
/// finite-cost complete assignment of the rows exists. Requires
/// `rows ≤ cols`.
///
/// The implementation maintains dual potentials `u` (rows) and `v`
/// (columns) and augments one row at a time along a shortest path in the
/// reduced-cost graph, the classical O(rows²·cols) scheme. The scratch
/// buffers are caller-owned (`HungarianScratch::default()` for fresh
/// ones): no allocation beyond the returned [`Assignment`] once warm.
pub fn hungarian_in(costs: &CostMatrix, scratch: &mut HungarianScratch) -> Option<Assignment> {
    let n = costs.rows();
    let m = costs.cols();
    assert!(n <= m, "hungarian requires rows ({n}) <= cols ({m})");
    if n == 0 {
        return Some(Assignment {
            assigned: vec![],
            objective: 0.0,
        });
    }

    // 1-based arrays with a virtual column 0, following the classical
    // formulation; way[c] remembers the previous column on the shortest
    // augmenting path.
    reset(&mut scratch.u, n + 1, 0.0);
    reset(&mut scratch.v, m + 1, 0.0);
    reset(&mut scratch.match_col, m + 1, 0); // row matched to column (1-based; 0 = free)
    let u = &mut scratch.u;
    let v = &mut scratch.v;
    let match_col = &mut scratch.match_col;

    for r in 1..=n {
        match_col[0] = r;
        let mut j0 = 0usize;
        reset(&mut scratch.min_v, m + 1, f64::INFINITY);
        reset(&mut scratch.way, m + 1, 0);
        reset(&mut scratch.used, m + 1, false);
        let min_v = &mut scratch.min_v;
        let way = &mut scratch.way;
        let used = &mut scratch.used;
        loop {
            used[j0] = true;
            let i0 = match_col[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = costs.at(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < min_v[j] {
                    min_v[j] = cur;
                    way[j] = j0;
                }
                if min_v[j] < delta {
                    delta = min_v[j];
                    j1 = j;
                }
            }
            if !delta.is_finite() {
                // No augmenting path with finite cost: the row cannot be
                // assigned.
                return None;
            }
            for j in 0..=m {
                if used[j] {
                    u[match_col[j]] += delta;
                    v[j] -= delta;
                } else {
                    min_v[j] -= delta;
                }
            }
            j0 = j1;
            if match_col[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        while j0 != 0 {
            let j1 = way[j0];
            match_col[j0] = match_col[j1];
            j0 = j1;
        }
    }

    let mut assigned = vec![usize::MAX; n];
    for j in 1..=m {
        if match_col[j] != 0 {
            assigned[match_col[j] - 1] = j - 1;
        }
    }
    debug_assert!(assigned.iter().all(|&c| c != usize::MAX));
    let objective = assigned
        .iter()
        .enumerate()
        .map(|(r, &c)| costs.at(r, c))
        .sum();
    Some(Assignment {
        assigned,
        objective,
    })
}

/// Brute-force reference solver enumerating every injective row→column
/// map. Exponential; only for validating [`hungarian_in`] on tiny inputs.
#[cfg(test)]
pub(crate) fn brute_force_min_sum(costs: &CostMatrix) -> Option<Assignment> {
    let n = costs.rows();
    let m = costs.cols();
    assert!(n <= m);
    let mut best: Option<Assignment> = None;
    let mut current = Vec::with_capacity(n);
    let mut used = vec![false; m];
    fn rec(
        costs: &CostMatrix,
        current: &mut Vec<usize>,
        used: &mut [bool],
        acc: f64,
        best: &mut Option<Assignment>,
    ) {
        let r = current.len();
        if r == costs.rows() {
            if best.as_ref().is_none_or(|b| acc < b.objective) {
                *best = Some(Assignment {
                    assigned: current.clone(),
                    objective: acc,
                });
            }
            return;
        }
        for c in 0..costs.cols() {
            let cost = costs.at(r, c);
            if !used[c] && cost.is_finite() {
                used[c] = true;
                current.push(c);
                rec(costs, current, used, acc + cost, best);
                current.pop();
                used[c] = false;
            }
        }
    }
    rec(costs, &mut current, &mut used, 0.0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid(a: &Assignment, rows: usize) {
        assert_eq!(a.assigned.len(), rows);
        let mut cols = a.assigned.clone();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), rows, "assignment must be injective");
    }

    #[test]
    fn trivial_sizes() {
        let empty = CostMatrix::from_rows(0, 0, vec![]);
        assert_eq!(
            hungarian_in(&empty, &mut HungarianScratch::default())
                .unwrap()
                .objective,
            0.0
        );
        let one = CostMatrix::from_rows(1, 1, vec![42.0]);
        let a = hungarian_in(&one, &mut HungarianScratch::default()).unwrap();
        assert_eq!(a.assigned, vec![0]);
        assert_eq!(a.objective, 42.0);
    }

    #[test]
    fn classic_3x3() {
        // Known optimum 5 via (0→1, 1→0, 2→2) for this matrix.
        let costs = CostMatrix::from_rows(3, 3, vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0]);
        let a = hungarian_in(&costs, &mut HungarianScratch::default()).unwrap();
        assert_valid(&a, 3);
        assert!(
            (a.objective - 5.0).abs() < 1e-12,
            "objective = {}",
            a.objective
        );
    }

    #[test]
    fn rectangular_prefers_cheap_columns() {
        let costs = CostMatrix::from_rows(2, 4, vec![10.0, 1.0, 9.0, 8.0, 1.0, 10.0, 9.0, 8.0]);
        let a = hungarian_in(&costs, &mut HungarianScratch::default()).unwrap();
        assert_valid(&a, 2);
        assert_eq!(a.assigned, vec![1, 0]);
        assert!((a.objective - 2.0).abs() < 1e-12);
    }

    #[test]
    fn forbidden_pairs_respected() {
        let inf = f64::INFINITY;
        let costs = CostMatrix::from_rows(2, 2, vec![inf, 3.0, 2.0, inf]);
        let a = hungarian_in(&costs, &mut HungarianScratch::default()).unwrap();
        assert_eq!(a.assigned, vec![1, 0]);
        assert!((a.objective - 5.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_returns_none() {
        let inf = f64::INFINITY;
        // Both rows can only use column 0.
        let costs = CostMatrix::from_rows(2, 2, vec![1.0, inf, 1.0, inf]);
        assert!(hungarian_in(&costs, &mut HungarianScratch::default()).is_none());
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        // Deterministic pseudo-random values (LCG) keep the test hermetic.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        for (rows, cols) in [(3, 3), (4, 5), (5, 5), (6, 7), (2, 6)] {
            let costs = CostMatrix::from_fn(rows, cols, |_, _| next());
            let fast = hungarian_in(&costs, &mut HungarianScratch::default()).unwrap();
            let slow = brute_force_min_sum(&costs).unwrap();
            assert_valid(&fast, rows);
            assert!(
                (fast.objective - slow.objective).abs() < 1e-9,
                "{rows}x{cols}: hungarian {} != brute force {}",
                fast.objective,
                slow.objective
            );
        }
    }

    #[test]
    fn negative_costs_are_handled() {
        let costs = CostMatrix::from_rows(2, 2, vec![-5.0, 0.0, 0.0, -5.0]);
        let a = hungarian_in(&costs, &mut HungarianScratch::default()).unwrap();
        assert!((a.objective + 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn more_rows_than_cols_panics() {
        let costs = CostMatrix::from_rows(2, 1, vec![1.0, 1.0]);
        let _ = hungarian_in(&costs, &mut HungarianScratch::default());
    }
}
