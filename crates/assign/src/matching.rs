//! Kuhn's augmenting-path algorithm for maximum bipartite matching.

/// Computes a maximum matching of the bipartite graph `adj`, where
/// `adj[l]` lists the right-side vertices adjacent to left vertex `l`.
///
/// Returns `(size, match_left)` with `match_left[l] = Some(r)` when left
/// vertex `l` is matched to right vertex `r`. Runs in O(V·E) — ample for
/// the ≤ 100-processor platforms of this workspace.
pub(crate) fn max_bipartite_matching(
    adj: &[Vec<usize>],
    n_right: usize,
) -> (usize, Vec<Option<usize>>) {
    let n_left = adj.len();
    // match_right[r] = left vertex currently matched to r.
    let mut match_right: Vec<Option<usize>> = vec![None; n_right];
    let mut size = 0;
    let mut visited = vec![false; n_right];
    for l in 0..n_left {
        visited.iter_mut().for_each(|v| *v = false);
        if try_augment(l, adj, &mut match_right, &mut visited) {
            size += 1;
        }
    }
    let mut match_left = vec![None; n_left];
    for (r, &ml) in match_right.iter().enumerate() {
        if let Some(l) = ml {
            match_left[l] = Some(r);
        }
    }
    (size, match_left)
}

fn try_augment(
    l: usize,
    adj: &[Vec<usize>],
    match_right: &mut [Option<usize>],
    visited: &mut [bool],
) -> bool {
    for &r in &adj[l] {
        if visited[r] {
            continue;
        }
        visited[r] = true;
        let current = match_right[r];
        if current.is_none() || try_augment(current.unwrap(), adj, match_right, visited) {
            match_right[r] = Some(l);
            return true;
        }
    }
    false
}

/// True when every left vertex can be matched (perfect matching on the
/// left side).
pub(crate) fn has_perfect_matching(adj: &[Vec<usize>], n_right: usize) -> bool {
    max_bipartite_matching(adj, n_right).0 == adj.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let (size, ml) = max_bipartite_matching(&[], 3);
        assert_eq!(size, 0);
        assert!(ml.is_empty());
    }

    #[test]
    fn perfect_matching_found() {
        // 0-{0,1}, 1-{0}, 2-{2}: perfect matching 0→1, 1→0, 2→2.
        let adj = vec![vec![0, 1], vec![0], vec![2]];
        let (size, ml) = max_bipartite_matching(&adj, 3);
        assert_eq!(size, 3);
        assert_eq!(ml[1], Some(0));
        assert_eq!(ml[0], Some(1));
        assert_eq!(ml[2], Some(2));
        assert!(has_perfect_matching(&adj, 3));
    }

    #[test]
    fn augmenting_path_rewires_earlier_choices() {
        // Left 0 prefers right 0; left 1 only connects to right 0 — Kuhn
        // must push left 0 to right 1 through an augmenting path.
        let adj = vec![vec![0, 1], vec![0]];
        let (size, ml) = max_bipartite_matching(&adj, 2);
        assert_eq!(size, 2);
        assert_eq!(ml[0], Some(1));
        assert_eq!(ml[1], Some(0));
    }

    #[test]
    fn deficient_graph_reports_partial_matching() {
        // Two left vertices share the single right vertex.
        let adj = vec![vec![0], vec![0]];
        let (size, ml) = max_bipartite_matching(&adj, 1);
        assert_eq!(size, 1);
        assert_eq!(ml.iter().filter(|m| m.is_some()).count(), 1);
        assert!(!has_perfect_matching(&adj, 1));
    }

    #[test]
    fn isolated_left_vertex() {
        let adj = vec![vec![], vec![0]];
        let (size, _) = max_bipartite_matching(&adj, 1);
        assert_eq!(size, 1);
    }

    #[test]
    fn matching_is_injective() {
        let adj = vec![vec![0, 1, 2], vec![0, 1], vec![0]];
        let (size, ml) = max_bipartite_matching(&adj, 3);
        assert_eq!(size, 3);
        let mut used: Vec<usize> = ml.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 3, "no right vertex used twice");
    }
}
