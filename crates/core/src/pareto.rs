//! Pareto-front bookkeeping for (period, latency) bi-criteria points.
//!
//! The front is stored **flattened**: the period and latency coordinates
//! live in two plain `f64` vectors and the payloads in a third, parallel
//! vector. Dominance scans — the hot operation when heuristic
//! trajectories with hundreds of points are Pareto-filtered — touch only
//! the two coordinate slices (cache-dense, no payload indirection), and
//! payloads are moved, never cloned, when points are evicted. Semantics
//! are identical to the previous array-of-structs layout.

/// A set of mutually non-dominated (period, latency) points, both
/// coordinates minimized. Kept sorted by increasing period (hence
/// decreasing latency).
#[derive(Debug, Clone)]
pub struct ParetoFront<T> {
    periods: Vec<f64>,
    latencies: Vec<f64>,
    payloads: Vec<T>,
}

impl<T> Default for ParetoFront<T> {
    fn default() -> Self {
        ParetoFront::new()
    }
}

impl<T> ParetoFront<T> {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront {
            periods: Vec::new(),
            latencies: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Number of non-dominated points.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// True when no point has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// The period coordinates, sorted increasing.
    #[inline]
    pub fn periods(&self) -> &[f64] {
        &self.periods
    }

    /// The latency coordinates (decreasing, mirroring the period sort).
    #[inline]
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// The payloads, parallel to [`Self::periods`].
    #[inline]
    pub fn payloads(&self) -> &[T] {
        &self.payloads
    }

    /// Point `i` as `(period, latency, payload)`.
    #[inline]
    pub fn point(&self, i: usize) -> (f64, f64, &T) {
        (self.periods[i], self.latencies[i], &self.payloads[i])
    }

    /// The minimum-period point, when any.
    pub fn first(&self) -> Option<(f64, f64, &T)> {
        (!self.is_empty()).then(|| self.point(0))
    }

    /// `(period, latency, payload)` triples in increasing period order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (f64, f64, &T)> {
        (0..self.len()).map(|i| self.point(i))
    }

    /// True when `(period, latency)` is weakly dominated by some point of
    /// the front (`q.period ≤ period` and `q.latency ≤ latency`).
    pub fn dominated(&self, period: f64, latency: f64) -> bool {
        self.periods
            .iter()
            .zip(&self.latencies)
            .any(|(&p, &l)| p <= period && l <= latency)
    }

    /// Offers a point; it is inserted iff not weakly dominated, evicting
    /// any point it dominates. Returns whether it was inserted.
    pub fn offer(&mut self, period: f64, latency: f64, payload: T) -> bool {
        assert!(
            period.is_finite() && latency.is_finite(),
            "Pareto points must be finite"
        );
        if self.dominated(period, latency) {
            return false;
        }
        // Evict dominated points, compacting all three vectors in place
        // (relative order of survivors preserved).
        let mut w = 0;
        for r in 0..self.payloads.len() {
            let keep = !(period <= self.periods[r] && latency <= self.latencies[r]);
            if keep {
                if w != r {
                    self.periods[w] = self.periods[r];
                    self.latencies[w] = self.latencies[r];
                    self.payloads.swap(w, r);
                }
                w += 1;
            }
        }
        self.periods.truncate(w);
        self.latencies.truncate(w);
        self.payloads.truncate(w);
        let pos = self.periods.partition_point(|&q| q < period);
        self.periods.insert(pos, period);
        self.latencies.insert(pos, latency);
        self.payloads.insert(pos, payload);
        true
    }

    /// Maps every payload, preserving the points and their order — used
    /// by the service layer to strip mappings down to provenance ids for
    /// wire-friendly fronts.
    pub(crate) fn map_payloads<U>(self, f: impl FnMut(T) -> U) -> ParetoFront<U> {
        ParetoFront {
            periods: self.periods,
            latencies: self.latencies,
            payloads: self.payloads.into_iter().map(f).collect(),
        }
    }

    /// Smallest latency on the front among points with period ≤ `bound`.
    pub fn min_latency_for_period(&self, bound: f64) -> Option<f64> {
        self.periods
            .iter()
            .zip(&self.latencies)
            .filter(|(&p, _)| p <= bound)
            .map(|(_, &l)| l)
            .fold(None, |acc, l| Some(acc.map_or(l, |a: f64| a.min(l))))
    }

    /// The 2-D hypervolume dominated by this front w.r.t. the reference
    /// point `(ref_period, ref_latency)` — the area of
    /// `{(p, l) : some front point q has q ≤ (p, l) ≤ ref}`. Larger is
    /// better; a front with a point beating the reference in both
    /// coordinates by `Δp · Δl` scores at least that. Points beyond the
    /// reference in a coordinate contribute only their clamped part;
    /// fronts entirely beyond it score `0.0`. The staircase sum walks
    /// points in stored (period-ascending) order, so the result is
    /// deterministic for a given front.
    pub fn hypervolume(&self, ref_period: f64, ref_latency: f64) -> f64 {
        let mut volume = 0.0_f64;
        // Walking periods ascending, latencies descend: each point owns
        // the horizontal strip between its latency and the previous
        // (smaller-period) point's latency, clamped to the reference box.
        let mut prev_latency = ref_latency;
        for (&p, &l) in self.periods.iter().zip(&self.latencies) {
            if p >= ref_period {
                break; // no width left, and later points are wider still
            }
            // `prev_latency` starts at the reference and only decreases,
            // so the strip height needs no further clamping.
            let height = prev_latency - l;
            if height > 0.0 {
                volume += (ref_period - p) * height;
                prev_latency = l;
            }
        }
        volume
    }

    /// Distance from `(period, latency)` to this front in **relative
    /// excess** coordinates: the Euclidean norm of
    /// `(max(0, (period − qᵖ)/qᵖ), max(0, (latency − qˡ)/qˡ))` minimized
    /// over front points `q`. `0.0` means the point matches or beats
    /// some front point; `0.1` means ~10 % worse than the nearest front
    /// point. Relative coordinates make the metric comparable across
    /// instances with different scales. `None` on an empty front.
    pub fn distance_to_front(&self, period: f64, latency: f64) -> Option<f64> {
        self.periods
            .iter()
            .zip(&self.latencies)
            .map(|(&qp, &ql)| {
                let dp = ((period - qp) / qp).max(0.0);
                let dl = ((latency - ql) / ql).max(0.0);
                (dp * dp + dl * dl).sqrt()
            })
            .fold(None, |acc: Option<f64>, d| {
                Some(acc.map_or(d, |a| a.min(d)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offer_keeps_only_non_dominated() {
        let mut f = ParetoFront::new();
        assert!(f.offer(5.0, 10.0, "a"));
        assert!(f.offer(10.0, 5.0, "b")); // incomparable
        assert!(!f.offer(10.0, 10.0, "c")); // dominated by both
        assert!(f.offer(4.0, 11.0, "d")); // incomparable
        assert_eq!(f.len(), 3);
        // Dominates "a" and "d": evicts them.
        assert!(f.offer(4.0, 10.0, "e"));
        assert_eq!(f.len(), 2);
        assert_eq!(f.periods(), &[4.0, 10.0]);
        assert_eq!(f.payloads(), &["e", "b"]);
    }

    #[test]
    fn sorted_by_period() {
        let mut f = ParetoFront::new();
        f.offer(3.0, 30.0, ());
        f.offer(1.0, 50.0, ());
        f.offer(2.0, 40.0, ());
        assert_eq!(f.periods(), &[1.0, 2.0, 3.0]);
        assert_eq!(f.latencies(), &[50.0, 40.0, 30.0]);
    }

    #[test]
    fn equal_points_are_weakly_dominated() {
        let mut f = ParetoFront::new();
        assert!(f.offer(1.0, 1.0, 0));
        assert!(!f.offer(1.0, 1.0, 1));
        assert_eq!(f.len(), 1);
        assert_eq!(*f.point(0).2, 0);
    }

    #[test]
    fn threshold_queries() {
        let mut f = ParetoFront::new();
        f.offer(1.0, 9.0, ());
        f.offer(2.0, 6.0, ());
        f.offer(4.0, 3.0, ());
        assert_eq!(f.min_latency_for_period(2.5), Some(6.0));
        assert_eq!(f.min_latency_for_period(0.5), None);
    }

    #[test]
    fn empty_front_queries() {
        let f: ParetoFront<()> = ParetoFront::new();
        assert!(f.is_empty());
        assert!(f.first().is_none());
        assert!(!f.dominated(0.0, 0.0));
        assert_eq!(f.min_latency_for_period(10.0), None);
    }

    #[test]
    fn iter_yields_points_in_order() {
        let mut f = ParetoFront::new();
        f.offer(2.0, 1.0, "b");
        f.offer(1.0, 2.0, "a");
        let got: Vec<(f64, f64, &str)> = f.iter().map(|(p, l, s)| (p, l, *s)).collect();
        assert_eq!(got, vec![(1.0, 2.0, "a"), (2.0, 1.0, "b")]);
        assert_eq!(f.first().map(|(p, _, s)| (p, *s)), Some((1.0, "a")));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_points_rejected() {
        let mut f = ParetoFront::new();
        f.offer(f64::INFINITY, 1.0, ());
    }

    #[test]
    fn hypervolume_of_staircase() {
        let mut f = ParetoFront::new();
        f.offer(1.0, 3.0, ());
        f.offer(2.0, 1.0, ());
        // Reference (4, 4): point (1,3) owns (4-1)×(4-3) = 3,
        // point (2,1) owns (4-2)×(3-1) = 4.
        assert!((f.hypervolume(4.0, 4.0) - 7.0).abs() < 1e-12);
        // Single point sanity: rectangle to the reference.
        let mut g = ParetoFront::new();
        g.offer(1.0, 1.0, ());
        assert!((g.hypervolume(3.0, 2.0) - 2.0).abs() < 1e-12);
        // Points beyond the reference contribute nothing.
        let mut h = ParetoFront::new();
        h.offer(5.0, 1.0, ());
        h.offer(1.0, 5.0, ());
        assert_eq!(h.hypervolume(1.0, 1.0), 0.0);
        // Empty front: zero.
        let e: ParetoFront<()> = ParetoFront::new();
        assert_eq!(e.hypervolume(10.0, 10.0), 0.0);
    }

    #[test]
    fn hypervolume_grows_with_better_fronts() {
        let mut weak = ParetoFront::new();
        weak.offer(2.0, 2.0, ());
        let mut strong = weak.clone();
        strong.offer(1.0, 3.0, ());
        strong.offer(3.0, 1.0, ());
        assert!(strong.hypervolume(5.0, 5.0) > weak.hypervolume(5.0, 5.0));
    }

    #[test]
    fn distance_to_front_semantics() {
        let mut f = ParetoFront::new();
        f.offer(10.0, 30.0, ());
        f.offer(20.0, 10.0, ());
        // On the front: zero.
        assert_eq!(f.distance_to_front(10.0, 30.0), Some(0.0));
        // Dominating a front point (impossible for real heuristics, but
        // the metric clamps): still zero.
        assert_eq!(f.distance_to_front(9.0, 29.0), Some(0.0));
        // 10% worse in period only, relative to the (20, 10) point.
        let d = f.distance_to_front(22.0, 10.0).unwrap();
        assert!((d - 0.1).abs() < 1e-12);
        // Worse in both: Euclidean combination.
        let d = f.distance_to_front(11.0, 33.0).unwrap();
        assert!((d - (0.01f64 + 0.01).sqrt()).abs() < 1e-12);
        // Empty front: no distance.
        let e: ParetoFront<()> = ParetoFront::new();
        assert_eq!(e.distance_to_front(1.0, 1.0), None);
    }
}
