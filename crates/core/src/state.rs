//! The incremental splitting state shared by every heuristic of the
//! paper.
//!
//! State = an interval mapping under construction. It starts as the
//! Lemma-1 mapping (everything on the fastest processor) and evolves by
//! *splits*: the interval of the current bottleneck processor is cut in
//! two (or three, see [`SplitState::apply_split3`]) pieces, the new
//! pieces going to the next-fastest processors not yet enrolled.
//!
//! The state is maintained **incrementally**:
//!
//! * every entry caches its cycle time *and* its latency term, so
//!   candidate cuts are delta-evaluated from the application's prefix
//!   sums — no whole-mapping recosting anywhere;
//! * an ordered index over `(cycle, position)` keys makes
//!   [`SplitState::bottleneck`]/[`SplitState::period`] O(log m) per
//!   query and O(log m) to maintain per split, instead of the O(m)
//!   rescan of every entry the pre-incremental kernel did;
//! * `SplitMemo` memoizes per-interval best-cut selections keyed by
//!   the interval's identity (plus everything else the choice depends
//!   on), so repeated walks over the same split prefix — H3's binary
//!   search replays its probe runs dozens of times — skip the candidate
//!   scan entirely. The memo lives for one binary search on one
//!   instance, so within it a changed interval simply misses; no
//!   explicit invalidation exists or is needed;
//! * the three-way search of H2a/H2b skips every candidate that provably
//!   cannot win: the selector passes a bound (the validity threshold,
//!   and for H2a also the incumbent's local max), and since a piece's
//!   computation time only grows with the piece and bounds every cycle
//!   time, whole runs of cut pairs are left without being costed. H2b
//!   also hands over its incumbent ratio, and a Dinkelbach-style bound
//!   on `Δlatency/Δperiod` skips the cut pairs and `cut1` rows whose
//!   ratio is provably worse. The exactness arguments are on the private
//!   `for_each_split3`.
//!
//! All of this is bit-identical to the original direct evaluation: the
//! same cost-model expressions run in the same association order, only
//! redundant recomputation is skipped (pinned by
//! `tests/kernel_identity.rs`).
//!
//! The engine is restricted to Communication Homogeneous platforms, where
//! an interval's cycle time does not depend on which processors its
//! neighbours use — this is what makes incremental split evaluation O(1)
//! per candidate. The fully heterogeneous generalization lives in
//! [`crate::hetero`].

use pipeline_model::prelude::*;
use pipeline_model::util::{approx_le, definitely_lt, EPS};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Outcome of a heuristic run.
#[derive(Debug, Clone)]
pub struct BiCriteriaResult {
    /// The constructed mapping (the best one found, even when the target
    /// was not met).
    pub mapping: IntervalMapping,
    /// Its period (eq. 1).
    pub period: f64,
    /// Its latency (eq. 2).
    pub latency: f64,
    /// Whether the requested constraint was satisfied.
    pub feasible: bool,
}

/// One enrolled processor and its interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// First stage (inclusive, 0-based).
    pub start: usize,
    /// One past the last stage.
    pub end: usize,
    /// Processor executing the interval.
    pub proc: ProcId,
    /// Cached cycle time (eq. 1 term) of this entry.
    pub cycle: f64,
    /// Cached latency term (`t_in + t_comp`, the eq. 2 contribution) of
    /// this entry — the other half of the incremental bookkeeping.
    pub lat_term: f64,
}

/// A candidate two-way split of one entry.
#[derive(Debug, Clone, Copy)]
pub struct Split2 {
    /// Cut position: left part is `[start, cut)`, right part `[cut, end)`.
    pub cut: usize,
    /// When true the *current* processor keeps the left part and the new
    /// processor takes the right part; when false, the other way round.
    pub keep_left: bool,
    /// Cycle time of the part kept by the current processor.
    pub cycle_keep: f64,
    /// Cycle time of the part given to the new processor.
    pub cycle_new: f64,
    /// Global latency after the split.
    pub new_latency: f64,
}

impl Split2 {
    /// `max(period(j), period(j'))` — the mono-criterion selection value.
    #[inline]
    pub fn local_max(&self) -> f64 {
        self.cycle_keep.max(self.cycle_new)
    }
}

/// A candidate three-way split of one entry (H2a/H2b).
#[derive(Debug, Clone, Copy)]
pub struct Split3 {
    /// First cut: part A is `[start, cut1)`.
    pub cut1: usize,
    /// Second cut: part B is `[cut1, cut2)`, part C `[cut2, end)`.
    pub cut2: usize,
    /// Processors of parts A, B, C — a permutation of the current
    /// processor and the next two unused ones.
    pub procs: [ProcId; 3],
    /// Cycle times of the three parts.
    pub cycles: [f64; 3],
    /// Global latency after the split.
    pub new_latency: f64,
}

impl Split3 {
    /// `max(period(j), period(j'), period(j''))`.
    #[inline]
    pub fn local_max(&self) -> f64 {
        self.cycles
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Relative slack of H2b's ratio bound (see `SplitState::for_each_split3`):
/// the bound and the candidate's `Δlatency` round differently, by a few
/// ulps of the latencies, works and transfer times involved. 1e-12 is
/// ~3 orders of magnitude above that noise, like the exact solver's
/// lower-bound slack, and skips only candidates that are strictly worse.
const RATIO_SLACK: f64 = 1e-12;

/// Total-ordered cycle-time key of the bottleneck index. Cycle times are
/// finite and non-negative, so `total_cmp` agrees with the `>` scan the
/// pre-incremental kernel used.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleKey(f64);

impl PartialEq for CycleKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}

impl Eq for CycleKey {}

impl PartialOrd for CycleKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CycleKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Key of one memoized best-cut selection: the interval's identity plus
/// everything else the bi-criteria choice depends on — the speed of the
/// processor the split would enrol, and (because the selection ratio
/// `Δlatency/Δperiod` is evaluated against the *global* latency) the
/// current latency bits. An interval that changed, or a state whose
/// latency differs, simply misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    start: usize,
    end: usize,
    proc: ProcId,
    speed_bits: u64,
    latency_bits: u64,
}

/// Memo of per-interval best-cut selections (see the module docs).
///
/// One memo serves many [`SplitState`]s **of one instance**: H3's
/// binary search shares one across its probe runs, so the shared split
/// prefix of every probe is selected from cache instead of rescanned.
/// Entries are never invalidated — the key carries the interval
/// identity and the selection context, so a stale *state* of the same
/// instance cannot hit.
///
/// The keys do not encode the instance itself, so a memo must not
/// outlive the instance it was filled on: a split chosen for another
/// instance's work profile could hit. `sp_bi_p_in` therefore resets the
/// memo at the start of every binary search.
#[derive(Debug, Clone, Default)]
pub(crate) struct SplitMemo {
    /// `min max_i Δlatency/Δperiod(i)` winners (H5's rule, H3's default).
    over_i: HashMap<MemoKey, Option<Split2>>,
    /// `Δlatency/Δperiod(j)` winners (the literal paper H3 formula).
    over_j: HashMap<MemoKey, Option<Split2>>,
}

impl SplitMemo {
    /// Empties the memo, keeping the hash-map capacity — how
    /// [`crate::workspace::SolveWorkspace`] reuses one memo across the
    /// solves of a batch without reallocating its tables per solve.
    pub fn reset(&mut self) {
        self.over_i.clear();
        self.over_j.clear();
    }
}

/// The recyclable heap storage of a [`SplitState`]: the processor order,
/// the entry list, the ordered bottleneck index and the three-way-split
/// caches. [`SplitState::new_in`] adopts a set of buffers (clearing
/// them, keeping their capacity) and [`SplitState::into_buffers`] returns
/// them, so a warm buffer set makes every subsequent solve on similarly
/// sized instances allocation-free — the core of the zero-allocation
/// steady-state solve loop.
#[derive(Debug, Clone, Default)]
pub struct SplitBuffers {
    order: Vec<ProcId>,
    entries: Vec<Entry>,
    by_cycle: Vec<(CycleKey, Reverse<usize>)>,
    split3_c: Vec<[IntervalCost; 3]>,
    split3_t_min: Vec<f64>,
}

/// The mutable splitting state.
#[derive(Debug, Clone)]
pub struct SplitState<'a> {
    cm: CostModel<'a>,
    /// Processors by non-increasing speed; `order[..next_unused]` are
    /// enrolled.
    order: Vec<ProcId>,
    next_unused: usize,
    entries: Vec<Entry>,
    latency: f64,
    /// Ordered `(cycle, leftmost-first)` index over the entries, kept as
    /// a sorted vector: the last element is the bottleneck of the paper
    /// ("the used processor with the largest period", ties to the
    /// leftmost interval). Interval start positions are unique and
    /// stable, so they double as entry identities. A sorted vector beats
    /// the previous `BTreeSet` here: at `m ≤ p` entries the binary-search
    /// insert/remove is as fast as tree rebalancing, and — decisively for
    /// the zero-allocation loop — its storage is recycled through
    /// [`SplitBuffers`] instead of allocating tree nodes per split.
    by_cycle: Vec<(CycleKey, Reverse<usize>)>,
    /// Cached costs of the third piece of three-way splits, hoisted out
    /// of the (cut1, cut2) enumeration (see [`Self::for_each_split3`]).
    split3_c: Vec<[IntervalCost; 3]>,
    /// Suffix minima of the transfer times `δ_c/b` over the second-cut
    /// positions, for H2b's row bound (see [`Self::for_each_split3`]).
    split3_t_min: Vec<f64>,
}

impl<'a> SplitState<'a> {
    /// Starts from the Lemma-1 mapping, adopting `buffers` (cleared, the
    /// capacity kept) so a recycled buffer set makes construction and the
    /// whole split loop allocation-free; pass `SplitBuffers::default()`
    /// for fresh ones. Return the buffers with [`Self::into_buffers`]
    /// when done. Panics on non-Communication Homogeneous platforms (use
    /// [`crate::hetero`] for those).
    pub fn new_in(cm: &CostModel<'a>, buffers: SplitBuffers) -> Self {
        assert!(
            cm.platform().is_comm_homogeneous(),
            "SplitState requires a Communication Homogeneous platform"
        );
        let SplitBuffers {
            mut order,
            mut entries,
            mut by_cycle,
            mut split3_c,
            split3_t_min,
        } = buffers;
        order.clear();
        order.extend_from_slice(cm.platform().procs_by_speed_desc());
        entries.clear();
        by_cycle.clear();
        split3_c.clear();
        let app = cm.app();
        let proc = order[0];
        let cost = cm.interval_cost(Interval::new(0, app.n_stages()), proc, None, None);
        let first = Entry {
            start: 0,
            end: app.n_stages(),
            proc,
            cycle: cost.cycle_time(),
            lat_term: cost.latency_term(),
        };
        let latency =
            first.lat_term + app.delta(app.n_stages()) / cm.platform().io_bandwidth_of(proc);
        by_cycle.push((CycleKey(first.cycle), Reverse(first.start)));
        entries.push(first);
        SplitState {
            cm: *cm,
            order,
            next_unused: 1,
            entries,
            latency,
            by_cycle,
            split3_c,
            split3_t_min,
        }
    }

    /// Releases the heap buffers for reuse by a later [`Self::new_in`].
    pub fn into_buffers(self) -> SplitBuffers {
        SplitBuffers {
            order: self.order,
            entries: self.entries,
            by_cycle: self.by_cycle,
            split3_c: self.split3_c,
            split3_t_min: self.split3_t_min,
        }
    }

    /// Inserts a key into the ordered bottleneck index (keys are unique:
    /// entry starts are distinct).
    #[inline]
    fn index_insert(&mut self, key: (CycleKey, Reverse<usize>)) {
        let pos = self.by_cycle.partition_point(|k| k < &key);
        self.by_cycle.insert(pos, key);
    }

    /// Removes a key from the ordered bottleneck index.
    #[inline]
    fn index_remove(&mut self, key: (CycleKey, Reverse<usize>)) {
        let pos = self
            .by_cycle
            .binary_search(&key)
            .expect("index key present");
        self.by_cycle.remove(pos);
    }

    /// The bound cost model.
    #[inline]
    pub fn cost_model(&self) -> &CostModel<'a> {
        &self.cm
    }

    /// Cost breakdown of `[start, end)` on processor `u`
    /// (comm-homogeneous, so neighbours are irrelevant).
    #[inline]
    fn piece_cost(&self, start: usize, end: usize, u: ProcId) -> IntervalCost {
        self.cm
            .interval_cost(Interval::new(start, end), u, None, None)
    }

    /// Current entries, left to right.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of processors still available for enrolment.
    #[inline]
    pub fn n_unused(&self) -> usize {
        self.order.len() - self.next_unused
    }

    /// The next-fastest unused processor, if any.
    #[inline]
    pub fn peek_unused(&self, offset: usize) -> Option<ProcId> {
        self.order.get(self.next_unused + offset).copied()
    }

    /// Current period: the largest entry cycle time. O(1) from the
    /// ordered index.
    pub fn period(&self) -> f64 {
        let &(CycleKey(cycle), _) = self.by_cycle.last().expect("at least one entry");
        cycle
    }

    /// Index of the entry achieving the period (leftmost on ties — the
    /// deterministic "used processor with the largest period" of the
    /// paper). O(log m) from the ordered index.
    pub fn bottleneck(&self) -> usize {
        let &(_, Reverse(start)) = self.by_cycle.last().expect("at least one entry");
        self.index_of_start(start)
    }

    /// Entry index of the interval starting at `start` (entries are
    /// sorted by start).
    #[inline]
    fn index_of_start(&self, start: usize) -> usize {
        let i = self.entries.partition_point(|e| e.start < start);
        debug_assert_eq!(self.entries[i].start, start);
        i
    }

    /// Current global latency (maintained incrementally).
    #[inline]
    pub fn latency(&self) -> f64 {
        self.latency
    }

    /// Delta-evaluates every two-way split of entry `j` using the next
    /// unused processor — all cuts, both orientations, in deterministic
    /// order — without materializing them.
    fn for_each_split2(&self, j: usize, mut visit: impl FnMut(Split2)) {
        let e = self.entries[j];
        let Some(new_proc) = self.peek_unused(0) else {
            return;
        };
        // Delta evaluation: the rest of the mapping never changes, so the
        // candidate's latency is the current latency minus this entry's
        // cached term plus the two piece terms.
        let base_latency = self.latency - e.lat_term;
        for cut in e.start + 1..e.end {
            // Four piece costs cover both orientations of this cut.
            let left_cur = self.piece_cost(e.start, cut, e.proc);
            let left_new = self.piece_cost(e.start, cut, new_proc);
            let right_cur = self.piece_cost(cut, e.end, e.proc);
            let right_new = self.piece_cost(cut, e.end, new_proc);
            for keep_left in [true, false] {
                // keep_left means the CURRENT proc keeps the left piece.
                let (left, right) = if keep_left {
                    (left_cur, right_new)
                } else {
                    (left_new, right_cur)
                };
                let (cycle_keep, cycle_new) = if keep_left {
                    (left.cycle_time(), right.cycle_time())
                } else {
                    (right.cycle_time(), left.cycle_time())
                };
                let new_latency = base_latency + left.latency_term() + right.latency_term();
                visit(Split2 {
                    cut,
                    keep_left,
                    cycle_keep,
                    cycle_new,
                    new_latency,
                });
            }
        }
    }

    /// Enumerates every two-way split of entry `j` using the next unused
    /// processor: all cuts, both orientations. Empty when entry `j` has a
    /// single stage or no processor is left.
    pub fn candidate_splits2(&self, j: usize) -> Vec<Split2> {
        let e = self.entries[j];
        let mut out = Vec::with_capacity(2 * (e.end - e.start).saturating_sub(1));
        self.for_each_split2(j, |s| out.push(s));
        out
    }

    /// Applies a two-way split to entry `j`, consuming the next unused
    /// processor. O(log m) index maintenance plus the entry shift.
    pub fn apply_split2(&mut self, j: usize, split: Split2) {
        let e = self.entries[j];
        let new_proc = self
            .peek_unused(0)
            .expect("split requires an unused processor");
        self.next_unused += 1;
        let (left_proc, right_proc) = if split.keep_left {
            (e.proc, new_proc)
        } else {
            (new_proc, e.proc)
        };
        let left = self.make_entry(e.start, split.cut, left_proc);
        let right = self.make_entry(split.cut, e.end, right_proc);
        self.index_remove((CycleKey(e.cycle), Reverse(e.start)));
        self.index_insert((CycleKey(left.cycle), Reverse(left.start)));
        self.index_insert((CycleKey(right.cycle), Reverse(right.start)));
        self.latency = split.new_latency;
        self.entries[j] = left;
        self.entries.insert(j + 1, right);
        debug_assert!(self.invariants_ok(), "split broke the state invariants");
    }

    /// Builds an entry with its cached incremental quantities.
    fn make_entry(&self, start: usize, end: usize, proc: ProcId) -> Entry {
        let cost = self.piece_cost(start, end, proc);
        Entry {
            start,
            end,
            proc,
            cycle: cost.cycle_time(),
            lat_term: cost.latency_term(),
        }
    }

    /// Selects, among the two-way splits of entry `j`, the one minimizing
    /// `max(period(j), period(j'))` — the H1/H4 choice. Only splits that
    /// strictly improve on entry `j`'s current cycle qualify ("chosen if
    /// it is better than the original solution"). An optional latency
    /// budget filters candidates (H4/H5 and the H3 inner loop).
    pub fn best_split2_mono(&self, j: usize, latency_budget: Option<f64>) -> Option<Split2> {
        let old = self.entries[j].cycle;
        let mut best: Option<Split2> = None;
        self.for_each_split2(j, |s| {
            if !definitely_lt(s.local_max(), old) {
                return;
            }
            if !latency_budget.is_none_or(|b| approx_le(s.new_latency, b)) {
                return;
            }
            let better = best.as_ref().is_none_or(|b| {
                s.local_max()
                    .partial_cmp(&b.local_max())
                    .expect("cycles are finite")
                    .then(s.cut.cmp(&b.cut))
                    .is_lt()
            });
            if better {
                best = Some(s);
            }
        });
        best
    }

    /// Selects, among the two-way splits of entry `j`, the one minimizing
    /// `max_{i∈{j,j'}} Δlatency/Δperiod(i)` — the H3/H5 bi-criteria
    /// choice. `Δlatency = new_latency − latency ≥ 0` on comm-homogeneous
    /// platforms; `Δperiod(i) = old_cycle(j) − new_cycle(i)` must be
    /// positive for both pieces, otherwise the candidate does not improve
    /// the bottleneck and is discarded.
    pub fn best_split2_bi(&self, j: usize, latency_budget: Option<f64>) -> Option<Split2> {
        self.select_bi(j, latency_budget, RatioRule::OverI)
    }

    /// Memoized [`Self::best_split2_bi`]: identical result, answered from
    /// `memo` when this exact selection was made before (same interval,
    /// same next processor speed, same global latency).
    pub(crate) fn best_split2_bi_memo(
        &self,
        j: usize,
        latency_budget: Option<f64>,
        memo: &mut SplitMemo,
    ) -> Option<Split2> {
        self.select_bi_memo(j, latency_budget, RatioRule::OverI, memo)
    }

    /// Memoized variant selection rule using `Δperiod(j)` (the literal H3
    /// formula) in the denominator instead of `min_i Δperiod(i)`.
    pub(crate) fn best_split2_bi_denom_j_memo(
        &self,
        j: usize,
        latency_budget: Option<f64>,
        memo: &mut SplitMemo,
    ) -> Option<Split2> {
        self.select_bi_memo(j, latency_budget, RatioRule::OverJ, memo)
    }

    fn select_bi_memo(
        &self,
        j: usize,
        latency_budget: Option<f64>,
        rule: RatioRule,
        memo: &mut SplitMemo,
    ) -> Option<Split2> {
        let e = self.entries[j];
        let new_proc = self.peek_unused(0)?;
        let key = MemoKey {
            start: e.start,
            end: e.end,
            proc: e.proc,
            speed_bits: self.cm.platform().speed(new_proc).to_bits(),
            latency_bits: self.latency.to_bits(),
        };
        let map = match rule {
            RatioRule::OverI => &mut memo.over_i,
            RatioRule::OverJ => &mut memo.over_j,
        };
        let unconstrained = match map.get(&key) {
            Some(&cached) => cached,
            None => {
                let fresh = self.select_bi(j, None, rule);
                map.insert(key, fresh);
                fresh
            }
        };
        match (unconstrained, latency_budget) {
            // No unconstrained winner: the budget-filtered subset has
            // none either.
            (None, _) => None,
            (Some(s), None) => Some(s),
            // The unconstrained winner survives the budget filter: the
            // filtered scan (a subset in the same order, same comparator)
            // would pick it too.
            (Some(s), Some(b)) if approx_le(s.new_latency, b) => Some(s),
            // The winner is over budget — only a full filtered scan can
            // tell what the constrained choice is.
            (Some(_), Some(_)) => self.select_bi(j, latency_budget, rule),
        }
    }

    fn select_bi(&self, j: usize, latency_budget: Option<f64>, rule: RatioRule) -> Option<Split2> {
        let old = self.entries[j].cycle;
        let current_latency = self.latency;
        let ratio = |s: &Split2| {
            let d_lat = s.new_latency - current_latency;
            let d_per = match rule {
                RatioRule::OverI => (old - s.cycle_keep).min(old - s.cycle_new),
                // Processor j keeps `cycle_keep`.
                RatioRule::OverJ => old - s.cycle_keep,
            };
            debug_assert!(!matches!(rule, RatioRule::OverI) || d_per > 0.0);
            d_lat / d_per
        };
        let mut best: Option<(f64, Split2)> = None;
        self.for_each_split2(j, |s| {
            if !definitely_lt(s.local_max(), old) {
                return;
            }
            if !latency_budget.is_none_or(|b| approx_le(s.new_latency, b)) {
                return;
            }
            let r = ratio(&s);
            let better = best.as_ref().is_none_or(|(br, b)| {
                r.partial_cmp(br)
                    .expect("ratios are finite")
                    .then(
                        s.local_max()
                            .partial_cmp(&b.local_max())
                            .expect("cycles are finite"),
                    )
                    .then(s.cut.cmp(&b.cut))
                    .is_lt()
            });
            if better {
                best = Some((r, s));
            }
        });
        best.map(|(_, s)| s)
    }

    /// Delta-evaluates the three-way splits of entry `j` using the next
    /// two unused processors, in deterministic (cut1, cut2, permutation)
    /// order, handing `visit` only the candidates whose `local_max` is
    /// below `bound`. `visit` returns the bound for the rest of the
    /// enumeration, which must never rise; a selector passes the value
    /// at or above which it would reject a candidate anyway.
    ///
    /// The skipping is exact. Works are non-negative, prefix sums are
    /// non-decreasing and IEEE rounding is monotone, so a piece's
    /// `t_comp` never falls as the piece grows: A's as `cut1` grows, B's
    /// as `cut2` grows for a fixed `cut1`, while C's never rises as
    /// `cut2` grows. Every cycle time `fl(fl(t_in + t_comp) + t_out)` is
    /// `≥ t_comp`. So the loop leaves `cut1` once all three A pieces reach
    /// the bound, leaves `cut2` once all three B pieces do, and starts
    /// `cut2` past the prefix where all three C pieces do (a pointer that
    /// only moves forward, since the bound never rises). A permutation
    /// with any piece at or above the bound is skipped.
    ///
    /// `ratio` is H2b's hook: the incumbent ratio `r*` of a selector
    /// minimizing `Δlatency / (old − local_max)` (`+∞` before the first
    /// candidate), which the selector updates as it goes and which must
    /// never rise. With it, the loop also skips every cut pair, and every
    /// `cut1` row, whose candidates provably have a strictly larger
    /// ratio — the Dinkelbach form of the test: a candidate can win only
    /// if `Δlatency − r*·Δperiod ≤ 0`. Processors enrol by non-increasing
    /// speed, so the entry's own processor is the fastest of the pool;
    /// let `s₁ ≥ s₂` be the two fastest pool speeds, `k = 1/s₂ − 1/s₁`,
    /// `b` the bandwidth and `W` the entry's work.
    ///
    /// * `Δlatency ≥ lb`. Two new transfers `δ_cut1/b + δ_cut2/b` appear,
    ///   and at most one piece runs at `s₁` while the entry ran all of `W`
    ///   there, so the work term grows by at least `(W − W_max)·k`, where
    ///   `W_max` is the largest piece. For a whole row, `δ_cut2` is at
    ///   least the suffix minimum of `δ` (kept in `split3_t_min`) and
    ///   `W − W_max ≥ min(W_A, W − W_A)`; δ is not monotone, so a row
    ///   that fails is skipped (`continue`), never ended.
    /// * `Δperiod ≤ ub = old − max_piece cycle_fast(piece)`, the piece's
    ///   cycle on the fastest processor (only A's in the row test). A
    ///   piece's `t_comp = fl(W/s)` never falls as `s` drops, so this holds
    ///   bit for bit, and `min_i (old − cycle_i)` is at most `ub`.
    /// * `Δlatency` is a small difference of large sums, so `lb` carries a
    ///   slack `σ = RATIO_SLACK·(max(L, old, 1) + W·k + lb)`, `L` the
    ///   current latency: about 4500 ulps of every magnitude the two
    ///   computations round. A pair (or row) is skipped only when
    ///   `lb − σ > max(r*, 0)·(ub + σ)`. That makes every skipped
    ///   candidate's float ratio exceed `r*` by a relative margin of at
    ///   least `~σ/(2·old)`, far above one rounding of the final division,
    ///   so it is strictly worse: candidates that tie `r*` are never
    ///   skipped and still reach the selector's (ratio, `local_max`,
    ///   `cut1`, `cut2`) comparator, and the winner is bit-identical to the
    ///   unpruned search. Clamping `r*` at zero keeps the test sound when
    ///   rounding makes ratios negative: it then skips only pairs whose
    ///   every ratio is positive. A pair with `ub + σ < 0` has no
    ///   qualifying candidate at all.
    ///
    /// C's costs are computed once per call (into the recycled
    /// `split3_c` buffer — hence `&mut self`), A's once per `cut1`, and
    /// B's work and transfer times once per pair: every processor sees
    /// the same bandwidth on a Communication Homogeneous platform. Every
    /// cost is the [`CostModel::interval_cost`] value bit for bit and the
    /// latency sum keeps its association order.
    fn for_each_split3(
        &mut self,
        j: usize,
        mut bound: f64,
        ratio: Option<&Cell<f64>>,
        mut visit: impl FnMut(Split3) -> f64,
    ) {
        let e = self.entries[j];
        let (Some(p1), Some(p2)) = (self.peek_unused(0), self.peek_unused(1)) else {
            return;
        };
        if e.end - e.start < 3 {
            return;
        }
        let pool = [e.proc, p1, p2];
        // All 6 permutations of three items, as index triples.
        const PERMS: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let base_latency = self.latency - e.lat_term;
        let cm = self.cm;
        let (app, pf) = (cm.app(), cm.platform());
        let bw = pf.io_bandwidth_of(e.proc);
        let pc =
            |s: usize, t: usize, u: ProcId| cm.interval_cost(Interval::new(s, t), u, None, None);
        let reach = |piece: &[IntervalCost; 3], bound: f64| piece.iter().all(|c| c.t_comp >= bound);
        // Third-piece costs for every cut2, computed once per call.
        let first_cut2 = e.start + 2;
        let c_costs = &mut self.split3_c;
        c_costs.clear();
        c_costs.extend((first_cut2..e.end).map(|cut2| pool.map(|u| pc(cut2, e.end, u))));
        // The ratio bound's constants; `t_min[i]` is the least `δ_c/b`
        // over `c ≥ first_cut2 + i`.
        let (s1, s2) = (pf.speed(e.proc), pf.speed(p1));
        debug_assert!(s1 >= s2 && s2 >= pf.speed(p2), "pool not by speed");
        let k = 1.0 / s2 - 1.0 / s1;
        let w = app.interval_work(e.start, e.end);
        let scale = self.latency.max(e.cycle).max(1.0) + w * k;
        let beaten = |lb: f64, ub: f64, incumbent: f64| {
            let slack = RATIO_SLACK * (scale + lb);
            lb - slack > incumbent.max(0.0) * (ub + slack)
        };
        let t_min = &mut self.split3_t_min;
        t_min.clear();
        if ratio.is_some() {
            t_min.resize(e.end - first_cut2, f64::INFINITY);
            let mut least = f64::INFINITY;
            for cut2 in (first_cut2..e.end).rev() {
                least = least.min(app.input_volume(cut2) / bw);
                t_min[cut2 - first_cut2] = least;
            }
        }
        let mut c_from = first_cut2;
        for cut1 in e.start + 1..e.end - 1 {
            // First-piece costs, hoisted out of the cut2 loop.
            let a_costs = pool.map(|u| pc(e.start, cut1, u));
            if reach(&a_costs, bound) {
                break;
            }
            let a_cycles = a_costs.map(|c| c.cycle_time());
            let t_in = app.input_volume(cut1) / bw;
            let w_a = app.interval_work(e.start, cut1);
            if let Some(r) = ratio {
                let lb = t_in + t_min[cut1 + 1 - first_cut2] + w_a.min(w - w_a) * k;
                if beaten(lb, e.cycle - a_cycles[0], r.get()) {
                    continue;
                }
            }
            while c_from < e.end && reach(&c_costs[c_from - first_cut2], bound) {
                c_from += 1;
            }
            for cut2 in c_from.max(cut1 + 1)..e.end {
                let work = app.interval_work(cut1, cut2);
                let t_out = app.output_volume(cut2) / bw;
                let b_costs = pool.map(|u| IntervalCost {
                    t_in,
                    t_comp: work / pf.speed(u),
                    t_out,
                });
                if reach(&b_costs, bound) {
                    break;
                }
                let c = c_costs[cut2 - first_cut2];
                if let Some(r) = ratio {
                    let w_c = app.interval_work(cut2, e.end);
                    let lb = t_in + t_out + (w - w_a.max(work).max(w_c)) * k;
                    let fast = a_cycles[0]
                        .max(b_costs[0].cycle_time())
                        .max(c[0].cycle_time());
                    if beaten(lb, e.cycle - fast, r.get()) {
                        continue;
                    }
                }
                let costs = [a_costs, b_costs, c];
                let piece_cycles = [
                    a_cycles,
                    b_costs.map(|c| c.cycle_time()),
                    c.map(|c| c.cycle_time()),
                ];
                for perm in PERMS {
                    let cycles = [
                        piece_cycles[0][perm[0]],
                        piece_cycles[1][perm[1]],
                        piece_cycles[2][perm[2]],
                    ];
                    if cycles.iter().any(|&c| c >= bound) {
                        continue;
                    }
                    let parts = [costs[0][perm[0]], costs[1][perm[1]], costs[2][perm[2]]];
                    let new_latency = base_latency
                        + parts[0].latency_term()
                        + parts[1].latency_term()
                        + parts[2].latency_term();
                    bound = visit(Split3 {
                        cut1,
                        cut2,
                        procs: [pool[perm[0]], pool[perm[1]], pool[perm[2]]],
                        cycles,
                        new_latency,
                    });
                }
            }
        }
    }

    /// Enumerates every three-way split of entry `j` using the next two
    /// unused processors: all cut pairs, all `3!` part→processor
    /// permutations over `{j, j', j''}`. Empty when the entry has fewer
    /// than three stages or fewer than two processors remain.
    pub fn candidate_splits3(&mut self, j: usize) -> Vec<Split3> {
        let e = self.entries[j];
        let len = e.end - e.start;
        let mut out = Vec::with_capacity(if len < 3 {
            0
        } else {
            6 * (len - 1) * (len - 2) / 2
        });
        self.for_each_split3(j, f64::INFINITY, None, |s| {
            out.push(s);
            f64::INFINITY
        });
        out
    }

    /// Applies a three-way split to entry `j`, consuming the next two
    /// unused processors.
    pub fn apply_split3(&mut self, j: usize, split: Split3) {
        let e = self.entries[j];
        let p1 = self
            .peek_unused(0)
            .expect("3-way split needs two unused processors");
        let p2 = self
            .peek_unused(1)
            .expect("3-way split needs two unused processors");
        // The split's processors must be exactly {current, next two}.
        let mut expected = [e.proc, p1, p2];
        let mut got = split.procs;
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(expected, got, "3-way split uses foreign processors");
        self.next_unused += 2;
        let parts = [
            (e.start, split.cut1, split.procs[0]),
            (split.cut1, split.cut2, split.procs[1]),
            (split.cut2, e.end, split.procs[2]),
        ];
        self.index_remove((CycleKey(e.cycle), Reverse(e.start)));
        self.latency = split.new_latency;
        let parts = parts.map(|(start, end, proc)| self.make_entry(start, end, proc));
        for part in &parts {
            self.index_insert((CycleKey(part.cycle), Reverse(part.start)));
        }
        self.entries.splice(j..=j, parts);
        debug_assert!(
            self.invariants_ok(),
            "3-way split broke the state invariants"
        );
    }

    /// Mono-criterion selection among three-way splits (H2a): minimize the
    /// max of the three cycle times, requiring strict improvement over
    /// entry `j`'s current cycle; ties keep the first candidate in
    /// (cut1, cut2) order.
    pub fn best_split3_mono(&mut self, j: usize) -> Option<Split3> {
        // A candidate qualifies below `old − EPS` (`definitely_lt`) and
        // beats the incumbent only with a strictly smaller `local_max`,
        // since the incumbent comes first in (cut1, cut2) order. So every
        // candidate handed over below the running bound is the new
        // incumbent, and its `local_max` is the next bound.
        let mut best = None;
        self.for_each_split3(j, self.entries[j].cycle - EPS, None, |s| {
            best = Some(s);
            s.local_max()
        });
        best
    }

    /// Bi-criteria selection among three-way splits (H2b): minimize
    /// `max_{i∈{j,j',j''}} Δlatency/Δperiod(i)` =
    /// `Δlatency / min_i Δperiod(i)`, requiring every piece to improve on
    /// entry `j`'s current cycle; ties go to the smaller `local_max`, then
    /// to the first candidate in (cut1, cut2) order.
    ///
    /// The search hands its incumbent ratio to the enumeration, which
    /// skips every cut pair and `cut1` row whose ratio is provably
    /// strictly worse: `Δlatency ≥ lb` (the two new transfers plus the
    /// work that must leave the fastest processor) and `Δperiod ≤ ub`
    /// (`old` minus the pieces' cycles on the fastest processor), and a
    /// pair goes only when `lb − σ > max(r*, 0)·(ub + σ)` with a
    /// relative slack `σ` of 1e-12. A tie with the incumbent never passes that test, so
    /// the result is the unpruned search's bit for bit (the bound and
    /// its exactness argument are on the private `for_each_split3`).
    pub fn best_split3_bi(&mut self, j: usize) -> Option<Split3> {
        let old = self.entries[j].cycle;
        let current_latency = self.latency;
        let ratio = |s: &Split3| {
            let d_lat = s.new_latency - current_latency;
            let d_per = s
                .cycles
                .iter()
                .map(|c| old - c)
                .fold(f64::INFINITY, f64::min);
            d_lat / d_per
        };
        let mut best: Option<(f64, Split3)> = None;
        let incumbent = Cell::new(f64::INFINITY);
        // Only candidates that qualify (`definitely_lt(local_max, old)`)
        // are handed over.
        let qualify = old - EPS;
        self.for_each_split3(j, qualify, Some(&incumbent), |s| {
            let r = ratio(&s);
            let better = best.as_ref().is_none_or(|(br, b)| {
                r.partial_cmp(br)
                    .expect("finite")
                    .then(s.local_max().partial_cmp(&b.local_max()).expect("finite"))
                    .then(s.cut1.cmp(&b.cut1))
                    .then(s.cut2.cmp(&b.cut2))
                    .is_lt()
            });
            if better {
                best = Some((r, s));
                incumbent.set(r);
            }
            qualify
        });
        best.map(|(_, s)| s)
    }

    /// Freezes the state into a validated [`IntervalMapping`].
    pub fn to_mapping(&self) -> IntervalMapping {
        let intervals = self
            .entries
            .iter()
            .map(|e| Interval::new(e.start, e.end))
            .collect();
        let procs = self.entries.iter().map(|e| e.proc).collect();
        IntervalMapping::new(self.cm.app(), self.cm.platform(), intervals, procs)
            .expect("SplitState maintains mapping validity")
    }

    /// Packages the current state as a heuristic result.
    pub(crate) fn to_result(&self, feasible: bool) -> BiCriteriaResult {
        BiCriteriaResult {
            mapping: self.to_mapping(),
            period: self.period(),
            latency: self.latency(),
            feasible,
        }
    }

    /// Debug invariant check: contiguous intervals, distinct processors,
    /// cached cycles, latency and the ordered cycle index agree with the
    /// cost model.
    fn invariants_ok(&self) -> bool {
        let mapping = self.to_mapping(); // also validates the partition
        let (p, l) = self.cm.evaluate(&mapping);
        if self.by_cycle.len() != self.entries.len() {
            return false;
        }
        // The index must locate exactly the entry the linear scan would.
        let mut arg = 0;
        let mut scan = f64::NEG_INFINITY;
        for (i, e) in self.entries.iter().enumerate() {
            if e.cycle > scan {
                scan = e.cycle;
                arg = i;
            }
            if !self
                .by_cycle
                .contains(&(CycleKey(e.cycle), Reverse(e.start)))
            {
                return false;
            }
        }
        self.bottleneck() == arg
            && (p - self.period()).abs() < 1e-6
            && (l - self.latency).abs() < 1e-6
    }
}

/// Which denominator the bi-criteria ratio uses (see
/// [`crate::split::SpBiPOptions::denominator_over_i`]).
#[derive(Debug, Clone, Copy)]
enum RatioRule {
    OverI,
    OverJ,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline_model::generator::{ExperimentKind, InstanceGenerator, InstanceParams};
    use pipeline_model::Application;
    use pipeline_model::Platform;

    fn setup() -> (Application, Platform) {
        let app =
            Application::new(vec![4.0, 8.0, 2.0, 6.0], vec![2.0, 6.0, 4.0, 2.0, 10.0]).unwrap();
        let pf = Platform::comm_homogeneous(vec![2.0, 4.0, 3.0], 2.0).unwrap();
        (app, pf)
    }

    #[test]
    fn initial_state_is_lemma_1() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        assert_eq!(st.entries().len(), 1);
        assert_eq!(st.entries()[0].proc, 1); // fastest (speed 4)
        assert_eq!(st.next_unused, 1);
        assert_eq!(st.n_unused(), 2);
        assert!((st.latency() - cm.optimal_latency()).abs() < 1e-12);
        assert!((st.period() - cm.single_proc_period()).abs() < 1e-12);
    }

    #[test]
    fn candidates_cover_all_cuts_and_orientations() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        let cands = st.candidate_splits2(0);
        // 3 cuts × 2 orientations.
        assert_eq!(cands.len(), 6);
        let cuts: std::collections::HashSet<_> = cands.iter().map(|c| c.cut).collect();
        assert_eq!(cuts, [1, 2, 3].into_iter().collect());
    }

    #[test]
    fn apply_split_updates_caches_consistently() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let mut st = SplitState::new_in(&cm, SplitBuffers::default());
        let split = st
            .best_split2_mono(0, None)
            .expect("an improving split exists");
        let predicted_latency = split.new_latency;
        st.apply_split2(0, split);
        assert_eq!(st.entries().len(), 2);
        assert_eq!(st.next_unused, 2);
        // Cached latency equals the predicted and the recomputed one.
        assert!((st.latency() - predicted_latency).abs() < 1e-12);
        let mapping = st.to_mapping();
        assert!((cm.latency(&mapping) - st.latency()).abs() < 1e-9);
        assert!((cm.period(&mapping) - st.period()).abs() < 1e-9);
        // The split used the second-fastest processor (speed 3 → id 2).
        let procs: Vec<_> = st.entries().iter().map(|e| e.proc).collect();
        assert!(procs.contains(&1) && procs.contains(&2));
    }

    #[test]
    fn mono_choice_minimizes_local_max() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        let best = st.best_split2_mono(0, None).unwrap();
        for c in st.candidate_splits2(0) {
            if c.local_max() < st.entries()[0].cycle - EPS {
                assert!(best.local_max() <= c.local_max() + 1e-12);
            }
        }
    }

    #[test]
    fn bi_choice_minimizes_ratio() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        let old = st.entries()[0].cycle;
        let lat = st.latency();
        let ratio =
            |s: &Split2| (s.new_latency - lat) / (old - s.cycle_keep).min(old - s.cycle_new);
        if let Some(best) = st.best_split2_bi(0, None) {
            for c in st.candidate_splits2(0) {
                if definitely_lt(c.local_max(), old) {
                    assert!(ratio(&best) <= ratio(&c) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn memoized_bi_selection_matches_direct_selection() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        let mut memo = SplitMemo::default();
        let budgets = [None, Some(st.latency()), Some(st.latency() * 100.0)];
        for budget in budgets {
            // Twice each: the second query must come from the memo.
            for _ in 0..2 {
                let direct = st.best_split2_bi(0, budget);
                let memoized = st.best_split2_bi_memo(0, budget, &mut memo);
                match (direct, memoized) {
                    (None, None) => {}
                    (Some(d), Some(m)) => {
                        assert_eq!(d.cut, m.cut);
                        assert_eq!(d.keep_left, m.keep_left);
                        assert_eq!(d.new_latency.to_bits(), m.new_latency.to_bits());
                        assert_eq!(d.cycle_keep.to_bits(), m.cycle_keep.to_bits());
                    }
                    other => panic!("memo disagreed with direct selection: {other:?}"),
                }
                let direct_j = st.select_bi(0, budget, RatioRule::OverJ);
                let memo_j = st.best_split2_bi_denom_j_memo(0, budget, &mut memo);
                assert_eq!(
                    direct_j.map(|s| (s.cut, s.keep_left)),
                    memo_j.map(|s| (s.cut, s.keep_left))
                );
            }
        }
        assert!(!memo.over_i.is_empty());
    }

    #[test]
    fn latency_budget_filters_candidates() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        // Budget exactly the current latency: splits strictly increase
        // latency on comm-homogeneous platforms whenever the new processor
        // is slower; with a tight budget nothing qualifies.
        let tight = st.latency();
        if let Some(s) = st.best_split2_mono(0, Some(tight)) {
            assert!(s.new_latency <= tight + EPS);
        }
        let generous = st.latency() * 100.0;
        assert!(st.best_split2_mono(0, Some(generous)).is_some());
    }

    #[test]
    fn splits_exhaust_processors() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let mut st = SplitState::new_in(&cm, SplitBuffers::default());
        let mut splits = 0;
        while let Some(s) = st.best_split2_mono(st.bottleneck(), None) {
            let j = st.bottleneck();
            st.apply_split2(j, s);
            splits += 1;
            assert!(splits <= pf.n_procs(), "more splits than processors");
        }
        assert!(st.next_unused <= pf.n_procs());
        assert!(st.entries().len() <= app.n_stages());
    }

    #[test]
    fn single_stage_cannot_split() {
        let app = Application::uniform(1, 5.0, 1.0).unwrap();
        let pf = Platform::comm_homogeneous(vec![1.0, 2.0], 1.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        assert!(st.candidate_splits2(0).is_empty());
        assert!(st.best_split2_mono(0, None).is_none());
    }

    #[test]
    fn no_unused_processor_means_no_candidates() {
        let app = Application::uniform(4, 5.0, 1.0).unwrap();
        let pf = Platform::comm_homogeneous(vec![3.0], 1.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        assert_eq!(st.n_unused(), 0);
        assert!(st.candidate_splits2(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "Communication Homogeneous")]
    fn heterogeneous_platform_rejected() {
        let app = Application::uniform(2, 1.0, 1.0).unwrap();
        let pf = Platform::fully_heterogeneous(
            vec![1.0, 1.0],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            1.0,
        )
        .unwrap();
        let cm = CostModel::new(&app, &pf);
        let _ = SplitState::new_in(&cm, SplitBuffers::default());
    }

    #[test]
    fn h2a_bound_hands_over_few_of_the_three_way_candidates() {
        // The first H2a step on an E2 instance at n = 120, p = 60. A
        // pruning regression shows up here as a count, not as a timing.
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 120, 60));
        let (app, pf) = gen.instance(1, 0);
        let cm = CostModel::new(&app, &pf);
        let mut st = SplitState::new_in(&cm, SplitBuffers::default());
        let full = 6 * 119 * 118 / 2;
        assert_eq!(st.candidate_splits3(0).len(), full);
        let mut handed = 0;
        let mut best = None;
        let old = st.entries()[0].cycle;
        st.for_each_split3(0, old - EPS, None, |s| {
            handed += 1;
            best = Some(s);
            s.local_max()
        });
        // 38 of 42126 today; fail above 0.2%.
        assert!(
            handed > 0 && handed * 500 < full,
            "{handed} of {full} handed over"
        );
        let winner = |s: Option<Split3>| s.map(|s| (s.cut1, s.cut2, s.procs));
        assert_eq!(winner(best), winner(st.best_split3_mono(0)));
    }

    #[test]
    fn h2b_bound_costs_few_of_the_three_way_pairs() {
        // The first H2b step on the instance of the H2a test above. A
        // pruning regression shows up here as a count, not as a timing.
        let gen = InstanceGenerator::new(InstanceParams::paper(ExperimentKind::E2, 120, 60));
        let (app, pf) = gen.instance(1, 0);
        let cm = CostModel::new(&app, &pf);
        let mut st = SplitState::new_in(&cm, SplitBuffers::default());
        let (old, lat) = (st.entries()[0].cycle, st.latency());
        let ratio = |s: &Split3| (s.new_latency - lat) / (old - s.local_max());
        let key = |s: &Split3| (ratio(s), s.local_max(), s.cut1, s.cut2);
        let beats = |s: &Split3, b: &Split3| key(s).partial_cmp(&key(b)).expect("finite").is_lt();
        // The unpruned argmin, and the cut pairs with a qualifying
        // candidate: the ones an unpruned search costs to the end.
        let mut oracle: Option<Split3> = None;
        let mut qualifying = std::collections::BTreeSet::new();
        for s in st.candidate_splits3(0) {
            if definitely_lt(s.local_max(), old) {
                qualifying.insert((s.cut1, s.cut2));
                if oracle.as_ref().is_none_or(|b| beats(&s, b)) {
                    oracle = Some(s);
                }
            }
        }
        // The same selection through the ratio hook, counting the pairs
        // whose candidates get handed over.
        let incumbent = Cell::new(f64::INFINITY);
        let mut costed = std::collections::BTreeSet::new();
        let mut best: Option<Split3> = None;
        st.for_each_split3(0, old - EPS, Some(&incumbent), |s| {
            costed.insert((s.cut1, s.cut2));
            if best.as_ref().is_none_or(|b| beats(&s, b)) {
                incumbent.set(ratio(&s));
                best = Some(s);
            }
            old - EPS
        });
        // 27 of 7001 today; fail above 1%.
        let (costed, qualifying) = (costed.len(), qualifying.len());
        assert!(
            costed > 0 && costed * 100 < qualifying,
            "{costed} of {qualifying} qualifying pairs costed"
        );
        let winner = |s: Option<Split3>| s.map(|s| (s.cut1, s.cut2, s.procs));
        assert_eq!(winner(best), winner(oracle));
        assert_eq!(winner(st.best_split3_bi(0)), winner(oracle));
    }

    #[test]
    fn period_decreases_monotonically_under_mono_splitting() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let mut st = SplitState::new_in(&cm, SplitBuffers::default());
        let mut last = st.period();
        while let Some(s) = st.best_split2_mono(st.bottleneck(), None) {
            let j = st.bottleneck();
            st.apply_split2(j, s);
            let now = st.period();
            assert!(now <= last + EPS, "period went up: {last} → {now}");
            last = now;
        }
    }

    #[test]
    fn bottleneck_index_tracks_the_linear_scan() {
        // Equal-speed processors manufacture exact cycle ties: the index
        // must still resolve to the leftmost maximal entry.
        let app = Application::new(vec![6.0, 6.0, 6.0, 6.0], vec![0.0; 5]).unwrap();
        let pf = Platform::comm_homogeneous(vec![3.0, 3.0, 3.0, 3.0], 1.0).unwrap();
        let cm = CostModel::new(&app, &pf);
        let mut st = SplitState::new_in(&cm, SplitBuffers::default());
        loop {
            let linear = st
                .entries()
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| {
                    a.cycle.partial_cmp(&b.cycle).unwrap().then(ib.cmp(ia)) // first index wins ties
                })
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(st.bottleneck(), linear);
            let j = st.bottleneck();
            match st.best_split2_mono(j, None) {
                Some(s) => st.apply_split2(j, s),
                None => break,
            }
        }
    }
}
