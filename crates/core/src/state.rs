//! The incremental splitting state shared by every heuristic of the
//! paper.
//!
//! State = an interval mapping under construction. It starts as the
//! Lemma-1 mapping (everything on the fastest processor) and evolves by
//! *splits*: the interval of the current bottleneck processor is cut in
//! two (or three, see [`crate::engine::ExplorePolicy`]) pieces, the new
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
//! * [`SplitMemo`] memoizes per-interval best-cut selections keyed by
//!   the interval's identity (plus everything else the choice depends
//!   on), so repeated walks over the same split prefix — H3's binary
//!   search replays its probe runs dozens of times — skip the candidate
//!   scan entirely. A changed interval simply misses the memo; no
//!   explicit invalidation exists or is needed.
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
use pipeline_model::util::{approx_le, definitely_lt};
use std::cell::OnceCell;
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
/// One memo can outlive many [`SplitState`]s **on the same instance**:
/// H3's binary search shares one across its probe runs, so the shared
/// split prefix of every probe is selected from cache instead of
/// rescanned. Entries are never invalidated — the key carries the
/// interval identity and the selection context, so a stale *state* of
/// the same instance cannot hit.
///
/// A memo is bound to the first (application, platform) pair it is used
/// with: the keys do not encode the instance itself, so reusing one
/// memo across different instances could return a split chosen for the
/// other instance's work profile. The memoized selectors assert an
/// instance fingerprint — a hash of every work, volume, speed and
/// bandwidth bit, computed lazily once per [`SplitState`] so the
/// non-memoized heuristics never pay for it — to refuse such reuse;
/// pass a fresh [`SplitMemo::new`] per instance.
#[derive(Debug, Clone, Default)]
pub struct SplitMemo {
    /// `min max_i Δlatency/Δperiod(i)` winners (H5's rule, H3's default).
    over_i: HashMap<MemoKey, Option<Split2>>,
    /// `Δlatency/Δperiod(j)` winners (the literal paper H3 formula).
    over_j: HashMap<MemoKey, Option<Split2>>,
    /// Fingerprint of the instance this memo serves, set on first use.
    fingerprint: Option<u64>,
}

impl SplitMemo {
    /// An empty memo.
    pub fn new() -> Self {
        SplitMemo::default()
    }

    /// Binds the memo to an instance on first use. Offering a bound memo
    /// a *different* instance is a caller bug — the keys cannot tell
    /// instances apart — so debug builds panic. Release builds recover
    /// structurally: the memo is emptied and rebound, which is always
    /// correct (an empty memo serves any instance), merely cold.
    fn bind(&mut self, fp: u64) {
        match self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(bound) if bound == fp => {}
            Some(_bound) => {
                debug_assert_eq!(
                    _bound, fp,
                    "SplitMemo reused across instances; use one memo per instance"
                );
                self.reset();
                self.fingerprint = Some(fp);
            }
        }
    }

    /// The fingerprint of the instance this memo currently serves, if it
    /// has been bound.
    pub(crate) fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Rebinds the memo to a *related* instance, retaining only the
    /// entries `keep(start, end, owner_proc)` approves. This is the warm
    /// path behind `PreparedInstance::apply`: after an
    /// [`crate::service::PreparedInstance`] delta, the caller knows which
    /// intervals the edit can affect (a changed stage weight invalidates
    /// intervals containing that stage; a changed processor speed
    /// invalidates intervals owned by it; departures shift ids) and keeps
    /// the rest. Safe because a cached [`Split2`] depends only on the
    /// interval's works and volumes, the owner's speed, the enrolled
    /// speed (keyed *by value*), the global latency (keyed) and the
    /// shared bandwidth — `keep` must reject any key whose inputs the
    /// delta touched, and callers must drop everything on bandwidth
    /// changes.
    pub(crate) fn migrate(
        &mut self,
        new_fp: u64,
        mut keep: impl FnMut(usize, usize, ProcId) -> bool,
    ) {
        self.over_i.retain(|k, _| keep(k.start, k.end, k.proc));
        self.over_j.retain(|k, _| keep(k.start, k.end, k.proc));
        self.fingerprint = Some(new_fp);
    }

    /// Empties the memo and unbinds it from its instance, keeping the
    /// hash-map capacity — how [`crate::workspace::SolveWorkspace`] reuses
    /// one memo across the items of a batch without reallocating its
    /// tables per solve.
    pub fn reset(&mut self) {
        self.over_i.clear();
        self.over_j.clear();
        self.fingerprint = None;
    }
}

/// The recyclable heap storage of a [`SplitState`]: the processor order,
/// the entry list, the ordered bottleneck index and the three-way-split
/// cost cache. [`SplitState::new_in`] adopts a set of buffers (clearing
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
}

/// Hash of the full instance profile — every work, communication volume,
/// processor speed and the link bandwidth, as raw bits — used to pin a
/// [`SplitMemo`] to one instance.
pub(crate) fn instance_fingerprint(cm: &CostModel<'_>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &w in cm.app().works() {
        w.to_bits().hash(&mut h);
    }
    for &d in cm.app().deltas() {
        d.to_bits().hash(&mut h);
    }
    for &s in cm.platform().speeds() {
        s.to_bits().hash(&mut h);
    }
    cm.platform().io_bandwidth_of(0).to_bits().hash(&mut h);
    h.finish()
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
    /// Hash of the instance profile, for [`SplitMemo`] binding — only
    /// the memoized selectors pay for it, lazily on first use.
    instance_fp: OnceCell<u64>,
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
            instance_fp: OnceCell::new(),
        }
    }

    /// Releases the heap buffers for reuse by a later [`Self::new_in`].
    pub fn into_buffers(self) -> SplitBuffers {
        SplitBuffers {
            order: self.order,
            entries: self.entries,
            by_cycle: self.by_cycle,
            split3_c: self.split3_c,
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

    /// Cycle time of `[start, end)` on processor `u`.
    #[inline]
    pub fn cycle_of(&self, start: usize, end: usize, u: ProcId) -> f64 {
        self.piece_cost(start, end, u).cycle_time()
    }

    /// Current entries, left to right.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of processors already enrolled.
    #[inline]
    pub fn n_used(&self) -> usize {
        self.next_unused
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

    /// Variant selection rule using `Δperiod(j)` (the literal H3 formula)
    /// in the denominator instead of `min_i Δperiod(i)`.
    pub fn best_split2_bi_denom_j(&self, j: usize, latency_budget: Option<f64>) -> Option<Split2> {
        self.select_bi(j, latency_budget, RatioRule::OverJ)
    }

    /// Memoized [`Self::best_split2_bi`]: identical result, answered from
    /// `memo` when this exact selection was made before (same interval,
    /// same next processor speed, same global latency).
    pub fn best_split2_bi_memo(
        &self,
        j: usize,
        latency_budget: Option<f64>,
        memo: &mut SplitMemo,
    ) -> Option<Split2> {
        self.select_bi_memo(j, latency_budget, RatioRule::OverI, memo)
    }

    /// Memoized [`Self::best_split2_bi_denom_j`].
    pub fn best_split2_bi_denom_j_memo(
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
        memo.bind(
            *self
                .instance_fp
                .get_or_init(|| instance_fingerprint(&self.cm)),
        );
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

    /// Delta-evaluates every three-way split of entry `j` using the next
    /// two unused processors, in deterministic order.
    ///
    /// The enumeration is O(len²) cut pairs; the naive form recomputes
    /// nine piece costs per pair. Here the first piece's costs are hoisted
    /// out of the `cut2` loop and the third piece's costs are precomputed
    /// once per call (into the recycled `split3_c` buffer — hence
    /// `&mut self`), leaving one fresh piece per pair. Every cost is the
    /// same [`CostModel::interval_cost`] value the naive form produced
    /// and the latency sum keeps its association order, so results are
    /// bit-identical — only redundant recomputation is gone.
    fn for_each_split3(&mut self, j: usize, mut visit: impl FnMut(Split3)) {
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
        let pc =
            |s: usize, t: usize, u: ProcId| cm.interval_cost(Interval::new(s, t), u, None, None);
        // Third-piece costs for every cut2, computed once per call.
        let c_costs = &mut self.split3_c;
        c_costs.clear();
        c_costs.extend((e.start + 2..e.end).map(|cut2| pool.map(|u| pc(cut2, e.end, u))));
        for cut1 in e.start + 1..e.end - 1 {
            // First-piece costs, hoisted out of the cut2 loop.
            let a_costs = pool.map(|u| pc(e.start, cut1, u));
            for cut2 in cut1 + 1..e.end {
                let costs: [[IntervalCost; 3]; 3] = [
                    a_costs,
                    pool.map(|u| pc(cut1, cut2, u)),
                    c_costs[cut2 - (e.start + 2)],
                ];
                for perm in PERMS {
                    let procs = [pool[perm[0]], pool[perm[1]], pool[perm[2]]];
                    let parts = [costs[0][perm[0]], costs[1][perm[1]], costs[2][perm[2]]];
                    let cycles = parts.map(|c| c.cycle_time());
                    let new_latency = base_latency
                        + parts[0].latency_term()
                        + parts[1].latency_term()
                        + parts[2].latency_term();
                    visit(Split3 {
                        cut1,
                        cut2,
                        procs,
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
        self.for_each_split3(j, |s| out.push(s));
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
    /// entry `j`'s current cycle.
    pub fn best_split3_mono(&mut self, j: usize) -> Option<Split3> {
        let old = self.entries[j].cycle;
        let mut best: Option<Split3> = None;
        self.for_each_split3(j, |s| {
            if !definitely_lt(s.local_max(), old) {
                return;
            }
            let better = best.as_ref().is_none_or(|b| {
                s.local_max()
                    .partial_cmp(&b.local_max())
                    .expect("finite")
                    .then(s.cut1.cmp(&b.cut1))
                    .then(s.cut2.cmp(&b.cut2))
                    .is_lt()
            });
            if better {
                best = Some(s);
            }
        });
        best
    }

    /// Bi-criteria selection among three-way splits (H2b): minimize
    /// `max_{i∈{j,j',j''}} Δlatency/Δperiod(i)` =
    /// `Δlatency / min_i Δperiod(i)`, requiring every piece to improve on
    /// entry `j`'s current cycle.
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
        self.for_each_split3(j, |s| {
            if !definitely_lt(s.local_max(), old) {
                return;
            }
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
            }
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
    pub fn to_result(&self, feasible: bool) -> BiCriteriaResult {
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
    use pipeline_model::util::EPS;
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
        assert_eq!(st.n_used(), 1);
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
        assert_eq!(st.n_used(), 2);
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
        let mut memo = SplitMemo::new();
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
                let direct_j = st.best_split2_bi_denom_j(0, budget);
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SplitMemo reused across instances")]
    fn memo_refuses_cross_instance_reuse() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        let mut memo = SplitMemo::new();
        let _ = st.best_split2_bi_memo(0, None, &mut memo);
        // A different instance must not be able to hit this memo.
        let app2 = Application::new(vec![1.0, 2.0, 3.0], vec![1.0; 4]).unwrap();
        let pf2 = Platform::comm_homogeneous(vec![1.0, 2.0], 1.0).unwrap();
        let cm2 = CostModel::new(&app2, &pf2);
        let st2 = SplitState::new_in(&cm2, SplitBuffers::default());
        let _ = st2.best_split2_bi_memo(0, None, &mut memo);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn memo_recovers_from_cross_instance_reuse_in_release() {
        // Release builds reset-and-rebind instead of panicking: the
        // answer matches an unmemoized selection on the new instance.
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        let mut memo = SplitMemo::new();
        let _ = st.best_split2_bi_memo(0, None, &mut memo);
        let app2 = Application::new(vec![1.0, 2.0, 3.0], vec![1.0; 4]).unwrap();
        let pf2 = Platform::comm_homogeneous(vec![1.0, 2.0], 1.0).unwrap();
        let cm2 = CostModel::new(&app2, &pf2);
        let st2 = SplitState::new_in(&cm2, SplitBuffers::default());
        let warm = st2.best_split2_bi_memo(0, None, &mut memo);
        let direct = st2.best_split2_bi(0, None);
        assert_eq!(
            warm.map(|s| (s.cut, s.keep_left)),
            direct.map(|s| (s.cut, s.keep_left))
        );
    }

    #[test]
    fn memo_migrate_keeps_approved_entries_and_rebinds() {
        let (app, pf) = setup();
        let cm = CostModel::new(&app, &pf);
        let st = SplitState::new_in(&cm, SplitBuffers::default());
        let mut memo = SplitMemo::new();
        let _ = st.best_split2_bi_memo(0, None, &mut memo);
        let _ = st.best_split2_bi_denom_j_memo(0, None, &mut memo);
        assert!(!memo.over_i.is_empty() && !memo.over_j.is_empty());
        let old_fp = memo.fingerprint().expect("bound after first use");

        // Keep everything: the entries survive and the memo answers for
        // the (identical) "new" instance without tripping the guard.
        memo.migrate(old_fp ^ 1, |_, _, _| true);
        assert_eq!(memo.fingerprint(), Some(old_fp ^ 1));
        assert!(!memo.over_i.is_empty());

        // Keep nothing: both tables drain but the binding stands.
        memo.migrate(old_fp, |_, _, _| false);
        assert!(memo.over_i.is_empty() && memo.over_j.is_empty());
        assert_eq!(memo.fingerprint(), Some(old_fp));
        // The rebound memo serves its instance again without asserting.
        let again = st.best_split2_bi_memo(0, None, &mut memo);
        assert_eq!(
            again.map(|s| (s.cut, s.keep_left)),
            st.best_split2_bi(0, None).map(|s| (s.cut, s.keep_left))
        );
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
        assert!(st.n_used() <= pf.n_procs());
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
