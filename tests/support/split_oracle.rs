//! The unpruned split searches, kept as a test oracle: H2a/H2b test every
//! cut pair and every part→processor permutation of the bottleneck
//! interval, and H7 assembles and evaluates the whole candidate mapping
//! for every (processor, cut, orientation). No bound, no early exit. They
//! are the slow, obviously-correct references that the pruned searches of
//! `pipeline_core::state` and `pipeline_core::hetero` are checked against.
//! Every candidate is costed with the production expressions in the same
//! association order and the selection rules are the production rules
//! verbatim, so trajectories agree **bit for bit**, mappings and
//! tie-breaks included.
//!
//! Built on the public API only. Include it with
//! `#[path = "support/split_oracle.rs"] mod split_oracle;`.

use pipeline_workflows::core::state::Split3;
use pipeline_workflows::core::{SplitBuffers, SplitState, Trajectory};
use pipeline_workflows::model::util::{approx_eq, definitely_lt};
use pipeline_workflows::model::{CostModel, Interval, IntervalMapping, ProcId};

/// All 6 permutations of three items, as index triples, in the order the
/// production enumeration visits them.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Every three-way split of entry `j` with the next two unused
/// processors, in (cut1, cut2, permutation) order, each costed from
/// scratch with [`CostModel::interval_cost`].
pub fn all_splits3(st: &SplitState<'_>, j: usize) -> Vec<Split3> {
    let e = st.entries()[j];
    let (Some(p1), Some(p2)) = (st.peek_unused(0), st.peek_unused(1)) else {
        return Vec::new();
    };
    let cm = st.cost_model();
    let pool = [e.proc, p1, p2];
    let base_latency = st.latency() - e.lat_term;
    let pc = |s: usize, t: usize, u: ProcId| cm.interval_cost(Interval::new(s, t), u, None, None);
    let mut out = Vec::new();
    for cut1 in e.start + 1..e.end.saturating_sub(1) {
        for cut2 in cut1 + 1..e.end {
            for perm in PERMS {
                let procs = perm.map(|i| pool[i]);
                let parts = [
                    pc(e.start, cut1, procs[0]),
                    pc(cut1, cut2, procs[1]),
                    pc(cut2, e.end, procs[2]),
                ];
                out.push(Split3 {
                    cut1,
                    cut2,
                    procs,
                    cycles: parts.map(|c| c.cycle_time()),
                    new_latency: base_latency
                        + parts[0].latency_term()
                        + parts[1].latency_term()
                        + parts[2].latency_term(),
                });
            }
        }
    }
    out
}

/// H2a's rule over the full candidate list: minimize the local max,
/// strictly below the old cycle, ties to the smallest (cut1, cut2).
pub fn select3_mono(old: f64, cands: &[Split3]) -> Option<Split3> {
    let mut best: Option<Split3> = None;
    for &s in cands {
        if !definitely_lt(s.local_max(), old) {
            continue;
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
    }
    best
}

/// H2b's rule over the full candidate list: minimize
/// `Δlatency / min_i Δperiod(i)`, then the local max, then (cut1, cut2).
pub fn select3_bi(old: f64, current_latency: f64, cands: &[Split3]) -> Option<Split3> {
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
    for &s in cands {
        if !definitely_lt(s.local_max(), old) {
            continue;
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
    }
    best.map(|(_, s)| s)
}

/// The H2a (`bi = false`) or H2b (`bi = true`) trajectory, run to
/// exhaustion with the unpruned three-way selection and the production
/// two-way fallback.
pub fn explo_trajectory(cm: &CostModel<'_>, bi: bool) -> Trajectory {
    let mut st = SplitState::new_in(cm, SplitBuffers::default());
    let mut traj = Trajectory::new();
    loop {
        traj.push_point(
            st.period(),
            st.latency(),
            st.entries().iter().map(|e| (e.end, e.proc)),
        );
        let j = st.bottleneck();
        let e = st.entries()[j];
        if e.end - e.start >= 3 && st.n_unused() >= 2 {
            let cands = all_splits3(&st, j);
            let s3 = if bi {
                select3_bi(e.cycle, st.latency(), &cands)
            } else {
                select3_mono(e.cycle, &cands)
            };
            match s3 {
                Some(s) => st.apply_split3(j, s),
                None => return traj,
            }
            continue;
        }
        let s2 = if bi {
            st.best_split2_bi(j, None)
        } else {
            st.best_split2_mono(j, None)
        };
        match s2 {
            Some(s) => st.apply_split2(j, s),
            None => return traj,
        }
    }
}

/// `(period, latency)` of the mapping given as slices: the fold order of
/// `CostModel::{period, latency}`.
fn evaluate_slices(cm: &CostModel<'_>, ivs: &[Interval], ps: &[ProcId]) -> (f64, f64) {
    let m = ivs.len();
    let cost = |j: usize| {
        let pred = (j > 0).then(|| ps[j - 1]);
        let succ = (j + 1 < m).then(|| ps[j + 1]);
        cm.interval_cost(ivs[j], ps[j], pred, succ)
    };
    let mut period = f64::NEG_INFINITY;
    for j in 0..m {
        period = period.max(cost(j).cycle_time());
    }
    let mut latency = 0.0;
    for j in 0..m {
        let c = cost(j);
        latency += c.latency_term();
        if j + 1 == m {
            latency += c.t_out;
        }
    }
    (period, latency)
}

/// The H7 trajectory with `candidate_procs` candidate processors per
/// split, run to exhaustion, evaluating every candidate mapping in full.
pub fn hetero_trajectory(cm: &CostModel<'_>, candidate_procs: usize) -> Trajectory {
    let (app, pf) = (cm.app(), cm.platform());
    let order = pf.procs_by_speed_desc();
    let mut used = vec![false; pf.n_procs()];
    used[order[0]] = true;
    let mut intervals = vec![Interval::new(0, app.n_stages())];
    let mut procs = vec![order[0]];
    let mut traj = Trajectory::new();
    loop {
        let mapping = IntervalMapping::new(app, pf, intervals.clone(), procs.clone())
            .expect("splitting maintains validity");
        traj.push_point(
            cm.period(&mapping),
            cm.latency(&mapping),
            mapping.assignments().map(|(iv, proc)| (iv.end, proc)),
        );
        let j = (0..mapping.n_intervals())
            .max_by(|&a, &b| {
                cm.cycle_time(&mapping, a)
                    .partial_cmp(&cm.cycle_time(&mapping, b))
                    .expect("finite")
            })
            .expect("at least one interval");
        let iv = intervals[j];
        let candidates: Vec<ProcId> = order
            .iter()
            .copied()
            .filter(|&u| !used[u])
            .take(candidate_procs)
            .collect();
        if iv.len() < 2 || candidates.is_empty() {
            return traj;
        }
        let old_cycle = cm.cycle_time(&mapping, j);
        // (local max cycle, period, latency, cut, keep_left, new_proc).
        let mut best: Option<(f64, f64, f64, usize, bool, ProcId)> = None;
        for &new_proc in &candidates {
            for cut in iv.start + 1..iv.end {
                for keep_left in [true, false] {
                    let mut ivs = intervals.clone();
                    let mut ps = procs.clone();
                    ivs[j] = Interval::new(iv.start, cut);
                    ivs.insert(j + 1, Interval::new(cut, iv.end));
                    let (lp, rp) = if keep_left {
                        (procs[j], new_proc)
                    } else {
                        (new_proc, procs[j])
                    };
                    ps[j] = lp;
                    ps.insert(j + 1, rp);
                    let (p, l) = evaluate_slices(cm, &ivs, &ps);
                    let cycle = |k: usize| {
                        let pred = (k > 0).then(|| ps[k - 1]);
                        let succ = (k + 1 < ivs.len()).then(|| ps[k + 1]);
                        cm.interval_cost(ivs[k], ps[k], pred, succ).cycle_time()
                    };
                    let local = cycle(j).max(cycle(j + 1));
                    if !definitely_lt(local, old_cycle) {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((bl_local, bp, bl, ..)) => {
                            definitely_lt(local, bl_local)
                                || (approx_eq(local, bl_local)
                                    && (definitely_lt(p, bp)
                                        || (approx_eq(p, bp) && definitely_lt(l, bl))))
                        }
                    };
                    if better {
                        best = Some((local, p, l, cut, keep_left, new_proc));
                    }
                }
            }
        }
        let Some((_, _, _, cut, keep_left, new_proc)) = best else {
            return traj;
        };
        used[new_proc] = true;
        let (lp, rp) = if keep_left {
            (procs[j], new_proc)
        } else {
            (new_proc, procs[j])
        };
        intervals[j] = Interval::new(iv.start, cut);
        intervals.insert(j + 1, Interval::new(cut, iv.end));
        procs[j] = lp;
        procs.insert(j + 1, rp);
    }
}
