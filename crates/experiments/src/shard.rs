//! Sharded parallel work-queue engine.
//!
//! The sweep harness used to funnel every result through one
//! `Mutex`-guarded slot per item; this module replaces that with
//! **chunked work stealing**: the index space `0..n` is cut into
//! fixed-size chunks, worker threads claim whole chunks from an atomic
//! cursor (one uncontended lock *per chunk*, not per item), and each
//! chunk's results land in their own slot. Two properties matter:
//!
//! * **Determinism across thread counts.** Chunk boundaries depend only
//!   on `chunk_size` (never on `threads`), every chunk is computed
//!   independently, and per-chunk results are concatenated in chunk
//!   order. A sweep therefore produces *bit-identical* output on
//!   1, 2 or 64 threads — verified by the experiments crate's
//!   `tests/sharded_determinism.rs`.
//! * **Per-shard RNG streams.** Workers generate instances *inside* the
//!   shard from `(seed, index)` via
//!   [`pipeline_model::generator::stream_seed`]-derived streams, so no
//!   serial pre-generation pass is needed and the draw order inside a
//!   chunk never depends on what other shards do.
//!
//! Worker panics propagate (scoped threads), matching the old engine.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default chunk size. Effective parallelism is capped at
/// `ceil(n / chunk_size)` workers, so the default stays small — a paper
/// sweep of 50 instances splits into 25 chunks and can occupy 25 cores.
/// Every engine workload amortizes the per-chunk cost (one `fetch_add`
/// plus one uncontended lock) over at least microseconds of instance
/// evaluation, so small chunks are safe.
const DEFAULT_CHUNK_SIZE: usize = 2;

/// Knobs of the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Worker threads. `1` runs inline on the caller's thread (no spawn),
    /// still using the same chunk boundaries — which is what makes the
    /// serial path the bit-exact reference for the parallel one.
    pub threads: usize,
    /// Indices per chunk. Part of the *result* for floating-point folds
    /// per chunk (`run_scenario`'s landmark sums merge chunk by chunk),
    /// so it deliberately does not default to anything thread-dependent.
    pub chunk_size: usize,
}

impl ShardOptions {
    /// `threads` workers with the default chunk size.
    pub fn with_threads(threads: usize) -> Self {
        ShardOptions {
            threads,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions::with_threads(1)
    }
}

/// The chunk ranges covering `0..n`: `[0, c)`, `[c, 2c)`, …
fn chunk_ranges(n: usize, chunk_size: usize) -> Vec<Range<usize>> {
    assert!(chunk_size >= 1, "need a positive chunk size");
    (0..n.div_ceil(chunk_size))
        .map(|c| c * chunk_size..((c + 1) * chunk_size).min(n))
        .collect()
}

/// Runs `work` once per chunk on `threads` workers stealing chunks from
/// a shared cursor; each worker owns one context built by `make_ctx`
/// (built once per worker, reused across every chunk the worker claims —
/// this is how per-shard [`pipeline_core::SolveWorkspace`]s amortize
/// solver scratch across items). Returns the per-chunk outputs in chunk
/// order.
fn run_chunks_with<A, C, M, F>(
    chunks: Vec<Range<usize>>,
    threads: usize,
    make_ctx: M,
    work: F,
) -> Vec<A>
where
    A: Send,
    M: Fn() -> C + Sync,
    F: Fn(&mut C, Range<usize>) -> A + Sync,
{
    assert!(threads >= 1, "need at least one thread");
    let n_chunks = chunks.len();
    let threads = threads.min(n_chunks);
    if threads <= 1 {
        let mut ctx = make_ctx();
        return chunks.into_iter().map(|c| work(&mut ctx, c)).collect();
    }
    let slots: Vec<Mutex<Option<A>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut ctx = make_ctx();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let out = work(&mut ctx, chunks[c].clone());
                    *slots[c].lock().unwrap() = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every chunk ran"))
        .collect()
}

/// Applies `f` to every index in `0..n` with chunked work stealing,
/// returning results in index order. `make_ctx` runs once per worker
/// thread and the context is handed to every call that worker makes;
/// pass `|| ()` when there is none. Contexts must not influence results
/// (they are reusable *scratch*) — output stays identical for every
/// thread count.
pub fn sharded_map_indices_with<R, C, M, F>(
    n: usize,
    opts: ShardOptions,
    make_ctx: M,
    f: F,
) -> Vec<R>
where
    R: Send,
    C: Send,
    M: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    run_chunks_with(
        chunk_ranges(n, opts.chunk_size),
        opts.threads,
        make_ctx,
        |ctx, range| range.map(|i| f(ctx, i)).collect::<Vec<R>>(),
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Moves `items` through `f` with chunked work stealing, preserving
/// order, with a per-worker context (see [`sharded_map_indices_with`]).
/// This is the batch-solving entry point: with `SolveWorkspace::new` as
/// the context, each worker reuses one workspace across every
/// `PreparedInstance::solve_in`, `apply_in` or `TenantSet::co_schedule`
/// job it claims, and the answers come back in job order.
pub fn sharded_map_items_with<T, R, C, M, F>(
    items: Vec<T>,
    opts: ShardOptions,
    make_ctx: M,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    C: Send,
    M: Fn() -> C + Sync,
    F: Fn(&mut C, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // Hand whole chunks of items to workers: one lock per chunk.
    let chunks = chunk_ranges(n, opts.chunk_size);
    let mut buckets: Vec<Mutex<Option<Vec<T>>>> = Vec::with_capacity(chunks.len());
    let mut items = items.into_iter();
    for r in &chunks {
        buckets.push(Mutex::new(Some(items.by_ref().take(r.len()).collect())));
    }
    let per_chunk = run_chunks_with(chunks, opts.threads, make_ctx, |ctx, range| {
        let chunk = buckets[range.start / opts.chunk_size]
            .lock()
            .unwrap()
            .take()
            .expect("each chunk is taken once");
        chunk
            .into_iter()
            .map(|item| f(ctx, item))
            .collect::<Vec<R>>()
    });
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_everything_once() {
        for (n, sz) in [(0usize, 3usize), (1, 3), (7, 3), (9, 3), (50, 8)] {
            let chunks = chunk_ranges(n, sz);
            let flat: Vec<usize> = chunks.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} sz={sz}");
            assert!(chunks.iter().all(|r| r.len() <= sz));
        }
    }

    #[test]
    fn map_indices_in_order_for_any_thread_count() {
        let expected: Vec<usize> = (0..53).map(|i| i * i).collect();
        for threads in [1, 2, 5, 16] {
            let opts = ShardOptions {
                threads,
                chunk_size: 4,
            };
            assert_eq!(
                sharded_map_indices_with(53, opts, || (), |(), i| i * i),
                expected
            );
        }
        assert_eq!(
            sharded_map_indices_with(0, ShardOptions::default(), || (), |(), i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn map_items_preserves_order_and_moves_values() {
        let items: Vec<String> = (0..37).map(|i| format!("x{i}")).collect();
        for threads in [1, 3, 8] {
            let out = sharded_map_items_with(
                items.clone(),
                ShardOptions {
                    threads,
                    chunk_size: 5,
                },
                || (),
                |(), s| s + "!",
            );
            assert_eq!(out.len(), 37);
            assert_eq!(out[0], "x0!");
            assert_eq!(out[36], "x36!");
        }
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            sharded_map_indices_with(
                20,
                ShardOptions::with_threads(4),
                || (),
                |(), i| {
                    assert!(i != 13, "boom");
                    i
                },
            )
        });
        assert!(result.is_err());
    }
}
