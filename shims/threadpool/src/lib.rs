//! Offline shim: deterministic scoped data-parallelism over std threads.
//!
//! The workspace's compute hot paths (centralized skyline probabilities,
//! STR bulk loading, coordinator fan-out) are data-parallel over
//! independent items, but must stay *bit-for-bit deterministic*: the
//! distributed protocols are tested against sequential reference
//! implementations, so a parallel run may not reorder a single float
//! operation. This shim therefore offers only work-stealing-free
//! primitives whose output is a pure function of the input, all built on
//! one chunked primitive:
//!
//! * [`map_chunks`] — split the input into at most [`pool_size`]
//!   *contiguous* chunks, run the first on the caller's thread and each
//!   other on one scoped thread, and concatenate the per-chunk results in
//!   input order. A call never touches more than `pool_size()` threads,
//!   the caller's included. The coordinator's link fan-out (`broadcast` /
//!   `scatter` in `dsud-net`) and cluster construction use it directly.
//! * [`parallel_map`] / [`parallel_map_vec`] — per-item maps over
//!   [`map_chunks`]. Each output element is produced by exactly the same
//!   closure invocation as in a sequential map.
//! * [`par_sort_by`] — chunk-local stable sorts followed by left-preferring
//!   stable merges; the result equals `slice::sort_by` (a stable sort's
//!   output is unique), for every pool size.
//! * [`scope`] — re-export of [`std::thread::scope`] for ad-hoc structured
//!   concurrency.
//!
//! The pool size comes from, in priority order: a programmatic
//! [`set_pool_size`] / [`with_pool_size`] override (tests and benchmarks),
//! the `DSUD_THREADS`
//! environment variable, and [`std::thread::available_parallelism`].
//! `DSUD_THREADS=1` (or `set_pool_size(1)`) is the documented sequential
//! fallback: [`map_chunks`] then makes a single chunk, so every primitive
//! runs inline on the caller's stack through the same code path.
//!
//! No threads are kept alive between calls: workers are scoped
//! [`std::thread`]s, so the shim needs no shutdown story and cannot leak.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

pub use std::thread::scope;

/// Upper bound on the pool size; protects against absurd `DSUD_THREADS`
/// values.
pub const MAX_THREADS: usize = 64;

/// `0` means "no override"; set via [`set_pool_size`].
static POOL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the pool size for the whole process, taking precedence over
/// `DSUD_THREADS`. Passing `0` clears the override.
///
/// Intended for benchmarks that compare thread counts without mutating the
/// process environment. Tests, which run concurrently, use
/// [`with_pool_size`].
pub fn set_pool_size(n: usize) {
    POOL_OVERRIDE.store(n.min(MAX_THREADS), Ordering::SeqCst);
}

/// Runs `f` with the pool pinned to `n` threads, then clears the override
/// (also when `f` panics). The override is one process-wide setting, so
/// every call takes the same lock: a run labelled "pool 8" really runs on
/// 8, even while other tests of the same binary override it too. Calls
/// must not nest.
pub fn with_pool_size<R>(n: usize, f: impl FnOnce() -> R) -> R {
    static HELD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    struct Clear;
    impl Drop for Clear {
        fn drop(&mut self) {
            set_pool_size(0);
        }
    }
    let _held = HELD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _clear = Clear;
    set_pool_size(n);
    f()
}

/// The number of worker threads parallel operations may use.
///
/// Resolution order: [`set_pool_size`] override, then the `DSUD_THREADS`
/// environment variable, then [`std::thread::available_parallelism`];
/// always at least 1 and at most [`MAX_THREADS`].
pub fn pool_size() -> usize {
    let overridden = POOL_OVERRIDE.load(Ordering::SeqCst);
    if overridden > 0 {
        return overridden.clamp(1, MAX_THREADS);
    }
    if let Ok(var) = std::env::var("DSUD_THREADS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n.clamp(1, MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism().map(usize::from).unwrap_or(1).clamp(1, MAX_THREADS)
}

/// Splits `items` into at most [`pool_size`] contiguous chunks and runs
/// `f` once per chunk, concatenating the per-chunk results in input order.
///
/// `f` receives the index of its chunk's first item and the chunk itself.
/// The caller's thread runs the first chunk; each further chunk runs on
/// one scoped thread, so a call touches at most `pool_size()` threads, the
/// caller's included. With a pool of 1 (or at most one item) there is a
/// single chunk and `f` runs inline: this *is* the sequential fallback,
/// not a separate code path. Every other primitive here is built on it.
///
/// # Panics
///
/// Propagates a panic from `f`, after every chunk has finished.
pub fn map_chunks<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, Vec<T>) -> Vec<R> + Sync,
{
    let workers = pool_size().min(items.len());
    if workers <= 1 {
        return f(0, items);
    }
    let chunk = items.len().div_ceil(workers);
    let mut chunks = split_into_chunks(items, chunk).into_iter();
    let first = chunks.next().expect("at least two chunks");
    scope(|s| {
        let f = &f;
        let handles: Vec<_> =
            chunks.enumerate().map(|(w, slab)| s.spawn(move || f((w + 1) * chunk, slab))).collect();
        let mut out = f(0, first);
        for h in handles {
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// Inputs shorter than this are always mapped inline: spawning costs more
/// than the work saved.
const MIN_ITEMS_TO_SPAWN: usize = 32;

/// Maps `f` over `items`, returning results in input order.
///
/// `f` receives the item's index and a reference to it. The input is split
/// into contiguous chunks by [`map_chunks`]; a small input runs inline.
/// Either way the result is exactly
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.len() < MIN_ITEMS_TO_SPAWN {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    map_chunks(items.iter().collect(), |start, slab| {
        slab.into_iter().enumerate().map(|(j, t)| f(start + j, t)).collect()
    })
}

/// Consuming variant of [`parallel_map`]: moves each item into `f`.
///
/// Results come back in input order, exactly as
/// `items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect()`.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if items.len() < MIN_ITEMS_TO_SPAWN {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    map_chunks(items, |start, slab| {
        slab.into_iter().enumerate().map(|(j, t)| f(start + j, t)).collect()
    })
}

/// Sorts in parallel with the exact result of a sequential stable
/// [`slice::sort_by`].
///
/// Contiguous chunks are stable-sorted on the pool, then merged pairwise
/// with ties preferring the left (earlier-index) run. A stable sort's
/// output is uniquely determined — elements ordered by `(key, original
/// index)` — so the result is identical for every pool size, including the
/// sequential fallback.
///
/// # Panics
///
/// Propagates a panic from `cmp` (e.g. on incomparable keys).
pub fn par_sort_by<T, F>(items: &mut Vec<T>, cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    const MIN_ITEMS_TO_SORT_PARALLEL: usize = 4096;
    let workers = pool_size();
    if workers <= 1 || items.len() < MIN_ITEMS_TO_SORT_PARALLEL {
        items.sort_by(|a, b| cmp(a, b));
        return;
    }
    let chunk = items.len().div_ceil(workers);
    let mut runs = map_chunks(split_into_chunks(std::mem::take(items), chunk), |_, runs| {
        runs.into_iter()
            .map(|mut run| {
                run.sort_by(|a, b| cmp(a, b));
                run
            })
            .collect()
    });
    // Merge adjacent runs until one remains; each round merges pairs on
    // the pool. Left-preferring merges keep the overall sort stable.
    while runs.len() > 1 {
        let mut paired: Vec<(Vec<T>, Option<Vec<T>>)> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(left) = it.next() {
            paired.push((left, it.next()));
        }
        runs = map_chunks(paired, |_, pairs| {
            pairs
                .into_iter()
                .map(|(left, right)| match right {
                    Some(right) => merge_stable(left, right, &cmp),
                    None => left,
                })
                .collect()
        });
    }
    *items = runs.pop().unwrap_or_default();
}

/// Splits a vector into owned contiguous chunks of at most `chunk` items.
fn split_into_chunks<T>(mut items: Vec<T>, chunk: usize) -> Vec<Vec<T>> {
    let mut chunks = Vec::with_capacity(items.len().div_ceil(chunk.max(1)));
    while items.len() > chunk {
        let tail = items.split_off(chunk);
        chunks.push(std::mem::replace(&mut items, tail));
    }
    chunks.push(items);
    chunks
}

/// Stable two-way merge preferring the left run on ties.
fn merge_stable<T, F>(left: Vec<T>, right: Vec<T>, cmp: &F) -> Vec<T>
where
    F: Fn(&T, &T) -> std::cmp::Ordering,
{
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut l = left.into_iter().peekable();
    let mut r = right.into_iter().peekable();
    loop {
        match (l.peek(), r.peek()) {
            (Some(a), Some(b)) => {
                if cmp(b, a) == std::cmp::Ordering::Less {
                    out.push(r.next().expect("peeked"));
                } else {
                    out.push(l.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(l.next().expect("peeked")),
            (None, Some(_)) => out.push(r.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_size_is_at_least_one() {
        assert!(pool_size() >= 1);
        assert!(pool_size() <= MAX_THREADS);
    }

    #[test]
    fn override_wins_and_clears() {
        with_pool_size(3, || assert_eq!(pool_size(), 3));
    }

    #[test]
    fn map_matches_sequential_for_every_pool_size() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 2 + i as u64).collect();
        for n in [1, 2, 3, 8] {
            let got = with_pool_size(n, || parallel_map(&items, |i, x| x * 2 + i as u64));
            assert_eq!(got, expected, "pool size {n}");
        }
    }

    #[test]
    fn map_vec_consumes_in_order() {
        let items: Vec<String> = (0..500).map(|i| format!("s{i}")).collect();
        let expected = items.clone();
        for n in [1, 4] {
            let got = with_pool_size(n, || parallel_map_vec(items.clone(), |_, s| s));
            assert_eq!(got, expected, "pool size {n}");
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        let got = with_pool_size(8, || parallel_map(&[1, 2, 3], |_, x| x + 1));
        assert_eq!(got, vec![2, 3, 4]);
        assert!(with_pool_size(8, || parallel_map(&[] as &[i32], |_, x| *x)).is_empty());
    }

    #[test]
    fn map_chunks_is_ordered_contiguous_and_pool_bounded() {
        for n in [1usize, 2, 3, 8] {
            let items: Vec<usize> = (0..16).collect();
            let caller = std::thread::current().id();
            let got = with_pool_size(n, || {
                map_chunks(items.clone(), |start, slab| {
                    // Contiguous: a chunk's items follow its start index.
                    assert!(slab.iter().enumerate().all(|(j, x)| *x == start + j));
                    let id = std::thread::current().id();
                    slab.into_iter().map(|x| (x, id)).collect::<Vec<_>>()
                })
            });
            let order: Vec<usize> = got.iter().map(|(x, _)| *x).collect();
            assert_eq!(order, items, "pool size {n}");
            let mut threads: Vec<_> = got.iter().map(|(_, id)| *id).collect();
            threads.dedup();
            assert!(threads.len() <= n, "pool size {n} touched {} threads", threads.len());
            // The caller always runs the first chunk.
            assert_eq!(got[0].1, caller, "pool size {n}");
            if n == 1 {
                assert_eq!(threads, vec![caller]);
            }
        }
    }

    #[test]
    fn map_chunks_handles_empty_input() {
        let got: Vec<u8> = with_pool_size(4, || map_chunks(Vec::<u8>::new(), |_, slab| slab));
        assert!(got.is_empty());
    }

    #[test]
    fn sort_equals_stable_sort_for_every_pool_size() {
        // Keys collide on purpose: stability is the whole contract.
        let items: Vec<(u32, usize)> =
            (0..10_000).map(|i| (((i * 2654435761usize) % 97) as u32, i)).collect();
        let mut expected = items.clone();
        expected.sort_by_key(|a| a.0);
        for n in [1, 2, 5, 8] {
            let mut got = items.clone();
            with_pool_size(n, || par_sort_by(&mut got, |a, b| a.0.cmp(&b.0)));
            assert_eq!(got, expected, "pool size {n}");
        }
    }

    #[test]
    fn sort_handles_small_and_empty() {
        let mut v: Vec<i32> = vec![];
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert!(v.is_empty());
        let mut v = vec![3, 1, 2];
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 2, 3]);
    }
}
