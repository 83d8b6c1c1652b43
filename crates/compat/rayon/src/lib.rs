//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! This workspace builds in an environment without crates.io access, so this
//! crate provides the (small) subset of rayon's API the workspace actually
//! uses, implemented on `std::thread::scope`:
//!
//! * `slice.par_iter_mut().enumerate().for_each(..)`
//! * `slice.par_chunks_mut(n).enumerate().for_each(..)`
//! * `range.into_par_iter().map(..).collect() / .sum()`
//! * `range.into_par_iter().map_init(init, ..).sum()`
//!
//! Work is split into one contiguous chunk per available core; small inputs
//! run sequentially to avoid thread-spawn overhead.  The observable behavior
//! (ordering of `collect`, exclusivity of `&mut` access) matches rayon.

use std::num::NonZeroUsize;

/// Everything a `use rayon::prelude::*` caller expects.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

/// Inputs shorter than this run sequentially.
const SEQ_CUTOFF: usize = 2048;

fn n_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Split `len` items into per-thread contiguous ranges of near-equal size.
fn split_ranges(len: usize) -> Vec<std::ops::Range<usize>> {
    let threads = n_threads().min(len).max(1);
    let chunk = len.div_ceil(threads);
    (0..threads)
        .map(|t| (t * chunk).min(len)..((t + 1) * chunk).min(len))
        .filter(|r| !r.is_empty())
        .collect()
}

// ---------------------------------------------------------------------------
// Mutable slice parallelism
// ---------------------------------------------------------------------------

/// Extension trait providing `par_iter_mut` / `par_chunks_mut` on slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel exclusive iterator over the elements.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel exclusive iterator over `chunk_size`-sized chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel `&mut` iterator over a slice (created by `par_iter_mut`).
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Pair every element with its index.
    pub fn enumerate(self) -> EnumerateParIterMut<'a, T> {
        EnumerateParIterMut { slice: self.slice }
    }

    /// Apply `f` to every element, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        self.enumerate().for_each(|(_, v)| f(v));
    }
}

/// Enumerated parallel `&mut` iterator over a slice.
pub struct EnumerateParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<T: Send> EnumerateParIterMut<'_, T> {
    /// Apply `f` to every `(index, element)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Sync,
    {
        let len = self.slice.len();
        if len < SEQ_CUTOFF || n_threads() == 1 {
            for (i, v) in self.slice.iter_mut().enumerate() {
                f((i, v));
            }
            return;
        }
        let ranges = split_ranges(len);
        let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
        let mut rest = self.slice;
        let mut consumed = 0usize;
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            parts.push((consumed, head));
            consumed += r.len();
            rest = tail;
        }
        std::thread::scope(|scope| {
            for (offset, part) in parts {
                let f = &f;
                scope.spawn(move || {
                    for (i, v) in part.iter_mut().enumerate() {
                        f((offset + i, v));
                    }
                });
            }
        });
    }
}

/// Parallel `&mut` chunk iterator over a slice (created by `par_chunks_mut`).
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair every chunk with its index.
    pub fn enumerate(self) -> EnumerateParChunksMut<'a, T> {
        EnumerateParChunksMut {
            slice: self.slice,
            chunk_size: self.chunk_size,
        }
    }

    /// Apply `f` to every chunk, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, c)| f(c));
    }
}

/// Enumerated parallel `&mut` chunk iterator.
pub struct EnumerateParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<T: Send> EnumerateParChunksMut<'_, T> {
    /// Apply `f` to every `(chunk_index, chunk)` pair, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let n_chunks = self.slice.len().div_ceil(self.chunk_size.max(1));
        if self.slice.len() < SEQ_CUTOFF || n_threads() == 1 {
            for (i, c) in self.slice.chunks_mut(self.chunk_size).enumerate() {
                f((i, c));
            }
            return;
        }
        // Assign whole chunks to threads so no chunk straddles two workers.
        let ranges = split_ranges(n_chunks);
        let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
        let mut rest = self.slice;
        for r in &ranges {
            let items = ((r.end - r.start) * self.chunk_size).min(rest.len());
            let (head, tail) = rest.split_at_mut(items);
            parts.push((r.start, head));
            rest = tail;
        }
        std::thread::scope(|scope| {
            for (first_chunk, part) in parts {
                let f = &f;
                let chunk_size = self.chunk_size;
                scope.spawn(move || {
                    for (i, c) in part.chunks_mut(chunk_size).enumerate() {
                        f((first_chunk + i, c));
                    }
                });
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Index-range parallelism
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator (rayon's `IntoParallelIterator`,
/// implemented here for `Range<usize>` only — the shape the workspace uses).
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter;
    /// Convert `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// A parallel iterator over a `Range<usize>`.
pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParRange {
    /// Map every index through `f`, preserving order.
    pub fn map<R, F>(self, f: F) -> ParRangeMap<R, F>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        ParRangeMap {
            range: self.range,
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl ParRange {
    /// Map every index through `f`, handing it a scratch value made by
    /// `init` — once per worker here (rayon: once per split), so `f` must
    /// leave the scratch as it found it.
    pub fn map_init<T, R, I, F>(self, init: I, f: F) -> ParRangeMapInit<I, F>
    where
        R: Send,
        I: Fn() -> T + Sync,
        F: Fn(&mut T, usize) -> R + Sync,
    {
        ParRangeMapInit {
            range: self.range,
            init,
            f,
        }
    }
}

/// Run `piece(lo, hi)` over contiguous sub-ranges of `range` — one per
/// worker, or the whole range on the calling thread when it is short —
/// and return the results in range order.
fn run_pieces<P, F>(range: std::ops::Range<usize>, piece: F) -> Vec<P>
where
    P: Send,
    F: Fn(usize, usize) -> P + Sync,
{
    let start = range.start;
    let len = range.end.saturating_sub(start);
    if len < 64 || n_threads() == 1 {
        return vec![piece(start, start + len)];
    }
    let piece = &piece;
    std::thread::scope(|scope| {
        let handles: Vec<_> = split_ranges(len)
            .into_iter()
            .map(|r| scope.spawn(move || piece(start + r.start, start + r.end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// The result of `ParRange::map_init`: evaluate lazily on `sum`.
pub struct ParRangeMapInit<I, F> {
    range: std::ops::Range<usize>,
    init: I,
    f: F,
}

impl<I, F> ParRangeMapInit<I, F> {
    /// Sum the mapped values.
    pub fn sum<T, R, S>(self) -> S
    where
        I: Fn() -> T + Sync,
        F: Fn(&mut T, usize) -> R + Sync,
        S: std::iter::Sum<R> + std::iter::Sum<S> + Send,
    {
        run_pieces(self.range, |lo, hi| -> S {
            let mut scratch = (self.init)();
            (lo..hi).map(|i| (self.f)(&mut scratch, i)).sum()
        })
        .into_iter()
        .sum()
    }
}

/// The result of `ParRange::map`: evaluate lazily on `collect`/`sum`.
pub struct ParRangeMap<R, F> {
    range: std::ops::Range<usize>,
    f: F,
    _marker: std::marker::PhantomData<R>,
}

impl<R, F> ParRangeMap<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fn run(self) -> Vec<R> {
        let len = self.range.len();
        let mut pieces = run_pieces(self.range, |lo, hi| {
            (lo..hi).map(&self.f).collect::<Vec<R>>()
        })
        .into_iter();
        // The first piece becomes the output: a sequential run copies nothing.
        let mut out = pieces.next().unwrap_or_default();
        out.reserve(len - out.len());
        for p in pieces {
            out.extend(p);
        }
        out
    }

    /// Collect the mapped values in index order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(self.run())
    }

    /// Sum the mapped values.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        self.run().into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_init_sums_every_index_with_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let total: u64 = (3..10_003usize)
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |scratch: &mut Vec<usize>, i| {
                    assert!(scratch.is_empty(), "scratch is handed back as found");
                    scratch.push(i);
                    scratch.pop().expect("just pushed") as u64
                },
            )
            .sum();
        assert_eq!(total, (3..10_003u64).sum::<u64>());
        assert!((1..=super::n_threads()).contains(&inits.load(Ordering::Relaxed)));
    }

    #[test]
    fn par_iter_mut_visits_every_index_once() {
        let mut v = vec![0usize; 10_000];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * 2);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn par_chunks_mut_chunk_indices_are_global() {
        let mut v = vec![0usize; 10_000];
        v.par_chunks_mut(8).enumerate().for_each(|(ci, chunk)| {
            for x in chunk.iter_mut() {
                *x = ci;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i / 8);
        }
    }

    #[test]
    fn range_map_collect_preserves_order_and_sum_agrees() {
        let v: Vec<usize> = (0..5000usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(v.len(), 5000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * i));
        let s: u64 = (0..5000usize).into_par_iter().map(|i| i as u64).sum();
        assert_eq!(s, 4999 * 5000 / 2);
    }

    #[test]
    fn small_inputs_run_sequentially_but_correctly() {
        let mut v = vec![1i32; 7];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(v, vec![2; 7]);
        let out: Vec<i32> = (0..7usize).into_par_iter().map(|i| i as i32).collect();
        assert_eq!(out, (0..7).collect::<Vec<i32>>());
    }
}
