//! The reusable-buffer pool and execution counters behind
//! [`Context`](super::Context).
//!
//! Every `Op::...run(&ctx)` used to allocate its output, packing and mask
//! buffers afresh, which put a heap allocation (or several) on every
//! iteration of every algorithm inner loop.  A [`Workspace`] turns the
//! [`Context`](super::Context) into a real execution resource: operations
//! check buffers out of the pool, size them, and return them when done, so a
//! steady-state traversal loop (same vector lengths every iteration) performs
//! **zero** heap allocations after its first couple of iterations — see
//! `crates/core/tests/zero_alloc.rs` for the allocation-counter proof.
//!
//! # Striped shelves
//!
//! One context may serve several callers at once (a `Context` is `Sync`:
//! threads reading one `&Matrix` share its context), and a single
//! `Mutex<BufferPool>` would serialize them all on its lock.  The pool is
//! **striped**: several independently locked [`BufferPool`] shelves, and
//! each thread is hashed to a *home stripe* it takes from and gives to, so
//! concurrent callers on different threads touch different locks.  Kernels
//! check their buffers out before they fan out, so rayon's workers never
//! touch the pool mid-kernel.
//!
//! # Ownership rules
//!
//! * `take_empty`/`take` transfer ownership of a pooled `Vec` to the caller;
//!   the pool keeps no reference.  The buffer's *capacity* is recycled, its
//!   contents are always reset (`take_empty` clears, `take` clears and
//!   refills), so no data leaks between operations.
//! * `give` transfers ownership back.  Giving a buffer is optional — a
//!   buffer that escapes (e.g. inside the [`Vector`](super::Vector) an op
//!   returns) is simply dropped by its new owner, and the pool refills from
//!   later `give`s.  Algorithms that want allocation-free steady state
//!   return their previous iteration's vector with
//!   [`Context::recycle`](super::Context::recycle).
//! * Each stripe's shelf is capped in buffer count ([`SHELF_CAP`]) **and**
//!   in bytes ([`SHELF_BYTE_CAP`]): recycling many differently-sized vectors
//!   evicts the oldest shelved buffers beyond the byte high-water mark, so a
//!   pathological caller cannot hoard unbounded memory inside a long-lived
//!   context.  The most recently given buffer always survives — it is the
//!   one sized for the current steady state.  (The caps are per stripe; the
//!   worst-case total is `stripes × cap`, with the stripe count a small
//!   constant derived from host parallelism.)
//!
//! Stripes are behind `Mutex`es (not `RefCell`s) so that a `Context` — and
//! the [`Matrix`](super::Matrix) that carries one — stays `Send + Sync`.
//! Operations hold a lock only while popping/pushing a buffer, never across
//! a kernel.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maximum number of recycled buffers kept per element type (per stripe).
pub const SHELF_CAP: usize = 32;

/// Byte high-water mark per shelf (per stripe): when the recycled buffers of
/// one element type exceed this, the oldest are evicted (the newest always
/// survives).  Generous enough that steady-state algorithm loops — a handful
/// of graph-sized vectors — never hit it; only callers recycling many
/// differently-sized buffers do.
pub const SHELF_BYTE_CAP: usize = 8 << 20;

/// Element types the workspace pool can hold buffers of.
///
/// Implemented for the kernel-facing scalar types: `f32` (dense vectors),
/// `bool` (mask views), `usize` (frontier index lists), the three B2SR
/// packing words (`u8`, `u16`, `u32`) and the multi-vector lane words
/// (`u64`).
pub trait Poolable: Copy + Send + 'static {
    /// The shelf of recycled buffers for this element type.
    fn shelf(pool: &mut BufferPool) -> &mut Vec<Vec<Self>>;
}

/// The typed shelves of recycled buffers (one stripe of a [`Workspace`]).
#[derive(Debug, Default)]
pub struct BufferPool {
    f32s: Vec<Vec<f32>>,
    bools: Vec<Vec<bool>>,
    usizes: Vec<Vec<usize>>,
    u8s: Vec<Vec<u8>>,
    u16s: Vec<Vec<u16>>,
    u32s: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
}

macro_rules! poolable {
    ($ty:ty, $field:ident) => {
        impl Poolable for $ty {
            #[inline]
            fn shelf(pool: &mut BufferPool) -> &mut Vec<Vec<Self>> {
                &mut pool.$field
            }
        }
    };
}

poolable!(f32, f32s);
poolable!(bool, bools);
poolable!(usize, usizes);
poolable!(u8, u8s);
poolable!(u16, u16s);
poolable!(u32, u32s);
poolable!(u64, u64s);

/// The per-context execution workspace: striped buffer pools and op
/// counters.
#[derive(Debug)]
pub struct Workspace {
    stripes: Box<[Mutex<BufferPool>]>,
    stats: ExecStats,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// A fresh, empty workspace: one pool stripe per unit of (bounded) host
    /// parallelism.
    pub fn new() -> Self {
        let threads = rayon::current_num_threads();
        let stripes = threads.max(4).next_power_of_two().min(32);
        Workspace {
            stripes: (0..stripes)
                .map(|_| Mutex::new(BufferPool::default()))
                .collect(),
            stats: ExecStats::default(),
        }
    }

    /// The calling thread's home stripe index.  The thread-id hash is a
    /// per-thread constant, so it is computed once per thread and cached in
    /// TLS — a take/give pays one TLS read plus the mask, not a SipHash.
    fn home_stripe(&self) -> usize {
        thread_local! {
            static HOME_HASH: u64 = {
                let mut h = DefaultHasher::new();
                std::thread::current().id().hash(&mut h);
                h.finish()
            };
        }
        (HOME_HASH.with(|h| *h) as usize) & (self.stripes.len() - 1)
    }

    /// Always `false`: no kernel has a second, SWAR body to select.  The
    /// method exists only because `benchmark/src/layers.rs` calls it.
    pub fn simd_enabled(&self, _tile_dim: usize) -> bool {
        false
    }

    /// Check out a cleared buffer (length 0); capacity comes from the pool
    /// when a buffer of this type was previously given back.  The home
    /// stripe is tried first (blocking — uncontended in steady state);
    /// other stripes are only probed opportunistically (`try_lock`) when
    /// the home shelf is empty.
    pub fn take_empty<T: Poolable>(&self) -> Vec<T> {
        let n = self.stripes.len();
        let home = self.home_stripe();
        for off in 0..n {
            let idx = (home + off) & (n - 1);
            let popped = if off == 0 {
                let mut pool = self.stripes[idx].lock().expect("workspace pool poisoned");
                T::shelf(&mut pool).pop()
            } else {
                match self.stripes[idx].try_lock() {
                    Ok(mut pool) => T::shelf(&mut pool).pop(),
                    Err(_) => None,
                }
            };
            if let Some(mut buf) = popped {
                buf.clear();
                return buf;
            }
        }
        Vec::new()
    }

    /// Check out a buffer of exactly `len` elements, every one set to
    /// `fill`.
    pub fn take<T: Poolable>(&self, len: usize, fill: T) -> Vec<T> {
        let mut buf = self.take_empty();
        buf.resize(len, fill);
        buf
    }

    /// Return a buffer to the calling thread's home stripe for later reuse.
    /// Once that stripe's shelf exceeds the per-type count cap
    /// ([`SHELF_CAP`]) or the byte high-water mark ([`SHELF_BYTE_CAP`]), the
    /// *oldest* shelved buffers are evicted first — the just-given buffer is
    /// the one sized for the current steady state, so it always survives.
    pub fn give<T: Poolable>(&self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut pool = self.stripes[self.home_stripe()]
            .lock()
            .expect("workspace pool poisoned");
        let shelf = T::shelf(&mut pool);
        shelf.push(buf);
        let bytes = |b: &Vec<T>| b.capacity() * std::mem::size_of::<T>();
        let mut total: usize = shelf.iter().map(bytes).sum();
        let mut evict = 0;
        while (shelf.len() - evict > SHELF_CAP || total > SHELF_BYTE_CAP) && evict + 1 < shelf.len()
        {
            total -= bytes(&shelf[evict]);
            evict += 1;
        }
        if evict > 0 {
            shelf.drain(..evict);
        }
    }

    /// The execution counters of this workspace.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The calling thread's home stripe, locked — test-only introspection.
    #[cfg(test)]
    fn home_pool(&self) -> std::sync::MutexGuard<'_, BufferPool> {
        self.stripes[self.home_stripe()].lock().unwrap()
    }
}

/// Monotonic counters of executed operations, split by kind and — for the
/// matrix-vector family — by resolved traversal direction.
///
/// The counters make [`Direction::Auto`](super::Direction) observable:
/// tests (and the perf harness) read a [`snapshot`](ExecStats::snapshot)
/// before and after a run and assert how many iterations resolved to push
/// vs pull, how many frontier nodes and operand entries the push products
/// scattered from (work that a test can assert, not only time).
///
/// Every counter is a plain relaxed atomic, so parallel kernels bump them
/// without taking any lock (and without riding the pool stripes'
/// synchronization).
#[derive(Debug, Default)]
pub struct ExecStats {
    pull_mxv: AtomicU64,
    push_mxv: AtomicU64,
    pull_mxm: AtomicU64,
    push_mxm: AtomicU64,
    push_frontier_nodes: AtomicU64,
    push_frontier_entries: AtomicU64,
    converted_elems: AtomicU64,
    refolded_positions: AtomicU64,
    fused_mxv: AtomicU64,
    ewise_chain: AtomicU64,
    mxm_reduce: AtomicU64,
    reduce: AtomicU64,
    ewise: AtomicU64,
    apply: AtomicU64,
    select: AtomicU64,
}

impl ExecStats {
    /// One `mxv` / `vxm` resolved to push or pull.
    pub(crate) fn record_mxv(&self, push: bool) {
        let counter = if push { &self.push_mxv } else { &self.pull_mxv };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    /// One batched `mxm` resolved to push or pull.
    pub(crate) fn record_mxm(&self, push: bool) {
        let counter = if push { &self.push_mxm } else { &self.pull_mxm };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    /// One push product scattered from `nodes` frontier nodes holding
    /// `entries` non-identity `(node, lane)` entries — the numbers the
    /// planner's frontier scan already has, added once per op.
    pub(crate) fn record_push_frontier(&self, nodes: usize, entries: usize) {
        self.push_frontier_nodes
            .fetch_add(nodes as u64, Ordering::Relaxed);
        self.push_frontier_entries
            .fetch_add(entries as u64, Ordering::Relaxed);
    }
    /// One Boolean product on a bit backend packed or expanded `elems`
    /// `f32` / `bool` elements at its boundary — added once per op.
    pub(crate) fn record_converted(&self, elems: usize) {
        self.converted_elems
            .fetch_add(elems as u64, Ordering::Relaxed);
    }
    /// One product through a `DeltaOverlay` re-folded `positions` dirty
    /// output positions (`f32` elements or lane words) — added once per op.
    pub(crate) fn record_refolded(&self, positions: usize) {
        self.refolded_positions
            .fetch_add(positions as u64, Ordering::Relaxed);
    }
    pub(crate) fn record_fused_mxv(&self) {
        self.fused_mxv.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_ewise_chain(&self) {
        self.ewise_chain.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_mxm_reduce(&self) {
        self.mxm_reduce.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_reduce(&self) {
        self.reduce.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_ewise(&self) {
        self.ewise.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_apply(&self) {
        self.apply.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_select(&self) {
        self.select.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-data copy of the current counter values.
    pub fn snapshot(&self) -> ExecCounts {
        ExecCounts {
            pull_mxv: self.pull_mxv.load(Ordering::Relaxed),
            push_mxv: self.push_mxv.load(Ordering::Relaxed),
            pull_mxm: self.pull_mxm.load(Ordering::Relaxed),
            push_mxm: self.push_mxm.load(Ordering::Relaxed),
            push_frontier_nodes: self.push_frontier_nodes.load(Ordering::Relaxed),
            push_frontier_entries: self.push_frontier_entries.load(Ordering::Relaxed),
            converted_elems: self.converted_elems.load(Ordering::Relaxed),
            refolded_positions: self.refolded_positions.load(Ordering::Relaxed),
            sharded_push: 0,
            shard_segments: 0,
            fused_mxv: self.fused_mxv.load(Ordering::Relaxed),
            ewise_chain: self.ewise_chain.load(Ordering::Relaxed),
            mxm_reduce: self.mxm_reduce.load(Ordering::Relaxed),
            reduce: self.reduce.load(Ordering::Relaxed),
            ewise: self.ewise.load(Ordering::Relaxed),
            apply: self.apply.load(Ordering::Relaxed),
            select: self.select.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of [`ExecStats`] counter values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecCounts {
    /// `mxv`/`vxm` executions that resolved to the pull (dense sweep) path.
    pub pull_mxv: u64,
    /// `mxv`/`vxm` executions that resolved to the push (sparse scatter) path.
    pub push_mxv: u64,
    /// Batched `mxm` (matrix × multivector) executions that resolved to pull.
    pub pull_mxm: u64,
    /// Batched `mxm` (matrix × multivector) executions that resolved to push.
    pub push_mxm: u64,
    /// Frontier nodes scattered from, summed over every push product
    /// (`push_mxv` and `push_mxm`): the exact, host-independent work of the
    /// push direction in units of "one node's out-edges walked".  An
    /// algorithm whose rounds relax from what changed scatters from each
    /// reached vertex once — forced-push `sssp` adds exactly the number of
    /// finite distances.
    pub push_frontier_nodes: u64,
    /// Non-identity `(node, lane)` operand entries of those frontier nodes
    /// — what a lane-sparse batched scatter folds per out-edge (equal to
    /// `push_frontier_nodes` for single-vector products).  Forced-push
    /// `sssp_multi` adds exactly the number of finite `(vertex, lane)`
    /// distances.
    pub push_frontier_entries: u64,
    /// `f32` / `bool` elements packed to, or expanded from, bits at an op
    /// boundary of a bit backend's Boolean products (operand pack, mask
    /// staging, output expand): the exact cost of *not* keeping a Boolean
    /// vector binarized between operations.  `bfs` and `bfs_multi` on a
    /// built bit backend — with or without pending deltas — add **0**: their
    /// frontier and visited sets stay in words
    /// ([`NodeBits`](super::NodeBits), [`LaneBits`](super::LaneBits)); the
    /// same traversal through `f32` (multi-)vectors on a bit backend (the
    /// Boolean [`Op::vxm`](super::Op::vxm) / [`Op::mxm`](super::Op::mxm))
    /// adds at least `n · k` per round.
    pub converted_elems: u64,
    /// Dirty output positions a `DeltaOverlay` re-folded after its base's
    /// product — `f32` positions `(row, lane)`, or lane words for the word
    /// product: the exact cost of reading through a pending log.  Only a
    /// position one of whose *patched* columns carries a non-identity operand
    /// entry is re-folded, so an all-identity operand adds 0, a dense one
    /// (PageRank) adds `dirty rows · k` per op, and a forced-push `bfs` adds
    /// at most one per staged patch entry over the whole traversal.
    pub refolded_positions: u64,
    /// Always 0: every push runs its serial kernel.  Kept only because the
    /// repo benchmark's counter layer reads it.
    pub sharded_push: u64,
    /// Always 0, like `sharded_push`.
    pub shard_segments: u64,
    /// Matrix-vector pipelines executed as a single fused sweep (also
    /// counted in `pull_mxv`/`push_mxv` by resolved direction).
    pub fused_mxv: u64,
    /// Collapsed element-wise chain sweeps (leaf chains and the fused
    /// epilogue of partially-fused push pipelines).
    pub ewise_chain: u64,
    /// Masked matrix-product reductions.
    pub mxm_reduce: u64,
    /// Vector reductions.
    pub reduce: u64,
    /// Element-wise add/mult operations.
    pub ewise: u64,
    /// `apply` operations.
    pub apply: u64,
    /// `select` operations.
    pub select: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn take_give_recycles_capacity() {
        let ws = Workspace::new();
        let mut buf = ws.take::<f32>(100, 1.5);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&v| v == 1.5));
        buf.reserve(1000);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        ws.give(buf);
        let again = ws.take::<f32>(50, 0.0);
        assert_eq!(again.len(), 50);
        assert_eq!(again.capacity(), cap, "capacity must be recycled");
        assert_eq!(again.as_ptr(), ptr, "the same buffer must come back");
    }

    #[test]
    fn shelves_are_typed_and_capped() {
        let ws = Workspace::new();
        ws.give(vec![1u8; 4]);
        ws.give(vec![1u16; 4]);
        // The u8 shelf must not serve the u16 request's storage.
        let b16 = ws.take::<u16>(2, 7);
        assert_eq!(b16, vec![7, 7]);
        let bufs: Vec<Vec<usize>> = (0..2 * SHELF_CAP).map(|_| vec![0usize; 8]).collect();
        let newest_ptr = bufs.last().unwrap().as_ptr();
        for b in bufs {
            ws.give(b);
        }
        // Single-threaded gives all land in the caller's home stripe.
        let pool = ws.home_pool();
        assert!(pool.usizes.len() <= SHELF_CAP);
        // Count-cap eviction drops the oldest, never the just-given buffer
        // (it is the one sized for the current steady state).
        assert_eq!(pool.usizes.last().unwrap().as_ptr(), newest_ptr);
    }

    #[test]
    fn shelf_byte_cap_evicts_oldest_first() {
        let ws = Workspace::new();
        // 1 MiB buffers: a dozen exceed the 8 MiB shelf high-water mark.
        let elems = (1 << 20) / std::mem::size_of::<f32>();
        // Allocate everything up front so freed-and-reallocated addresses
        // cannot masquerade as surviving buffers.
        let bufs: Vec<Vec<f32>> = (0..12).map(|i| vec![i as f32; elems]).collect();
        let ptrs: Vec<*const f32> = bufs.iter().map(|b| b.as_ptr()).collect();
        for b in bufs {
            ws.give(b);
        }
        let pool = ws.home_pool();
        let total: usize = pool
            .f32s
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<f32>())
            .sum();
        assert!(
            total <= SHELF_BYTE_CAP,
            "shelf holds {total} bytes, cap is {SHELF_BYTE_CAP}"
        );
        let held: Vec<_> = pool.f32s.iter().map(|b| b.as_ptr()).collect();
        assert_eq!(
            held.last().copied(),
            ptrs.last().copied(),
            "the newest buffer must survive eviction"
        );
        assert!(
            !held.contains(&ptrs[0]),
            "the oldest buffer must be evicted first"
        );
        // Eviction kept the most recent window, in order.
        assert_eq!(&held[..], &ptrs[12 - held.len()..]);
    }

    #[test]
    fn oversized_single_buffer_is_kept_but_alone() {
        let ws = Workspace::new();
        ws.give(vec![0u8; 16]);
        // A single buffer above the high-water mark evicts everything older
        // but is itself retained (it is the current steady-state size).
        let big = vec![0u8; SHELF_BYTE_CAP + 1];
        let big_ptr = big.as_ptr();
        ws.give(big);
        let pool = ws.home_pool();
        assert_eq!(pool.u8s.len(), 1);
        assert_eq!(pool.u8s[0].as_ptr(), big_ptr);
    }

    #[test]
    fn take_resets_contents() {
        let ws = Workspace::new();
        ws.give(vec![9.0f32; 64]);
        let buf = ws.take::<f32>(32, 0.0);
        assert!(buf.iter().all(|&v| v == 0.0), "stale data must be cleared");
        let empty = ws.take_empty::<f32>();
        assert!(empty.is_empty());
    }

    #[test]
    fn buffers_given_on_other_threads_are_still_reachable() {
        // A buffer given back on a worker thread lands in that thread's home
        // stripe; a later take on the main thread must still find it (stripe
        // probing) instead of allocating a fresh one.
        let ws = Arc::new(Workspace::new());
        let cap = 4096;
        let worker = Arc::clone(&ws);
        std::thread::spawn(move || worker.give::<f32>(Vec::with_capacity(cap)))
            .join()
            .unwrap();
        let buf = ws.take_empty::<f32>();
        assert_eq!(
            buf.capacity(),
            cap,
            "cross-stripe probing must find the buffer"
        );
    }

    #[test]
    fn stats_counters_accumulate() {
        let ws = Workspace::new();
        ws.stats().record_mxv(true);
        ws.stats().record_mxv(true);
        ws.stats().record_mxv(false);
        ws.stats().record_push_frontier(4, 9);
        ws.stats().record_push_frontier(1, 1);
        ws.stats().record_converted(12);
        ws.stats().record_converted(30);
        ws.stats().record_refolded(7);
        ws.stats().record_refolded(2);
        let s = ws.stats().snapshot();
        assert_eq!((s.push_frontier_nodes, s.push_frontier_entries), (5, 10));
        assert_eq!(s.converted_elems, 42);
        assert_eq!(s.refolded_positions, 9);
        assert_eq!(s.push_mxv, 2);
        assert_eq!(s.pull_mxv, 1);
    }

    #[test]
    fn counters_are_lock_free_under_contention() {
        // Parallel bumps from several threads must all land (atomics, no
        // lock, no tearing).
        let ws = Arc::new(Workspace::new());
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let ws = Arc::clone(&ws);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        ws.stats().record_mxv(true);
                        ws.stats().record_push_frontier(1, 2);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let s = ws.stats().snapshot();
        assert_eq!(s.push_mxv, 4000);
        assert_eq!(
            (s.push_frontier_nodes, s.push_frontier_entries),
            (4000, 8000)
        );
    }
}
