//! Reusable buffer arena for allocation-free steady-state inference.
//!
//! A [`Workspace`] is a set of size-classed free lists (one per
//! power-of-two capacity class, one family per element type) that a
//! [`crate::tape::Tape`] draws its node-value, gradient and payload
//! buffers from. Releasing a buffer files it under
//! `floor(log2(capacity))`; acquiring length `n` pops from class
//! `ceil(log2(n))`, whose every resident has capacity ≥ `n` — so a
//! pooled acquire never reallocates. After one warm-up pass every
//! buffer the tape needs is resident and the forward pass allocates
//! nothing.
//!
//! Determinism: the pool changes only *where* a buffer's memory comes
//! from, never its contents — every acquire hands back a zero-filled
//! (`T::default()`) vector of exactly the requested length, identical
//! to a fresh `vec![T::default(); n]`. Outputs therefore stay
//! bit-identical with or without pooling, which `tests/batch_parity.rs`
//! and `tests/concurrent_parity.rs` pin.
//!
//! Workspaces are plain owned values: one per worker thread (each serve
//! worker holds one and reuses it across micro-batches), never shared,
//! so there is no synchronisation and no allocator cross-talk between
//! threads.

use std::cell::RefCell;

/// Buffers retained per size class; anything beyond this is dropped on
/// release. A single packed forward pass holds well under this many
/// live buffers of any one class, so steady-state inference never hits
/// the cap — it only bounds pathological churn.
const MAX_PER_CLASS: usize = 512;

/// One element type's size-classed free lists.
#[derive(Debug, Default)]
struct Pool<T> {
    /// `classes[c]` holds buffers with `capacity ∈ [2^c, …)`.
    classes: Vec<Vec<Vec<T>>>,
    hits: u64,
    misses: u64,
}

/// Class that can satisfy a request of length `len`: smallest `c` with
/// `2^c ≥ len`.
fn class_for_len(len: usize) -> usize {
    (usize::BITS - (len - 1).leading_zeros()) as usize
}

/// Class a buffer of this capacity is filed under: largest `c` with
/// `2^c ≤ cap`. Every resident of class `c` can serve any request with
/// `len ≤ 2^c`.
fn class_for_cap(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

impl<T: Copy + Default> Pool<T> {
    /// A zero-filled (`T::default()`) vector of exactly `len` elements,
    /// reusing a pooled buffer when one is resident.
    fn acquire(&mut self, len: usize) -> Vec<T> {
        if len == 0 {
            return Vec::new();
        }
        let class = class_for_len(len);
        if let Some(mut buf) = self.classes.get_mut(class).and_then(Vec::pop) {
            self.hits += 1;
            buf.clear();
            buf.resize(len, T::default());
            return buf;
        }
        self.misses += 1;
        let mut buf = Vec::with_capacity(1usize << class);
        buf.resize(len, T::default());
        buf
    }

    /// Return a buffer to the pool. Zero-capacity vectors carry no
    /// memory and are simply dropped.
    fn release(&mut self, buf: Vec<T>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let class = class_for_cap(cap);
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        let slot = &mut self.classes[class];
        if slot.len() < MAX_PER_CLASS {
            slot.push(buf);
        }
    }

    /// Buffers currently resident.
    fn resident(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }
}

/// Acquire/release counters for one [`Workspace`] (summed over all
/// element types). `misses` stops growing once the pool is warm — the
/// alloc-count bench asserts exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Acquires served from the pool (no allocation).
    pub hits: u64,
    /// Acquires that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers currently parked in the free lists.
    pub resident: usize,
}

/// A reusable arena of `f32`/`u32`/`usize` buffers. See the module docs
/// for the pooling and determinism contract.
#[derive(Debug, Default)]
pub struct Workspace {
    f32s: Pool<f32>,
    u32s: Pool<u32>,
    usizes: Pool<usize>,
}

impl Workspace {
    /// An empty workspace; buffers accumulate as tapes recycle into it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero-filled `f32` buffer of exactly `len` elements.
    pub fn acquire_f32(&mut self, len: usize) -> Vec<f32> {
        self.f32s.acquire(len)
    }

    /// Return an `f32` buffer to the pool.
    pub fn release_f32(&mut self, buf: Vec<f32>) {
        self.f32s.release(buf);
    }

    /// Zero-filled `u32` buffer of exactly `len` elements.
    pub fn acquire_u32(&mut self, len: usize) -> Vec<u32> {
        self.u32s.acquire(len)
    }

    /// Return a `u32` buffer to the pool.
    pub fn release_u32(&mut self, buf: Vec<u32>) {
        self.u32s.release(buf);
    }

    /// Zero-filled `usize` buffer of exactly `len` elements.
    pub fn acquire_usize(&mut self, len: usize) -> Vec<usize> {
        self.usizes.acquire(len)
    }

    /// Return a `usize` buffer to the pool.
    pub fn release_usize(&mut self, buf: Vec<usize>) {
        self.usizes.release(buf);
    }

    /// Acquire/release counters across all element types.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            hits: self.f32s.hits + self.u32s.hits + self.usizes.hits,
            misses: self.f32s.misses + self.u32s.misses + self.usizes.misses,
            resident: self.f32s.resident() + self.u32s.resident() + self.usizes.resident(),
        }
    }
}

thread_local! {
    /// Per-thread scratch stack for kernel-interior temporaries (the
    /// blocked-im2col buffer of the forward 1-D convolution), which take
    /// no `&mut Workspace`, so they pool per OS thread instead.
    static SCRATCH: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a zero-filled `f32` scratch buffer of exactly `len`
/// elements, drawn from (and returned to) a per-thread stack. Nested
/// calls each get their own buffer. Contents match a fresh
/// `vec![0.0; len]` exactly.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = SCRATCH.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    let out = f(&mut buf);
    SCRATCH.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.len() < 64 {
            stack.push(buf);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_zeroed_and_sized() {
        let mut ws = Workspace::new();
        let mut a = ws.acquire_f32(10);
        assert_eq!(a, vec![0.0; 10]);
        a.iter_mut().for_each(|x| *x = 7.0);
        ws.release_f32(a);
        // Reused buffer must come back zeroed despite the dirty release.
        let b = ws.acquire_f32(10);
        assert_eq!(b, vec![0.0; 10]);
        assert_eq!(ws.stats().hits, 1);
        assert_eq!(ws.stats().misses, 1);
    }

    #[test]
    fn warm_pool_stops_missing() {
        let mut ws = Workspace::new();
        for _ in 0..5 {
            let a = ws.acquire_f32(100);
            let b = ws.acquire_f32(33);
            ws.release_f32(a);
            ws.release_f32(b);
        }
        let s = ws.stats();
        assert_eq!(s.misses, 2, "only the cold pass allocates");
        assert_eq!(s.hits, 8);
    }

    #[test]
    fn requests_in_the_same_class_reuse_one_buffer() {
        let mut ws = Workspace::new();
        // acquire(100) allocates capacity 128 (class 7: 65..=128); any
        // later request in that class reuses it regardless of length.
        let a = ws.acquire_f32(100);
        ws.release_f32(a);
        let b = ws.acquire_f32(120);
        assert_eq!(b.len(), 120);
        assert_eq!(ws.stats().hits, 1);
    }

    #[test]
    fn zero_len_is_free() {
        let mut ws = Workspace::new();
        let a = ws.acquire_f32(0);
        assert!(a.is_empty());
        ws.release_f32(a);
        ws.release_f32(Vec::new());
        let s = ws.stats();
        assert_eq!((s.hits, s.misses, s.resident), (0, 0, 0));
    }

    #[test]
    fn typed_pools_are_independent() {
        let mut ws = Workspace::new();
        // Capacity 4 files under class 2, which serves len-3 requests;
        // a capacity-3 release would file under class 1 (only cap ≥ 2
        // guaranteed) and miss — the filing is conservative by design.
        ws.release_u32(vec![1, 2, 3, 4]);
        ws.release_usize(vec![4, 5]);
        assert_eq!(ws.acquire_u32(3), vec![0, 0, 0]);
        assert_eq!(ws.acquire_usize(2), vec![0, 0]);
        assert_eq!(ws.stats().hits, 2);
    }

    #[test]
    fn scratch_is_zeroed_and_nested_calls_are_distinct() {
        with_scratch(4, |a| {
            a.iter_mut().for_each(|x| *x = 1.0);
            with_scratch(4, |b| {
                assert_eq!(b, &[0.0; 4]);
                assert_eq!(a, &[1.0; 4]);
            });
        });
        // The dirtied buffer is re-zeroed on reuse.
        with_scratch(4, |a| assert_eq!(a, &[0.0; 4]));
    }

    #[test]
    fn class_maths_round_trip() {
        for len in [1usize, 2, 3, 4, 5, 63, 64, 65, 1000, 1 << 20] {
            let c = class_for_len(len);
            assert!(1usize << c >= len, "class cap must cover len {len}");
            assert!(c == 0 || (1usize << (c - 1)) < len, "class must be tight for {len}");
            // A buffer allocated at this class files back into the same
            // class, so acquire(len) finds it again.
            assert_eq!(class_for_cap(1usize << c), c);
        }
    }
}
