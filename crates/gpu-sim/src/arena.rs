//! Thread-local scratch arenas for kernel staging buffers.
//!
//! A CUDA kernel stages operands in shared memory: storage that exists for
//! the lifetime of one thread block and is recycled by the next block on the
//! same SM. The simulator's functional kernel bodies used to model that
//! storage with per-block `vec!` allocations — correct, but it put a heap
//! round-trip on every simulated block, and the functional path executes
//! millions of blocks per sweep.
//!
//! This module gives each thread a small pool of reusable buffers; a
//! launch runs all its blocks on its caller's thread, so that thread's
//! pool serves the whole launch. A kernel checks a buffer out for the
//! duration of one block, only through
//! [`BlockContext::scratch_f32`](crate::BlockContext::scratch_f32), and the
//! buffer returns to the pool when the guard drops — exactly the shared-memory lifetime. After a short warm-up
//! (the thread growing its pooled buffers to the largest block it has
//! seen), block execution performs **zero heap allocations**; the
//! `zero_alloc` integration test enforces this.
//!
//! Ownership rules, mirroring CUDA shared memory:
//!
//! 1. A checkout is block-scoped: guards must not outlive `execute_block`
//!    (they cannot — the guard borrows nothing, but storing one would defeat
//!    the pool, so don't).
//! 2. A fresh checkout is zero-initialized: no data leaks between blocks,
//!    just as `__shared__` contents are undefined across blocks and must be
//!    written before being read.
//! 3. Checkouts nest: a block may hold several buffers at once (the fused
//!    kernel's staged scores row + an accumulator tile); they return to the
//!    pool LIFO.
//! 4. Only `f32` staging is pooled. A short fixed-size list, such as one
//!    warp's 32 gather addresses, lives in a stack array instead.

use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};

/// Pool size cap per thread. Blocks hold at most a few buffers at a time;
/// anything beyond this would be a leak of the pattern.
const MAX_POOLED: usize = 16;

thread_local! {
    static F32_POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Total checkouts served on this thread (hits + misses), for the
    /// `funcwall` report.
    static CHECKOUTS: Cell<u64> = const { Cell::new(0) };
    /// Checkouts on this thread that could not be served from the pool
    /// (pool empty — the buffer had to be freshly allocated). Strictly
    /// monotonic; `funcwall` reads deltas of it.
    static POOL_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Checkouts served on the calling thread since it started (pool hits +
/// misses): every checkout of every launch it ran.
pub fn checkouts() -> u64 {
    CHECKOUTS.get()
}

/// Checkouts on the calling thread that required a fresh heap allocation
/// (empty pool).
pub fn pool_misses() -> u64 {
    POOL_MISSES.get()
}

/// A pooled `f32` staging buffer, zeroed to `len` on checkout. Derefs to
/// `[f32]`; returns to the per-thread pool on drop.
#[derive(Debug)]
pub struct ScratchF32 {
    buf: Vec<f32>,
}

impl ScratchF32 {
    /// Check out a zero-initialized buffer of exactly `len` elements.
    pub(crate) fn take(len: usize) -> Self {
        CHECKOUTS.set(CHECKOUTS.get() + 1);
        let mut buf = F32_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_else(|| {
            POOL_MISSES.set(POOL_MISSES.get() + 1);
            Vec::new()
        });
        buf.clear();
        buf.resize(len, 0.0);
        Self { buf }
    }
}

impl Deref for ScratchF32 {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for ScratchF32 {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for ScratchF32 {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        F32_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_f32_is_zeroed_after_reuse() {
        {
            let mut s = ScratchF32::take(8);
            for v in s.iter_mut() {
                *v = 7.0;
            }
        }
        let s = ScratchF32::take(8);
        assert!(s.iter().all(|&v| v == 0.0), "reused buffer must be zeroed");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn scratch_f32_reuses_capacity() {
        {
            let _ = ScratchF32::take(1024);
        }
        let misses_before = pool_misses();
        let s = ScratchF32::take(512);
        assert_eq!(s.len(), 512);
        assert_eq!(
            pool_misses(),
            misses_before,
            "second checkout on the same thread must hit the pool"
        );
    }

    #[test]
    fn nested_checkouts_are_independent() {
        let mut a = ScratchF32::take(4);
        let mut b = ScratchF32::take(4);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_eq!(a[0], 1.0);
        assert_eq!(b[0], 2.0);
    }
}
