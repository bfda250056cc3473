//! Shared-output utilities for parallel functional execution.
//!
//! This module is the single audited unsafe write path to shared output
//! buffers (enforced by `clippy.toml`'s `disallowed-methods`); keep raw
//! pointer writes here so the sanitizer instrumentation covers them all.

use crate::sanitizer;
use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A slice that multiple thread-block executors may write concurrently, on
/// the caller's guarantee that blocks write **disjoint** index sets — the
/// same guarantee a CUDA kernel gives when thread blocks own disjoint output
/// tiles.
///
/// This mirrors how GPU kernels share a device buffer: no synchronization,
/// correctness by construction of the tiling.
pub struct SyncUnsafeSlice<'a, T> {
    ptr: *const UnsafeCell<T>,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send + Sync> Send for SyncUnsafeSlice<'_, T> {}
unsafe impl<T: Send + Sync> Sync for SyncUnsafeSlice<'_, T> {}

impl<'a, T> SyncUnsafeSlice<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Self {
        let len = slice.len();
        let ptr = slice.as_mut_ptr() as *const UnsafeCell<T>;
        Self {
            ptr,
            len,
            _marker: PhantomData,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` at `index`.
    ///
    /// The bounds check is always on (not `debug_assert!`): an out-of-bounds
    /// index panics in normal launches and becomes a recorded
    /// [`SanitizerViolation`](crate::sanitizer::SanitizerViolation) under
    /// [`Gpu::sanitize`](crate::Gpu::sanitize), never UB. A write from a
    /// thread executing a sanitized block also claims `index` in that
    /// launch's cross-block shadow map; a write that would race an earlier
    /// block's is recorded and skipped (performing it would be the very race
    /// being reported). Any other write costs one thread-local read.
    ///
    /// # Safety
    /// The caller must guarantee no other executor reads or writes `index`
    /// concurrently (disjoint output tiles).
    #[inline]
    #[allow(clippy::disallowed_methods)]
    pub unsafe fn write(&self, index: usize, value: T) {
        if index >= self.len {
            if sanitizer::report_slice_oob(index, self.len, true) {
                return;
            }
            panic!(
                "SyncUnsafeSlice::write out of bounds: index {index} >= len {}",
                self.len
            );
        }
        if sanitizer::claim_write(self.ptr as usize, index) {
            unsafe { *(*self.ptr.add(index)).get() = value };
        }
    }

    /// Write a contiguous run of values at `start..start + values.len()`:
    /// a row tile's write-back.
    ///
    /// One bounds test and one sanitizer-slot read cover the whole run, and
    /// the stores compile to vector moves. A run that is not wholly in
    /// bounds, or one written from a thread executing a sanitized block,
    /// goes through [`Self::write`] element by element instead, so it
    /// claims, reports or panics at exactly the indices a per-element loop
    /// would, after writing the same in-bounds prefix.
    ///
    /// # Safety
    /// Same disjointness requirement as [`Self::write`], for every index
    /// of the run.
    #[inline]
    #[allow(clippy::disallowed_methods)]
    pub unsafe fn write_run<I>(&self, start: usize, values: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        let len = values.len();
        let in_bounds = start.checked_add(len).is_some_and(|end| end <= self.len);
        if in_bounds && !sanitizer::in_sanitized_block() {
            // SAFETY: `start..start + len` lies inside the slice (tested
            // above), and the caller guarantees that no other executor
            // touches it. The zip stops at `len` even if the iterator
            // misreports its length.
            let run = unsafe {
                std::slice::from_raw_parts_mut(UnsafeCell::raw_get(self.ptr.add(start)), len)
            };
            for (slot, v) in run.iter_mut().zip(values) {
                *slot = v;
            }
            return;
        }
        for (i, v) in values.enumerate() {
            // SAFETY: forwarded from this function's contract.
            unsafe { self.write(start + i, v) };
        }
    }

    /// Read the value at `index`.
    ///
    /// Bounds-checked like [`Self::write`]; an out-of-bounds read under the
    /// sanitizer is recorded and returns the element at index 0 (the slice
    /// is never empty when kernels hold one).
    ///
    /// # Safety
    /// Same disjointness requirement as [`Self::write`].
    #[inline]
    #[allow(clippy::disallowed_methods)]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        if index >= self.len {
            if self.len > 0 && sanitizer::report_slice_oob(index, self.len, false) {
                return unsafe { *(*self.ptr).get() };
            }
            panic!(
                "SyncUnsafeSlice::read out of bounds: index {index} >= len {}",
                self.len
            );
        }
        unsafe { *(*self.ptr.add(index)).get() }
    }

    /// Simulated silent data corruption: write `value` (a NaN, for the
    /// kernels that opt in) at three positions drawn from `seed` by a
    /// two-round cut of splitmix64's finalizer. It is not
    /// [`sparse::rng::mix64`]: the pinned degradation-ladder windows depend
    /// on these exact positions. Does nothing on an empty slice.
    ///
    /// The launcher calls [`Kernel::poison_output`](crate::Kernel), the only
    /// caller, after every block of the launch has finished, so no block
    /// executor can touch the slice while this writes.
    pub fn poison(&self, seed: u64, value: T)
    where
        T: Copy,
    {
        if self.len == 0 {
            return;
        }
        for i in 0..3u64 {
            let mut z = seed ^ i.wrapping_mul(sparse::rng::GAMMA);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            // SAFETY: the index is reduced into bounds, and the block
            // executors that write this slice have all returned (see above).
            unsafe { self.write(z as usize % self.len, value) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_parallel_writes() {
        use rayon::prelude::*;
        let mut data = vec![0u32; 1024];
        {
            let s = SyncUnsafeSlice::new(&mut data);
            (0..1024usize)
                .into_par_iter()
                .for_each(|i| unsafe { s.write(i, i as u32 * 2) });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }

    #[test]
    fn read_back() {
        let mut data = vec![1.5f32; 8];
        let s = SyncUnsafeSlice::new(&mut data);
        unsafe {
            s.write(3, 7.25);
            assert_eq!(s.read(3), 7.25);
            assert_eq!(s.read(0), 1.5);
        }
    }
}
