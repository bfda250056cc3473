//! The kernel output write path.
//!
//! Every functional kernel store goes through [`OutputSlice`] (enforced by
//! `clippy.toml`'s `disallowed-methods` and xlint's `raw-ptr-write` rule),
//! so the sanitizer's bounds checks and cross-block racecheck see them all.

use crate::sanitizer;
use std::cell::Cell;

/// A kernel's output buffer, shared by every thread block of a launch.
///
/// CUDA blocks write one device buffer with no synchronization, correct by
/// construction of the tiling: each block owns a disjoint output tile. The
/// launcher runs a launch's blocks one at a time on the calling thread, so
/// the slice is a run of [`Cell`]s: any block may store into it through a
/// shared reference, and no `unsafe` contract is needed. It is neither
/// `Send` nor `Sync`, so no two threads can ever share one, and neither can
/// they share a kernel that holds one.
///
/// ```compile_fail,E0277
/// fn shared_between_threads<T: Sync>() {}
/// shared_between_threads::<gpu_sim::OutputSlice<'static, f32>>();
/// ```
///
/// A block writing another block's tile is a race on the hardware even
/// though it is not one here; [`Gpu::sanitize`](crate::Gpu::sanitize)
/// reports it.
pub struct OutputSlice<'a, T> {
    cells: &'a [Cell<T>],
}

impl<'a, T> OutputSlice<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            cells: Cell::from_mut(slice).as_slice_of_cells(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Write `value` at `index`.
    ///
    /// The bounds check is always on (not `debug_assert!`): an out-of-bounds
    /// index panics in normal launches and becomes a recorded
    /// [`SanitizerViolation`](crate::sanitizer::SanitizerViolation) under
    /// [`Gpu::sanitize`](crate::Gpu::sanitize). A write from a thread
    /// executing a sanitized block also claims `index` in that launch's
    /// cross-block shadow map; a write that would race an earlier block's
    /// is recorded and skipped (on the hardware it would be the very race
    /// being reported). Any other write costs one thread-local read.
    #[inline]
    pub fn write(&self, index: usize, value: T) {
        let Some(cell) = self.cells.get(index) else {
            if sanitizer::report_slice_oob(index, self.len(), true) {
                return;
            }
            panic!(
                "OutputSlice::write out of bounds: index {index} >= len {}",
                self.len()
            );
        };
        // The slice's base address is its identity in the shadow map.
        if sanitizer::claim_write(self.cells.as_ptr() as usize, index) {
            cell.set(value);
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
    #[inline]
    pub fn write_run<I>(&self, start: usize, values: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        let run = start
            .checked_add(values.len())
            .and_then(|end| self.cells.get(start..end));
        match run {
            // The zip stops at the run's end even if the iterator
            // misreports its length.
            Some(run) if !sanitizer::in_sanitized_block() => {
                for (cell, v) in run.iter().zip(values) {
                    cell.set(v);
                }
            }
            _ => {
                for (i, v) in values.enumerate() {
                    self.write(start + i, v);
                }
            }
        }
    }

    /// Read the value at `index`.
    ///
    /// Bounds-checked like [`Self::write`]; an out-of-bounds read under the
    /// sanitizer is recorded and returns the element at index 0 (the slice
    /// is never empty when kernels hold one).
    #[inline]
    pub fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        if let Some(cell) = self.cells.get(index) {
            return cell.get();
        }
        match self.cells.first() {
            Some(first) if sanitizer::report_slice_oob(index, self.len(), false) => first.get(),
            _ => panic!(
                "OutputSlice::read out of bounds: index {index} >= len {}",
                self.len()
            ),
        }
    }

    /// Simulated silent data corruption: write `value` (a NaN, for the
    /// kernels that opt in) at three positions drawn from `seed` by a
    /// two-round cut of splitmix64's finalizer. It is not
    /// [`sparse::rng::mix64`]: the pinned degradation-ladder windows depend
    /// on these exact positions. Does nothing on an empty slice.
    pub fn poison(&self, seed: u64, value: T)
    where
        T: Copy,
    {
        if self.is_empty() {
            return;
        }
        for i in 0..3u64 {
            let mut z = seed ^ i.wrapping_mul(sparse::rng::GAMMA);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            self.write(z as usize % self.len(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_writes() {
        let mut data = vec![0u32; 1024];
        {
            let s = OutputSlice::new(&mut data);
            (0..1024usize).for_each(|i| s.write(i, i as u32 * 2));
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }

    #[test]
    fn read_back() {
        let mut data = vec![1.5f32; 8];
        let s = OutputSlice::new(&mut data);
        s.write(3, 7.25);
        assert_eq!(s.read(3), 7.25);
        assert_eq!(s.read(0), 1.5);
    }
}
