//! Reverse Offset Memory Alignment (ROMA), Section V-B2 of the paper.
//!
//! Vector memory instructions require addresses aligned to the vector width,
//! but CSR rows start at arbitrary offsets. ROMA backs each row's start
//! offset up to the nearest aligned address and masks the values that belong
//! to the previous row in the first main-loop iteration. "Relative to the
//! explicit padding scheme, ROMA does not change the amount of work done by
//! each thread block ... ROMA effectively pads the rows of the sparse matrix
//! with values from the row before it."

/// PTX instructions ROMA adds to the kernel prelude: 2 `and`, 1 `add`,
/// 1 `setp`, 2 `selp` (Section V-B2).
pub const ROMA_PRELUDE_INSTRS: u64 = 6;

/// The aligner a thread block runs in its prelude.
///
/// Offsets are in **elements** (not bytes); `vector_width` is in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAligner {
    /// Row start offset after backing up to alignment.
    aligned_offset: usize,
    /// Number of elements loaded from the previous row that must be masked.
    prefix: usize,
    /// Nonzeros to process including the masked prefix.
    aligned_nonzeros: usize,
}

impl MemoryAligner {
    /// `row_offset`: the row's first value index; `nonzeros`: the row length;
    /// `vector_width`: elements per vector memory instruction (power of two).
    pub fn new(row_offset: usize, nonzeros: usize, vector_width: u32) -> Self {
        debug_assert!(vector_width.is_power_of_two());
        let mask = vector_width as usize - 1;
        let aligned_offset = row_offset & !mask;
        let prefix = row_offset - aligned_offset;
        Self {
            aligned_offset,
            prefix,
            aligned_nonzeros: nonzeros + prefix,
        }
    }

    /// Aligned start offset (guaranteed multiple of the vector width because
    /// "all CUDA memory allocation routines allocate memory with at least
    /// 256-byte alignment" — element 0 is aligned).
    pub fn aligned_offset(&self) -> usize {
        self.aligned_offset
    }

    /// Number of leading values that belong to the previous row and must be
    /// masked to zero before the first accumulation.
    pub fn prefix(&self) -> usize {
        self.prefix
    }

    /// Total values to process from the aligned offset.
    pub fn aligned_nonzeros(&self) -> usize {
        self.aligned_nonzeros
    }

    /// Whether index `i` (relative to the aligned offset) is masked.
    #[inline]
    pub fn is_masked(&self, i: usize) -> bool {
        i < self.prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn already_aligned_is_noop() {
        let a = MemoryAligner::new(64, 10, 4);
        assert_eq!(a.aligned_offset(), 64);
        assert_eq!(a.prefix(), 0);
        assert_eq!(a.aligned_nonzeros(), 10);
    }

    #[test]
    fn backs_up_to_alignment() {
        let a = MemoryAligner::new(67, 10, 4);
        assert_eq!(a.aligned_offset(), 64);
        assert_eq!(a.prefix(), 3);
        assert_eq!(a.aligned_nonzeros(), 13);
        assert!(a.is_masked(0) && a.is_masked(2));
        assert!(!a.is_masked(3));
    }

    #[test]
    fn scalar_width_never_masks() {
        for off in 0..16 {
            let a = MemoryAligner::new(off, 5, 1);
            assert_eq!(a.prefix(), 0);
            assert_eq!(a.aligned_offset(), off);
        }
    }

    #[test]
    fn width_two() {
        let a = MemoryAligner::new(7, 4, 2);
        assert_eq!(a.aligned_offset(), 6);
        assert_eq!(a.prefix(), 1);
        assert_eq!(a.aligned_nonzeros(), 5);
    }

    #[test]
    fn work_preserved_vs_padding() {
        // ROMA's aligned nonzero count never exceeds what explicit padding
        // to the vector width would process.
        for off in 0..64usize {
            for nnz in 0..64usize {
                let a = MemoryAligner::new(off, nnz, 4);
                let padded = nnz.div_ceil(4) * 4;
                assert!(a.aligned_nonzeros() <= padded + 4);
                assert_eq!(a.aligned_offset() % 4, 0);
            }
        }
    }
}
