//! Nonzero-splitting SpMM — the second kernel of Yang, Buluç & Owens, which
//! their library selects for short-row matrices.
//!
//! Instead of assigning rows to processing elements, the nonzero array is
//! cut into equal-size strips regardless of row boundaries: load balance is
//! perfect *by construction*, but every strip must binary-search its
//! starting row, handle rows that straddle strip boundaries with atomic
//! accumulations, and generally carry "computational irregularity that can
//! damage performance on more regular problems" — the Section V-C critique
//! that motivates the paper's decoupled row-swizzle approach. This
//! implementation exists to make that comparison concrete
//! (`ext_load_balancing`).

use gpu_sim::{
    AccessBound, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferSpec, CostKey,
    Dim3, Gpu, Kernel, KeyedBlocks, LaunchStats, StageBound, StaticFacts,
};
use sparse::{CsrMatrix, IndexWidth, Matrix, Scalar};
use sputnik::spmm::{csr_spmm_buffers, BUF_A_INDICES, BUF_A_OFFSETS, BUF_A_VALUES, BUF_B, BUF_C};
use std::sync::atomic::{AtomicU32, Ordering};

/// Nonzeros per strip (per thread block).
const STRIP: usize = 256;
/// Output columns per block.
const TILE_N: usize = 32;

/// Nonzero-splitting SpMM: `A (CSR) x B (dense row-major) => C`.
///
/// The output matrix must be zero-initialized: boundary rows are accumulated
/// with atomics (modeled and, functionally, with relaxed `AtomicU32` CAS on
/// the f32 bits, which is exactly what `atomicAdd(float*)` compiles to).
pub struct NnzSplitSpmmKernel<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    b: Option<&'a Matrix<T>>,
    /// Output viewed as atomic bits (f32 only for functional mode).
    out: Option<&'a [AtomicU32]>,
    n: usize,
    strips: usize,
}

impl<'a, T: Scalar> NnzSplitSpmmKernel<'a, T> {
    pub fn new(a: &'a CsrMatrix<T>, b: &'a Matrix<T>, out: &'a [AtomicU32]) -> Self {
        assert_eq!(a.cols(), b.rows());
        assert_eq!(out.len(), a.rows() * b.cols());
        let n = b.cols();
        let strips = a.nnz().div_ceil(STRIP).max(1);
        Self {
            a,
            b: Some(b),
            out: Some(out),
            n,
            strips,
        }
    }

    pub fn for_profile(a: &'a CsrMatrix<T>, n: usize) -> Self {
        let strips = a.nnz().div_ceil(STRIP).max(1);
        Self {
            a,
            b: None,
            out: None,
            n,
            strips,
        }
    }

    /// Row containing value position `pos` (the device does this with a
    /// binary search over row_offsets in the block prelude).
    fn row_of(&self, pos: usize) -> usize {
        let offsets = self.a.row_offsets();
        match offsets.binary_search(&(pos as u32)) {
            // `pos` may sit at the start of a run of empty rows; take the
            // last row whose range contains it.
            Ok(mut i) => {
                while i + 1 < offsets.len() && offsets[i + 1] as usize == pos {
                    i += 1;
                }
                i.min(self.a.rows() - 1)
            }
            Err(i) => i - 1,
        }
    }
}

/// A working [`NnzSplitSpmmKernel`] block's strip: its length, the live
/// column-tile width, the sector counts of its head, value and index
/// loads, and the number of row boundaries it straddles (which sets the
/// interior-store and atomic accounting).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct StripKey {
    count: u64,
    tile_n: u64,
    head: u64,
    values: u64,
    indices: u64,
    boundaries: u64,
}

/// A [`NnzSplitSpmmKernel`] block's cost key (see [`CostKey`]); `None` for
/// a block past the last nonzero. The binary-search prelude and the
/// base-0 B/C sector models are constant given the strip.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NnzSplitKey(Option<StripKey>);

impl<T: Scalar> CostKey for NnzSplitSpmmKernel<'_, T> {
    type Key = NnzSplitKey;

    fn cost_key(&self, block: Dim3, ctx: &mut BlockContext) -> NnzSplitKey {
        let nnz = self.a.nnz();
        let start = block.y as usize * STRIP;
        if start >= nnz {
            return NnzSplitKey(None);
        }
        let count = STRIP.min(nnz - start);
        let n0 = block.x as usize * TILE_N;
        let eb = T::BYTES as u64;
        let (start_b, count_b) = (start as u64, count as u64);
        // The head load is a full-warp vector load clamped to the strip:
        // the final strip of the matrix may hold fewer than
        // lanes*vec_width nonzeros, and reading past them would run off
        // the values footprint.
        let head = count_b.min(32) * count_b.div_ceil(32).min(4);
        NnzSplitKey(Some(StripKey {
            count: count_b,
            tile_n: TILE_N.min(self.n - n0) as u64,
            head: ctx.sectors(BUF_A_VALUES, start_b * eb, head.min(count_b) * eb, 1, 1),
            values: ctx.sectors(BUF_A_VALUES, start_b * eb, count_b * eb, 1, 1),
            indices: ctx.sectors(BUF_A_INDICES, start_b * 4, count_b * 4, 1, 1),
            boundaries: self
                .row_of(start + count - 1)
                .saturating_sub(self.row_of(start)) as u64,
        }))
    }

    fn charge(&self, key: &NnzSplitKey, ctx: &mut BlockContext) {
        let Some(strip) = key.0 else {
            return;
        };
        let (count, tile_n) = (strip.count, strip.tile_n);
        let eb = T::BYTES as u64;
        // Prelude: binary search for the starting row (log2(rows)
        // scattered loads of row_offsets) — the overhead row-splitting
        // doesn't pay.
        let bs_steps = (self.a.rows().max(2) as f64).log2().ceil() as u64;
        ctx.misc(4 + 3 * bs_steps);
        ctx.ld_sectors(BUF_A_OFFSETS, bs_steps, bs_steps);

        // Strip loads: the head load, then values + indices, coalesced.
        ctx.ld_sectors(BUF_A_VALUES, 1, strip.head);
        ctx.cost.ld_global_instrs += 2 * count.div_ceil(32 * 4);
        ctx.ld_sectors(BUF_A_VALUES, 0, strip.values);
        ctx.ld_sectors(BUF_A_INDICES, 0, strip.indices);

        // Per nonzero: one B strip load + FMA + row-boundary bookkeeping.
        let tile_sectors = gpu_sim::memory::sectors_contiguous(0, tile_n * eb);
        ctx.ld_sectors(BUF_B, count, count * tile_sectors);
        ctx.cost.fma_instrs += count;
        ctx.misc(3 * count); // segment detection + carry logic

        // Output: rows fully inside the strip are written once; the first
        // and last (potentially shared) rows use atomics.
        let interior_rows = strip.boundaries.saturating_sub(1);
        // Atomic read-modify-write per boundary element: 2 accesses each.
        let atomic_elems = 2 * tile_n;
        ctx.st_sectors(
            BUF_C,
            interior_rows + 2 + atomic_elems.div_ceil(32),
            atomic_elems.div_ceil(8) + (interior_rows + 2) * tile_sectors,
        );
        ctx.misc(6 * tile_n / 8); // atomic retry slack
        ctx.cost.stall_cycles += 8; // serialization at hot boundary rows
        ctx.cost.flops += 2 * count * tile_n;
    }
}

impl<T: Scalar> Kernel for NnzSplitSpmmKernel<'_, T> {
    fn name(&self) -> String {
        format!("nnz_split_spmm_{}", T::TAG)
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy(self.n.div_ceil(TILE_N) as u32, self.strips as u32)
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }

    fn shared_mem_bytes(&self) -> u32 {
        (STRIP * 8) as u32
    }

    fn atomic_output(&self) -> bool {
        // Boundary rows are accumulated with atomic CAS: neighbouring strips
        // legitimately touch the same output elements.
        true
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        csr_spmm_buffers(self.a, self.n, IndexWidth::U32)
    }

    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
        Some(self)
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: strip loads cover `[start, start + count)` with `start +
    /// count <= nnz` (the head vector load is clamped to `count`); the
    /// binary-search offset loads, B strips, and atomic output stores are
    /// modeled as address-free sector traffic bounded by their footprints by
    /// construction. Blocks are a single warp with no staged shared memory.
    fn static_facts(&self) -> StaticFacts {
        let eb = T::BYTES as u64;
        let nnz = self.a.nnz() as u64;
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_A_VALUES.0,
                    bound: AccessBound::Extent(nnz * eb),
                },
                BufferBound {
                    slot: BUF_A_INDICES.0,
                    bound: AccessBound::Extent(nnz * 4),
                },
                BufferBound {
                    slot: BUF_A_OFFSETS.0,
                    bound: AccessBound::Extent((self.a.rows() as u64 + 1) * 4),
                },
                BufferBound {
                    slot: BUF_B.0,
                    bound: AccessBound::Extent((self.a.cols() * self.n) as u64 * eb),
                },
                BufferBound {
                    slot: BUF_C.0,
                    bound: AccessBound::Extent((self.a.rows() * self.n) as u64 * eb),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(0),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let nnz = self.a.nnz();
        let start = block.y as usize * STRIP;
        if start >= nnz {
            return;
        }
        let count = STRIP.min(nnz - start);
        let n0 = block.x as usize * TILE_N;
        let tile_n = TILE_N.min(self.n - n0);

        // Cost-only work is skipped entirely on cache-hit replays.
        if ctx.recording() {
            self.charge_block(block, ctx);
        }

        // ---- Functional -----------------------------------------------------
        if let (true, Some(b), Some(out)) = (ctx.functional(), self.b, self.out) {
            let first_row = self.row_of(start);
            let b = b.as_slice();
            let values = self.a.values();
            let indices = self.a.col_indices();
            let mut row = first_row;
            let offsets = self.a.row_offsets();
            // Arena-staged boundary accumulator (zeroed on checkout).
            let mut acc = ctx.scratch_f32(tile_n);
            let flush = |row: usize, acc: &mut [f32], out: &[AtomicU32]| {
                for (x, v) in acc.iter_mut().enumerate() {
                    if *v != 0.0 {
                        // atomicAdd(float*) via CAS on the bits.
                        let slot = &out[row * self.n + n0 + x];
                        let mut cur = slot.load(Ordering::Relaxed);
                        loop {
                            let new = f32::from_bits(cur) + *v;
                            match slot.compare_exchange_weak(
                                cur,
                                new.to_bits(),
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            ) {
                                Ok(_) => break,
                                Err(actual) => cur = actual,
                            }
                        }
                        *v = 0.0;
                    }
                }
            };
            // Row-segment reduction: each run of nonzeros belonging to one
            // row goes through the lanes helper in one pass (same per-element
            // order as the nonzero-at-a-time loop), flushing at boundaries.
            let n = self.n;
            let mut pos = start;
            while pos < start + count {
                while offsets[row + 1] as usize <= pos {
                    flush(row, &mut acc, out);
                    row += 1;
                }
                let seg_end = (offsets[row + 1] as usize).min(start + count);
                gpu_sim::lanes::fma_accumulate(
                    &mut acc,
                    (pos..seg_end)
                        .map(|p| (values[p].to_f32(), &b[indices[p] as usize * n + n0..])),
                    |bv| bv.to_f32(),
                );
                pos = seg_end;
            }
            flush(row, &mut acc, out);
        }
    }
}

/// Functional nonzero-splitting SpMM (f32; atomics operate on f32 bits).
pub fn nnz_split_spmm(
    gpu: &Gpu,
    a: &CsrMatrix<f32>,
    b: &Matrix<f32>,
) -> (Matrix<f32>, LaunchStats) {
    let atomic_out: Vec<AtomicU32> = (0..a.rows() * b.cols())
        .map(|_| AtomicU32::new(0f32.to_bits()))
        .collect();
    let stats = {
        let kernel = NnzSplitSpmmKernel::new(a, b, &atomic_out);
        gpu.launch(&kernel)
    };
    let data: Vec<f32> = atomic_out
        .iter()
        .map(|a| f32::from_bits(a.load(Ordering::Relaxed)))
        .collect();
    (Matrix::from_vec(a.rows(), b.cols(), data), stats)
}

/// Profile nonzero-splitting SpMM.
pub fn nnz_split_spmm_profile<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>, n: usize) -> LaunchStats {
    gpu.profile(&NnzSplitSpmmKernel::<T>::for_profile(a, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    #[test]
    fn matches_reference() {
        let a = gen::uniform(64, 96, 0.8, 921);
        let b = Matrix::<f32>::random(96, 48, 922);
        let gpu = Gpu::v100();
        let (c, stats) = nnz_split_spmm(&gpu, &a, &b);
        let expect = sputnik::reference::spmm(&a, &b);
        assert!(c.max_abs_diff(&expect) < 1e-3);
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn handles_empty_rows_and_straddles() {
        // Rows of wildly different lengths, including empties, so strips
        // straddle many row boundaries.
        let a = gen::power_law(128, 256, 40.0, 1.2, 923);
        let b = Matrix::<f32>::random(256, 32, 924);
        let gpu = Gpu::v100();
        let (c, _) = nnz_split_spmm(&gpu, &a, &b);
        let expect = sputnik::reference::spmm(&a, &b);
        assert!(c.max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn balance_is_inherent_even_on_pathological_matrices() {
        // All nonzeros in one row: row-splitting would serialize on a single
        // block; nonzero-splitting keeps every strip busy.
        let gpu = Gpu::v100();
        let mut dense = Matrix::<f32>::zeros(512, 2048);
        for c in 0..2048 {
            dense.set(0, c, 1.0);
        }
        let a = sparse::CsrMatrix::from_dense(&dense);
        let stats = nnz_split_spmm_profile::<f32>(&gpu, &a, 128);
        assert!(stats.balance > 0.01, "strips spread the single row's work");
        // And it beats the swizzled row-splitting kernel here, where the
        // swizzle cannot help (one row owns everything).
        let sputnik_stats = sputnik::spmm_profile::<f32>(
            &gpu,
            &a,
            2048,
            128,
            sputnik::SpmmConfig::heuristic::<f32>(128),
        );
        assert!(stats.time_us < sputnik_stats.time_us);
    }

    #[test]
    fn but_pays_overhead_on_regular_matrices() {
        // Section V-C's claim: on balanced DL matrices the irregular scheme
        // loses to the decoupled swizzle approach.
        let gpu = Gpu::v100();
        let a = gen::uniform(4096, 2048, 0.8, 925);
        let nnz_split = nnz_split_spmm_profile::<f32>(&gpu, &a, 128);
        let sputnik_stats = sputnik::spmm_profile::<f32>(
            &gpu,
            &a,
            2048,
            128,
            sputnik::SpmmConfig::heuristic::<f32>(128),
        );
        assert!(
            sputnik_stats.time_us < nnz_split.time_us,
            "sputnik {} vs nnz-split {}",
            sputnik_stats.time_us,
            nnz_split.time_us
        );
    }
}
