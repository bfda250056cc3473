//! MergeSpmm — the row-splitting SpMM of Yang, Buluç & Owens, "Design
//! Principles for Sparse Matrix Multiplication on the GPU" (Euro-Par 2018).
//!
//! The paper benchmarks this kernel's row-splitting variant on the RNN
//! problem suite ("we benchmark the row-splitting kernel from \[26\], as all
//! of our benchmarks are beyond the threshold of average row length that the
//! authors use to select between their row-splitting and nonzero-splitting
//! kernels"). Characteristics modeled:
//!
//! * one warp per sparse-matrix row, row-major dense operands with coalesced
//!   accesses (their "memory-access" principle);
//! * scalar loads, values/indices staged through shared memory;
//! * no load balancing across rows and no subwarp tiling, so small batches
//!   waste lanes — and the published constraint that the batch size (N) be
//!   divisible by 32.

use gpu_sim::{
    AccessBound, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferSpec, CostKey,
    Dim3, Gpu, Kernel, KeyedBlocks, LaunchStats, OutputSlice, StageBound, StaticFacts,
};
use sparse::{CsrMatrix, IndexWidth, Matrix, Scalar};
use sputnik::spmm::{csr_spmm_buffers, BUF_A_INDICES, BUF_A_OFFSETS, BUF_A_VALUES, BUF_B, BUF_C};

/// Row-splitting SpMM: warp per row, N tiled in chunks of 32 columns.
pub struct MergeSpmmKernel<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    b: Option<&'a Matrix<T>>,
    out: Option<OutputSlice<'a, T>>,
    n: usize,
}

impl<'a, T: Scalar> MergeSpmmKernel<'a, T> {
    /// Returns `Err` when the problem violates the kernel's published
    /// constraint (N divisible by 32).
    pub fn new(
        a: &'a CsrMatrix<T>,
        b: &'a Matrix<T>,
        out: &'a mut Matrix<T>,
    ) -> Result<Self, String> {
        if !b.cols().is_multiple_of(32) {
            return Err(format!(
                "MergeSpmm requires N divisible by 32, got {}",
                b.cols()
            ));
        }
        assert_eq!(a.cols(), b.rows());
        assert_eq!(b.layout(), sparse::Layout::RowMajor);
        assert_eq!(out.rows(), a.rows());
        assert_eq!(out.cols(), b.cols());
        let n = b.cols();
        Ok(Self {
            a,
            b: Some(b),
            out: Some(OutputSlice::new(out.as_mut_slice())),
            n,
        })
    }

    pub fn for_profile(a: &'a CsrMatrix<T>, n: usize) -> Result<Self, String> {
        if !n.is_multiple_of(32) {
            return Err(format!("MergeSpmm requires N divisible by 32, got {n}"));
        }
        Ok(Self {
            a,
            b: None,
            out: None,
            n,
        })
    }
}

/// One warp's row in a [`MergeKey`]: its nonzero count and the sector
/// counts of its offsets load, its value and index strip loads (summed
/// over its strips) and its 32-wide output store.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct RowKey {
    nnz: u64,
    offsets: u64,
    values: u64,
    indices: u64,
    out: u64,
}

/// A [`MergeSpmmKernel`] block's cost key (see [`CostKey`]): its four
/// warps' rows, `None` past the last row.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MergeKey([Option<RowKey>; 4]);

impl<T: Scalar> CostKey for MergeSpmmKernel<'_, T> {
    type Key = MergeKey;

    fn cost_key(&self, block: Dim3, ctx: &mut BlockContext) -> MergeKey {
        let n0 = block.x as usize * 32;
        let eb = T::BYTES as u64;
        let mut key = MergeKey([None; 4]);
        for (w, slot) in key.0.iter_mut().enumerate() {
            let row = block.y as usize * 4 + w;
            if row >= self.a.rows() {
                continue;
            }
            let nnz = self.a.row_len(row) as u64;
            let row_off = self.a.row_offsets()[row] as u64;
            // Strips of 32 nonzeros, the last one partial.
            let (full, rest) = (nnz / 32, nnz % 32);
            let mut strips = |buf, elem: u64| {
                let tail = (row_off + full * 32) * elem;
                ctx.tile_sectors(buf, row_off * elem, full, 32 * elem, 32 * elem)
                    + ctx.sectors(buf, tail, rest * elem, 1, 1)
            };
            let (values, indices) = (strips(BUF_A_VALUES, eb), strips(BUF_A_INDICES, 4));
            *slot = Some(RowKey {
                nnz,
                offsets: ctx.sectors(BUF_A_OFFSETS, row as u64 * 4, 8, 1, 4),
                values,
                indices,
                out: ctx.sectors(BUF_C, (row * self.n + n0) as u64 * eb, 32 * eb, 1, 1),
            });
        }
        key
    }

    fn charge(&self, key: &MergeKey, ctx: &mut BlockContext) {
        let eb = T::BYTES as u64;
        for row in key.0.iter().flatten() {
            let nnz = row.nnz;
            ctx.misc(6);
            ctx.ld_sectors(BUF_A_OFFSETS, 1, row.offsets);
            // Strips of 32 nonzeros: coalesced scalar loads of each strip's
            // values + indices; per-nonzero broadcast via warp shuffle (no
            // shared-memory staging in the row-splitting kernel).
            let strips = nnz.div_ceil(32);
            ctx.ld_sectors(BUF_A_VALUES, strips, row.values);
            ctx.ld_sectors(BUF_A_INDICES, strips, row.indices);
            ctx.shfl(2 * nnz);
            ctx.fma(nnz, nnz * 32);
            ctx.misc(2 * nnz + 4 * strips);
            // B strips: a column tile starts at `n0 * eb`, a multiple of 32.
            ctx.ld_sectors(
                BUF_B,
                nnz,
                nnz * gpu_sim::memory::sectors_contiguous(0, 32 * eb),
            );
            // Coalesced scalar store of the 32 outputs.
            ctx.st_sectors(BUF_C, 1, row.out);
        }
    }
}

impl<T: Scalar> Kernel for MergeSpmmKernel<'_, T> {
    fn name(&self) -> String {
        format!("merge_spmm_rowsplit_{}", T::TAG)
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy((self.n / 32) as u32, (self.a.rows() as u32).div_ceil(4))
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::xy(32, 4)
    }

    fn shared_mem_bytes(&self) -> u32 {
        // 32 staged values + indices per warp.
        4 * 32 * 8
    }

    fn regs_per_thread(&self) -> u32 {
        32
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        csr_spmm_buffers(self.a, self.n, IndexWidth::U32)
    }

    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
        Some(self)
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: strip loads cover `[row_off, row_off + row_len)` of the
    /// value/index arrays (`<= nnz` by CSR), the offsets pair ends at
    /// `(rows + 1) * 4`, and the 32-wide output store ends at `(row * n +
    /// n0 + 32) * eb <= rows * n * eb` because N is a multiple of 32. B is
    /// address-free sector traffic. Everything is scalar, and per-nonzero
    /// broadcasts are warp shuffles — the declared shared memory is never
    /// staged, so the stage bound is zero.
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
        // Cost-only work is skipped entirely on cache-hit replays.
        if ctx.recording() {
            self.charge_block(block, ctx);
        }
        let (true, Some(b), Some(out)) = (ctx.functional(), self.b, self.out.as_ref()) else {
            return;
        };
        let b = b.as_slice();
        let n0 = block.x as usize * 32;
        let n = self.n;
        for w in 0..4usize {
            let row = block.y as usize * 4 + w;
            if row >= self.a.rows() {
                continue;
            }
            let (cols, vals) = self.a.row(row);
            // Fixed 32-wide column tile: a stack accumulator, with the
            // lanes helper keeping per-element accumulation order.
            let mut acc = [0.0f32; 32];
            gpu_sim::lanes::fma_accumulate(
                &mut acc,
                cols.iter()
                    .zip(vals)
                    .map(|(&col, &val)| (val.to_f32(), &b[col as usize * n + n0..])),
                |bv| bv.to_f32(),
            );
            for (x, &v) in acc.iter().enumerate() {
                out.write(row * n + n0 + x, T::from_f32(v));
            }
        }
    }
}

/// Functional MergeSpmm (row-major dense operands).
pub fn merge_spmm<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
) -> Result<(Matrix<T>, LaunchStats), String> {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let stats = {
        let kernel = MergeSpmmKernel::new(a, b, &mut out)?;
        gpu.launch(&kernel)
    };
    Ok((out, stats))
}

/// Profile MergeSpmm.
pub fn merge_spmm_profile<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    n: usize,
) -> Result<LaunchStats, String> {
    Ok(gpu.profile(&MergeSpmmKernel::<T>::for_profile(a, n)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    #[test]
    fn matches_reference() {
        let a = gen::uniform(64, 96, 0.8, 61);
        let b = Matrix::<f32>::random(96, 64, 62);
        let gpu = Gpu::v100();
        let (c, stats) = merge_spmm(&gpu, &a, &b).unwrap();
        let expect = sputnik::reference::spmm(&a, &b);
        assert!(c.max_abs_diff(&expect) < 1e-3);
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn rejects_unaligned_batch() {
        let a = gen::uniform(16, 16, 0.5, 63);
        assert!(merge_spmm_profile::<f32>(&Gpu::v100(), &a, 48).is_err());
        assert!(merge_spmm_profile::<f32>(&Gpu::v100(), &a, 64).is_ok());
    }

    #[test]
    fn sputnik_beats_merge_on_rnn_problems() {
        // The Figure 10 result: geometric-mean 1.59x over MergeSpmm.
        let a = gen::uniform(2048, 2048, 0.8, 64);
        let gpu = Gpu::v100();
        let ours = sputnik::spmm_profile::<f32>(
            &gpu,
            &a,
            2048,
            128,
            sputnik::SpmmConfig::heuristic::<f32>(128),
        );
        let theirs = merge_spmm_profile::<f32>(&gpu, &a, 128).unwrap();
        let speedup = theirs.time_us / ours.time_us;
        assert!(
            speedup > 1.0,
            "expected Sputnik ahead of MergeSpmm, got {speedup:.2}x"
        );
        assert!(speedup < 4.0, "gap should be moderate, got {speedup:.2}x");
    }

    #[test]
    fn merge_beats_cusparse() {
        // Row-major coalesced accesses should beat cuSPARSE's column-major.
        let a = gen::uniform(2048, 2048, 0.8, 65);
        let gpu = Gpu::v100();
        let merge = merge_spmm_profile::<f32>(&gpu, &a, 128).unwrap();
        let cusp = crate::cusparse::cusparse_spmm_profile::<f32>(&gpu, &a, 128);
        assert!(merge.time_us < cusp.time_us);
    }
}
