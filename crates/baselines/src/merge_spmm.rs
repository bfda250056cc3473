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
    AccessBound, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferSpec, Dim3, Gpu,
    Kernel, LaunchStats, OutputSlice, StageBound, StaticFacts,
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

    /// Structural cost signature: per warp, the owned row's validity, its
    /// nonzero count, and the alignment classes of the offsets/values/
    /// indices/output addresses. The B sector model uses `n0 * eb % 32`,
    /// which is identically zero (`32 * eb` is a multiple of 32), so no
    /// column-tile term is needed.
    fn block_signature(&self, block: Dim3) -> Option<u64> {
        let n0 = block.x as usize * 32;
        let eb = T::BYTES as u64;
        let mut fp = gpu_sim::Fingerprint::new();
        for w in 0..4usize {
            let row = block.y as usize * 4 + w;
            if row >= self.a.rows() {
                fp.write_u64(u64::MAX);
                continue;
            }
            let row_off = self.a.row_offsets()[row] as u64;
            fp.write_u64(self.a.row_len(row) as u64);
            fp.write_u64(row as u64 * 4 % 32);
            fp.write_u64(row_off * eb % 32);
            fp.write_u64(row_off * 4 % 32);
            fp.write_u64((row * self.n + n0) as u64 * eb % 32);
        }
        Some(fp.finish())
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
        let n0 = block.x as usize * 32;
        let eb = T::BYTES as u64;

        for w in 0..4usize {
            let row = block.y as usize * 4 + w;
            if row >= self.a.rows() {
                continue;
            }
            let (cols, vals) = self.a.row(row);

            // Cost-only work is skipped entirely on cache-hit replays.
            if ctx.recording() {
                ctx.misc(6);
                ctx.ld_global(BUF_A_OFFSETS, row as u64 * 4, 2, 1, 4);
                let nnz = cols.len() as u64;
                let row_off = self.a.row_offsets()[row] as u64;

                // Strips of 32 nonzeros staged through shared memory.
                let strips = nnz.div_ceil(32).max(1);
                for s in 0..strips {
                    let strip_len = 32.min(nnz.saturating_sub(s * 32));
                    if strip_len == 0 {
                        break;
                    }
                    // Coalesced scalar loads of the strip's values + indices;
                    // per-nonzero broadcast via warp shuffle (no shared-memory
                    // staging in the row-splitting kernel).
                    ctx.ld_global(
                        BUF_A_VALUES,
                        (row_off + s * 32) * eb,
                        strip_len as u32,
                        1,
                        T::BYTES,
                    );
                    ctx.ld_global(
                        BUF_A_INDICES,
                        (row_off + s * 32) * 4,
                        strip_len as u32,
                        1,
                        4,
                    );
                    for _ in 0..strip_len {
                        ctx.shfl(2);
                        ctx.cost.ld_global_instrs += 1;
                        ctx.cost.fma_instrs += 1;
                        ctx.misc(2);
                    }
                    ctx.misc(4);
                }
                // Sector accounting over the whole row.
                ctx.cost.gmem[BUF_B.0 as usize].ld_sectors +=
                    nnz * gpu_sim::memory::sectors_contiguous((n0 as u64) * eb % 32, 32 * eb);
                ctx.cost.flops += 2 * nnz * 32;

                // Coalesced scalar store of the 32 outputs.
                ctx.cost.st_global_instrs += 1;
                ctx.st_global_trace(BUF_C, (row * self.n + n0) as u64 * eb, 32 * eb);
            }

            if let (true, Some(b), Some(out)) = (ctx.functional(), self.b, self.out.as_ref()) {
                let b = b.as_slice();
                // Fixed 32-wide column tile: a stack accumulator, with the
                // lanes helper keeping per-element accumulation order.
                let mut acc = [0.0f32; 32];
                let n = self.n;
                gpu_sim::lanes::fma_accumulate(
                    &mut acc,
                    cols.iter()
                        .zip(vals)
                        .map(|(&col, &val)| (val.to_f32(), &b[col as usize * n + n0..])),
                    |bv| bv.to_f32(),
                );
                for (x, &v) in acc.iter().enumerate() {
                    out.write(row * self.n + n0 + x, T::from_f32(v));
                }
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
