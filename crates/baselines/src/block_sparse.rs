//! Block-sparse SpMM, in the style of the OpenAI block-sparse GPU kernels
//! (Gray, Radford & Kingma — reference \[13\] of the paper).
//!
//! Each stored block is dense, so the kernel is a small GEMM per block:
//! coalesced vector loads, shared-memory staging, full FMA utilization —
//! recovering most of dense performance, at the model-quality cost of the
//! structured topology (quantified by
//! [`sparse::block::block_magnitude_retention`]). This comparator drives
//! the `ext_block_sparse` study: structured kernels win on raw throughput
//! per stored element; unstructured Sputnik wins on throughput per unit of
//! retained model quality.

use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferId,
    BufferSpec, Dim3, Gpu, Kernel, LaunchStats, OutputSlice, SmemScope, StageBound, StaticFacts,
};
use sparse::block::BsrMatrix;
use sparse::Matrix;

pub const BUF_BLOCKS: BufferId = BufferId(0);
pub const BUF_META: BufferId = BufferId(1);
pub const BUF_B: BufferId = BufferId(2);
pub const BUF_C: BufferId = BufferId(3);

/// Output columns per thread block.
const TILE_N: usize = 64;
/// Threads per block.
const THREADS: u32 = 128;

/// Block-sparse SpMM: `A (BSR) x B (dense row-major) => C (dense)`.
/// One thread block owns (block-row, 64-column) output tiles and walks the
/// block row's nonzero blocks like a dense GEMM walks its K strips.
pub struct BlockSpmmKernel<'a> {
    a: &'a BsrMatrix<f32>,
    b: Option<&'a Matrix<f32>>,
    out: Option<OutputSlice<'a, f32>>,
    n: usize,
}

impl<'a> BlockSpmmKernel<'a> {
    pub fn new(a: &'a BsrMatrix<f32>, b: &'a Matrix<f32>, out: &'a mut Matrix<f32>) -> Self {
        assert_eq!(a.cols(), b.rows());
        assert_eq!(out.rows(), a.rows());
        assert_eq!(out.cols(), b.cols());
        let n = b.cols();
        Self {
            a,
            b: Some(b),
            out: Some(OutputSlice::new(out.as_mut_slice())),
            n,
        }
    }

    pub fn for_profile(a: &'a BsrMatrix<f32>, n: usize) -> Self {
        Self {
            a,
            b: None,
            out: None,
            n,
        }
    }
}

impl Kernel for BlockSpmmKernel<'_> {
    fn name(&self) -> String {
        format!("block_sparse_spmm_b{}", self.a.block_size())
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy(self.n.div_ceil(TILE_N) as u32, self.a.block_rows() as u32)
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(THREADS)
    }

    fn shared_mem_bytes(&self) -> u32 {
        let bs = self.a.block_size();
        // One A block + one B strip (bs x TILE_N), double buffered.
        (2 * (bs * bs + bs * TILE_N) * 4) as u32
    }

    fn regs_per_thread(&self) -> u32 {
        64
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        vec![
            BufferSpec {
                id: BUF_BLOCKS,
                name: "a_blocks",
                footprint_bytes: self.a.stored_elements() as u64 * 4,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_META,
                name: "a_block_meta",
                footprint_bytes: (self.a.nnz_blocks() + self.a.block_rows() + 1) as u64 * 4,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_B,
                name: "b",
                footprint_bytes: (self.a.cols() * self.n * 4) as u64,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_C,
                name: "c",
                footprint_bytes: (self.a.rows() * self.n * 4) as u64,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: the meta prelude reads an 8-byte pair at `br * 4`
    /// (`br < block_rows`, under the `(nnz_blocks + block_rows + 1) * 4`
    /// footprint); B-strip and output traces use clamped tiles whose last
    /// rows sit at `((bc + 1) * bs - 1)` and `((br + 1) * bs - 1)`
    /// respectively, inside `cols * n * 4` / `rows * n * 4`. Block payloads
    /// are address-free sector traffic. Each barrier epoch stages one
    /// A-block + one B-strip — half the declared double buffer.
    fn static_facts(&self) -> StaticFacts {
        let bs = self.a.block_size();
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_BLOCKS.0,
                    bound: AccessBound::Extent(self.a.stored_elements() as u64 * 4),
                },
                BufferBound {
                    slot: BUF_META.0,
                    bound: AccessBound::Extent((self.a.block_rows() as u64 + 1) * 4),
                },
                BufferBound {
                    slot: BUF_B.0,
                    bound: AccessBound::Extent((self.a.cols() * self.n * 4) as u64),
                },
                BufferBound {
                    slot: BUF_C.0,
                    bound: AccessBound::Extent((self.a.rows() * self.n * 4) as u64),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::BarrierSeparated,
            stage: StageBound::Bytes(((bs * bs + bs * TILE_N) * 4) as u64),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let bs = self.a.block_size();
        let br = block.y as usize;
        let n0 = block.x as usize * TILE_N;
        let tile_n = TILE_N.min(self.n - n0);
        let warps = (THREADS / 32) as u64;

        let nblocks = self.a.block_row_len(br);
        // Cost-only work is skipped entirely on cache-hit replays. Each
        // strip is `bs` rows of `tile_n` columns, one trace per row.
        if ctx.recording() {
            let (rows, stride, bytes) = (bs as u64, self.n as u64 * 4, tile_n as u64 * 4);
            let strip_base = |row0: usize| (row0 * self.n + n0) as u64 * 4;
            ctx.misc(8);
            ctx.ld_global(BUF_META, br as u64 * 4, 2, 1, 4);

            for (bc, _) in self.a.block_row(br) {
                // Stage the A block (dense, vectorized) and the B strip.
                let a_elems = (bs * bs) as u64;
                let b_elems = (bs * TILE_N) as u64;
                let stage_instrs = (a_elems + b_elems).div_ceil(THREADS as u64 * 4);
                ctx.cost.ld_global_instrs += stage_instrs * warps + 1;
                ctx.smem_store(
                    stage_instrs * warps,
                    (a_elems + b_elems) * 4,
                    SmemScope::Block,
                );
                ctx.cost.gmem[BUF_BLOCKS.0 as usize].ld_sectors += a_elems * 4 / 32 + 1;
                let sectors = ctx.tile_sectors(BUF_B, strip_base(bc * bs), rows, stride, bytes);
                ctx.ld_sectors(BUF_B, 0, sectors);
                ctx.bar_sync();

                // Dense math: bs x TILE_N x bs FMAs, cuBLAS-grade inner loop.
                let fmas = (bs * TILE_N * bs) as u64;
                ctx.cost.fma_instrs += fmas / 32;
                ctx.smem_load(fmas / 32 / 8, fmas / 8, SmemScope::Block);
                ctx.misc(4 * warps);
                ctx.cost.flops += 2 * (bs * tile_n * bs) as u64;
            }
            if nblocks > 0 {
                // Store the block row's output strip.
                let store_instrs = ((bs * tile_n) as u64).div_ceil(THREADS as u64 * 4).max(1);
                let sectors = ctx.tile_sectors(BUF_C, strip_base(br * bs), rows, stride, bytes);
                ctx.st_sectors(BUF_C, store_instrs * warps, sectors);
            }
        }
        if nblocks == 0 {
            return;
        }

        if let (true, Some(b), Some(out)) = (ctx.functional(), self.b, self.out.as_ref()) {
            let b = b.as_slice();
            let n = self.n;
            // Arena-staged output strip accumulator (zeroed on checkout). Per
            // output row, the lanes helper reduces the whole block row with
            // register-resident accumulators; the (block, k) term order —
            // including the explicit-zero skip — matches the naive loop.
            let mut acc = ctx.scratch_f32(bs * tile_n);
            // Stored blocks are dense, so most payload entries are explicit
            // zeros at DL sparsities. Scan each payload row once, collecting
            // the surviving (value, B-row base) pairs on the stack, then
            // reduce them with register-resident accumulators. Survivor
            // order matches the naive kk loop, so results are bit-identical.
            let mut surv = [(0.0f32, 0usize); 64];
            for (bc, payload) in self.a.block_row(br) {
                for r in 0..bs {
                    let arow = &mut acc[r * tile_n..(r + 1) * tile_n];
                    for k0 in (0..bs).step_by(surv.len()) {
                        let kw = surv.len().min(bs - k0);
                        let mut cnt = 0;
                        for (kk, &a_val) in
                            payload[r * bs + k0..r * bs + k0 + kw].iter().enumerate()
                        {
                            if a_val != 0.0 {
                                surv[cnt] = (a_val, (bc * bs + k0 + kk) * n + n0);
                                cnt += 1;
                            }
                        }
                        gpu_sim::lanes::fma_accumulate(
                            arow,
                            surv[..cnt].iter().map(|&(a, base)| (a, &b[base..])),
                            |bv| bv,
                        );
                    }
                }
            }
            for r in 0..bs {
                for x in 0..tile_n {
                    out.write((br * bs + r) * self.n + n0 + x, acc[r * tile_n + x]);
                }
            }
        }
    }
}

/// Functional block-sparse SpMM.
pub fn block_spmm(gpu: &Gpu, a: &BsrMatrix<f32>, b: &Matrix<f32>) -> (Matrix<f32>, LaunchStats) {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let stats = {
        let kernel = BlockSpmmKernel::new(a, b, &mut out);
        gpu.launch(&kernel)
    };
    (out, stats)
}

/// Profile block-sparse SpMM.
pub fn block_spmm_profile(gpu: &Gpu, a: &BsrMatrix<f32>, n: usize) -> LaunchStats {
    gpu.profile(&BlockSpmmKernel::for_profile(a, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::block;

    #[test]
    fn matches_dense_reference() {
        let d = Matrix::<f32>::random(64, 64, 501);
        let a = block::block_prune(&d, 8, 0.5);
        let b = Matrix::<f32>::random(64, 48, 502);
        let gpu = Gpu::v100();
        let (c, stats) = block_spmm(&gpu, &a, &b);
        let expect = a.to_dense().matmul(&b);
        assert!(c.max_abs_diff(&expect) < 1e-3);
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn empty_block_rows_are_fine() {
        // A matrix whose top half has no blocks at all.
        let d = Matrix::<f32>::from_fn(32, 32, |r, _| if r >= 16 { 1.0 } else { 0.0 });
        let a = sparse::block::BsrMatrix::from_dense(&d, 16);
        let b = Matrix::<f32>::random(32, 32, 503);
        let gpu = Gpu::v100();
        let (c, _) = block_spmm(&gpu, &a, &b);
        for x in 0..32 {
            assert_eq!(c.get(0, x), 0.0, "empty block row stays zero");
        }
    }

    #[test]
    fn block_kernel_beats_unstructured_per_stored_element() {
        // The structured win: at equal element sparsity, dense blocks run
        // closer to dense-GEMM efficiency than unstructured CSR.
        let gpu = Gpu::v100();
        let d = Matrix::<f32>::random(2048, 2048, 504);
        let blocked = block::block_prune(&d, 32, 0.8);
        let unstructured = sparse::gen::uniform(2048, 2048, 0.8, 505);

        let t_block = block_spmm_profile(&gpu, &blocked, 128);
        let t_csr = sputnik::spmm_profile::<f32>(
            &gpu,
            &unstructured,
            2048,
            128,
            sputnik::SpmmConfig::heuristic::<f32>(128),
        );
        // Equal useful FLOPs (same element count); compare time directly.
        assert!(
            t_block.time_us < t_csr.time_us,
            "block kernel {} us should beat unstructured {} us at equal sparsity",
            t_block.time_us,
            t_csr.time_us
        );
    }

    #[test]
    fn but_structure_costs_model_quality() {
        // ...which is the paper's argument for unstructured kernels.
        let d = Matrix::<f32>::random(512, 512, 506);
        let retention = block::block_magnitude_retention(&d, 32, 0.8);
        assert!(
            retention < 0.9,
            "32x32 blocks lose weight magnitude, got {retention}"
        );
    }
}
