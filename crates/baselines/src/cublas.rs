//! cuBLAS-like dense GEMM and transpose kernels.
//!
//! The paper's dense baselines are cuBLAS SGEMM ("backed by highly-tuned
//! assembly kernels"). This module models that as a classic tiled,
//! shared-memory GEMM with register blocking: 128x64 output tiles, 256
//! threads, 8-element register accumulators, vectorized loads — the CUTLASS
//! shape. Tile quantization (partial tiles cost as much as full ones) falls
//! out of the cost model naturally, matching cuBLAS's characteristic
//! stair-step performance on ragged shapes.

use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferId,
    BufferSpec, CostKey, Dim3, Gpu, Kernel, KeyedBlocks, LaunchStats, OutputSlice, SmemScope,
    StageBound, StaticFacts,
};
use sparse::Matrix;

pub const BUF_A: BufferId = BufferId(0);
pub const BUF_B: BufferId = BufferId(1);
pub const BUF_C: BufferId = BufferId(2);

/// Reduction-strip depth (all tile variants).
const TILE_K: usize = 32;

/// cuBLAS ships many tile variants and picks by shape; these are the ones we
/// model: (tile_m, tile_n, threads). Large tiles maximize reuse; small tiles
/// keep little problems parallel enough to fill the device.
const TILE_VARIANTS: [(usize, usize, u32); 5] = [
    (128, 64, 256),
    (64, 64, 256),
    (64, 32, 128),
    (32, 32, 128),
    (16, 32, 64),
];

/// A cuBLAS-style dense GEMM: `A (m x k, row-major) * B (k x n, row-major)
/// => C (m x n)`.
pub struct GemmKernel<'a> {
    a: Option<&'a Matrix<f32>>,
    b: Option<&'a Matrix<f32>>,
    out: Option<OutputSlice<'a, f32>>,
    m: usize,
    k: usize,
    n: usize,
    tile_m: usize,
    tile_n: usize,
    threads: u32,
}

impl<'a> GemmKernel<'a> {
    pub fn new(a: &'a Matrix<f32>, b: &'a Matrix<f32>, out: &'a mut Matrix<f32>) -> Self {
        assert_eq!(a.cols(), b.rows());
        assert_eq!(out.rows(), a.rows());
        assert_eq!(out.cols(), b.cols());
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let (tile_m, tile_n, threads) = Self::select_tile(m, n);
        Self {
            a: Some(a),
            b: Some(b),
            out: Some(OutputSlice::new(out.as_mut_slice())),
            m,
            k,
            n,
            tile_m,
            tile_n,
            threads,
        }
    }

    /// Cost-only kernel for timing sweeps.
    pub fn for_profile(m: usize, k: usize, n: usize) -> Self {
        let (tile_m, tile_n, threads) = Self::select_tile(m, n);
        Self {
            a: None,
            b: None,
            out: None,
            m,
            k,
            n,
            tile_m,
            tile_n,
            threads,
        }
    }

    /// Pick the largest tile that still yields enough blocks to fill the
    /// device with a couple of waves — cuBLAS's shape-based kernel selection.
    fn select_tile(m: usize, n: usize) -> (usize, usize, u32) {
        for &(tm, tn, th) in &TILE_VARIANTS {
            let blocks = m.div_ceil(tm) * n.div_ceil(tn);
            if blocks >= 160 {
                return (tm, tn, th);
            }
        }
        TILE_VARIANTS[TILE_VARIANTS.len() - 1]
    }
}

/// A [`GemmKernel`] block's cost key (see [`CostKey`]): the live extent of
/// its tile (full interior tiles vs edge-masked ones) and the sectors of
/// its output store, so every interior block of a large GEMM collapses
/// onto a handful of keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmKey {
    tile_m: u64,
    tile_n: u64,
    out: u64,
}

impl CostKey for GemmKernel<'_> {
    type Key = GemmKey;

    fn cost_key(&self, block: Dim3, ctx: &mut BlockContext) -> GemmKey {
        let row0 = block.y as usize * self.tile_m;
        let col0 = block.x as usize * self.tile_n;
        let (tile_m, tile_n) = (
            self.tile_m.min(self.m - row0),
            self.tile_n.min(self.n - col0),
        );
        let corner = (row0 * self.n + col0) as u64 * 4;
        // Epilogue: the tile's stores, one contiguous run per row.
        let (rows, stride, bytes) = (tile_m as u64, self.n as u64 * 4, tile_n as u64 * 4);
        GemmKey {
            tile_m: tile_m as u64,
            tile_n: tile_n as u64,
            out: ctx.tile_sectors(BUF_C, corner, rows, stride, bytes),
        }
    }

    /// The full tile is paid for even when partially masked (tile
    /// quantization). All warps share the block's instructions.
    fn charge(&self, key: &GemmKey, ctx: &mut BlockContext) {
        let (tm, tn, threads) = (self.tile_m, self.tile_n, self.threads);
        let warps = (threads / 32) as u64;
        for _ in 0..self.k.div_ceil(TILE_K) {
            // Stage A and B tiles with float4 loads spread over the block.
            let stage_elems = (tm * TILE_K + TILE_K * tn) as u64;
            let stage_instrs = stage_elems.div_ceil(threads as u64 * 4);
            // Per warp bookkeeping: instruction counts are per-warp issued;
            // multiply by warps since all warps participate.
            ctx.smem_store(stage_instrs * warps, stage_elems * 4, SmemScope::Block);
            ctx.ld_sectors(BUF_A, stage_instrs * warps, (tm * TILE_K * 4) as u64 / 32);
            ctx.ld_sectors(BUF_B, 0, (TILE_K * tn * 4) as u64 / 32);
            ctx.bar_sync();

            // Math: tm*tn*TILE_K scalar FMAs per strip; each warp
            // instruction covers 32 lanes.
            let fmas = (tm * tn * TILE_K) as u64;
            ctx.fma(fmas / 32, 0);
            // Shared->register fragment loads, 128-bit, heavily reused.
            ctx.smem_load(fmas / 32 / 8, fmas / 8, SmemScope::Block);
            ctx.misc(8 * warps);
        }
        // Useful FLOPs only count the live region.
        ctx.fma(0, key.tile_m * key.tile_n * self.k as u64);

        // Epilogue: vectorized stores of the tile.
        let store_instrs = ((tm * tn) as u64).div_ceil(threads as u64 * 4);
        ctx.st_sectors(BUF_C, store_instrs * warps, key.out);
    }
}

impl Kernel for GemmKernel<'_> {
    fn name(&self) -> String {
        format!("cublas_sgemm_{}x{}", self.tile_m, self.tile_n)
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy(
            self.n.div_ceil(self.tile_n) as u32,
            self.m.div_ceil(self.tile_m) as u32,
        )
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(self.threads)
    }

    fn shared_mem_bytes(&self) -> u32 {
        // Double-buffered A and B tiles.
        (2 * (self.tile_m * TILE_K + TILE_K * self.tile_n) * 4) as u32
    }

    fn regs_per_thread(&self) -> u32 {
        // 32 accumulators + fragments + addresses: register-heavy on purpose.
        96
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        vec![
            BufferSpec {
                id: BUF_A,
                name: "a",
                footprint_bytes: (self.m * self.k * 4) as u64,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_B,
                name: "b",
                footprint_bytes: (self.k * self.n * 4) as u64,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_C,
                name: "c",
                footprint_bytes: (self.m * self.n * 4) as u64,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
        Some(self)
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: A and B tiles are modeled as address-free sector traffic
    /// (bounded by their footprints by construction); the only addressed
    /// access is the epilogue's tiled store of the *clamped* live extent,
    /// whose last byte is `(row0 + tile_m - 1) * n * 4 + (col0 + tile_n) * 4
    /// <= m * n * 4`. All addressed traffic is scalar-width. The double
    /// buffer means each barrier epoch stages exactly half the declared
    /// shared memory; warps communicate through it, so the barrier structure
    /// is left to the dynamic epoch tracker.
    fn static_facts(&self) -> StaticFacts {
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_A.0,
                    bound: AccessBound::Extent((self.m * self.k * 4) as u64),
                },
                BufferBound {
                    slot: BUF_B.0,
                    bound: AccessBound::Extent((self.k * self.n * 4) as u64),
                },
                BufferBound {
                    slot: BUF_C.0,
                    bound: AccessBound::Extent((self.m * self.n * 4) as u64),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::BarrierSeparated,
            stage: StageBound::Bytes(((self.tile_m * TILE_K + TILE_K * self.tile_n) * 4) as u64),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        // Cost: skipped entirely on cache-hit replays (the replay context
        // discards recorded cost).
        if ctx.recording() {
            self.charge_block(block, ctx);
        }
        let row0 = block.y as usize * self.tile_m;
        let col0 = block.x as usize * self.tile_n;
        let tile_m = self.tile_m.min(self.m - row0);
        let tile_n = self.tile_n.min(self.n - col0);

        // ---- Functional ----------------------------------------------------
        if let (true, Some(a), Some(b), Some(out)) =
            (ctx.functional(), self.a, self.b, self.out.as_ref())
        {
            let a = a.as_slice();
            let b = b.as_slice();
            // Register-blocked body: arena row tiles of accumulators; the
            // lanes helpers keep each 8-column chunk in a vector register
            // across the whole K reduction, and row pairs share one pass
            // over the B strips. Per-output-element accumulation order over
            // l is unchanged from the naive loop.
            let mut acc = ctx.scratch_f32(tile_n);
            let mut acc1 = ctx.scratch_f32(tile_n);
            let (k, n) = (self.k, self.n);
            let mut r = row0;
            while r + 1 < row0 + tile_m {
                acc.fill(0.0);
                acc1.fill(0.0);
                gpu_sim::lanes::fma_accumulate_pair(
                    &mut acc,
                    &mut acc1,
                    (0..k).map(|l| (a[r * k + l], a[(r + 1) * k + l], &b[l * n + col0..])),
                    |bv| bv,
                );
                for (ci, (&v0, &v1)) in acc.iter().zip(acc1.iter()).enumerate() {
                    out.write(r * n + col0 + ci, v0);
                    out.write((r + 1) * n + col0 + ci, v1);
                }
                r += 2;
            }
            if r < row0 + tile_m {
                acc.fill(0.0);
                gpu_sim::lanes::fma_accumulate(
                    &mut acc,
                    (0..k).map(|l| (a[r * k + l], &b[l * n + col0..])),
                    |bv| bv,
                );
                for (ci, &v) in acc.iter().enumerate() {
                    out.write(r * n + col0 + ci, v);
                }
            }
        }
    }
}

/// Run a dense GEMM functionally.
pub fn gemm(gpu: &Gpu, a: &Matrix<f32>, b: &Matrix<f32>) -> (Matrix<f32>, LaunchStats) {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let stats = {
        let kernel = GemmKernel::new(a, b, &mut out);
        gpu.launch(&kernel)
    };
    (out, stats)
}

/// Profile a dense GEMM of the given shape.
pub fn gemm_profile(gpu: &Gpu, m: usize, k: usize, n: usize) -> LaunchStats {
    gpu.profile(&GemmKernel::for_profile(m, k, n))
}

/// A dense transpose kernel (`cublasSgeam`-style, shared-memory staged).
/// Used to model the explicit transpose the paper must add to cuSPARSE's
/// SDDMM baseline: "because cusparseConstrainedGeMM does not support
/// transposition of the right-hand operand, we explicitly transpose the
/// matrix using cuBLAS and include the transposition in our timing."
pub struct TransposeKernel<'a> {
    src: Option<&'a Matrix<f32>>,
    out: Option<OutputSlice<'a, f32>>,
    rows: usize,
    cols: usize,
}

const T_TILE: usize = 32;

impl<'a> TransposeKernel<'a> {
    pub fn new(src: &'a Matrix<f32>, out: &'a mut Matrix<f32>) -> Self {
        assert_eq!(out.rows(), src.cols());
        assert_eq!(out.cols(), src.rows());
        let (rows, cols) = (src.rows(), src.cols());
        Self {
            src: Some(src),
            out: Some(OutputSlice::new(out.as_mut_slice())),
            rows,
            cols,
        }
    }

    pub fn for_profile(rows: usize, cols: usize) -> Self {
        Self {
            src: None,
            out: None,
            rows,
            cols,
        }
    }
}

/// A [`TransposeKernel`] block's cost key (see [`CostKey`]): the sectors
/// of its source reads and destination writes, the only part of its trace
/// the live tile extent moves.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransposeKey {
    src: u64,
    dst: u64,
}

impl CostKey for TransposeKernel<'_> {
    type Key = TransposeKey;

    fn cost_key(&self, block: Dim3, ctx: &mut BlockContext) -> TransposeKey {
        let r0 = block.y as usize * T_TILE;
        let c0 = block.x as usize * T_TILE;
        let h = T_TILE.min(self.rows - r0) as u64;
        let w = T_TILE.min(self.cols - c0) as u64;
        let (rows, cols) = (self.rows as u64, self.cols as u64);
        TransposeKey {
            // Source rows of the tile, then destination rows (source
            // columns) of the transposed tile.
            src: ctx.tile_sectors(
                BUF_A,
                (r0 as u64 * cols + c0 as u64) * 4,
                h,
                cols * 4,
                w * 4,
            ),
            dst: ctx.tile_sectors(
                BUF_C,
                (c0 as u64 * rows + r0 as u64) * 4,
                w,
                rows * 4,
                h * 4,
            ),
        }
    }

    /// 4 warps ping a 32x32 tile through shared memory: coalesced reads,
    /// coalesced writes, conflict-free via padding.
    fn charge(&self, key: &TransposeKey, ctx: &mut BlockContext) {
        let rounds = (T_TILE as u64 * T_TILE as u64).div_ceil(32 * 8);
        ctx.smem_store(rounds * 8, (T_TILE * T_TILE * 4) as u64, SmemScope::Block);
        ctx.ld_sectors(BUF_A, rounds * 8, key.src);
        // The transposed readback crosses warps (each warp reads columns
        // the other warps staged), so the tile must be fully written
        // first.
        ctx.bar_sync();
        ctx.smem_load(rounds * 8, (T_TILE * T_TILE * 4) as u64, SmemScope::Block);
        ctx.st_sectors(BUF_C, rounds * 8, key.dst);
        ctx.misc(12);
    }
}

impl Kernel for TransposeKernel<'_> {
    fn name(&self) -> String {
        "cublas_transpose_32x32".to_string()
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy(
            self.cols.div_ceil(T_TILE) as u32,
            self.rows.div_ceil(T_TILE) as u32,
        )
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::xy(32, 8)
    }

    fn shared_mem_bytes(&self) -> u32 {
        // 32x33 padded tile to dodge bank conflicts.
        (T_TILE * (T_TILE + 1) * 4) as u32
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        vec![
            BufferSpec {
                id: BUF_A,
                name: "src",
                footprint_bytes: (self.rows * self.cols * 4) as u64,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_C,
                name: "dst",
                footprint_bytes: (self.rows * self.cols * 4) as u64,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
        Some(self)
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: both tiled traces use the clamped live extent, so the last
    /// source byte is `(r0 + h - 1) * cols * 4 + (c0 + w) * 4` which stays
    /// within `rows * cols * 4`, and symmetrically for the destination. One
    /// 32x32 tile is staged per barrier epoch, under the 32x33 padded
    /// declaration.
    fn static_facts(&self) -> StaticFacts {
        let bytes = (self.rows * self.cols * 4) as u64;
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_A.0,
                    bound: AccessBound::Extent(bytes),
                },
                BufferBound {
                    slot: BUF_C.0,
                    bound: AccessBound::Extent(bytes),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::BarrierSeparated,
            stage: StageBound::Bytes((T_TILE * T_TILE * 4) as u64),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let r0 = block.y as usize * T_TILE;
        let c0 = block.x as usize * T_TILE;
        let h = T_TILE.min(self.rows - r0);
        let w = T_TILE.min(self.cols - c0);

        if ctx.recording() {
            self.charge_block(block, ctx);
        }

        if let (true, Some(src), Some(out)) = (ctx.functional(), self.src, self.out.as_ref()) {
            let src = src.as_slice();
            for r in r0..r0 + h {
                for c in c0..c0 + w {
                    out.write(c * self.rows + r, src[r * self.cols + c]);
                }
            }
        }
    }
}

/// Transpose a matrix functionally on the simulated GPU.
pub fn transpose(gpu: &Gpu, src: &Matrix<f32>) -> (Matrix<f32>, LaunchStats) {
    let mut out = Matrix::zeros(src.cols(), src.rows());
    let stats = {
        let kernel = TransposeKernel::new(src, &mut out);
        gpu.launch(&kernel)
    };
    (out, stats)
}

/// Profile a transpose of the given shape.
pub fn transpose_profile(gpu: &Gpu, rows: usize, cols: usize) -> LaunchStats {
    gpu.profile(&TransposeKernel::for_profile(rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_matches_reference() {
        let a = Matrix::<f32>::random(70, 50, 1);
        let b = Matrix::<f32>::random(50, 90, 2);
        let gpu = Gpu::v100();
        let (c, stats) = gemm(&gpu, &a, &b);
        let expect = a.matmul(&b);
        assert!(c.max_abs_diff(&expect) < 1e-3);
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn gemm_efficiency_is_high_on_big_shapes() {
        let gpu = Gpu::v100();
        let stats = gemm_profile(&gpu, 4096, 4096, 4096);
        assert!(
            stats.frac_peak > 0.55 && stats.frac_peak <= 1.0,
            "big dense GEMM should run near peak, got {:.2}",
            stats.frac_peak
        );
    }

    #[test]
    fn gemm_efficiency_drops_on_skinny_shapes() {
        let gpu = Gpu::v100();
        let big = gemm_profile(&gpu, 4096, 4096, 4096);
        let skinny = gemm_profile(&gpu, 8192, 2048, 128);
        assert!(
            skinny.frac_peak < big.frac_peak,
            "skinny N=128 cannot match square shapes"
        );
    }

    #[test]
    fn wave_quantization_costs() {
        // One block per SM fills a wave; one extra row-tile forces a second
        // wave on one SM and the makespan nearly doubles — cuBLAS's
        // characteristic stair-step on ragged shapes.
        let gpu = Gpu::v100();
        let sms = gpu.device().num_sms as usize;
        let full_wave = gemm_profile(&gpu, 128 * sms, 1024, 64);
        let spill = gemm_profile(&gpu, 128 * (sms + 1), 1024, 64);
        let per_flop_full = full_wave.time_us / full_wave.flops as f64;
        let per_flop_spill = spill.time_us / spill.flops as f64;
        assert!(
            per_flop_spill > per_flop_full * 1.3,
            "spilling a wave must hurt efficiency: {per_flop_spill:.3e} vs {per_flop_full:.3e}"
        );
    }

    #[test]
    fn transpose_matches_reference() {
        let a = Matrix::<f32>::random(67, 45, 3);
        let gpu = Gpu::v100();
        let (t, _) = transpose(&gpu, &a);
        assert_eq!(t, a.transpose());
    }

    #[test]
    fn transpose_is_bandwidth_bound() {
        let gpu = Gpu::v100();
        let stats = transpose_profile(&gpu, 4096, 4096);
        assert_eq!(stats.bound_by, "dram");
    }
}
