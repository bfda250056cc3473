//! cuSPARSE-like baseline kernels.
//!
//! Models the vendor kernels the paper benchmarks against:
//!
//! * `cusparseSpMM` — CSR x dense, **column-major** dense operands, 32-bit
//!   indices, warp-per-row work assignment, scalar memory accesses, no load
//!   balancing. The column-major layout makes the per-nonzero dense loads a
//!   strided walk (one sector per lane), so the kernel leans on the cache to
//!   merge what coalescing cannot — exactly the structural reason it trails
//!   Sputnik on DL sparsities.
//! * The mixed-precision `cusparseSpMM`, which "performs inconsistently on
//!   some problems": narrow or oddly shaped N falls back to a thread-per-row
//!   scalar path with catastrophic occupancy (the paper observes slowdowns
//!   up to 297.5x).
//! * `cusparseConstrainedGeMM` — the SDDMM baseline. It cannot transpose its
//!   right-hand operand, so benchmarks must add an explicit cuBLAS transpose
//!   (see [`crate::cublas::TransposeKernel`]); the harness includes it.

use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound,
    BufferSpec, CostKey, Dim3, Gpu, Kernel, KeyedBlocks, LaunchStats, OutputSlice, SmemScope,
    StageBound, StaticFacts,
};
use sparse::{CsrMatrix, IndexWidth, Matrix, Scalar};
use sputnik::spmm::{csr_spmm_buffers, BUF_A_INDICES, BUF_A_OFFSETS, BUF_A_VALUES, BUF_B, BUF_C};

/// cuSPARSE-style SpMM: one warp per sparse row, output columns tiled 32 at
/// a time across the warp's lanes, column-major dense operands.
pub struct CusparseSpmmKernel<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    /// Row-major f32 staging copy of the column-major dense operand, built
    /// once per launch (functional mode). The simulated kernel still *pays*
    /// for strided column-major gathers — the cost model above is untouched —
    /// but the host-side functional math reads contiguous rows so the lanes
    /// helper can keep the accumulators vectorized. Element values and
    /// per-output accumulation order are unchanged, so results are
    /// bit-identical to gathering straight from the column-major operand.
    bt: Option<Vec<f32>>,
    out: Option<OutputSlice<'a, T>>,
    n: usize,
}

impl<'a, T: Scalar> CusparseSpmmKernel<'a, T> {
    pub fn new(a: &'a CsrMatrix<T>, b: &'a Matrix<T>, out: &'a mut Matrix<T>) -> Self {
        assert_eq!(a.cols(), b.rows());
        assert_eq!(
            b.layout(),
            sparse::Layout::ColMajor,
            "cuSPARSE dense operands are column-major"
        );
        assert_eq!(out.layout(), sparse::Layout::ColMajor);
        assert_eq!(out.rows(), a.rows());
        assert_eq!(out.cols(), b.cols());
        let n = b.cols();
        let k = b.rows();
        let bdata = b.as_slice();
        let mut bt = vec![0.0f32; k * n];
        for c in 0..n {
            let col = &bdata[c * k..(c + 1) * k];
            for (r, &v) in col.iter().enumerate() {
                bt[r * n + c] = v.to_f32();
            }
        }
        Self {
            a,
            bt: Some(bt),
            out: Some(OutputSlice::new(out.as_mut_slice())),
            n,
        }
    }

    pub fn for_profile(a: &'a CsrMatrix<T>, n: usize) -> Self {
        Self {
            a,
            bt: None,
            out: None,
            n,
        }
    }
}

/// One warp's part of a [`CusparseKey`]: an out-of-range row, an empty
/// row (its offsets load and strided zero store), or a row with its
/// nonzero count and the sector counts of its offsets, value and index
/// loads.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum WarpKey {
    Idle,
    Empty {
        offsets: u64,
        zeros: u64,
    },
    Row {
        offsets: u64,
        nnz: u64,
        values: u64,
        indices: u64,
    },
}

/// A [`CusparseSpmmKernel`] block's cost key (see [`CostKey`]): the live
/// column-tile width and its four warps' rows. The strided B gathers and
/// non-empty C stores use constant strides from a representative base, so
/// the tile width fixes them.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CusparseKey {
    tile_n: u32,
    warps: [WarpKey; 4],
}

impl<T: Scalar> CostKey for CusparseSpmmKernel<'_, T> {
    type Key = CusparseKey;

    fn cost_key(&self, block: Dim3, ctx: &mut BlockContext) -> CusparseKey {
        let n0 = block.x as usize * 32;
        let tile_n = 32.min(self.n - n0) as u32;
        let eb = T::BYTES as u64;
        let rows = self.a.rows();
        let mut warps = [WarpKey::Idle; 4];
        for (w, warp) in warps.iter_mut().enumerate() {
            let row = block.y as usize * 4 + w;
            if row >= rows {
                continue;
            }
            let offsets = ctx.sectors(BUF_A_OFFSETS, row as u64 * 4, 8, 1, 4);
            let nnz = self.a.row_len(row) as u64;
            let offset = self.a.row_offsets()[row] as u64;
            *warp = if nnz == 0 {
                let base = (n0 * rows + row) as u64 * eb;
                let zeros = ctx.strided_sectors(BUF_C, base, tile_n, rows as u64 * eb, T::BYTES);
                WarpKey::Empty { offsets, zeros }
            } else {
                WarpKey::Row {
                    offsets,
                    nnz,
                    values: ctx.sectors(BUF_A_VALUES, offset * eb, nnz * eb, 1, 1),
                    indices: ctx.sectors(BUF_A_INDICES, offset * 4, nnz * 4, 1, 1),
                }
            };
        }
        CusparseKey { tile_n, warps }
    }

    fn charge(&self, key: &CusparseKey, ctx: &mut BlockContext) {
        let eb = T::BYTES as u64;
        let k_rows = self.a.cols() as u64;
        for warp in key.warps {
            match warp {
                WarpKey::Idle => {}
                // Still must zero the output tile.
                WarpKey::Empty { offsets, zeros } => {
                    ctx.misc(6);
                    ctx.ld_sectors(BUF_A_OFFSETS, 1, offsets);
                    ctx.st_sectors(BUF_C, 1, zeros);
                }
                WarpKey::Row {
                    offsets,
                    nnz,
                    values,
                    indices,
                } => {
                    ctx.misc(6);
                    ctx.ld_sectors(BUF_A_OFFSETS, 1, offsets);
                    // Per nonzero: scalar broadcast load of value+index, then
                    // a strided gather across the lanes' output columns —
                    // each lane reads B(col, n0+lane), which in column-major
                    // storage sits `k_rows` elements apart: one sector per
                    // lane. Values + indices are coalesced across lanes.
                    ctx.ld_sectors(BUF_A_VALUES, nnz.div_ceil(32), values);
                    ctx.ld_sectors(BUF_A_INDICES, nnz.div_ceil(32), indices);
                    // B loads: one warp instruction per nonzero, strided by K.
                    let b_sectors =
                        gpu_sim::memory::sectors_strided(0, key.tile_n, k_rows * eb, eb);
                    ctx.ld_sectors(BUF_B, nnz, nnz * b_sectors);
                    ctx.fma(nnz, nnz * u64::from(key.tile_n));
                    ctx.misc(2 * nnz); // index scale + loop bookkeeping

                    // Column-major output store: strided too.
                    let c_sectors = gpu_sim::memory::sectors_strided(
                        0,
                        key.tile_n,
                        self.a.rows() as u64 * eb,
                        eb,
                    );
                    ctx.st_sectors(BUF_C, 1, c_sectors);
                }
            }
        }
    }
}

impl<T: Scalar> Kernel for CusparseSpmmKernel<'_, T> {
    fn name(&self) -> String {
        format!("cusparse_spmm_{}", T::TAG)
    }

    fn grid(&self) -> Dim3 {
        // Warp per row, 4 warps per block, column tiles of 32.
        Dim3::xy(
            (self.n.div_ceil(32)) as u32,
            (self.a.rows() as u32).div_ceil(4),
        )
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::xy(32, 4)
    }

    fn shared_mem_bytes(&self) -> u32 {
        0
    }

    fn regs_per_thread(&self) -> u32 {
        40
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        // cuSPARSE only supports 32-bit indices, even in fp16 mode.
        csr_spmm_buffers(self.a, self.n, IndexWidth::U32)
    }

    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
        Some(self)
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: row traces cover `[offset, offset + row_len)` of the
    /// value/index arrays, the offsets pair ends at `(rows + 1) * 4`, and
    /// the empty-row strided zero-store's last element is
    /// `((n0 + tile_n - 1) * rows + row + 1) * eb`, within `rows * n * eb`.
    /// B gathers and non-empty output stores are address-free sector
    /// traffic. Everything is scalar; there is no shared memory.
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
        let (true, Some(bt), Some(out)) = (ctx.functional(), self.bt.as_ref(), self.out.as_ref())
        else {
            return;
        };
        let n0 = block.x as usize * 32;
        let tile_n = 32.min(self.n - n0);
        let m_rows = self.a.rows();
        for w in 0..4usize {
            let row = block.y as usize * 4 + w;
            if row >= m_rows {
                continue;
            }
            let (cols, vals) = self.a.row(row);
            if cols.is_empty() {
                for c in n0..n0 + tile_n {
                    out.write(c * m_rows + row, T::zero());
                }
                continue;
            }
            // Fixed 32-wide column tile over the row-major staging copy:
            // each output element accumulates the row's nonzeros in CSR
            // order, exactly like the strided column-major gather would.
            let mut acc = [0.0f32; 32];
            gpu_sim::lanes::fma_accumulate(
                &mut acc[..tile_n],
                cols.iter()
                    .zip(vals)
                    .map(|(&col, &val)| (val.to_f32(), &bt[col as usize * self.n + n0..])),
                |bv| bv,
            );
            for (lane, &v) in acc[..tile_n].iter().enumerate() {
                out.write((n0 + lane) * m_rows + row, T::from_f32(v));
            }
        }
    }
}

/// Functional cuSPARSE-style SpMM. Accepts/returns **column-major** dense
/// matrices, per the library's convention.
pub fn cusparse_spmm<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
) -> (Matrix<T>, LaunchStats) {
    let mut out = Matrix::zeros_with_layout(a.rows(), b.cols(), sparse::Layout::ColMajor);
    let stats = {
        let kernel = CusparseSpmmKernel::new(a, b, &mut out);
        gpu.launch(&kernel)
    };
    (out, stats)
}

/// Profile cuSPARSE-style SpMM.
pub fn cusparse_spmm_profile<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>, n: usize) -> LaunchStats {
    gpu.profile(&CusparseSpmmKernel::<T>::for_profile(a, n))
}

/// The mixed-precision fallback path: on "inconsistent" shapes (N not a
/// multiple of 32), the fp16 SpMM degrades to one *thread* per row with
/// fully scalar, serialized processing — the pathology behind the paper's
/// observed 297.5x worst case.
pub struct CusparseSpmmHalfFallbackKernel<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    n: usize,
}

impl<'a, T: Scalar> CusparseSpmmHalfFallbackKernel<'a, T> {
    pub fn new(a: &'a CsrMatrix<T>, n: usize) -> Self {
        Self { a, n }
    }
}

impl<T: Scalar> Kernel for CusparseSpmmHalfFallbackKernel<'_, T> {
    fn name(&self) -> String {
        format!("cusparse_spmm_{}_fallback", T::TAG)
    }

    fn grid(&self) -> Dim3 {
        // One warp per row, only two warps per block: a starved launch.
        Dim3::x((self.a.rows() as u32).div_ceil(2))
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(64)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        csr_spmm_buffers(self.a, self.n, IndexWidth::U32)
    }

    /// Static safety facts for the launch auditor: the degenerate path is
    /// modeled entirely as address-free sector traffic (one sector per
    /// scalar touch), so every bound is the buffer footprint by
    /// construction. No shared memory, no cross-warp communication.
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
        // The degenerate code path: each warp owns one row but only lane 0
        // does any work — the row's entire nnz x N element grid is walked
        // serially with scalar loads (value, index, and B element re-fetched
        // every step), so SIMT amortization disappears entirely. Combined
        // with the tiny grid this starves the device and produces the
        // paper's multi-hundred-x worst cases.
        if !ctx.recording() {
            return; // cost-only kernel: nothing to do on replays
        }
        for w in 0..2usize {
            let row = block.x as usize * 2 + w;
            if row >= self.a.rows() {
                continue;
            }
            let nnz = self.a.row_len(row) as u64;
            let steps = nnz * self.n as u64;
            // Value + index + B, every step; scalar accesses: one sector
            // per touch.
            ctx.ld_sectors(BUF_A_VALUES, steps, steps);
            ctx.ld_sectors(BUF_A_INDICES, steps, steps);
            ctx.ld_sectors(BUF_B, steps, steps);
            ctx.fma(steps, steps);
            ctx.misc(3 * steps);
            ctx.st_sectors(BUF_C, self.n as u64, self.n as u64);
        }
    }
}

/// Mixed-precision cuSPARSE SpMM profile: picks the good path on friendly
/// shapes and the pathological fallback otherwise.
pub fn cusparse_spmm_half_profile<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>, n: usize) -> LaunchStats {
    // The inconsistency is shape-triggered and rare: most problems take the
    // normal path; N values that are not 8-aligned (or are tiny) fall off
    // the fast path entirely.
    if n.is_multiple_of(8) && n >= 32 {
        cusparse_spmm_profile::<T>(gpu, a, n)
    } else {
        gpu.profile(&CusparseSpmmHalfFallbackKernel::new(a, n))
    }
}

/// cuSPARSE's `cusparseConstrainedGeMM` (the SDDMM baseline): computes the
/// masked outputs with one warp per mask row, scalar accesses, and a
/// **non-transposed** right-hand operand — the benchmark harness adds the
/// explicit transpose cost.
pub struct ConstrainedGemmKernel<'a, T: Scalar> {
    lhs: Option<&'a Matrix<T>>,
    /// K x N dense operand (already transposed by the caller!).
    rhs_t: Option<&'a Matrix<T>>,
    mask: &'a CsrMatrix<T>,
    out_values: Option<OutputSlice<'a, T>>,
    k: usize,
}

impl<'a, T: Scalar> ConstrainedGemmKernel<'a, T> {
    /// `rhs_t` is the K x `mask.cols()` operand (pre-transposed).
    pub fn new(
        lhs: &'a Matrix<T>,
        rhs_t: &'a Matrix<T>,
        mask: &'a CsrMatrix<T>,
        out_values: &'a mut [T],
    ) -> Self {
        assert_eq!(lhs.cols(), rhs_t.rows(), "inner dims must agree");
        assert_eq!(rhs_t.cols(), mask.cols());
        assert_eq!(lhs.rows(), mask.rows());
        assert_eq!(out_values.len(), mask.nnz());
        let k = lhs.cols();
        Self {
            lhs: Some(lhs),
            rhs_t: Some(rhs_t),
            mask,
            out_values: Some(OutputSlice::new(out_values)),
            k,
        }
    }

    pub fn for_profile(mask: &'a CsrMatrix<T>, k: usize) -> Self {
        Self {
            lhs: None,
            rhs_t: None,
            mask,
            out_values: None,
            k,
        }
    }
}

impl<T: Scalar> Kernel for ConstrainedGemmKernel<'_, T> {
    fn name(&self) -> String {
        format!("cusparse_constrained_gemm_{}", T::TAG)
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy(
            (self.mask.cols() as u32).div_ceil(64),
            (self.mask.rows() as u32).div_ceil(64),
        )
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(256)
    }

    fn shared_mem_bytes(&self) -> u32 {
        2 * (64 + 64) * 32 * T::BYTES
    }

    fn regs_per_thread(&self) -> u32 {
        72
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let eb = T::BYTES as u64;
        vec![
            BufferSpec {
                id: BUF_A_VALUES,
                name: "lhs",
                footprint_bytes: (self.mask.rows() * self.k) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_B,
                name: "rhs_t",
                footprint_bytes: (self.k * self.mask.cols()) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_A_OFFSETS,
                name: "mask_offsets",
                footprint_bytes: (self.mask.rows() as u64 + 1) * 4,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_A_INDICES,
                name: "mask_indices",
                footprint_bytes: self.mask.nnz() as u64 * 4,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_C,
                name: "out_values",
                footprint_bytes: self.mask.nnz() as u64 * eb,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: the only addressed access is the epilogue's offsets load
    /// at `row0 * 4` for `tile_m` clamped entries, ending at or before
    /// `rows * 4`; everything else (dense tile stages, index gather, output
    /// scatter) is address-free sector traffic bounded by footprints. Each
    /// barrier epoch stages one A-tile + one B-tile — half the declared
    /// double-width shared memory — and warps communicate through it, so
    /// barrier structure stays with the dynamic epoch tracker.
    fn static_facts(&self) -> StaticFacts {
        let eb = T::BYTES as u64;
        let nnz = self.mask.nnz() as u64;
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_A_VALUES.0,
                    bound: AccessBound::Extent((self.mask.rows() * self.k) as u64 * eb),
                },
                BufferBound {
                    slot: BUF_B.0,
                    bound: AccessBound::Extent((self.k * self.mask.cols()) as u64 * eb),
                },
                BufferBound {
                    slot: BUF_A_OFFSETS.0,
                    bound: AccessBound::Extent((self.mask.rows() as u64 + 1) * 4),
                },
                BufferBound {
                    slot: BUF_A_INDICES.0,
                    bound: AccessBound::Extent(nnz * 4),
                },
                BufferBound {
                    slot: BUF_C.0,
                    bound: AccessBound::Extent(nnz * eb),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::BarrierSeparated,
            stage: StageBound::Bytes((64 + 64) * 32 * eb),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        // "Constrained GEMM" is exactly that: a tiled dense GEMM whose
        // epilogue stores only the masked outputs. The kernel therefore pays
        // for the FULL dense product — (1 - sparsity)^-1 more math than an
        // SDDMM needs — which is why it only trails Sputnik by ~2x rather
        // than by orders of magnitude: its inner loop is dense-efficient.
        let eb = T::BYTES as u64;
        let k = self.k;
        const TILE_M: usize = 64;
        const TILE_N: usize = 64;
        const TILE_K: usize = 32;
        let row0 = block.y as usize * TILE_M;
        let col0 = block.x as usize * TILE_N;
        let tile_m = TILE_M.min(self.mask.rows() - row0);
        let tile_n = TILE_N.min(self.mask.cols() - col0);
        let warps = 8u64; // 256 threads

        // Cost-only work (including the masked-count scan) is skipped
        // entirely on cache-hit replays.
        if ctx.recording() {
            let k_iters = k.div_ceil(TILE_K);
            for _ in 0..k_iters {
                let stage_elems = ((TILE_M + TILE_N) * TILE_K) as u64;
                let stage_instrs = stage_elems.div_ceil(256 * 4);
                ctx.smem_store(stage_instrs * warps, stage_elems * eb, SmemScope::Block);
                let a_sectors = (TILE_M * TILE_K) as u64 * eb / 32;
                ctx.ld_sectors(BUF_A_VALUES, stage_instrs * warps, a_sectors);
                ctx.ld_sectors(BUF_B, 0, (TILE_K * TILE_N) as u64 * eb / 32);
                ctx.bar_sync();
                ctx.bar_sync(); // no double buffering: a second barrier per strip
                                // The inner product is compiler-generated C++, not hand-tuned
                                // assembly: every FMA drags ~3 integer/address/predicate
                                // instructions with it (cuBLAS amortizes these to near zero with
                                // register blocking), plus scalar shared-memory fragment reads.
                let fmas = (TILE_M * TILE_N * TILE_K) as u64;
                ctx.fma(fmas / 32, 0);
                ctx.misc(3 * (fmas / 32));
                ctx.smem_load(fmas / 32 / 2, fmas / 2, SmemScope::Block);
                ctx.misc(8 * warps);
            }
            // Only the masked outputs are useful work.
            let mut masked = 0u64;
            for r in row0..row0 + tile_m {
                let (cols, _) = self.mask.row(r);
                masked += cols
                    .iter()
                    .filter(|&&c| (c as usize) >= col0 && (c as usize) < col0 + tile_n)
                    .count() as u64;
            }
            ctx.fma(0, masked * k as u64);
            // Epilogue: gather the mask topology for the tile, scatter outputs.
            ctx.ld_global(BUF_A_OFFSETS, row0 as u64 * 4, tile_m as u32, 1, 4);
            ctx.ld_sectors(BUF_A_INDICES, masked.div_ceil(32), masked.div_ceil(8));
            ctx.st_sectors(BUF_C, masked.div_ceil(32).max(1), masked.div_ceil(8).max(1));
            ctx.misc(6 * warps);
        }

        if let (true, Some(lhs), Some(rhs_t), Some(out)) = (
            ctx.functional(),
            self.lhs,
            self.rhs_t,
            self.out_values.as_ref(),
        ) {
            for r in row0..row0 + tile_m {
                let row_start = self.mask.row_offsets()[r] as usize;
                let (cols, _) = self.mask.row(r);
                for (t, &j) in cols.iter().enumerate() {
                    let j = j as usize;
                    if j < col0 || j >= col0 + tile_n {
                        continue;
                    }
                    let mut acc = 0.0f32;
                    for l in 0..k {
                        // rhs_t is walked down a column: strided, so scalar
                        // FMA (matching the other kernels' numerics).
                        acc = lhs
                            .get(r, l)
                            .to_f32()
                            .mul_add(rhs_t.get(l, j).to_f32(), acc);
                    }
                    out.write(row_start + t, T::from_f32(acc));
                }
            }
        }
    }
}

/// Functional cuSPARSE-style SDDMM **including the explicit transpose** of
/// the right-hand operand (the paper times it too). `rhs` is N x K row-major
/// (same convention as [`sputnik::sddmm()`]); returns the masked output and
/// the total stats (transpose + constrained GEMM).
pub fn cusparse_sddmm(
    gpu: &Gpu,
    lhs: &Matrix<f32>,
    rhs: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
) -> (CsrMatrix<f32>, LaunchStats) {
    let (rhs_t, t_stats) = crate::cublas::transpose(gpu, rhs);
    let mut values = vec![0.0f32; mask.nnz()];
    let mut stats = {
        let kernel = ConstrainedGemmKernel::new(lhs, &rhs_t, mask, &mut values);
        gpu.launch(&kernel)
    };
    stats.time_us += t_stats.time_us;
    stats.dram_bytes += t_stats.dram_bytes;
    stats.instructions += t_stats.instructions;
    (mask.with_values(values), stats)
}

/// Profile cuSPARSE-style SDDMM (transpose + constrained GEMM).
pub fn cusparse_sddmm_profile<T: Scalar>(gpu: &Gpu, mask: &CsrMatrix<T>, k: usize) -> LaunchStats {
    let t_stats = crate::cublas::transpose_profile(gpu, mask.cols(), k);
    let mut stats = gpu.profile(&ConstrainedGemmKernel::<T>::for_profile(mask, k));
    stats.time_us += t_stats.time_us;
    stats.dram_bytes += t_stats.dram_bytes;
    stats.instructions += t_stats.instructions;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::{gen, Layout};

    #[test]
    fn spmm_matches_reference() {
        let a = gen::uniform(48, 64, 0.75, 51);
        let b_rm = Matrix::<f32>::random(64, 40, 52);
        let b = b_rm.to_layout(Layout::ColMajor);
        let gpu = Gpu::v100();
        let (c, stats) = cusparse_spmm(&gpu, &a, &b);
        let expect = sputnik::reference::spmm(&a, &b_rm);
        for r in 0..48 {
            for col in 0..40 {
                assert!(
                    (c.get(r, col) - expect.get(r, col)).abs() < 1e-3,
                    "({r},{col})"
                );
            }
        }
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn spmm_is_slower_than_sputnik_on_dl_problems() {
        let a = gen::uniform(2048, 2048, 0.8, 53);
        let gpu = Gpu::v100();
        let ours = sputnik::spmm_profile::<f32>(
            &gpu,
            &a,
            2048,
            128,
            sputnik::SpmmConfig::heuristic::<f32>(128),
        );
        let theirs = cusparse_spmm_profile::<f32>(&gpu, &a, 128);
        let speedup = theirs.time_us / ours.time_us;
        assert!(
            speedup > 1.5,
            "Sputnik should clearly beat cuSPARSE on DL shapes, got {speedup:.2}x"
        );
    }

    #[test]
    fn half_fallback_is_catastrophic_on_odd_shapes() {
        use sparse::Half;
        let a = gen::uniform(1024, 1024, 0.9, 54).convert::<Half>();
        let gpu = Gpu::v100();
        let good = cusparse_spmm_half_profile(&gpu, &a, 128);
        let bad = cusparse_spmm_half_profile(&gpu, &a, 49);
        // Normalize by work: time per output column.
        let good_per_col = good.time_us / 128.0;
        let bad_per_col = bad.time_us / 49.0;
        assert!(
            bad_per_col > 10.0 * good_per_col,
            "fallback should be pathological: {bad_per_col:.2} vs {good_per_col:.2} us/col"
        );
    }

    #[test]
    fn sddmm_matches_reference() {
        let lhs = Matrix::<f32>::random(32, 48, 55);
        let rhs = Matrix::<f32>::random(40, 48, 56);
        let mask = gen::uniform(32, 40, 0.7, 57);
        let gpu = Gpu::v100();
        let (d, stats) = cusparse_sddmm(&gpu, &lhs, &rhs, &mask);
        let expect = sputnik::reference::sddmm(&lhs, &rhs, &mask);
        for (got, want) in d.values().iter().zip(expect.values()) {
            assert!((got - want).abs() < 1e-3);
        }
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn sddmm_pays_for_the_transpose() {
        let mask = gen::uniform(512, 512, 0.8, 58);
        let gpu = Gpu::v100();
        let with_t = cusparse_sddmm_profile::<f32>(&gpu, &mask, 256);
        let without_t = gpu.profile(&ConstrainedGemmKernel::<f32>::for_profile(&mask, 256));
        assert!(with_t.time_us > without_t.time_us);
    }
}
