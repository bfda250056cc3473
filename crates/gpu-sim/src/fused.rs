//! Fused sparse-attention kernel: SDDMM → scaled softmax → SpMM in one
//! launch.
//!
//! The three-launch attention pipeline writes the raw scores to global
//! memory, streams them back through the softmax (three read passes plus a
//! write), and streams the probabilities back in again for the context
//! SpMM — all over the same CSR topology, all `Streaming` traffic the cache
//! model sends straight to DRAM. This kernel keeps one mask row resident in
//! shared memory across the three stages: one warp owns one row, stages the
//! scores in the block's smem arena, normalizes them in place, and
//! accumulates the context tile without the intermediate matrices ever
//! existing in global memory. The mask indices are read once instead of
//! twice, and two launch overheads disappear.
//!
//! **Bit-exactness contract.** Each stage calls the same helper as the
//! kernel it replaces, so the fused and unfused pipelines share one body
//! per decision: `lanes::fma_dot_strip` for the scores strip by strip (as
//! `SddmmKernel`), `lanes::softmax_in_place` for the softmax row with its
//! ±inf limits and denominator clamp (as `SparseSoftmaxKernel`), and
//! `lanes::fma_accumulate` over the V row tiles with the SpMM's
//! zero-probability skip. Intermediate values round-trip through `T`
//! exactly where the unfused pipeline stores and reloads them. The
//! `fusion_equivalence` suite pins bitwise equality against the
//! three-launch reference.
//!
//! On an oversized topology the static auditor refutes `SharedCapacity`:
//! `Gpu::run` rejects the launch before simulation, and `sputnik::plan`
//! runs the three-launch chain instead.

use crate::lanes::Transposed;
use crate::util::OutputSlice;
use crate::{
    lanes, memory, AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext,
    BufferBound, BufferId, BufferSpec, Dim3, Kernel, StageBound, StaticFacts,
};
use sparse::{CsrMatrix, Matrix, Scalar};
use std::sync::OnceLock;

pub const BUF_Q: BufferId = BufferId(0);
pub const BUF_K: BufferId = BufferId(1);
pub const BUF_V: BufferId = BufferId(2);
pub const BUF_MASK_OFFSETS: BufferId = BufferId(3);
pub const BUF_MASK_INDICES: BufferId = BufferId(4);
pub const BUF_OUT: BufferId = BufferId(5);

/// Per-row shared-memory staging footprint: the scores row (f32, normalized
/// in place) plus one index strip. This is the quantity the fusion legality
/// rule compares against the device's smem capacity.
pub fn staging_bytes(max_row_len: usize, sddmm_tile: usize) -> u64 {
    max_row_len as u64 * 4 + sddmm_tile as u64 * 4
}

/// The fused `SDDMM → scale → softmax → SpMM` attention kernel. One warp
/// per block, one mask row per warp; `grid.x` spans the rows.
pub struct SddmmSoftmaxSpmmKernel<'a, T: Scalar> {
    q: Option<&'a Matrix<T>>,
    kmat: Option<&'a Matrix<T>>,
    v: Option<&'a Matrix<T>>,
    mask: &'a CsrMatrix<T>,
    out: Option<OutputSlice<'a, T>>,
    /// Logit scale applied inside the softmax stage (attention's
    /// `1/sqrt(d)`), metered as an explicit multiply pass.
    scale: f32,
    /// Inner (dot-product) dimension shared by Q and K rows.
    k: usize,
    /// Context width (= V columns).
    n: usize,
    /// Score-strip width: the SDDMM stage processes the row's nonzeros in
    /// strips of this many outputs (mirrors `SddmmConfig::block_items_x`).
    sddmm_tile: usize,
    /// Context-tile width (mirrors `SpmmConfig::block_items_x`).
    spmm_tile: usize,
    /// Plan-shape tag baked into the launch name (and therefore the
    /// [`crate::LaunchKey`]): different stage tiles must never alias a
    /// cached launch.
    plan_tag: String,
    max_row_len: usize,
    /// K transposed for the score stage's run path, decided and built by
    /// the first functional block, as `SddmmKernel` does for its RHS.
    k_t: OnceLock<Option<Transposed>>,
}

impl<'a, T: Scalar> SddmmSoftmaxSpmmKernel<'a, T> {
    /// Functional construction. `q` is `rows x k`, `kmat` is `cols x k`
    /// (the SDDMM's native transposed-RHS form), `v` is `cols x n`, `out`
    /// is the dense `rows x n` context buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        q: &'a Matrix<T>,
        kmat: &'a Matrix<T>,
        v: &'a Matrix<T>,
        mask: &'a CsrMatrix<T>,
        out: &'a mut [T],
        scale: f32,
        sddmm_tile: usize,
        spmm_tile: usize,
        plan_tag: String,
    ) -> Self {
        assert_eq!(q.rows(), mask.rows(), "Q rows must match mask rows");
        assert_eq!(kmat.rows(), mask.cols(), "K rows must match mask cols");
        assert_eq!(q.cols(), kmat.cols(), "Q/K inner dimensions must agree");
        assert_eq!(v.rows(), mask.cols(), "V rows must match mask cols");
        assert_eq!(out.len(), mask.rows() * v.cols(), "out must be rows x n");
        Self {
            q: Some(q),
            kmat: Some(kmat),
            v: Some(v),
            out: Some(OutputSlice::new(out)),
            ..Self::for_profile(
                mask,
                q.cols(),
                v.cols(),
                scale,
                sddmm_tile,
                spmm_tile,
                plan_tag,
            )
        }
    }

    /// Cost-only construction from the mask topology and problem shape.
    pub fn for_profile(
        mask: &'a CsrMatrix<T>,
        k: usize,
        n: usize,
        scale: f32,
        sddmm_tile: usize,
        spmm_tile: usize,
        plan_tag: String,
    ) -> Self {
        Self {
            q: None,
            kmat: None,
            v: None,
            mask,
            out: None,
            scale,
            k,
            n,
            sddmm_tile: sddmm_tile.max(1),
            spmm_tile: spmm_tile.max(1),
            plan_tag,
            max_row_len: mask.max_row_len(),
            k_t: OnceLock::new(),
        }
    }

    /// Q/K vector load width: widest 16-byte vector that divides `k`.
    fn vw(&self) -> u32 {
        let mut vw = 16 / T::BYTES;
        while vw > 1 && !self.k.is_multiple_of(vw as usize) {
            vw /= 2;
        }
        vw
    }

    /// Whether the functional launch built a transposed K for the score
    /// stage's runs (false before the first functional block).
    pub fn transposed_k(&self) -> bool {
        self.k_t.get().is_some_and(Option::is_some)
    }
}

impl<T: Scalar> Kernel for SddmmSoftmaxSpmmKernel<'_, T> {
    fn name(&self) -> String {
        format!("fused_sddmm_softmax_spmm_{}_{}", T::TAG, self.plan_tag)
    }

    fn grid(&self) -> Dim3 {
        Dim3::x(self.mask.rows() as u32)
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }

    fn shared_mem_bytes(&self) -> u32 {
        staging_bytes(self.max_row_len, self.sddmm_tile).min(u32::MAX as u64) as u32
    }

    fn regs_per_thread(&self) -> u32 {
        40 + (self.k as u32 / 32).min(64)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let eb = T::BYTES as u64;
        vec![
            BufferSpec {
                id: BUF_Q,
                name: "q",
                footprint_bytes: (self.mask.rows() * self.k) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_K,
                name: "k",
                footprint_bytes: (self.mask.cols() * self.k) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_V,
                name: "v",
                footprint_bytes: (self.mask.cols() * self.n) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_MASK_OFFSETS,
                name: "mask_offsets",
                footprint_bytes: (self.mask.rows() as u64 + 1) * 4,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_MASK_INDICES,
                name: "mask_indices",
                footprint_bytes: self.mask.nnz() as u64 * 4,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_OUT,
                name: "context",
                footprint_bytes: (self.mask.rows() * self.n) as u64 * eb,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    /// Static safety facts.
    ///
    /// Soundness: warp `row` reads Q row `row` (`(row + 1) * k * eb <=
    /// rows * k * eb`), gathers K/V rows `j < mask.cols()` (extents
    /// `cols * k * eb` / `cols * n * eb` by CSR index validity), reads an
    /// 8-byte offset pair ending at `(rows + 1) * 4` and its index slice
    /// ending at `nnz * 4`, and writes context row `row` only. All traced
    /// global accesses are scalar. The block is a single warp, so the
    /// cross-stage staging is consumed warp-synchronously with no barriers,
    /// and the per-epoch staging equals the declared shared memory:
    /// [`staging_bytes`] (scores row + one index strip).
    fn static_facts(&self) -> StaticFacts {
        let eb = T::BYTES as u64;
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_Q.0,
                    bound: AccessBound::Extent((self.mask.rows() * self.k) as u64 * eb),
                },
                BufferBound {
                    slot: BUF_K.0,
                    bound: AccessBound::Extent((self.mask.cols() * self.k) as u64 * eb),
                },
                BufferBound {
                    slot: BUF_V.0,
                    bound: AccessBound::Extent((self.mask.cols() * self.n) as u64 * eb),
                },
                BufferBound {
                    slot: BUF_MASK_OFFSETS.0,
                    bound: AccessBound::Extent((self.mask.rows() as u64 + 1) * 4),
                },
                BufferBound {
                    slot: BUF_MASK_INDICES.0,
                    bound: AccessBound::Extent(self.mask.nnz() as u64 * 4),
                },
                BufferBound {
                    slot: BUF_OUT.0,
                    bound: AccessBound::Extent((self.mask.rows() * self.n) as u64 * eb),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(staging_bytes(self.max_row_len, self.sddmm_tile)),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let eb = T::BYTES;
        let row = block.x as usize;
        ctx.misc(5);
        ctx.ld_global(BUF_MASK_OFFSETS, row as u64 * 4, 2, 1, 4);
        let row_start = self.mask.row_offsets()[row] as usize;
        let len = self.mask.row_len(row);
        if len == 0 {
            return;
        }
        let k = self.k;
        let n = self.n;

        // ---- Cost -----------------------------------------------------
        if ctx.recording() {
            let vw = self.vw();
            // Q row: loaded once per block, reused across every score.
            let q_instrs = memory::vector_instr_count(k as u64, 32, vw);
            let q_bytes = k as u64 * eb as u64;
            let sectors = ctx.sectors(BUF_Q, row as u64 * q_bytes, q_bytes, 1, 1);
            ctx.ld_sectors(BUF_Q, q_instrs, sectors);

            // SDDMM stage, per strip: stage the index strip, then one
            // warp-cooperative dot per output (the whole warp reduces each
            // score, as in the unfused kernel's threads_per_output_tile=32
            // form).
            let k_bytes = k as u64 * eb as u64;
            let mut strip_start = 0usize;
            while strip_start < len {
                let s = self.sddmm_tile.min(len - strip_start);
                ctx.ld_global(
                    BUF_MASK_INDICES,
                    (row_start + strip_start) as u64 * 4,
                    s as u32,
                    1,
                    4,
                );
                ctx.st_shared(s as u32, 1, 4, 1);
                ctx.misc(3);
                let groups = s as u64;
                ctx.fma(groups * (k as u64).div_ceil(32).max(1), (s * k) as u64);
                ctx.shfl(groups * 5);
                ctx.fp(groups * 5, 0);
                ctx.misc(groups * 3);
                let sectors = if k_bytes.is_multiple_of(memory::SECTOR_BYTES) {
                    s as u64 * memory::sectors_contiguous(0, k_bytes)
                } else {
                    let (cols, _) = self.mask.row(row);
                    cols[strip_start..strip_start + s]
                        .iter()
                        .map(|&j| ctx.sectors(BUF_K, j as u64 * k_bytes, k_bytes, 1, 1))
                        .sum()
                };
                let k_instrs = groups * (k as u64).div_ceil(32 * vw as u64).max(1);
                ctx.ld_sectors(BUF_K, k_instrs, sectors);
                // Scores land in shared memory instead of DRAM.
                ctx.st_shared(s as u32, 1, 4, 1);
                strip_start += s;
            }

            // Softmax stage over the staged row: the three passes of the
            // standalone kernel, reading shared memory instead of global,
            // plus the metered logit-scale multiply.
            let elem_instrs = (len as u64).div_ceil(32);
            ctx.smem_load(3 * elem_instrs, 3 * len as u64 * 4, crate::SmemScope::Warp);
            ctx.fp(elem_instrs, len as u64); // logit scale
            ctx.fp(3 * elem_instrs, 3 * len as u64);
            ctx.shfl(10);
            ctx.fp(10, 10);
            // Probabilities overwrite the staged scores in place.
            ctx.smem_store(elem_instrs, len as u64 * 4, crate::SmemScope::Warp);

            // SpMM stage: gather V rows, accumulate the context row tile by
            // tile; probabilities are re-read from shared memory per tile.
            let n_bytes = n as u64 * eb as u64;
            let mut n_off = 0usize;
            while n_off < n {
                let tile_w = self.spmm_tile.min(n - n_off);
                ctx.smem_load(elem_instrs, len as u64 * 4, crate::SmemScope::Warp);
                let per_col = memory::vector_instr_count(tile_w as u64, 32, vw);
                let tile_bytes = tile_w as u64 * eb as u64;
                let sectors = if n_bytes.is_multiple_of(memory::SECTOR_BYTES) {
                    len as u64 * memory::sectors_contiguous(n_off as u64 * eb as u64, tile_bytes)
                } else {
                    let (cols, _) = self.mask.row(row);
                    cols.iter()
                        .map(|&j| {
                            let addr = (j as u64 * n as u64 + n_off as u64) * eb as u64;
                            ctx.sectors(BUF_V, addr, tile_bytes, 1, 1)
                        })
                        .sum()
                };
                ctx.ld_sectors(BUF_V, len as u64 * per_col, sectors);
                ctx.fma(
                    len as u64 * (tile_w as u64).div_ceil(32),
                    (len * tile_w) as u64,
                );
                ctx.misc(len as u64);
                let out_addr = (row * n + n_off) as u64 * eb as u64;
                let sectors = ctx.sectors(BUF_OUT, out_addr, tile_bytes, 1, 1);
                let store_instrs = memory::vector_instr_count(tile_w as u64, 32, vw);
                ctx.st_sectors(BUF_OUT, store_instrs, sectors);
                n_off += tile_w;
            }
        }

        // ---- Functional ------------------------------------------------
        if let (true, Some(q), Some(kmat), Some(v), Some(out)) = (
            ctx.functional(),
            self.q,
            self.kmat,
            self.v,
            self.out.as_ref(),
        ) {
            let (cols, _) = self.mask.row(row);
            let lrow = &q.as_slice()[row * k..(row + 1) * k];
            let kd = kmat.as_slice();
            let rrow = |j: u32| &kd[j as usize * k..(j as usize + 1) * k];

            // Stage 1 — scores, strip by strip through the unfused SDDMM's
            // strip loop and its transposed-K decision. Each score
            // round-trips through T, as the unfused kernel's global
            // store/reload does.
            let kt = self
                .k_t
                .get_or_init(|| Transposed::for_sddmm(self.mask, self.sddmm_tile, kmat));
            let mut staged = ctx.scratch_f32(len);
            for (strip, strip_cols) in cols.chunks(self.sddmm_tile).enumerate() {
                let base = strip * self.sddmm_tile;
                lanes::fma_dot_strip(
                    lrow,
                    strip_cols,
                    rrow,
                    kt.as_ref(),
                    |x| x.to_f32(),
                    |first, dots| {
                        for (s, &d) in staged[base + first..].iter_mut().zip(dots.iter()) {
                            *s = T::from_f32(d).to_f32();
                        }
                    },
                );
            }

            // Stage 2 — the unfused softmax row with the logit scale,
            // normalizing the staged row in place. Probabilities round-trip
            // through T, as the unfused softmax's store + SpMM reload does.
            for s in staged.iter_mut() {
                *s *= self.scale;
            }
            lanes::softmax_in_place(&mut staged);
            for s in staged.iter_mut() {
                *s = T::from_f32(*s).to_f32();
            }

            // Stage 3 — the SpmmKernel accumulate body over V row tiles:
            // zero probabilities skipped, left-to-right fma chain per
            // output element.
            let vd = v.as_slice();
            let mut n_off = 0usize;
            while n_off < n {
                let tile_w = self.spmm_tile.min(n - n_off);
                let mut acc = ctx.scratch_f32(tile_w);
                let terms = cols
                    .iter()
                    .zip(staged.iter())
                    .filter(|&(_, &val)| val != 0.0)
                    .map(|(&j, &val)| (val, &vd[j as usize * n + n_off..][..tile_w]));
                lanes::fma_accumulate(&mut acc, terms, |x| x.to_f32());
                out.write_run(row * n + n_off, acc.iter().map(|&a| T::from_f32(a)));
                n_off += tile_w;
            }
        }
    }

    fn poison_output(&self, seed: u64) {
        if let Some(out) = self.out.as_ref() {
            out.poison(seed, T::from_f32(f32::NAN));
        }
    }
}
