//! The Sputnik SDDMM kernel (Section VI of the paper).
//!
//! Computes `D = (A * B^T) ⊙ I[C]`: for every nonzero position (i, j) of the
//! sparse mask `C`, the dot product of row i of dense `A` with row j of
//! dense `B` (the transposed-RHS form that weight gradients and sparse
//! attention need).
//!
//! Decomposition differences from SpMM (Section VI-A): thread blocks map to
//! 1-D strips of *consecutive nonzeros* rather than output columns, the grid
//! is sized for the worst-case row and surplus blocks return early, and each
//! thread computes a slice of every dot product in its tile with a warp
//! shuffle reduction at the end — avoiding both uncoalesced accesses to the
//! transposed operand and a shared-memory transpose (which would steal L1
//! capacity on Volta, where L1 and shared memory are the same storage).
//!
//! The over-provisioned grid costs the simulator little: a profile launch
//! deduplicates blocks by cost key ([`SddmmKey`]), and the early-exit
//! blocks, about half of a corpus SDDMM's, collapse into at most two
//! groups (their one row-offset load spans one sector or two).
//!
//! The host engine's functional body may still compute a strip's runs of
//! consecutive columns from a transposed f32 copy of the RHS
//! (`gpu_sim::lanes::fma_dot_strip`), built once per launch when the mask's
//! runs pay for it. That is a detail of how the simulator produces the
//! outputs, bit-identical to the per-dot chains. The simulated kernel keeps
//! the §VI-A mapping above: it reads the row-major RHS, and its cost trace
//! is the same whether or not the host transposed.

use crate::config::SddmmConfig;
use crate::error::SputnikError;
use crate::spmm::require_finite;
use gpu_sim::lanes::{self, Transposed};
use gpu_sim::memory::{sectors_contiguous, SECTOR_BYTES};
use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferId,
    BufferSpec, CostKey, Dim3, Fingerprint, Gpu, Kernel, KeyedBlocks, LaunchCache, LaunchRequest,
    LaunchStats, OutputSlice, StageBound, StaticFacts,
};
use sparse::{CsrMatrix, Matrix, RowSwizzle, Scalar};
use std::sync::OnceLock;

pub const BUF_LHS: BufferId = BufferId(0);
pub const BUF_RHS: BufferId = BufferId(1);
pub const BUF_MASK_OFFSETS: BufferId = BufferId(2);
pub const BUF_MASK_INDICES: BufferId = BufferId(3);
pub const BUF_OUT: BufferId = BufferId(4);
pub const BUF_SWIZZLE: BufferId = BufferId(5);

/// An [`SddmmKernel`] block's cost key (see [`CostKey`]): the sector count
/// of its row-offset load and, for a working block, its strip. An
/// over-provisioned block has no strip, so the grid's surplus blocks
/// collapse into at most two keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SddmmKey {
    offsets: u64,
    strip: Option<StripKey>,
}

/// A working block's strip: its length `s`, which fixes every instruction
/// count, and the sector counts of its mask-index load, LHS row load, RHS
/// row loads and output store.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct StripKey {
    s: u64,
    indices: u64,
    lhs: u64,
    rhs: u64,
    out: u64,
}

/// The simulated SDDMM kernel. Construct functionally with
/// [`SddmmKernel::new`] or cost-only with [`SddmmKernel::for_profile`].
pub struct SddmmKernel<'a, T: Scalar> {
    lhs: Option<&'a Matrix<T>>,
    rhs: Option<&'a Matrix<T>>,
    mask: &'a CsrMatrix<T>,
    out_values: Option<OutputSlice<'a, T>>,
    swizzle: &'a RowSwizzle,
    cfg: SddmmConfig,
    /// Dot-product length (columns of both dense operands).
    k: usize,
    /// Strips per row in the over-provisioned grid.
    max_strips: u32,
    /// The RHS transposed for the run path, decided and built by the first
    /// functional block (`None` when the mask's long runs do not pay).
    rhs_t: OnceLock<Option<Transposed>>,
}

impl<'a, T: Scalar> SddmmKernel<'a, T> {
    pub fn new(
        lhs: &'a Matrix<T>,
        rhs: &'a Matrix<T>,
        mask: &'a CsrMatrix<T>,
        out_values: &'a mut [T],
        swizzle: &'a RowSwizzle,
        cfg: SddmmConfig,
    ) -> Self {
        Self::try_new(lhs, rhs, mask, out_values, swizzle, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: every shape/config violation becomes a
    /// [`SputnikError`] instead of a panic.
    pub fn try_new(
        lhs: &'a Matrix<T>,
        rhs: &'a Matrix<T>,
        mask: &'a CsrMatrix<T>,
        out_values: &'a mut [T],
        swizzle: &'a RowSwizzle,
        cfg: SddmmConfig,
    ) -> Result<Self, SputnikError> {
        if lhs.cols() != rhs.cols() {
            return Err(SputnikError::ShapeMismatch {
                expected: format!("RHS with {} columns (RHS is transposed)", lhs.cols()),
                found: format!("{}x{}", rhs.rows(), rhs.cols()),
                context: "sddmm dot-product length",
            });
        }
        if mask.rows() != lhs.rows() || mask.cols() != rhs.rows() {
            return Err(SputnikError::ShapeMismatch {
                expected: format!("{}x{} mask", lhs.rows(), rhs.rows()),
                found: format!("{}x{}", mask.rows(), mask.cols()),
                context: "sddmm mask",
            });
        }
        if out_values.len() != mask.nnz() {
            return Err(SputnikError::ShapeMismatch {
                expected: format!("{} output values (one per mask nonzero)", mask.nnz()),
                found: format!("{}", out_values.len()),
                context: "sddmm output",
            });
        }
        if swizzle.len() != mask.rows() {
            return Err(SputnikError::ShapeMismatch {
                expected: format!("swizzle over {} rows", mask.rows()),
                found: format!("{} entries", swizzle.len()),
                context: "sddmm row swizzle",
            });
        }
        cfg.validate()
            .map_err(|reason| SputnikError::IllegalConfig { reason })?;
        let k = lhs.cols();
        let max_strips = Self::strips_for(mask, &cfg);
        Ok(Self {
            lhs: Some(lhs),
            rhs: Some(rhs),
            mask,
            out_values: Some(OutputSlice::new(out_values)),
            swizzle,
            cfg,
            k,
            max_strips,
            rhs_t: OnceLock::new(),
        })
    }

    /// Cost-model-only kernel; dense operands are described by `k` alone.
    pub fn for_profile(
        mask: &'a CsrMatrix<T>,
        k: usize,
        swizzle: &'a RowSwizzle,
        cfg: SddmmConfig,
    ) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid SDDMM configuration: {e}"));
        assert_eq!(swizzle.len(), mask.rows());
        let max_strips = Self::strips_for(mask, &cfg);
        Self {
            lhs: None,
            rhs: None,
            mask,
            out_values: None,
            swizzle,
            cfg,
            k,
            max_strips,
            rhs_t: OnceLock::new(),
        }
    }

    /// "Because the number of nonzeros in each row cannot be inferred without
    /// inspecting the sparse matrix, we launch the maximum number of thread
    /// blocks that could be needed."
    fn strips_for(mask: &CsrMatrix<T>, cfg: &SddmmConfig) -> u32 {
        (mask.max_row_len() as u32)
            .div_ceil(cfg.block_items_x)
            .max(1)
    }

    /// Effective vector width for the dense operands: full width only when
    /// the inner dimension is divisible by it (Section VI-B).
    fn vw(&self) -> u32 {
        let mut vw = self.cfg.vector_width;
        while vw > 1 && !self.k.is_multiple_of(vw as usize) {
            vw /= 2;
        }
        vw
    }

    /// The block's mask row, the index of its strip's first nonzero, and
    /// the strip length (0 for an over-provisioned block).
    fn strip_of(&self, block: Dim3) -> (usize, usize, usize) {
        let row = if self.cfg.row_swizzle {
            self.swizzle.row(block.y as usize)
        } else {
            block.y as usize
        };
        let bix = self.cfg.block_items_x as usize;
        let strip_start = block.x as usize * bix;
        let s = bix.min(self.mask.row_len(row).saturating_sub(strip_start));
        (row, self.mask.row_offsets()[row] as usize + strip_start, s)
    }

    /// Whether the functional launch built a transposed RHS for its runs of
    /// consecutive columns (false before the first functional block).
    pub fn transposed_rhs(&self) -> bool {
        self.rhs_t.get().is_some_and(Option::is_some)
    }
}

impl<T: Scalar> SddmmKernel<'_, T> {
    /// The launch name for a configuration, without building a kernel —
    /// lets cache lookups skip swizzle construction on the hit path.
    pub(crate) fn launch_name(cfg: &SddmmConfig) -> String {
        format!("sputnik_sddmm_{}_{}", T::TAG, cfg.tag())
    }
}

impl<T: Scalar> Kernel for SddmmKernel<'_, T> {
    fn name(&self) -> String {
        Self::launch_name(&self.cfg)
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy(self.max_strips, self.mask.rows() as u32)
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }

    fn shared_mem_bytes(&self) -> u32 {
        // Strip column indices staged in shared memory.
        self.cfg.block_items_x * 4
    }

    fn regs_per_thread(&self) -> u32 {
        // The LHS slice lives in registers across the whole tile — the
        // design choice that trades registers for L1 capacity (Section VI-A).
        28 + (self.k as u32 / 32).min(64)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let eb = T::BYTES as u64;
        let mut bufs = vec![
            BufferSpec {
                id: BUF_LHS,
                name: "lhs",
                footprint_bytes: (self.mask.rows() * self.k) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_RHS,
                name: "rhs",
                footprint_bytes: (self.mask.cols() * self.k) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_MASK_OFFSETS,
                name: "mask_row_offsets",
                footprint_bytes: (self.mask.rows() as u64 + 1) * 4,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_MASK_INDICES,
                name: "mask_col_indices",
                footprint_bytes: self.mask.nnz() as u64 * 4,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_OUT,
                name: "out_values",
                footprint_bytes: self.mask.nnz() as u64 * eb,
                pattern: AccessPattern::Streaming,
            },
        ];
        if self.cfg.row_swizzle {
            bufs.push(BufferSpec {
                id: BUF_SWIZZLE,
                name: "row_indices",
                footprint_bytes: self.mask.rows() as u64 * 4,
                pattern: AccessPattern::SharedReuse,
            });
        }
        bufs
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: every simulated access is scalar (`vector_width` only
    /// shapes instruction counts, never `check_align`), so alignment is
    /// trivially proven. Per-buffer access ends:
    /// - LHS: one row per block at `row * k * eb` for `k * eb` bytes, and
    ///   `row < mask.rows()` — end `rows * k * eb`, the footprint.
    /// - RHS: row `j * k * eb` for `k * eb` bytes with `j < mask.cols()` by
    ///   the CSR column invariant — end `cols * k * eb`.
    /// - mask offsets: an 8-byte pair at `row * 4`, max end `(rows + 1) * 4`.
    /// - mask indices: strip index loads end at `nnz * 4`; with
    ///   `scale_by_mask` the value pass re-reads through the same buffer id
    ///   at element width, ending at `nnz * eb` — the bound covers both.
    /// - output: strip stores end at `nnz * eb`.
    /// - swizzle: one id per block at `block.y * 4`, end `rows * 4`.
    ///
    /// Blocks are a single warp, and the staged strip indices fit the
    /// declared `block_items_x * 4` bytes of shared memory exactly.
    fn static_facts(&self) -> StaticFacts {
        let eb = T::BYTES as u64;
        let k = self.k as u64;
        let rows = self.mask.rows() as u64;
        let cols = self.mask.cols() as u64;
        let nnz = self.mask.nnz() as u64;
        let mut bounds = vec![
            BufferBound {
                slot: BUF_LHS.0,
                bound: AccessBound::Extent(rows * k * eb),
            },
            BufferBound {
                slot: BUF_RHS.0,
                bound: AccessBound::Extent(cols * k * eb),
            },
            BufferBound {
                slot: BUF_MASK_OFFSETS.0,
                bound: AccessBound::Extent((rows + 1) * 4),
            },
            BufferBound {
                slot: BUF_MASK_INDICES.0,
                bound: AccessBound::Extent(nnz * 4.max(eb)),
            },
            BufferBound {
                slot: BUF_OUT.0,
                bound: AccessBound::Extent(nnz * eb),
            },
        ];
        if self.cfg.row_swizzle {
            bounds.push(BufferBound {
                slot: BUF_SWIZZLE.0,
                bound: AccessBound::Extent(rows * 4),
            });
        }
        StaticFacts {
            bounds: Some(bounds),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(u64::from(self.cfg.block_items_x) * 4),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        // Cost (skipped wholesale on cache-hit replays).
        if ctx.recording() {
            self.charge_block(block, ctx);
        }
        let (row, first, s) = self.strip_of(block);
        if s == 0 {
            return;
        }
        let cfg = &self.cfg;
        let k = self.k;
        let strip_cols = &self.mask.col_indices()[first..first + s];

        // ---- Functional ----------------------------------------------------
        if let (true, Some(lhs), Some(rhs), Some(out)) = (
            ctx.functional(),
            self.lhs,
            self.rhs,
            self.out_values.as_ref(),
        ) {
            let lrow = &lhs.as_slice()[row * k..(row + 1) * k];
            let mask_vals = &self.mask.values()[first..first + s];
            let r = rhs.as_slice();
            let rrow = |j: u32| &r[j as usize * k..(j as usize + 1) * k];
            let rt = self
                .rhs_t
                .get_or_init(|| Transposed::for_sddmm(self.mask, cfg.block_items_x as usize, rhs));
            let store = |i: usize, dots: &mut [f32]| {
                if cfg.scale_by_mask {
                    for (d, m) in dots.iter_mut().zip(&mask_vals[i..]) {
                        *d *= m.to_f32();
                    }
                }
                // Disjoint: each nonzero belongs to exactly one strip.
                out.write_run(first + i, dots.iter().map(|&d| T::from_f32(d)));
            };
            // Left-to-right FMA chain per dot, same order as the reference
            // product (horizontal reductions are never lane-split).
            lanes::fma_dot_strip(lrow, strip_cols, rrow, rt.as_ref(), |v| v.to_f32(), store);
        }
    }

    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
        Some(self)
    }

    fn poison_output(&self, seed: u64) {
        if let Some(out) = self.out_values.as_ref() {
            out.poison(seed, T::from_f32(f32::NAN));
        }
    }
}

impl<T: Scalar> CostKey for SddmmKernel<'_, T> {
    type Key = SddmmKey;

    fn cost_key(&self, block: Dim3, ctx: &mut BlockContext) -> SddmmKey {
        let (row, first, s) = self.strip_of(block);
        if self.cfg.row_swizzle {
            // One aligned 4-byte row id: always one sector.
            ctx.sectors(BUF_SWIZZLE, block.y as u64 * 4, 4, 1, 4);
        }
        let offsets = ctx.sectors(BUF_MASK_OFFSETS, row as u64 * 4, 8, 1, 4);
        let strip = (s > 0).then(|| {
            let eb = T::BYTES as u64;
            let (first, len, row_bytes) = (first as u64, s as u64, self.k as u64 * eb);
            if self.cfg.scale_by_mask {
                // The mask values sit at the output's byte offsets, so
                // their load moves the output store's sector count.
                ctx.sectors(BUF_MASK_INDICES, first * eb, len * eb, 1, T::BYTES);
            }
            // One contiguous RHS row per column: when a row is a whole
            // number of sectors every row lands in the same alignment
            // class, so one multiply replaces the per-row sum.
            let cols = &self.mask.col_indices()[first as usize..][..s];
            let rhs = if row_bytes.is_multiple_of(SECTOR_BYTES) {
                len * sectors_contiguous(0, row_bytes)
            } else {
                cols.iter()
                    .map(|&j| sectors_contiguous(u64::from(j) * row_bytes, row_bytes))
                    .sum()
            };
            StripKey {
                s: len,
                indices: ctx.sectors(BUF_MASK_INDICES, first * 4, len * 4, 1, 4),
                lhs: ctx.sectors(BUF_LHS, row as u64 * row_bytes, row_bytes, 1, 1),
                rhs,
                out: ctx.sectors(BUF_OUT, first * eb, len * eb, 1, T::BYTES),
            }
        });
        SddmmKey { offsets, strip }
    }

    fn charge(&self, key: &SddmmKey, ctx: &mut BlockContext) {
        let cfg = &self.cfg;
        if cfg.row_swizzle {
            ctx.ld_sectors(BUF_SWIZZLE, 1, 1);
        }
        // Prelude: row extent lookup + early-exit check.
        ctx.misc(5);
        ctx.ld_sectors(BUF_MASK_OFFSETS, 1, key.offsets);
        // Over-provisioned block: "each thread block calculates if it has
        // work to do and returns early if it is not needed."
        let Some(strip) = key.strip else {
            return;
        };
        let s = strip.s;
        let k = self.k as u64;
        let vw = self.vw();
        let tpo = cfg.threads_per_output_tile;

        // Scalar loads of the strip's column indices (sparse-matrix
        // accesses are scalar per Section VI-B).
        ctx.ld_sectors(BUF_MASK_INDICES, 1, strip.indices);
        ctx.st_shared(s as u32, 1, 4, 1);
        ctx.misc(3);

        // LHS row: loaded once per block, spread over all 32 lanes.
        let lhs_instrs = gpu_sim::memory::vector_instr_count(k, 32, vw);
        ctx.ld_sectors(BUF_LHS, lhs_instrs, strip.lhs);

        // Output groups: 32/tpo outputs processed concurrently per group.
        let outputs_per_group = u64::from((32 / tpo).max(1));
        let groups = s.div_ceil(outputs_per_group);
        // Each lane covers k / tpo elements of its output's dot product,
        // so a group costs k/tpo serialized steps across the warp.
        let per_group_loads = k.div_ceil(tpo as u64 * vw as u64).max(1);
        let per_group_fmas = k.div_ceil(tpo as u64).max(1);
        let reduce_steps = (tpo as f64).log2() as u64;
        ctx.cost.ld_global_instrs += groups * per_group_loads;
        ctx.cost.fma_instrs += groups * per_group_fmas;
        ctx.shfl(groups * reduce_steps);
        ctx.fp(groups * reduce_steps, 0);
        ctx.misc(groups * 3);

        // RHS rows: one contiguous K-element read per output.
        ctx.ld_sectors(BUF_RHS, 0, strip.rhs);
        ctx.cost.flops += 2 * s * k;

        // General SDDMM: scale each output by the mask's stored value —
        // "1 load and 1 multiply instruction prior to storing the output".
        if cfg.scale_by_mask {
            ctx.ld_sectors(BUF_MASK_INDICES, 1, strip.out);
            ctx.fp(s.div_ceil(32), s);
            ctx.cost.flops += s;
        }

        // Scalar stores of the strip's outputs.
        ctx.st_sectors(BUF_OUT, 1, strip.out);
    }
}

/// Run SDDMM on the simulated GPU: returns the sparse output (the mask's
/// topology with computed values) and launch statistics. Panics on invalid
/// inputs or device faults; [`try_sddmm`] is the recoverable equivalent.
pub fn sddmm<T: Scalar>(
    gpu: &Gpu,
    lhs: &Matrix<T>,
    rhs: &Matrix<T>,
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
) -> (CsrMatrix<T>, LaunchStats) {
    try_sddmm(gpu, lhs, rhs, mask, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible SDDMM: validates shapes, configuration legality, operand
/// finiteness, and device resource limits, then launches through
/// [`Gpu::run`] so static refutations and injected faults surface as errors.
pub fn try_sddmm<T: Scalar>(
    gpu: &Gpu,
    lhs: &Matrix<T>,
    rhs: &Matrix<T>,
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
) -> Result<(CsrMatrix<T>, LaunchStats), SputnikError> {
    require_finite("lhs", lhs.as_slice())?;
    require_finite("rhs", rhs.as_slice())?;
    require_finite("mask", mask.values())?;
    let swizzle = RowSwizzle::for_config(mask, cfg.row_swizzle);
    let mut values = vec![T::zero(); mask.nnz()];
    let stats = {
        let kernel = SddmmKernel::try_new(lhs, rhs, mask, &mut values, &swizzle, cfg)?;
        gpu.run(&LaunchRequest::functional(&kernel))?.stats
    };
    Ok((mask.with_values(values), stats))
}

/// Profile SDDMM (cost model only).
pub fn sddmm_profile<T: Scalar>(
    gpu: &Gpu,
    mask: &CsrMatrix<T>,
    k: usize,
    cfg: SddmmConfig,
) -> LaunchStats {
    profile_sddmm(gpu, None, mask, k, cfg).0
}

/// [`sddmm_profile`] through a cross-launch [`LaunchCache`]: returns the
/// stats plus whether they were served from the cache. The fingerprint mixes
/// the mask topology with `k`, the dot-product length the kernel name does
/// not encode.
pub fn sddmm_profile_cached<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    mask: &CsrMatrix<T>,
    k: usize,
    cfg: SddmmConfig,
) -> (LaunchStats, bool) {
    profile_sddmm(gpu, Some(cache), mask, k, cfg)
}

/// The profile launch behind [`sddmm_profile`] and
/// [`sddmm_profile_cached`]; a cache hit builds neither the swizzle nor the
/// kernel.
pub(crate) fn profile_sddmm<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    mask: &CsrMatrix<T>,
    k: usize,
    cfg: SddmmConfig,
) -> (LaunchStats, bool) {
    let build = |go: &mut dyn FnMut(&dyn Kernel)| {
        let swizzle = RowSwizzle::for_config(mask, cfg.row_swizzle);
        go(&SddmmKernel::<T>::for_profile(mask, k, &swizzle, cfg));
    };
    let req = LaunchRequest::profile_lazy(SddmmKernel::<T>::launch_name(&cfg), &build)
        .cached(cache.map(|c| (c, mask_fingerprint(mask, k))));
    let launched = gpu.run(&req).unwrap_or_else(|e| panic!("{e}"));
    (launched.stats, launched.hit)
}

/// The launch-cache fingerprint for an SDDMM-shaped problem: the mask
/// topology plus `k`, the dot-product length the kernel name does not
/// encode (shared with the batched path).
pub(crate) fn mask_fingerprint<T: Scalar>(mask: &CsrMatrix<T>, k: usize) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_u64(mask.fingerprint());
    fp.write_u64(k as u64);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sparse::gen;

    fn check(mask: &CsrMatrix<f32>, k: usize, cfg: SddmmConfig) {
        let lhs = Matrix::<f32>::random(mask.rows(), k, 31);
        let rhs = Matrix::<f32>::random(mask.cols(), k, 32);
        let gpu = Gpu::v100();
        let (d, stats) = sddmm(&gpu, &lhs, &rhs, mask, cfg);
        let expect = reference::sddmm(&lhs, &rhs, mask);
        assert!(d.same_pattern(&expect));
        for (got, want) in d.values().iter().zip(expect.values()) {
            assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn matches_reference_default() {
        let mask = gen::uniform(48, 40, 0.7, 33);
        check(&mask, 64, SddmmConfig::default());
    }

    #[test]
    fn matches_reference_config_sweep() {
        let mask = gen::uniform(32, 32, 0.6, 34);
        for cfg in [
            SddmmConfig {
                vector_width: 1,
                ..SddmmConfig::default()
            },
            SddmmConfig {
                vector_width: 2,
                ..SddmmConfig::default()
            },
            SddmmConfig {
                threads_per_output_tile: 8,
                ..SddmmConfig::default()
            },
            SddmmConfig {
                block_items_x: 16,
                ..SddmmConfig::default()
            },
            SddmmConfig {
                row_swizzle: true,
                ..SddmmConfig::default()
            },
        ] {
            check(&mask, 48, cfg);
        }
    }

    #[test]
    fn odd_inner_dimension_narrows_vectors() {
        // k = 37 is indivisible by any vector width: kernel must fall back
        // to scalar loads and still be correct.
        let mask = gen::uniform(16, 16, 0.5, 35);
        check(&mask, 37, SddmmConfig::default());
    }

    #[test]
    fn imbalanced_mask_rows() {
        let mask = gen::with_cov(64, 64, 0.8, 1.2, 36);
        check(&mask, 32, SddmmConfig::default());
    }

    #[test]
    fn empty_mask_is_fine() {
        let mask = CsrMatrix::<f32>::empty(8, 8);
        let lhs = Matrix::<f32>::random(8, 16, 1);
        let rhs = Matrix::<f32>::random(8, 16, 2);
        let gpu = Gpu::v100();
        let (d, _) = sddmm(&gpu, &lhs, &rhs, &mask, SddmmConfig::default());
        assert_eq!(d.nnz(), 0);
    }

    #[test]
    fn attention_shaped_mask() {
        let mask = gen::attention_mask(128, 16, 0.95, 37);
        check(&mask, 64, SddmmConfig::heuristic::<f32>(64));
    }

    #[test]
    fn mixed_precision_sddmm() {
        use sparse::Half;
        // The SDDMM kernel is generic over the element type; fp16 storage
        // with fp32 accumulation works the same way as the SpMM's mixed mode.
        let mask = gen::uniform(24, 24, 0.6, 44).convert::<Half>();
        let to_half = |m: &Matrix<f32>| {
            let mut h = Matrix::<Half>::zeros(m.rows(), m.cols());
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    h.set(r, c, Half::from_f32(m.get(r, c)));
                }
            }
            h
        };
        let lhs32 = Matrix::<f32>::random(24, 32, 45);
        let rhs32 = Matrix::<f32>::random(24, 32, 46);
        let (lhs, rhs) = (to_half(&lhs32), to_half(&rhs32));
        let gpu = Gpu::v100();
        let (d, stats) = sddmm(&gpu, &lhs, &rhs, &mask, SddmmConfig::heuristic::<Half>(32));
        let expect = crate::reference::sddmm(&lhs.to_f32(), &rhs.to_f32(), &mask.convert::<f32>());
        for (got, want) in d.values().iter().zip(expect.values()) {
            assert!((got.to_f32() - want).abs() <= want.abs() * 0.01 + 0.05);
        }
        // Halved element width must reduce DRAM traffic vs the f32 twin.
        let f32_stats = sddmm_profile::<f32>(
            &gpu,
            &mask.convert::<f32>(),
            32,
            SddmmConfig::heuristic::<f32>(32),
        );
        assert!(stats.dram_bytes < f32_stats.dram_bytes);
    }

    #[test]
    fn profile_matches_launch() {
        let mask = gen::uniform(64, 64, 0.75, 38);
        let lhs = Matrix::<f32>::random(64, 64, 1);
        let rhs = Matrix::<f32>::random(64, 64, 2);
        let gpu = Gpu::v100();
        let (_, launch) = sddmm(&gpu, &lhs, &rhs, &mask, SddmmConfig::default());
        let profile = sddmm_profile(&gpu, &mask, 64, SddmmConfig::default());
        assert_eq!(launch.instructions, profile.instructions);
        assert!((launch.time_us - profile.time_us).abs() < 1e-9);
    }

    #[test]
    fn scaled_sddmm_matches_general_reference() {
        // The general form D = (A B^T) ⊙ C from Section IV-B's footnote.
        let mask = gen::uniform(24, 24, 0.6, 40);
        let lhs = Matrix::<f32>::random(24, 32, 41);
        let rhs = Matrix::<f32>::random(24, 32, 42);
        let gpu = Gpu::v100();
        let cfg = SddmmConfig {
            scale_by_mask: true,
            ..SddmmConfig::default()
        };
        let (d, _) = sddmm(&gpu, &lhs, &rhs, &mask, cfg);
        let expect = crate::reference::sddmm_scaled(&lhs, &rhs, &mask);
        for (got, want) in d.values().iter().zip(expect.values()) {
            assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
        // The scaling costs extra instructions.
        let plain = sddmm_profile::<f32>(&gpu, &mask, 32, SddmmConfig::default());
        let scaled = sddmm_profile::<f32>(&gpu, &mask, 32, cfg);
        assert!(scaled.instructions > plain.instructions);
    }

    #[test]
    fn cached_profile_replays_identical_stats() {
        let mask = gen::uniform(48, 40, 0.7, 52);
        let gpu = Gpu::v100();
        let cache = gpu_sim::LaunchCache::new();
        let cfg = SddmmConfig::default();
        let (first, hit1) = sddmm_profile_cached(&gpu, &cache, &mask, 64, cfg);
        let (second, hit2) = sddmm_profile_cached(&gpu, &cache, &mask, 64, cfg);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        assert_eq!(first, sddmm_profile(&gpu, &mask, 64, cfg));
        let (_, hit3) = sddmm_profile_cached(&gpu, &cache, &mask, 32, cfg);
        assert!(!hit3, "different k must be a different key");
    }

    /// The kernel name is the cache key's only config component, so a
    /// config field that changes the cost trace must change the name: a
    /// swizzled or mask-scaled profile after a plain one on the same mask
    /// misses and gets its own stats.
    #[test]
    fn cached_profile_keys_every_config_field() {
        let mask = gen::with_cov(256, 256, 0.9, 1.0, 39);
        let gpu = Gpu::v100();
        let cache = gpu_sim::LaunchCache::new();
        let plain = SddmmConfig::default();
        let (base, _) = sddmm_profile_cached(&gpu, &cache, &mask, 64, plain);
        for cfg in [
            SddmmConfig {
                row_swizzle: true,
                ..plain
            },
            SddmmConfig {
                scale_by_mask: true,
                ..plain
            },
        ] {
            let (stats, hit) = sddmm_profile_cached(&gpu, &cache, &mask, 64, cfg);
            assert!(!hit, "{cfg:?} replayed the default config's entry");
            assert_eq!(stats, sddmm_profile(&gpu, &mask, 64, cfg));
            assert_ne!(stats, base, "{cfg:?} should cost differently");
        }
    }

    #[test]
    fn equal_dot_lengths_mean_balance_is_inherent() {
        // Section VI-C: "load balancing in SDDMM is less critical due to the
        // fact that all dot-products to be computed are of equal length."
        // Even a high-CoV mask keeps schedule balance reasonable.
        let mask = gen::with_cov(2048, 2048, 0.9, 1.0, 39);
        let gpu = Gpu::v100();
        let stats = sddmm_profile(&gpu, &mask, 256, SddmmConfig::default());
        assert!(stats.balance > 0.3, "balance {}", stats.balance);
    }
}
