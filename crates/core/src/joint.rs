//! Joint activation x weight sparsity: the warp-uniform pattern-skipping
//! SpMM variant.
//!
//! The Sputnik SpMM exploits sparsity in the *weight* operand A only; the
//! dense activation operand B is loaded unconditionally, one strip per
//! stored nonzero. When activations are themselves sparse (ReLU networks
//! zero most of B at inference time), every strip whose source tile of B is
//! all-zero contributes nothing — but the dense kernel still pays its load
//! and FMA.
//!
//! [`JointSpmmKernel`] consults a precomputed [`sparse::PatternLut`] — a
//! bitmap of 8x32 (fine) or 64x32 (coarse) zero blocks of B — and skips the
//! B-load + FMA for any stored nonzero whose target tile the LUT marks
//! dead. The skip is *warp-uniform*: the kernel's column strip is
//! constrained to lie inside one 32-column LUT tile (`block_items_x` must
//! divide 32), so every lane of a subwarp probes the same LUT bit and the
//! whole warp takes the same branch — one amortized probe per strip, no
//! divergence penalty. This is the classic joint-sparsity design: pattern
//! lookups cost one bit test where the saved work is a global load plus
//! `vector_width` FMAs per lane.
//!
//! ## Bit identity, not approximate equality
//!
//! Skipping is sound at the *bit* level, not merely numerically:
//!
//! * A tile is marked dead only if every element's f32 bits are exactly
//!   `+0.0` ([`sparse::PatternLut::build`]; `-0.0` keeps a tile live).
//! * The dense kernel's accumulators start at `+0.0` and an fma chain
//!   seeded at `+0.0` can never produce `-0.0` (a round-to-nearest sum is
//!   `-0.0` only when both addends are `-0.0`), so for a dead tile every
//!   skipped `fma(val, +0.0, acc)` would have returned `acc` bit-for-bit.
//! * Surviving elements replay the *exact* per-element `mul_add` order of
//!   [`crate::spmm::SpmmKernel`]: both kernels resolve their iteration
//!   space through the shared [`crate::spmm::resolve_subwarp`].
//!
//! Therefore `joint_spmm` output is bit-identical to `spmm` output on the
//! same operands — asserted per-element in the tests and in the `jointwall`
//! bench gate, never within a tolerance.
//!
//! ## Cost model
//!
//! The A-side of the kernel is unchanged: values and indices are staged to
//! shared memory in full (the indices must be *read* to be probed), and the
//! warp-divergence model is the dense kernel's. Per strip the model adds
//! one gather of the distinct LUT words touched plus one bit-test
//! instruction per position, and then scales the inner-loop body — B-load
//! instructions, index-scaling, FMAs — by the strip's *union-live* count:
//! a position is executed iff at least one subwarp in the warp is live
//! there (dead positions are skipped warp-uniformly; a position where any
//! subwarp survives costs the whole warp an instruction slot, which is
//! exactly the lockstep-execution price the warp-uniform design accepts).
//! Per-subwarp B traffic and useful FLOPs count only that subwarp's own
//! live positions — a predicated-off lane moves no sectors.

use crate::config::SpmmConfig;
use crate::error::SputnikError;
use crate::roma::{ROMA_MASK_INSTRS, ROMA_PRELUDE_INSTRS};
use crate::spmm::{
    dense_strip_sectors, effective_vw_a, gather_row_addrs, require_finite, resolve_subwarp,
    validate_spmm, SubwarpWork, BUF_A_INDICES, BUF_A_OFFSETS, BUF_A_VALUES, BUF_B, BUF_C,
    BUF_SWIZZLE, MAX_BLOCK_SUBWARPS,
};
use gpu_sim::trace::{self, Entry};
use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferId,
    BufferSpec, Dim3, Gpu, Kernel, LaunchRequest, LaunchStats, SmemScope, StageBound, StaticFacts,
    SyncUnsafeSlice, VectorClass,
};
use sparse::{CsrMatrix, Matrix, PatternLut, RowSwizzle, Scalar};

/// Buffer identity of the pattern LUT (the dense-kernel slots 0..=6 keep
/// their meanings).
pub const BUF_LUT: BufferId = BufferId(7);

/// The joint-sparsity SpMM kernel. Construct via [`JointSpmmKernel::try_new`]
/// (functional) or [`JointSpmmKernel::for_profile`] (cost model only), or
/// use the [`joint_spmm`] / [`joint_spmm_profile`] wrappers.
pub struct JointSpmmKernel<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    b: Option<&'a Matrix<T>>,
    out: Option<SyncUnsafeSlice<'a, T>>,
    swizzle: &'a RowSwizzle,
    lut: &'a PatternLut,
    cfg: SpmmConfig,
    n: usize,
}

/// Liveness of one strip of the main loop, for one warp.
struct StripLiveness {
    /// Strip length (`block_items_k`, or the residue).
    len: usize,
    /// Positions where at least one in-range subwarp is LUT-live — the
    /// warp-uniform execution count for the strip's inner body.
    union_live: u64,
    /// Distinct LUT word byte-addresses probed this strip (sorted).
    probe_addrs: Vec<u64>,
}

/// Per-warp liveness summary: what the skip model adds to one warp's cost
/// trace.
struct WarpLiveness {
    strips: Vec<StripLiveness>,
    /// Per subwarp: (live positions in `[0, total)`,
    /// live positions in `[prefix, total)` = useful nonzeros).
    per_sub: Vec<(u64, u64)>,
}

impl<'a, T: Scalar> JointSpmmKernel<'a, T> {
    /// Validation shared by the functional and profile constructors, layered
    /// on the dense kernel's [`validate_spmm`].
    fn validate_joint(
        a: &CsrMatrix<T>,
        swizzle: &RowSwizzle,
        lut: &PatternLut,
        cfg: &SpmmConfig,
        n: usize,
    ) -> Result<(), SputnikError> {
        validate_spmm(a, swizzle, cfg)?;
        if cfg.fused_bias_relu {
            return Err(SputnikError::IllegalConfig {
                reason: "joint-sparsity SpMM does not support the fused bias+ReLU epilogue".into(),
            });
        }
        if !32u32.is_multiple_of(cfg.block_items_x) {
            return Err(SputnikError::IllegalConfig {
                reason: format!(
                    "warp-uniform probing requires block_items_x ({}) to divide the LUT's \
                     32-column tile: every output strip must lie inside one pattern tile",
                    cfg.block_items_x
                ),
            });
        }
        if lut.rows() != a.cols() || lut.cols() != n {
            return Err(SputnikError::ShapeMismatch {
                expected: format!("pattern LUT over a {}x{} dense operand", a.cols(), n),
                found: format!("{}x{}", lut.rows(), lut.cols()),
                context: "joint spmm pattern LUT",
            });
        }
        Ok(())
    }

    /// Fallible functional constructor.
    pub fn try_new(
        a: &'a CsrMatrix<T>,
        b: &'a Matrix<T>,
        out: &'a mut Matrix<T>,
        swizzle: &'a RowSwizzle,
        lut: &'a PatternLut,
        cfg: SpmmConfig,
    ) -> Result<Self, SputnikError> {
        if a.cols() != b.rows() {
            return Err(SputnikError::ShapeMismatch {
                expected: format!("B with {} rows", a.cols()),
                found: format!("{}x{}", b.rows(), b.cols()),
                context: "joint spmm inner dimension",
            });
        }
        if out.rows() != a.rows() || out.cols() != b.cols() {
            return Err(SputnikError::ShapeMismatch {
                expected: format!("{}x{}", a.rows(), b.cols()),
                found: format!("{}x{}", out.rows(), out.cols()),
                context: "joint spmm output",
            });
        }
        if b.layout() != sparse::Layout::RowMajor {
            return Err(SputnikError::IllegalConfig {
                reason: "Sputnik uses row-major dense operands".into(),
            });
        }
        let n = b.cols();
        Self::validate_joint(a, swizzle, lut, &cfg, n)?;
        let out = SyncUnsafeSlice::new(out.as_mut_slice());
        Ok(Self {
            a,
            b: Some(b),
            out: Some(out),
            swizzle,
            lut,
            cfg,
            n,
        })
    }

    /// A cost-model-only kernel: needs only the sparse topology and the LUT,
    /// so it can profile problems whose B/C would not fit host memory.
    pub fn for_profile(
        a: &'a CsrMatrix<T>,
        n: usize,
        swizzle: &'a RowSwizzle,
        lut: &'a PatternLut,
        cfg: SpmmConfig,
    ) -> Result<Self, SputnikError> {
        Self::validate_joint(a, swizzle, lut, &cfg, n)?;
        Ok(Self {
            a,
            b: None,
            out: None,
            swizzle,
            lut,
            cfg,
            n,
        })
    }

    fn vw_a(&self) -> u32 {
        effective_vw_a(&self.cfg)
    }

    fn b_load_sectors(&self, n_off: usize, tile_w: usize) -> u64 {
        dense_strip_sectors(T::BYTES, self.n, n_off, tile_w)
    }

    fn subwarp_work(&self, m_idx: usize) -> SubwarpWork {
        resolve_subwarp(self.a, self.swizzle, &self.cfg, m_idx)
    }

    /// Liveness of every strip and subwarp of one warp, for the column strip
    /// at `n_off`. Liveness is a function of the *stored indices* and the
    /// LUT only — never of values — so ROMA prefix positions (whose values
    /// the functional path masks to zero) probe like any other position and
    /// the result is identical between functional and profile kernels.
    fn warp_liveness(&self, subs: &[SubwarpWork], n_off: usize) -> WarpLiveness {
        let bik = self.cfg.block_items_k as usize;
        let nt = self.lut.ntile_of(n_off);
        let indices = self.a.col_indices();
        let max_total = subs.iter().map(|s| s.total).max().unwrap_or(0);
        let mut per_sub = vec![(0u64, 0u64); subs.len()];
        let mut strips = Vec::with_capacity(max_total.div_ceil(bik.max(1)));
        let mut base = 0usize;
        while base < max_total {
            let len = bik.min(max_total - base);
            let mut union_live = 0u64;
            let mut probe_addrs = Vec::new();
            for p in base..base + len {
                let mut any_live = false;
                for (s, sub) in subs.iter().enumerate() {
                    if sub.row == usize::MAX || p >= sub.total {
                        continue;
                    }
                    let col = indices[sub.aligned_offset + p] as usize;
                    let kt = self.lut.ktile_of(col);
                    probe_addrs.push(self.lut.word_addr(kt, nt));
                    if self.lut.is_live(kt, nt) {
                        any_live = true;
                        per_sub[s].0 += 1;
                        if p >= sub.prefix {
                            per_sub[s].1 += 1;
                        }
                    }
                }
                union_live += u64::from(any_live);
            }
            probe_addrs.sort_unstable();
            probe_addrs.dedup();
            strips.push(StripLiveness {
                len,
                union_live,
                probe_addrs,
            });
            base += len;
        }
        WarpLiveness { strips, per_sub }
    }

    /// Functional computation for one subwarp: the dense kernel's numerics
    /// and control flow, minus the elements whose B tile the LUT proves
    /// dead. Skipped fmas multiply by exact `+0.0`, so the surviving chain
    /// is bit-identical to the dense kernel's (see the module docs).
    fn compute_subwarp(&self, sub: &SubwarpWork, n_off: usize, tile_w: usize) {
        let mut acc = gpu_sim::arena::ScratchF32::take(tile_w);
        let values = self.a.values();
        let indices = self.a.col_indices();
        let (Some(b), Some(out)) = (self.b, self.out.as_ref()) else {
            return;
        };
        let b = b.as_slice();
        // ROMA masking skips the prefix (it belongs to the previous row); a
        // dead tile is skipped because every fma it would run is
        // fma(val, +0.0, acc) == acc.
        let terms = (sub.prefix..sub.total).filter_map(|j| {
            let pos = sub.aligned_offset + j;
            let val = values[pos].to_f32();
            let col = indices[pos] as usize;
            (val != 0.0 && self.lut.live_for(col, n_off))
                .then(|| (val, &b[col * self.n + n_off..][..tile_w]))
        });
        gpu_sim::lanes::fma_accumulate(&mut acc, terms, |bv| bv.to_f32());
        for (x, &v) in acc.iter().enumerate() {
            unsafe { out.write(sub.row * self.n + n_off + x, T::from_f32(v)) };
        }
    }

    /// Cost of one warp's execution: the dense kernel's trace with the
    /// inner-loop body scaled by each strip's union-live count, plus the
    /// per-strip LUT probe.
    fn cost_warp(&self, ctx: &mut BlockContext, subs: &[SubwarpWork], n_off: usize, tile_w: usize) {
        let cfg = &self.cfg;
        let bik = cfg.block_items_k as usize;
        let threads_x = cfg.threads_x();
        let vw = cfg.vector_width;
        let vw_a = self.vw_a();
        let eb = T::BYTES;
        let ib = cfg.index_width.bytes();

        // ---- Prelude (identical to the dense kernel) ----------------------
        ctx.misc(6);
        if cfg.row_swizzle {
            let live = subs.len().min(self.a.rows()) as u32;
            if live > 0 {
                ctx.ld_global(BUF_SWIZZLE, 0, live, 1, 4);
            }
        }
        let mut offset_addrs = [0u64; MAX_BLOCK_SUBWARPS];
        let n_offset_addrs = gather_row_addrs(subs, 4, &mut offset_addrs);
        if n_offset_addrs > 0 {
            ctx.ld_global_gather(BUF_A_OFFSETS, &offset_addrs[..n_offset_addrs], 8);
        }
        ctx.misc(2);
        if cfg.roma && vw > 1 {
            ctx.misc(ROMA_PRELUDE_INSTRS);
        }

        // ---- Warp divergence stall (identical: skipping is warp-uniform,
        // so it changes which positions execute, never which lanes) --------
        const DIVERGENCE_STALL_CYCLES_PER_SLOT: u64 = 14;
        let max_total = subs.iter().map(|s| s.total).max().unwrap_or(0);
        if subs.len() > 1 {
            let wasted: u64 = subs
                .iter()
                .filter(|s| s.row != usize::MAX)
                .map(|s| (max_total - s.total) as u64)
                .sum();
            ctx.cost.stall_cycles += wasted * DIVERGENCE_STALL_CYCLES_PER_SLOT / subs.len() as u64;
        }

        // ---- Main loop ----------------------------------------------------
        let lv = self.warp_liveness(subs, n_off);
        let smem_broadcast_loads = 2 * (bik as u64).div_ceil(4);
        for (si, strip) in lv.strips.iter().enumerate() {
            if strip.len == bik {
                // A staging: full strip of values + indices, unconditionally
                // (the indices must be staged to be probed).
                let a_load_instrs =
                    gpu_sim::memory::vector_instr_count(bik as u64, threads_x, vw_a);
                for _ in 0..a_load_instrs {
                    ctx.cost.ld_global_instrs += 2;
                    ctx.smem_store(2, 0, SmemScope::Warp);
                }
                ctx.cost.shared_bytes += bik as u64 * (eb + ib) as u64;
                if cfg.index_prescale {
                    ctx.misc((bik as u64).div_ceil(threads_x as u64));
                }
                // Broadcast readback is also full-strip: probing consumes
                // every staged index even when the element is then skipped.
                for _ in 0..smem_broadcast_loads {
                    ctx.ld_shared(1, 4, eb.max(ib), 1);
                }
                // The warp-uniform probe: gather the strip's distinct LUT
                // words (32 lanes per gather instruction), one bit-test +
                // skip predicate per position.
                for lanes in strip.probe_addrs.chunks(32) {
                    ctx.ld_global_gather(BUF_LUT, lanes, 8);
                }
                ctx.misc(strip.len as u64);
                // Inner body only for union-live positions.
                ctx.cost.ld_global_instrs += strip.union_live;
                if !cfg.index_prescale {
                    ctx.misc(strip.union_live);
                }
                ctx.cost.fma_instrs += strip.union_live * vw as u64;
                ctx.misc(4);
                if si == 0 && cfg.roma && vw > 1 {
                    ctx.misc(1);
                    ctx.smem_store(2, 0, SmemScope::Warp);
                    let _ = ROMA_MASK_INSTRS;
                }
            } else {
                // ---- Residue strip ---------------------------------------
                let residue = strip.len;
                for lanes in strip.probe_addrs.chunks(32) {
                    ctx.ld_global_gather(BUF_LUT, lanes, 8);
                }
                ctx.misc(residue as u64);
                if cfg.residue_unroll {
                    // The unrolled path works in 4-wide chunks, so surviving
                    // work rounds up to a multiple of 4.
                    ctx.smem_store(2, 0, SmemScope::Warp);
                    let rounded = strip.union_live.div_ceil(4) * 4;
                    let a_instrs =
                        gpu_sim::memory::vector_instr_count(residue as u64, threads_x, vw_a);
                    ctx.cost.ld_global_instrs += 2 * a_instrs;
                    ctx.smem_store(2 * a_instrs, 0, SmemScope::Warp);
                    ctx.cost.shared_bytes += residue as u64 * (eb + ib) as u64;
                    for _ in 0..(2 * (residue as u64).div_ceil(4)) {
                        ctx.ld_shared(1, 4, eb.max(ib), 1);
                    }
                    ctx.cost.ld_global_instrs += rounded;
                    ctx.cost.fma_instrs += rounded * vw as u64;
                    if cfg.index_prescale {
                        ctx.misc((residue as u64).div_ceil(threads_x as u64));
                    } else {
                        ctx.misc(rounded);
                    }
                    ctx.misc(4);
                } else {
                    let a_instrs =
                        gpu_sim::memory::vector_instr_count(residue as u64, threads_x, 1);
                    ctx.cost.ld_global_instrs += 2 * a_instrs;
                    ctx.smem_store(2 * a_instrs, 0, SmemScope::Warp);
                    ctx.cost.shared_bytes += residue as u64 * (eb + ib) as u64;
                    for _ in 0..(2 * residue as u64) {
                        ctx.ld_shared(1, 1, eb.max(ib), 1);
                    }
                    ctx.cost.ld_global_instrs += strip.union_live;
                    ctx.cost.fma_instrs += strip.union_live * vw as u64;
                    ctx.misc(5 * residue as u64);
                    ctx.cost.stall_cycles += 4 * residue as u64;
                }
            }
        }

        // ---- Per-subwarp memory traffic ----------------------------------
        let b_sectors_per_load = self.b_load_sectors(n_off, tile_w);
        for (s, sub) in subs.iter().enumerate() {
            if sub.row == usize::MAX || sub.total == 0 {
                continue;
            }
            // A values + indices: the full strip is always staged.
            ctx.ld_global_trace(
                BUF_A_VALUES,
                sub.aligned_offset as u64 * eb as u64,
                sub.total as u64 * eb as u64,
            );
            ctx.ld_global_trace(
                BUF_A_INDICES,
                sub.aligned_offset as u64 * ib as u64,
                sub.total as u64 * ib as u64,
            );
            // B strips: only this subwarp's live positions move sectors — a
            // predicated-off lane issues no memory transaction.
            let (live, live_nnz) = lv.per_sub[s];
            ctx.cost.gmem[BUF_B.0 as usize].ld_sectors += live * b_sectors_per_load;
            // Useful FLOPs: live true nonzeros only (skipped elements would
            // have contributed exact zeros).
            ctx.cost.flops += 2 * live_nnz * tile_w as u64;
        }

        // ---- Output store (identical: every tile is written) --------------
        let store_vw = if self.n.is_multiple_of(vw as usize)
            && n_off.is_multiple_of(vw as usize)
            && tile_w.is_multiple_of(vw as usize)
        {
            vw
        } else {
            1
        };
        let store_instrs = gpu_sim::memory::vector_instr_count(tile_w as u64, threads_x, store_vw);
        ctx.cost.st_global_instrs += store_instrs;
        for sub in subs {
            if sub.row == usize::MAX {
                continue;
            }
            let addr = (sub.row * self.n + n_off) as u64 * eb as u64;
            ctx.st_global_trace(BUF_C, addr, tile_w as u64 * eb as u64);
        }
    }
}

impl<T: Scalar> Kernel for JointSpmmKernel<'_, T> {
    fn name(&self) -> String {
        format!(
            "sputnik_joint_spmm_{}_{}_{}",
            T::TAG,
            self.cfg.tag(),
            self.lut.granularity().tag()
        )
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy(
            (self.n as u32).div_ceil(self.cfg.block_items_x),
            (self.a.rows() as u32).div_ceil(self.cfg.block_items_y),
        )
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::xy(self.cfg.threads_x(), self.cfg.block_items_y)
    }

    fn shared_mem_bytes(&self) -> u32 {
        // A staging is unchanged; LUT probes read through global/L1.
        self.cfg.smem_bytes::<T>()
    }

    fn regs_per_thread(&self) -> u32 {
        // One extra register pair holds the strip's probe word + predicate.
        self.cfg.regs_per_thread() + 2
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let nnz = self.a.nnz() as u64;
        let mut bufs = vec![
            BufferSpec {
                id: BUF_A_VALUES,
                name: "a_values",
                footprint_bytes: nnz * T::BYTES as u64,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_A_INDICES,
                name: "a_indices",
                footprint_bytes: nnz * self.cfg.index_width.bytes() as u64,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_A_OFFSETS,
                name: "a_row_offsets",
                footprint_bytes: (self.a.rows() as u64 + 1) * 4,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_B,
                name: "b",
                footprint_bytes: (self.a.cols() * self.n) as u64 * T::BYTES as u64,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_C,
                name: "c",
                footprint_bytes: (self.a.rows() * self.n) as u64 * T::BYTES as u64,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_LUT,
                name: "pattern_lut",
                footprint_bytes: self.lut.words().len() as u64 * 8,
                pattern: AccessPattern::SharedReuse,
            },
        ];
        if self.cfg.row_swizzle {
            bufs.push(BufferSpec {
                id: BUF_SWIZZLE,
                name: "row_indices",
                footprint_bytes: self.a.rows() as u64 * 4,
                pattern: AccessPattern::SharedReuse,
            });
        }
        bufs
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let cfg = &self.cfg;
        let n_off = block.x as usize * cfg.block_items_x as usize;
        let tile_w = cfg.block_items_x.min((self.n - n_off) as u32) as usize;
        if tile_w == 0 {
            return;
        }
        let biy = cfg.block_items_y as usize;
        let base_m = block.y as usize * biy;
        let mut subs_buf = [SubwarpWork::EMPTY; MAX_BLOCK_SUBWARPS];
        for (s, slot) in subs_buf.iter_mut().take(biy).enumerate() {
            *slot = self.subwarp_work(base_m + s);
        }
        let subs = &subs_buf[..biy];

        if ctx.recording() {
            let spw = cfg.subwarps_per_warp() as usize;
            for chunk in subs.chunks(spw) {
                self.cost_warp(ctx, chunk, n_off, tile_w);
            }
        }

        if ctx.functional() && self.b.is_some() {
            for sub in subs {
                if sub.row != usize::MAX {
                    self.compute_subwarp(sub, n_off, tile_w);
                }
            }
        }
    }

    /// Static facts: the dense kernel's bounds (minus bias) plus the LUT.
    ///
    /// LUT soundness: a probe reads the 8-byte word at
    /// `((kt * ntiles + nt) / 64) * 8`. Validated CSR indices give
    /// `kt < ktiles` and in-range strips give `nt < ntiles`, so the furthest
    /// byte is at most `words.len() * 8` — the exact allocation.
    fn static_facts(&self) -> StaticFacts {
        let cfg = &self.cfg;
        let eb = T::BYTES as u64;
        let ib = cfg.index_width.bytes() as u64;
        let rows = self.a.rows() as u64;
        let cols = self.a.cols() as u64;
        let nnz = self.a.nnz() as u64;
        let n = self.n as u64;

        let mut bounds = vec![
            BufferBound {
                slot: BUF_A_VALUES.0,
                bound: AccessBound::Extent(nnz * eb),
            },
            BufferBound {
                slot: BUF_A_INDICES.0,
                bound: AccessBound::Extent(nnz * ib),
            },
            BufferBound {
                slot: BUF_A_OFFSETS.0,
                bound: AccessBound::Extent((rows + 1) * 4),
            },
            BufferBound {
                slot: BUF_B.0,
                bound: AccessBound::Extent(cols * n * eb),
            },
            BufferBound {
                slot: BUF_C.0,
                bound: AccessBound::Extent(rows * n * eb),
            },
            BufferBound {
                slot: BUF_LUT.0,
                bound: AccessBound::Extent(self.lut.words().len() as u64 * 8),
            },
        ];
        if cfg.row_swizzle {
            let chunk = u64::from(cfg.subwarps_per_warp().min(cfg.block_items_y)).min(rows);
            bounds.push(BufferBound {
                slot: BUF_SWIZZLE.0,
                bound: AccessBound::Extent(chunk * 4),
            });
        }

        let vw = cfg.vector_width;
        let alignment = if vw <= 1 || self.vw_a() == 1 {
            AlignmentFacts::ScalarOnly
        } else if cfg.assume_aligned {
            let worst = (0..self.a.rows())
                .filter(|&r| self.a.row_len(r) > 0)
                .map(|r| (self.a.row_offsets()[r] as u64 % u64::from(vw)) * eb)
                .max()
                .unwrap_or(0);
            AlignmentFacts::Residues(vec![VectorClass {
                slot: BUF_A_VALUES.0,
                vec_width: vw,
                elem_bytes: T::BYTES,
                worst_residue: worst,
            }])
        } else {
            AlignmentFacts::Residues(vec![VectorClass {
                slot: BUF_A_VALUES.0,
                vec_width: vw,
                elem_bytes: T::BYTES,
                worst_residue: 0,
            }])
        };

        StaticFacts {
            bounds: Some(bounds),
            alignment,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(0),
        }
    }

    fn poison_output(&self, seed: u64) {
        if let Some(out) = self.out.as_ref() {
            let len = out.len();
            if len == 0 {
                return;
            }
            for i in 0..3u64 {
                let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 31;
                unsafe { out.write(z as usize % len, T::from_f32(f32::NAN)) };
            }
        }
    }
}

/// A joint-legal variant of the paper's kernel-selection heuristic: the
/// warp-uniform probe requires the column tile to divide the LUT's 32-column
/// tile, so the 64-wide tile the dense heuristic picks for large `n` is
/// clamped back to 32.
pub fn joint_heuristic<T: Scalar>(n: usize) -> SpmmConfig {
    let mut cfg = SpmmConfig::heuristic::<T>(n);
    if !32u32.is_multiple_of(cfg.block_items_x) {
        cfg.block_items_x = 32;
    }
    cfg
}

/// Bump the joint-skip observability counters for one launch: LUT probes
/// issued / probes that hit dead tiles: one counter-track sample each,
/// bumping the counter of the same name.
fn record_skip_metrics<T: Scalar>(a: &CsrMatrix<T>, lut: &PatternLut) {
    let (total, dead) = lut.probe_stats(a);
    for (name, value) in [("joint_tiles_total", total), ("joint_tiles_skipped", dead)] {
        let sample = Entry::Counter(value);
        trace::record("joint", "joint", sample, &[(name, value)], || name.into());
    }
}

/// Run joint-sparsity SpMM on the simulated GPU. Panics on invalid inputs
/// or device faults; [`try_joint_spmm`] is the recoverable equivalent.
pub fn joint_spmm<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    lut: &PatternLut,
    cfg: SpmmConfig,
) -> (Matrix<T>, LaunchStats) {
    try_joint_spmm(gpu, a, b, lut, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible joint SpMM: validates shapes, config legality (including the
/// warp-uniform tile constraint), and operand finiteness, gates the launch
/// on the static auditor, and launches functionally. Returns `(C, stats)`;
/// the output is bit-identical to [`crate::try_spmm`] on the same operands.
pub fn try_joint_spmm<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    lut: &PatternLut,
    cfg: SpmmConfig,
) -> Result<(Matrix<T>, LaunchStats), SputnikError> {
    require_finite("a", a.values())?;
    require_finite("b", b.as_slice())?;
    let swizzle = RowSwizzle::for_config(a, cfg.row_swizzle);
    let mut out = Matrix::<T>::zeros(a.rows(), b.cols());
    let stats = {
        let kernel = JointSpmmKernel::try_new(a, b, &mut out, &swizzle, lut, cfg)?;
        gpu.run(&LaunchRequest::functional(&kernel))?.stats
    };
    record_skip_metrics(a, lut);
    Ok((out, stats))
}

/// Profile joint SpMM (cost model only): needs the sparse topology and the
/// LUT, never the dense activations themselves.
pub fn joint_spmm_profile<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b_rows: usize,
    n: usize,
    lut: &PatternLut,
    cfg: SpmmConfig,
) -> LaunchStats {
    assert_eq!(a.cols(), b_rows, "inner dimensions must agree");
    let swizzle = RowSwizzle::for_config(a, cfg.row_swizzle);
    let kernel = JointSpmmKernel::<T>::for_profile(a, n, &swizzle, lut, cfg)
        .unwrap_or_else(|e| panic!("{e}"));
    let stats = gpu.profile(&kernel);
    record_skip_metrics(a, lut);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::{spmm, spmm_profile};
    use sparse::{gen, PatternGranularity};

    /// Build a weights/activations pair with real joint structure.
    fn problem(m: usize, k: usize, n: usize, zero_frac: f64) -> (CsrMatrix<f32>, Matrix<f32>) {
        let a = gen::uniform(m, k, 0.7, 11);
        let b = gen::activations(k, n, zero_frac, 23);
        (a, b)
    }

    fn assert_bit_identical(lhs: &Matrix<f32>, rhs: &Matrix<f32>, tag: &str) {
        assert_eq!(lhs.rows(), rhs.rows());
        assert_eq!(lhs.cols(), rhs.cols());
        for (i, (x, y)) in lhs.as_slice().iter().zip(rhs.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{tag}: element {i} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn bit_identical_to_dense_kernel_across_configs() {
        let (a, b) = problem(48, 96, 64, 0.7);
        let gpu = Gpu::v100();
        let base = joint_heuristic::<f32>(64);
        let variants = [
            base,
            SpmmConfig {
                row_swizzle: false,
                ..base
            },
            SpmmConfig {
                vector_width: 1,
                roma: false,
                ..base
            },
            SpmmConfig {
                residue_unroll: false,
                ..base
            },
            SpmmConfig {
                index_prescale: false,
                ..base
            },
            SpmmConfig {
                vector_width: 2,
                ..base
            },
            SpmmConfig {
                block_items_y: 1,
                ..base
            },
            SpmmConfig {
                block_items_y: 8,
                ..base
            },
            SpmmConfig {
                block_items_x: 8,
                vector_width: 2,
                ..base
            },
            SpmmConfig {
                block_items_x: 16,
                ..base
            },
        ];
        for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
            let lut = PatternLut::build(&b, g);
            assert!(
                lut.tiles_dead() > 0,
                "test needs real skips to be meaningful"
            );
            for cfg in variants {
                let (dense, _) = spmm(&gpu, &a, &b, cfg);
                let (joint, stats) = joint_spmm(&gpu, &a, &b, &lut, cfg);
                assert_bit_identical(&joint, &dense, &format!("{g:?} {}", cfg.tag()));
                assert!(stats.time_us > 0.0);
            }
        }
    }

    #[test]
    fn bit_identical_on_ragged_shapes_and_densities() {
        let gpu = Gpu::v100();
        for (m, k, n) in [(37usize, 53usize, 19usize), (13, 130, 37), (1, 64, 32)] {
            for zero_frac in [0.0, 0.5, 0.9] {
                let (a, b) = problem(m, k, n, zero_frac);
                let cfg = joint_heuristic::<f32>(n);
                for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
                    let lut = PatternLut::build(&b, g);
                    let (dense, _) = spmm(&gpu, &a, &b, cfg);
                    let (joint, _) = joint_spmm(&gpu, &a, &b, &lut, cfg);
                    assert_bit_identical(&joint, &dense, &format!("{m}x{k}x{n} zf={zero_frac}"));
                }
            }
        }
    }

    #[test]
    fn negative_zero_activations_stay_live_and_identical() {
        // -0.0 marks a tile live, so a B full of negative zeros must take
        // the unskipped path and still match the dense kernel exactly.
        let a = gen::uniform(16, 32, 0.5, 3);
        let b = Matrix::<f32>::from_fn(32, 32, |r, c| if (r + c) % 3 == 0 { -0.0 } else { 0.25 });
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        assert_eq!(lut.tiles_dead(), 0);
        let gpu = Gpu::v100();
        let cfg = SpmmConfig::default();
        let (dense, _) = spmm(&gpu, &a, &b, cfg);
        let (joint, _) = joint_spmm(&gpu, &a, &b, &lut, cfg);
        assert_bit_identical(&joint, &dense, "neg-zero");
    }

    #[test]
    fn profile_matches_launch_timing() {
        let (a, b) = problem(64, 128, 64, 0.75);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        let gpu = Gpu::v100();
        let cfg = SpmmConfig::default();
        let (_, launch) = joint_spmm(&gpu, &a, &b, &lut, cfg);
        let profile = joint_spmm_profile(&gpu, &a, 128, 64, &lut, cfg);
        assert_eq!(launch.instructions, profile.instructions);
        assert!((launch.time_us - profile.time_us).abs() < 1e-9);
    }

    #[test]
    fn static_audit_is_clean() {
        let (a, b) = problem(48, 96, 64, 0.7);
        let lut = PatternLut::build(&b, PatternGranularity::Coarse);
        let swizzle = RowSwizzle::by_length_desc(&a);
        let kernel =
            JointSpmmKernel::<f32>::for_profile(&a, 64, &swizzle, &lut, SpmmConfig::default())
                .expect("valid profile kernel");
        let audit = Gpu::v100().audit(&kernel);
        assert!(
            audit.refutation().is_none(),
            "joint kernel must pass the static auditor: {audit:?}"
        );
    }

    #[test]
    fn illegal_configurations_are_rejected() {
        let (a, b) = problem(32, 64, 128, 0.5);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        let swizzle = RowSwizzle::by_length_desc(&a);
        // 64-wide strips span two LUT n-tiles: the probe would diverge.
        let wide = SpmmConfig {
            block_items_x: 64,
            block_items_y: 2,
            ..SpmmConfig::default()
        };
        assert!(matches!(
            JointSpmmKernel::<f32>::for_profile(&a, 128, &swizzle, &lut, wide),
            Err(SputnikError::IllegalConfig { .. })
        ));
        // The fused epilogue is a dense-kernel feature.
        let fused = SpmmConfig {
            fused_bias_relu: true,
            ..SpmmConfig::default()
        };
        assert!(matches!(
            JointSpmmKernel::<f32>::for_profile(&a, 128, &swizzle, &lut, fused),
            Err(SputnikError::IllegalConfig { .. })
        ));
        // A LUT built over a differently-shaped operand.
        let other = PatternLut::build(&gen::activations(64, 32, 0.5, 1), PatternGranularity::Fine);
        assert!(matches!(
            JointSpmmKernel::<f32>::for_profile(&a, 128, &swizzle, &other, SpmmConfig::default()),
            Err(SputnikError::ShapeMismatch { .. })
        ));
        // joint_heuristic always yields a legal tile.
        assert!(32u32.is_multiple_of(joint_heuristic::<f32>(512).block_items_x));
    }

    #[test]
    fn skip_counters_reach_the_metrics_registry() {
        let (a, b) = problem(48, 96, 64, 0.8);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        let (probes, dead) = lut.probe_stats(&a);
        assert!(probes > 0 && dead > 0, "problem must exercise real skips");
        let before_total = gpu_sim::metrics::global().get("joint_tiles_total");
        let before_skip = gpu_sim::metrics::global().get("joint_tiles_skipped");
        let gpu = Gpu::v100();
        let _ = joint_spmm(&gpu, &a, &b, &lut, SpmmConfig::default());
        assert!(gpu_sim::metrics::global().get("joint_tiles_total") >= before_total + probes);
        assert!(gpu_sim::metrics::global().get("joint_tiles_skipped") >= before_skip + dead);
    }

    #[test]
    fn skipping_beats_the_dense_kernel_on_sparse_activations() {
        let a = gen::uniform(256, 512, 0.8, 5);
        let b = gen::activations(512, 128, 0.85, 7);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        assert!(lut.dead_fraction() > 0.5);
        let gpu = Gpu::v100();
        let cfg = joint_heuristic::<f32>(128);
        let dense = spmm_profile(&gpu, &a, 512, 128, cfg);
        let joint = joint_spmm_profile(&gpu, &a, 512, 128, &lut, cfg);
        assert!(
            joint.time_us < dense.time_us,
            "joint {} us should beat dense {} us at 85% activation sparsity",
            joint.time_us,
            dense.time_us
        );
    }

    #[test]
    fn all_dead_lut_degenerates_to_stores_of_zero() {
        // Fully-zero activations: the LUT proves every tile dead, the output
        // is exactly zero, and useful FLOPs are zero.
        let a = gen::uniform(32, 64, 0.6, 8);
        let b = Matrix::<f32>::zeros(64, 32);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        assert_eq!(lut.tiles_live(), 0);
        let gpu = Gpu::v100();
        let (c, stats) = joint_spmm(&gpu, &a, &b, &lut, SpmmConfig::default());
        assert!(c.as_slice().iter().all(|v| v.to_bits() == 0));
        assert_eq!(stats.flops, 0);
    }
}
