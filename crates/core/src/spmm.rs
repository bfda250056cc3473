//! The Sputnik SpMM kernel (Sections V-A through V-D of the paper).
//!
//! Computes `A (sparse, m x k) * B (dense row-major, k x n) => C (m x n)`
//! with hierarchical 1-D tiling: each thread block owns `block_items_y` rows
//! of a `block_items_x`-column strip of the output; each row is processed by
//! an independent *subwarp* of `block_items_x / vector_width` threads. The
//! main loop consumes `block_items_k` nonzeros per iteration, staging the
//! sparse values and indices in shared memory (Figure 8's pseudo-code).
//!
//! The kernel executes *functionally* (producing real output values through
//! the same ROMA-masked, residue-padded control flow the CUDA kernel uses)
//! while recording a warp-level cost trace. Subwarps that share a warp
//! execute in lockstep for as many strips as the *longest* row among them
//! needs — the warp-divergence cost of unbalanced rows that the row swizzle's
//! bundling removes.
//!
//! The same body runs the joint activation x weight variant
//! ([`crate::joint`]): with a pattern LUT over B attached, every strip of
//! the main loop probes the LUT and skips the B loads and FMAs of positions
//! whose B tile is all zero. Without a LUT every position is live, which is
//! the paper's kernel.

use crate::config::SpmmConfig;
use crate::error::SputnikError;
use crate::roma::{MemoryAligner, ROMA_PRELUDE_INSTRS};
use gpu_sim::{
    key_hash, AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound,
    BufferId, BufferSpec, CostKey, Dim3, Fingerprint, Gpu, Kernel, KeyedBlocks, LaunchCache,
    LaunchRequest, LaunchStats, OutputSlice, SmemScope, StageBound, StaticFacts, VectorClass,
};
use sparse::{CsrMatrix, IndexWidth, Matrix, PatternLut, RowSwizzle, Scalar};
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Validate shapes/config shared by the functional and profile constructors
/// (and by the joint-sparsity kernel, which layers its own LUT checks on
/// top — see [`crate::joint`]).
pub(crate) fn validate_spmm<T: Scalar>(
    a: &CsrMatrix<T>,
    swizzle: &RowSwizzle,
    cfg: &SpmmConfig,
) -> Result<(), SputnikError> {
    cfg.validate(a.cols())
        .map_err(|reason| SputnikError::IllegalConfig { reason })?;
    if cfg.threads_x() > 32 {
        return Err(SputnikError::IllegalConfig {
            reason: format!(
                "a subwarp cannot span more than one warp: block_items_x {} / vector_width {} = {} threads",
                cfg.block_items_x,
                cfg.vector_width,
                cfg.threads_x()
            ),
        });
    }
    if swizzle.len() != a.rows() {
        return Err(SputnikError::ShapeMismatch {
            expected: format!("swizzle over {} rows", a.rows()),
            found: format!("{} entries", swizzle.len()),
            context: "spmm row swizzle",
        });
    }
    Ok(())
}

/// Reject operands containing NaN/Inf: results would be meaningless and the
/// dispatch layer's output-corruption guards could not distinguish poisoned
/// outputs from honest ones.
pub(crate) fn require_finite<T: Scalar>(
    operand: &'static str,
    values: &[T],
) -> Result<(), SputnikError> {
    match first_non_finite(values) {
        Some(index) => Err(SputnikError::NonFiniteOperand { operand, index }),
        None => Ok(()),
    }
}

/// Elements per branch-free step of [`first_non_finite`].
const FINITE_CHUNK: usize = 64;

/// The index of the first NaN or infinity in `values`. Each chunk is
/// tested without an early exit, so the test vectorizes; only a chunk that
/// holds a non-finite value is walked again to find its first one.
pub(crate) fn first_non_finite<T: Scalar>(values: &[T]) -> Option<usize> {
    for (c, chunk) in values.chunks(FINITE_CHUNK).enumerate() {
        if !chunk.iter().fold(true, |ok, v| ok & v.is_finite()) {
            let i = chunk.iter().position(|v| !v.is_finite());
            return i.map(|i| c * FINITE_CHUNK + i);
        }
    }
    None
}

/// Buffer identities for the cache model.
pub const BUF_A_VALUES: BufferId = BufferId(0);
pub const BUF_A_INDICES: BufferId = BufferId(1);
pub const BUF_A_OFFSETS: BufferId = BufferId(2);
pub const BUF_B: BufferId = BufferId(3);
pub const BUF_C: BufferId = BufferId(4);
pub const BUF_SWIZZLE: BufferId = BufferId(5);
pub const BUF_BIAS: BufferId = BufferId(6);
/// The pattern LUT, declared only by joint-sparsity launches.
pub const BUF_LUT: BufferId = BufferId(7);

/// The operand list of a CSR SpMM, `A (CSR, m x k) * B (k x n) => C`, in
/// slots [`BUF_A_VALUES`] through [`BUF_C`]: the values, the column indices
/// (`index_width` bytes each) and the row offsets of `A`, then `B` and `C`.
/// Every CSR-SpMM kernel declares this list; [`SpmmKernel`] appends its
/// optional slots to it.
pub fn csr_spmm_buffers<T: Scalar>(
    a: &CsrMatrix<T>,
    n: usize,
    index_width: IndexWidth,
) -> Vec<BufferSpec> {
    let nnz = a.nnz() as u64;
    let eb = T::BYTES as u64;
    vec![
        BufferSpec {
            id: BUF_A_VALUES,
            name: "a_values",
            footprint_bytes: nnz * eb,
            pattern: AccessPattern::Streaming,
        },
        BufferSpec {
            id: BUF_A_INDICES,
            name: "a_indices",
            footprint_bytes: nnz * index_width.bytes() as u64,
            pattern: AccessPattern::Streaming,
        },
        BufferSpec {
            id: BUF_A_OFFSETS,
            name: "a_row_offsets",
            footprint_bytes: (a.rows() as u64 + 1) * 4,
            pattern: AccessPattern::SharedReuse,
        },
        BufferSpec {
            id: BUF_B,
            name: "b",
            footprint_bytes: (a.cols() * n) as u64 * eb,
            pattern: AccessPattern::SharedReuse,
        },
        BufferSpec {
            id: BUF_C,
            name: "c",
            footprint_bytes: (a.rows() * n) as u64 * eb,
            pattern: AccessPattern::Streaming,
        },
    ]
}

/// The simulated SpMM kernel. Construct via [`SpmmKernel::new`] (functional)
/// or [`SpmmKernel::for_profile`] (cost model only — no dense allocations),
/// launch via [`gpu_sim::Gpu::launch`], or use the [`spmm`] wrapper.
///
/// Its output is a [`gpu_sim::OutputSlice`], so no other thread can reach a
/// kernel while one launch runs its blocks:
///
/// ```compile_fail,E0277
/// use sparse::{gen, Matrix, RowSwizzle};
/// use sputnik::{SpmmConfig, SpmmKernel};
///
/// let a = gen::uniform(32, 64, 0.7, 9);
/// let b = Matrix::<f32>::random(64, 32, 10);
/// let mut out = Matrix::<f32>::zeros(32, 32);
/// let swizzle = RowSwizzle::identity(32);
/// let kernel = SpmmKernel::new(&a, &b, &mut out, &swizzle, SpmmConfig::default());
/// std::thread::scope(|s| {
///     s.spawn(|| gpu_sim::Gpu::v100().launch(&kernel));
/// });
/// ```
pub struct SpmmKernel<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    /// Dense operand data; absent in profile-only kernels.
    b: Option<&'a Matrix<T>>,
    out: Option<OutputSlice<'a, T>>,
    swizzle: &'a RowSwizzle,
    bias: Option<&'a [f32]>,
    cfg: SpmmConfig,
    n: usize,
    /// Zero-tile bitmap of B; set only by [`crate::joint::JointSpmmKernel`].
    lut: Option<&'a PatternLut>,
    /// The hashes of each row strip's and each column tile's part of the
    /// cost key, filled by the first `block_signature` call of a launch.
    part_sigs: OnceLock<(Vec<u64>, Vec<u64>)>,
}

/// Per-subwarp state computed in the prelude.
#[derive(Clone, Copy)]
struct SubwarpWork {
    /// Output row this subwarp produces, or `usize::MAX` when out of range.
    row: usize,
    /// True row length.
    nnz: usize,
    /// ROMA-aligned start.
    aligned_offset: usize,
    /// Masked prefix length.
    prefix: usize,
    /// Values to process including the prefix.
    total: usize,
}

/// Upper bound on subwarps per block (`block_items_y <= 32`, enforced by
/// [`SpmmConfig::validate`]). Lets the prelude resolve descriptors into a
/// stack buffer instead of a per-block heap allocation.
const MAX_BLOCK_SUBWARPS: usize = 32;

impl SubwarpWork {
    /// An out-of-range subwarp; also fills unresolved stack-buffer slots.
    const EMPTY: SubwarpWork = SubwarpWork {
        row: usize::MAX,
        nnz: 0,
        aligned_offset: 0,
        prefix: 0,
        total: 0,
    };
}

/// One subwarp's part of a block's cost key: whether its row is in range,
/// its work sizes, the sector counts of its contiguous A value and index
/// reads, and `row * n * eb % 32`, the row's part of its C tile's alignment
/// class. CSR row offsets are `u32`, so every count fits one; the key is
/// rebuilt for every block a launch executes, so it is kept small.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct SubwarpKey {
    live: bool,
    c_class: u8,
    total: u32,
    nnz: u32,
    a_sectors: u32,
    i_sectors: u32,
}

/// Hashes the fields in pairs, three words per subwarp: every row strip of
/// a profile launch hashes its subwarps once.
impl Hash for SubwarpKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.total) | u64::from(self.nnz) << 32);
        state.write_u64(u64::from(self.a_sectors) | u64::from(self.i_sectors) << 32);
        state.write_u64(u64::from(self.c_class) | u64::from(self.live) << 8);
    }
}

/// One warp's prelude part of a block's cost key: the sector counts of its
/// swizzled row-id load and of its row-offset and bias gathers.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
struct WarpKey {
    swizzle: u32,
    offsets: u32,
    bias: u32,
}

/// The row strip's part of a block's cost key, the same for every column
/// tile: its `n_subs` subwarps, in order, so each warp's chunk of them is
/// fixed, and its `n_warps` warps.
#[derive(Clone, Copy, PartialEq, Eq)]
struct StripKey {
    n_subs: usize,
    n_warps: usize,
    subs: [SubwarpKey; MAX_BLOCK_SUBWARPS],
    warps: [WarpKey; MAX_BLOCK_SUBWARPS],
}

/// Hashes only the strip's own subwarps and warps: the slots past them
/// hold defaults in every block of a launch.
impl Hash for StripKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.subs[..self.n_subs].hash(state);
        self.warps[..self.n_warps].hash(state);
    }
}

/// The column tile's part of a block's cost key: its width, the sectors of
/// one B strip load, whether its store may use the full vector width, and
/// `n_off * eb % 32`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct TileKey {
    tile_w: u64,
    b_sectors: u64,
    store_vw: bool,
    n_off_class: u64,
}

/// An [`SpmmKernel`] block's cost key (see [`CostKey`]): its row strip's
/// part and its column tile's part. A C tile starts at `(row * n + n_off)
/// * eb`, so the strip's and the tile's classes fix its class mod 32.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpmmKey {
    tile: TileKey,
    strip: StripKey,
}

/// One block's LUT liveness (joint kernel only), computed from its column
/// indices. `strips` holds, per warp and main-loop strip in trace order,
/// the union-live position count and the LUT probe gathers' instruction
/// and sector counts; `subs` holds each subwarp's live B loads and live
/// useful nonzeros.
struct Liveness {
    strips: Vec<[u64; 3]>,
    subs: [(u64, u64); MAX_BLOCK_SUBWARPS],
}

impl<'a, T: Scalar> SpmmKernel<'a, T> {
    pub fn new(
        a: &'a CsrMatrix<T>,
        b: &'a Matrix<T>,
        out: &'a mut Matrix<T>,
        swizzle: &'a RowSwizzle,
        cfg: SpmmConfig,
    ) -> Self {
        Self::try_new(a, b, out, swizzle, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: every shape/config violation becomes a
    /// [`SputnikError`] instead of a panic.
    pub fn try_new(
        a: &'a CsrMatrix<T>,
        b: &'a Matrix<T>,
        out: &'a mut Matrix<T>,
        swizzle: &'a RowSwizzle,
        cfg: SpmmConfig,
    ) -> Result<Self, SputnikError> {
        if a.cols() != b.rows() {
            return Err(SputnikError::ShapeMismatch {
                expected: format!("B with {} rows", a.cols()),
                found: format!("{}x{}", b.rows(), b.cols()),
                context: "spmm inner dimension",
            });
        }
        if out.rows() != a.rows() || out.cols() != b.cols() {
            return Err(SputnikError::ShapeMismatch {
                expected: format!("{}x{}", a.rows(), b.cols()),
                found: format!("{}x{}", out.rows(), out.cols()),
                context: "spmm output",
            });
        }
        if b.layout() != sparse::Layout::RowMajor {
            return Err(SputnikError::IllegalConfig {
                reason: "Sputnik uses row-major dense operands".into(),
            });
        }
        validate_spmm(a, swizzle, &cfg)?;
        let n = b.cols();
        let out = OutputSlice::new(out.as_mut_slice());
        Ok(Self {
            a,
            b: Some(b),
            out: Some(out),
            swizzle,
            bias: None,
            cfg,
            n,
            lut: None,
            part_sigs: OnceLock::new(),
        })
    }

    /// A cost-model-only kernel: no dense operands are materialized, so it
    /// can profile problems whose B/C matrices would not fit host memory
    /// (the corpus sweeps). Launch it with [`gpu_sim::Gpu::profile`].
    pub fn for_profile(
        a: &'a CsrMatrix<T>,
        n: usize,
        swizzle: &'a RowSwizzle,
        cfg: SpmmConfig,
    ) -> Self {
        validate_spmm(a, swizzle, &cfg).unwrap_or_else(|e| panic!("{e}"));
        Self {
            a,
            b: None,
            out: None,
            swizzle,
            bias: None,
            cfg,
            n,
            lut: None,
            part_sigs: OnceLock::new(),
        }
    }

    /// Attach a fused bias + ReLU epilogue (`cfg.fused_bias_relu` must be set).
    pub fn with_bias_relu(mut self, bias: &'a [f32]) -> Self {
        assert!(
            self.cfg.fused_bias_relu,
            "config must enable fused_bias_relu"
        );
        assert_eq!(bias.len(), self.a.rows());
        self.bias = Some(bias);
        self
    }

    /// Probe `lut` to skip dead B tiles; [`crate::joint`] validates the
    /// pairing first.
    pub(crate) fn with_lut(mut self, lut: &'a PatternLut) -> Self {
        self.lut = Some(lut);
        self
    }

    /// Effective vector width for loads from the sparse matrix: without ROMA
    /// the row start has no alignment guarantee, so vector loads are illegal
    /// and the kernel falls back to scalar accesses (the padding alternative
    /// the paper rejects as "limiting the generality of the kernel").
    fn vw_a(&self) -> u32 {
        let cfg = &self.cfg;
        if cfg.roma || cfg.assume_aligned || cfg.vector_width == 1 {
            cfg.vector_width
        } else {
            1
        }
    }

    /// Prepare one subwarp's work descriptor: swizzled row id, true length,
    /// and the ROMA / assume-aligned start adjustment. Forced inline: the
    /// resolve loop in `subwarps` measured up to a third slower with it
    /// out of line.
    #[inline(always)]
    fn subwarp_work(&self, m_idx: usize) -> SubwarpWork {
        let cfg = &self.cfg;
        if m_idx >= self.a.rows() {
            return SubwarpWork::EMPTY;
        }
        let row = if cfg.row_swizzle {
            self.swizzle.row(m_idx)
        } else {
            m_idx
        };
        let offset = self.a.row_offsets()[row] as usize;
        let nnz = self.a.row_len(row);
        let (aligned_offset, prefix, total) = if cfg.assume_aligned {
            debug_assert_eq!(
                offset % cfg.vector_width as usize,
                0,
                "assume_aligned requires padded rows (CsrMatrix::padded_to_multiple)"
            );
            (offset, 0, nnz)
        } else if cfg.roma && cfg.vector_width > 1 {
            let al = MemoryAligner::new(offset, nnz, cfg.vector_width);
            (al.aligned_offset(), al.prefix(), al.aligned_nonzeros())
        } else {
            (offset, 0, nnz)
        };
        SubwarpWork {
            row,
            nnz,
            aligned_offset,
            prefix,
            total,
        }
    }

    /// Resolve the row strip's subwarps (a stack buffer; `block_items_y <=
    /// 32` by config validation, and slots past it stay out of range).
    fn subwarps(&self, strip: usize) -> [SubwarpWork; MAX_BLOCK_SUBWARPS] {
        let biy = self.cfg.block_items_y as usize;
        let mut subs = [SubwarpWork::EMPTY; MAX_BLOCK_SUBWARPS];
        for (s, slot) in subs.iter_mut().take(biy).enumerate() {
            *slot = self.subwarp_work(strip * biy + s);
        }
        subs
    }

    /// The column tile's part of a block's key. One subwarp's load of the
    /// tile's strip of a B row touches the same sectors for every row of B
    /// when the row stride and tile offset are sector-aligned; otherwise
    /// the strip straddles one extra sector (the representative misaligned
    /// case).
    fn tile_key(&self, bx: u32) -> TileKey {
        let (vw, eb) = (self.cfg.vector_width as usize, T::BYTES as u64);
        let n_off = bx as usize * self.cfg.block_items_x as usize;
        let tile_w = (self.cfg.block_items_x as usize).min(self.n - n_off);
        let aligned =
            (self.n as u64 * eb).is_multiple_of(32) && (n_off as u64 * eb).is_multiple_of(32);
        TileKey {
            tile_w: tile_w as u64,
            b_sectors: gpu_sim::memory::sectors_contiguous(
                if aligned { 0 } else { eb },
                tile_w as u64 * eb,
            ),
            store_vw: self.n.is_multiple_of(vw)
                && n_off.is_multiple_of(vw)
                && tile_w.is_multiple_of(vw),
            n_off_class: n_off as u64 * eb % 32,
        }
    }

    /// The row strip's part of a block's key, from its resolved subwarps.
    fn strip_key(&self, subs: &[SubwarpWork], ctx: &mut BlockContext) -> StripKey {
        let cfg = &self.cfg;
        let eb = T::BYTES as u64;
        let ib = cfg.index_width.bytes() as u64;
        let spw = cfg.subwarps_per_warp() as usize;
        let mut key = StripKey {
            n_subs: subs.len(),
            n_warps: subs.len().div_ceil(spw),
            subs: [SubwarpKey::default(); MAX_BLOCK_SUBWARPS],
            warps: [WarpKey::default(); MAX_BLOCK_SUBWARPS],
        };
        let chunks = subs.chunks(spw);
        for (warp, chunk) in key.warps.iter_mut().zip(chunks) {
            if cfg.row_swizzle {
                // One load of the swizzled row indices (consecutive m_idx,
                // so the access is contiguous). Tail subwarps past the last
                // row never issue it, so the lane count is clamped by the
                // matrix height — matters only when rows < block_items_y.
                let live = chunk.len().min(self.a.rows()) as u64;
                warp.swizzle = ctx.sectors(BUF_SWIZZLE, 0, live * 4, 1, 4) as u32;
            }
            // Row offset + next offset per subwarp: scattered pair loads.
            // The address list is bounded by the subwarp cap, so it lives
            // on the stack.
            let mut addrs = [0u64; MAX_BLOCK_SUBWARPS];
            let mut n_addrs = 0;
            for sub in chunk.iter().filter(|s| s.row != usize::MAX) {
                addrs[n_addrs] = sub.row as u64 * 4;
                n_addrs += 1;
            }
            warp.offsets = ctx.gather_sectors(BUF_A_OFFSETS, &addrs[..n_addrs], 8) as u32;
            if cfg.fused_bias_relu {
                warp.bias = ctx.gather_sectors(BUF_BIAS, &addrs[..n_addrs], 4) as u32;
            }
        }
        for (slot, sub) in key.subs.iter_mut().zip(subs) {
            if sub.row == usize::MAX {
                continue;
            }
            // A values + indices: contiguous from the aligned offset.
            let (start, total) = (sub.aligned_offset as u64, sub.total as u64);
            *slot = SubwarpKey {
                live: true,
                c_class: ((sub.row * self.n) as u64 * eb % 32) as u8,
                total: sub.total as u32,
                nnz: sub.nnz as u32,
                a_sectors: ctx.sectors(BUF_A_VALUES, start * eb, total * eb, 1, 1) as u32,
                i_sectors: ctx.sectors(BUF_A_INDICES, start * ib, total * ib, 1, 1) as u32,
            };
        }
        key
    }

    /// The key of the block at column tile `bx` over the strip `subs`.
    /// Each C tile store is memchecked here; its sector count follows from
    /// the strip's and the tile's classes.
    fn key_of(&self, subs: &[SubwarpWork], bx: u32, ctx: &mut BlockContext) -> SpmmKey {
        let tile = self.tile_key(bx);
        let eb = T::BYTES as u64;
        let n_off = bx as usize * self.cfg.block_items_x as usize;
        for sub in subs.iter().filter(|s| s.row != usize::MAX) {
            let addr = (sub.row * self.n + n_off) as u64 * eb;
            ctx.sectors(BUF_C, addr, tile.tile_w * eb, 1, 1);
        }
        SpmmKey {
            tile,
            strip: self.strip_key(subs, ctx),
        }
    }

    /// The block's LUT liveness, walked warp by warp and strip by strip in
    /// the order [`Self::charge_with`] consumes it. Liveness reads the
    /// stored indices and the LUT, never the values, so ROMA prefix
    /// positions probe like any other and profile and functional launches
    /// cost the same.
    fn liveness(
        &self,
        lut: &PatternLut,
        subs: &[SubwarpWork],
        n_off: usize,
        ctx: &mut BlockContext,
    ) -> Liveness {
        let spw = self.cfg.subwarps_per_warp() as usize;
        let bik = self.cfg.block_items_k as usize;
        let indices = self.a.col_indices();
        let nt = lut.ntile_of(n_off);
        let mut live = Liveness {
            strips: Vec::new(),
            subs: [(0, 0); MAX_BLOCK_SUBWARPS],
        };
        let mut probes = Vec::new();
        for (w, chunk) in subs.chunks(spw).enumerate() {
            let max_total = chunk.iter().map(|s| s.total).max().unwrap_or(0);
            let mut base = 0;
            while base < max_total {
                let len = bik.min(max_total - base);
                probes.clear();
                let mut union_live = 0;
                for p in base..base + len {
                    let mut any_live = false;
                    for (s, sub) in chunk.iter().enumerate() {
                        if sub.row == usize::MAX || p >= sub.total {
                            continue;
                        }
                        let kt = lut.ktile_of(indices[sub.aligned_offset + p] as usize);
                        probes.push(lut.word_addr(kt, nt));
                        if lut.is_live(kt, nt) {
                            any_live = true;
                            let counts = &mut live.subs[w * spw + s];
                            counts.0 += 1;
                            counts.1 += u64::from(p >= sub.prefix);
                        }
                    }
                    union_live += u64::from(any_live);
                }
                // The probe gathers the strip's distinct LUT words, 32 lanes
                // per gather instruction.
                probes.sort_unstable();
                probes.dedup();
                let sectors = probes
                    .chunks(32)
                    .map(|lanes| ctx.gather_sectors(BUF_LUT, lanes, 8))
                    .sum();
                live.strips
                    .push([union_live, probes.len().div_ceil(32) as u64, sectors]);
                base += len;
            }
        }
        live
    }

    /// Functional computation for one subwarp: the real numerics, walked
    /// through the kernel's actual control flow (aligned start, masked
    /// prefix, zero-padded residue).
    fn compute_subwarp(&self, sub: &SubwarpWork, n_off: usize, tile_w: usize, ctx: &BlockContext) {
        // The accumulator tile models the subwarp's register/shared staging:
        // arena-pooled (zero heap traffic once warm) and lane-vectorized.
        let mut acc = ctx.scratch_f32(tile_w);
        let values = self.a.values();
        let indices = self.a.col_indices();
        // Both operands are always present on the functional path (the only
        // caller); a cost-model-only kernel never reaches this method.
        let (Some(b), Some(out)) = (self.b, self.out.as_ref()) else {
            return;
        };
        let b = b.as_slice();
        // ROMA masking: the prefix belongs to the previous row. A B tile the
        // LUT proves dead is skipped: every fma it would run is
        // fma(val, +0.0, acc) == acc (see `crate::joint`).
        let terms = (sub.prefix..sub.total).filter_map(|j| {
            let pos = sub.aligned_offset + j;
            let val = values[pos].to_f32();
            let col = indices[pos] as usize;
            (val != 0.0 && self.lut.is_none_or(|lut| lut.live_for(col, n_off)))
                .then(|| (val, &b[col * self.n + n_off..][..tile_w]))
        });
        gpu_sim::lanes::fma_accumulate(&mut acc, terms, |bv| bv.to_f32());
        let bias = self.bias.map(|bias| bias[sub.row]).unwrap_or(0.0);
        let relu = self.cfg.fused_bias_relu;
        let tile = acc
            .iter()
            .map(|&v| T::from_f32(if relu { (v + bias).max(0.0) } else { v }));
        // Disjointness: each (row, column-tile) pair is owned by exactly
        // one subwarp of one block.
        out.write_run(sub.row * self.n + n_off, tile);
    }

    /// Record a block's trace from its key: warps execute their subwarps
    /// in lockstep. Under a LUT, `live` supplies each strip's liveness.
    fn charge_with(&self, key: &SpmmKey, live: Option<&Liveness>, ctx: &mut BlockContext) {
        let spw = self.cfg.subwarps_per_warp() as usize;
        let subs = &key.strip.subs[..self.cfg.block_items_y as usize];
        let mut strips = live.map(|l| l.strips.iter());
        for (w, chunk) in subs.chunks(spw).enumerate() {
            let counts = live.map(|l| &l.subs[w * spw..]);
            let warp = &key.strip.warps[w];
            self.charge_warp(ctx, &key.tile, warp, chunk, strips.as_mut(), counts);
        }
    }

    /// Cost of one warp's execution over its subwarps.
    ///
    /// With a LUT, each strip of the main loop also pays the warp-uniform
    /// probe, and its inner body (B loads, index scaling, FMAs) runs only
    /// for *union-live* positions, where at least one subwarp's B tile is
    /// live: a position any subwarp needs costs the whole warp its
    /// instruction slot (lockstep execution). Without a LUT every position
    /// is live.
    fn charge_warp(
        &self,
        ctx: &mut BlockContext,
        tile: &TileKey,
        warp: &WarpKey,
        subs: &[SubwarpKey],
        mut strips: Option<&mut std::slice::Iter<'_, [u64; 3]>>,
        counts: Option<&[(u64, u64)]>,
    ) {
        let cfg = &self.cfg;
        let bik = u64::from(cfg.block_items_k);
        let threads_x = cfg.threads_x();
        let vw = cfg.vector_width;
        let vw_a = self.vw_a();
        let eb = T::BYTES;
        let ib = cfg.index_width.bytes();
        let rows = || subs.iter().filter(|s| s.live);
        let any_row = rows().next().is_some();

        // ---- Prelude (per warp) -------------------------------------------
        // Tile index math: ~6 integer ops.
        ctx.misc(6);
        if cfg.row_swizzle {
            ctx.ld_sectors(BUF_SWIZZLE, 1, warp.swizzle.into());
        }
        if any_row {
            ctx.ld_sectors(BUF_A_OFFSETS, 1, warp.offsets.into());
        }
        ctx.misc(2); // nnz computation
        if cfg.roma && vw > 1 {
            ctx.misc(ROMA_PRELUDE_INSTRS);
        }

        // ---- Warp divergence stall ----------------------------------------
        // Subwarps sharing a warp execute in lockstep for as many strips as
        // the *longest* row among them needs; lanes of shorter rows sit idle.
        // Beyond the issued-instruction waste (counted below via max-trips),
        // the idle subwarps stop contributing memory-level parallelism, so a
        // memory-bound kernel sees exposed latency proportional to the idle
        // slots. Calibrated against Figure 7's anchor points (standard
        // ordering degrades to ~50% of balanced throughput at the feasible
        // CoV maximum; row swizzle retains >95%). LUT skipping is
        // warp-uniform: it changes which positions execute, never which
        // lanes, so it leaves this term alone.
        const DIVERGENCE_STALL_CYCLES_PER_SLOT: u64 = 14;
        let max_total = rows().map(|s| u64::from(s.total)).max().unwrap_or(0);
        if subs.len() > 1 {
            let wasted: u64 = rows().map(|s| max_total - u64::from(s.total)).sum();
            ctx.stall(wasted * DIVERGENCE_STALL_CYCLES_PER_SLOT / subs.len() as u64);
        }

        // ---- Main loop: one pass per strip --------------------------------
        let a_load_instrs = gpu_sim::memory::vector_instr_count(bik, threads_x, vw_a);
        // 128-bit shared loads: 4 values (+ their indices) per access, one
        // lane's worth of the wider element.
        let smem_broadcast_loads = 2 * bik.div_ceil(4);
        let w = u64::from(eb.max(ib));
        let mut base = 0;
        while base < max_total {
            let len = bik.min(max_total - base);
            let mut union_live = len;
            if let Some(strips) = strips.as_mut() {
                // The probe: the strip's LUT word gathers, one bit test +
                // skip predicate per position.
                let [live_positions, instrs, sectors] = strips.next().copied().unwrap_or_default();
                union_live = live_positions;
                ctx.ld_sectors(BUF_LUT, instrs, sectors);
                ctx.misc(len);
            }

            if len == bik {
                // Stage A values + indices to shared memory, in full even
                // under a LUT (the indices must be read to be probed). Warp
                // scope: Sputnik's staging is warp-synchronous (the warp
                // that stores the strip is its only consumer).
                ctx.ld_sectors(BUF_A_VALUES, 2 * a_load_instrs, 0);
                ctx.smem_store(2 * a_load_instrs, bik * (eb + ib) as u64, SmemScope::Warp);
                if cfg.index_prescale {
                    ctx.misc(bik.div_ceil(threads_x as u64));
                }
                // Broadcast loads of values and indices from shared memory,
                // read back by the warp that staged them.
                ctx.smem_load(
                    smem_broadcast_loads,
                    smem_broadcast_loads * 4 * w,
                    SmemScope::Warp,
                );
                // One B-row strip load per live position (all subwarps issue
                // in the same warp instruction), vector_width FMAs each.
                ctx.ld_sectors(BUF_B, union_live, 0);
                if !cfg.index_prescale {
                    ctx.misc(union_live); // scale index at every use
                }
                ctx.fma(union_live * vw as u64, 0);
                ctx.misc(4); // loop bookkeeping
                if base == 0 && cfg.roma && vw > 1 {
                    // Mask the prefix: 1 setp + 2 st.shared.
                    ctx.misc(1);
                    ctx.smem_store(2, 0, SmemScope::Warp);
                }
            } else if cfg.residue_unroll {
                // Residue strip: zero the shared buffers, then run the
                // unrolled path without bounds checks (Section V-D2). It
                // works in 4-wide chunks, so live work rounds up to 4.
                ctx.smem_store(2, 0, SmemScope::Warp);
                let rounded = union_live.div_ceil(4) * 4;
                let a_instrs = gpu_sim::memory::vector_instr_count(len, threads_x, vw_a);
                ctx.ld_sectors(BUF_A_VALUES, 2 * a_instrs, 0);
                ctx.smem_store(2 * a_instrs, len * (eb + ib) as u64, SmemScope::Warp);
                let loads = 2 * len.div_ceil(4);
                ctx.smem_load(loads, loads * 4 * w, SmemScope::Warp);
                ctx.ld_sectors(BUF_B, rounded, 0); // B loads incl. padding
                ctx.fma(rounded * vw as u64, 0);
                if cfg.index_prescale {
                    ctx.misc(len.div_ceil(threads_x as u64));
                } else {
                    ctx.misc(rounded);
                }
                ctx.misc(4);
            } else {
                // Residue strip as a scalar loop with a bounds check per
                // nonzero: a predicated branch, scalar shared loads, and the
                // data-dependent trip count defeating unrolling (no static
                // offsets, no dual-issue) — the inefficiency Section V-D2's
                // loop splitting removes.
                let a_instrs = gpu_sim::memory::vector_instr_count(len, threads_x, 1);
                ctx.ld_sectors(BUF_A_VALUES, 2 * a_instrs, 0);
                ctx.smem_store(2 * a_instrs, len * (eb + ib) as u64, SmemScope::Warp);
                ctx.smem_load(2 * len, 2 * len * w, SmemScope::Warp);
                ctx.ld_sectors(BUF_B, union_live, 0);
                ctx.fma(union_live * vw as u64, 0);
                ctx.misc(5 * len);
                ctx.stall(4 * len);
            }
            base += len;
        }

        // ---- Per-subwarp memory traffic ----------------------------------
        for (s, sub) in subs.iter().enumerate().filter(|(_, s)| s.live) {
            ctx.ld_sectors(BUF_A_VALUES, 0, sub.a_sectors.into());
            ctx.ld_sectors(BUF_A_INDICES, 0, sub.i_sectors.into());
            // B strips: one per processed value. The unrolled residue path
            // issues padded loads of B row 0, but every padding access hits
            // the same cached row, so only processed values move sectors.
            // Useful FLOPs count true nonzeros only. Under a LUT both count
            // this subwarp's own live positions: a predicated-off lane moves
            // no sectors, and a skipped element would have added exact zeros.
            let (loads, useful) = match counts {
                Some(counts) => counts[s],
                None => (sub.total.into(), sub.nnz.into()),
            };
            ctx.ld_sectors(BUF_B, 0, loads * tile.b_sectors);
            ctx.fma(0, useful * tile.tile_w);
        }

        // ---- Output store -------------------------------------------------
        let store_vw = if tile.store_vw { vw } else { 1 };
        let store_instrs = gpu_sim::memory::vector_instr_count(tile.tile_w, threads_x, store_vw);
        if cfg.fused_bias_relu {
            if any_row {
                ctx.ld_sectors(BUF_BIAS, 1, warp.bias.into());
            }
            ctx.fp(2 * store_instrs, 0);
        }
        let sectors = rows()
            .map(|sub| {
                let class = u64::from(sub.c_class) + tile.n_off_class;
                gpu_sim::memory::sectors_contiguous(class, tile.tile_w * eb as u64)
            })
            .sum();
        ctx.st_sectors(BUF_C, store_instrs, sectors);
    }
}

impl<T: Scalar> SpmmKernel<'_, T> {
    /// The launch name for a configuration, without building a kernel —
    /// lets cache lookups skip swizzle construction on the hit path.
    pub(crate) fn launch_name(cfg: &SpmmConfig) -> String {
        format!("sputnik_spmm_{}_{}", T::TAG, cfg.tag())
    }
}

impl<T: Scalar> Kernel for SpmmKernel<'_, T> {
    fn name(&self) -> String {
        Self::launch_name(&self.cfg)
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
        // LUT probes read through global/L1, so only A staging counts.
        self.cfg.smem_bytes::<T>()
    }

    fn regs_per_thread(&self) -> u32 {
        self.cfg.regs_per_thread()
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let mut bufs = csr_spmm_buffers(self.a, self.n, self.cfg.index_width);
        if let Some(lut) = self.lut {
            bufs.push(BufferSpec {
                id: BUF_LUT,
                name: "pattern_lut",
                footprint_bytes: lut.words().len() as u64 * 8,
                pattern: AccessPattern::SharedReuse,
            });
        }
        if self.cfg.row_swizzle {
            bufs.push(BufferSpec {
                id: BUF_SWIZZLE,
                name: "row_indices",
                footprint_bytes: self.a.rows() as u64 * 4,
                pattern: AccessPattern::SharedReuse,
            });
        }
        if self.cfg.fused_bias_relu {
            bufs.push(BufferSpec {
                id: BUF_BIAS,
                name: "bias",
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
        let subs_buf = self.subwarps(block.y as usize);
        let subs = &subs_buf[..cfg.block_items_y as usize];

        // Cost: a cache-hit replay discards it, so skip the key and the
        // charge entirely.
        if ctx.recording() {
            let key = self.key_of(subs, block.x, ctx);
            let live = self.lut.map(|lut| self.liveness(lut, subs, n_off, ctx));
            self.charge_with(&key, live.as_ref(), ctx);
        }

        // Functional output.
        if ctx.functional() && self.b.is_some() {
            for sub in subs {
                if sub.row != usize::MAX {
                    self.compute_subwarp(sub, n_off, tile_w, ctx);
                }
            }
        }
    }

    /// Profile launches dedup by key only without a LUT: under one, the
    /// trace also reads each strip's liveness, which no key holds.
    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
        match self.lut {
            None => Some(self),
            Some(_) => None,
        }
    }

    /// Declarative facts for the static auditor ([`gpu_sim::static_check`]).
    ///
    /// Every extent is derived from the kernel's *tile arithmetic* — the
    /// same address formulas the cost key's builder checks — independently of the
    /// footprints `buffers()` declares from the operand shapes, so the
    /// audit's extent-vs-footprint comparison genuinely cross-checks two
    /// derivations. Soundness arguments, per buffer:
    ///
    /// * `a_values` / `a_indices`: each subwarp reads
    ///   `[aligned_offset, aligned_offset + total)`. Without ROMA that is
    ///   `[offset, offset + nnz)`; with ROMA, `aligned_offset + total =
    ///   (offset - prefix) + (nnz + prefix) = offset + nnz` — the aligner
    ///   moves the start, never the end — so both are bounded by the CSR's
    ///   total nonzero count.
    /// * `a_row_offsets`: the prelude gathers an 8-byte offset pair at
    ///   `row * 4`, so the furthest byte is `(rows - 1) * 4 + 8`.
    /// * `b`: strips end at `(col + 1) * n <= cols * n` because validated
    ///   CSR column indices are `< cols`. (The trace adds B sectors in bulk
    ///   without per-address memcheck, so this static bound is the *only*
    ///   bounds guarantee B gets.)
    /// * `c` / `bias` / `row_indices`: indexed by real row ids `< rows`
    ///   (the swizzle is a permutation of `0..rows`).
    /// * `pattern_lut`: a probe reads the 8-byte word at
    ///   `((kt * ntiles + nt) / 64) * 8`. Validated CSR indices give
    ///   `kt < ktiles` and in-range strips give `nt < ntiles`, so the
    ///   furthest byte is at most `words.len() * 8` — the exact allocation.
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
        ];
        if let Some(lut) = self.lut {
            bounds.push(BufferBound {
                slot: BUF_LUT.0,
                bound: AccessBound::Extent(lut.words().len() as u64 * 8),
            });
        }
        if cfg.row_swizzle {
            // The prelude loads one swizzled row id per *live* subwarp in
            // the warp, starting at address 0 — the worst chunk is
            // `subwarps_per_warp` wide (capped by the block's
            // `block_items_y` subwarps and the matrix height).
            let chunk = u64::from(cfg.subwarps_per_warp().min(cfg.block_items_y)).min(rows);
            bounds.push(BufferBound {
                slot: BUF_SWIZZLE.0,
                bound: AccessBound::Extent(chunk * 4),
            });
        }
        if cfg.fused_bias_relu {
            bounds.push(BufferBound {
                slot: BUF_BIAS.0,
                bound: AccessBound::Extent(rows * 4),
            });
        }

        // Vector-access alignment, the mod-`vw*eb` analogue of the address
        // classes the cost key holds. ROMA proves residue 0 by
        // construction; `assume_aligned` must actually *check* the promise
        // against every non-empty row's start offset — an O(rows) scan that
        // turns an unpadded CSR into a static refutation instead of a
        // debug-only assertion.
        let vw = cfg.vector_width;
        let alignment = if vw <= 1 || self.vw_a() == 1 {
            AlignmentFacts::ScalarOnly
        } else if cfg.assume_aligned {
            // `subwarp_work` prefers the assume_aligned (raw offset) path
            // even when ROMA is also enabled, so the scan governs here.
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
            // ROMA: the aligner backs every row start up to a multiple of
            // the vector width, and element 0 is allocation-aligned.
            AlignmentFacts::Residues(vec![VectorClass {
                slot: BUF_A_VALUES.0,
                vec_width: vw,
                elem_bytes: T::BYTES,
                worst_residue: 0,
            }])
        };

        StaticFacts {
            bounds: Some(bounds),
            // All staging is SmemScope::Warp — the warp that stores a strip
            // is its only consumer (Sputnik's subwarp tiling) — so no
            // block-scope bytes are ever staged and no barrier is needed.
            alignment,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(0),
        }
    }

    fn poison_output(&self, seed: u64) {
        if let Some(out) = self.out.as_ref() {
            out.poison(seed, T::from_f32(f32::NAN));
        }
    }
}

impl<T: Scalar> CostKey for SpmmKernel<'_, T> {
    type Key = SpmmKey;

    fn cost_key(&self, block: Dim3, ctx: &mut BlockContext) -> SpmmKey {
        let subs = self.subwarps(block.y as usize);
        self.key_of(&subs[..self.cfg.block_items_y as usize], block.x, ctx)
    }

    fn charge(&self, key: &SpmmKey, ctx: &mut BlockContext) {
        self.charge_with(key, None, ctx);
    }

    /// The key's hash, with each row strip's part and each column tile's
    /// part hashed once per launch on the first call, so a block's
    /// signature costs two lookups and one short hash. Dataset sweeps
    /// execute one representative per signature — notably collapsing the
    /// grid's x extent, where the same row strip repeats across column
    /// tiles in the same alignment class.
    fn block_signature(&self, block: Dim3, ctx: &mut BlockContext) -> u64 {
        let biy = self.cfg.block_items_y as usize;
        let (strips, tiles) = self.part_sigs.get_or_init(|| {
            let grid = self.grid();
            let strips = (0..grid.y as usize)
                .map(|y| key_hash(&self.strip_key(&self.subwarps(y)[..biy], ctx)))
                .collect();
            let tiles = (0..grid.x).map(|x| key_hash(&self.tile_key(x))).collect();
            (strips, tiles)
        });
        key_hash(&(tiles[block.x as usize], strips[block.y as usize]))
    }
}

/// Run SpMM on the simulated GPU: allocates the output, builds the swizzle
/// (when enabled), launches functionally, and returns `(C, stats)`.
/// Panics on invalid inputs, refuted launches or device faults;
/// [`try_spmm`] is the recoverable equivalent.
pub fn spmm<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    cfg: SpmmConfig,
) -> (Matrix<T>, LaunchStats) {
    try_spmm(gpu, a, b, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible SpMM: validates shapes, configuration legality, operand
/// finiteness, and device resource limits up front, then launches through
/// [`Gpu::run`] so static refutations and injected device faults surface as
/// errors instead of panics. Returns `(C, stats)` on success.
pub fn try_spmm<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    cfg: SpmmConfig,
) -> Result<(Matrix<T>, LaunchStats), SputnikError> {
    require_finite("a", a.values())?;
    require_finite("b", b.as_slice())?;
    let swizzle = RowSwizzle::for_config(a, cfg.row_swizzle);
    let mut out = Matrix::<T>::zeros(a.rows(), b.cols());
    let stats = {
        let kernel = SpmmKernel::try_new(a, b, &mut out, &swizzle, cfg)?;
        gpu.run(&LaunchRequest::functional(&kernel))?.stats
    };
    Ok((out, stats))
}

/// Profile SpMM (cost model only): no dense matrices are allocated, so this
/// scales to the corpus's largest problems.
pub fn spmm_profile<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b_rows: usize,
    n: usize,
    cfg: SpmmConfig,
) -> LaunchStats {
    profile_spmm(gpu, None, a, b_rows, n, cfg).0
}

/// [`spmm_profile`] through a cross-launch [`LaunchCache`]: returns the
/// stats plus whether they were served from the cache. The key combines the
/// kernel name (config + scalar type), the device, and a fingerprint of the
/// sparse topology mixed with `n` — the one problem dimension the kernel
/// name does not encode. The swizzle is derived deterministically from the
/// topology, so it needs no separate key component.
pub fn spmm_profile_cached<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    a: &CsrMatrix<T>,
    b_rows: usize,
    n: usize,
    cfg: SpmmConfig,
) -> (LaunchStats, bool) {
    profile_spmm(gpu, Some(cache), a, b_rows, n, cfg)
}

/// The profile launch behind [`spmm_profile`] and [`spmm_profile_cached`].
/// The request names the launch up front, so a cache hit builds neither the
/// swizzle nor the kernel.
pub(crate) fn profile_spmm<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    a: &CsrMatrix<T>,
    b_rows: usize,
    n: usize,
    cfg: SpmmConfig,
) -> (LaunchStats, bool) {
    assert_eq!(a.cols(), b_rows, "inner dimensions must agree");
    let build = |go: &mut dyn FnMut(&dyn Kernel)| {
        let swizzle = RowSwizzle::for_config(a, cfg.row_swizzle);
        go(&SpmmKernel::<T>::for_profile(a, n, &swizzle, cfg));
    };
    let req = LaunchRequest::profile_lazy(SpmmKernel::<T>::launch_name(&cfg), &build)
        .cached(cache.map(|c| (c, operand_fingerprint(a, n))));
    let launched = gpu.run(&req).unwrap_or_else(|e| panic!("{e}"));
    (launched.stats, launched.hit)
}

/// The launch-cache fingerprint for an SpMM-shaped problem: the sparse
/// topology plus the dense column count `n` (the kernel name covers the
/// configuration and scalar type; the device is a separate key component).
pub(crate) fn operand_fingerprint<T: Scalar>(a: &CsrMatrix<T>, n: usize) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_u64(a.fingerprint());
    fp.write_u64(n as u64);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sparse::gen;

    fn check_against_reference(a: &CsrMatrix<f32>, n: usize, cfg: SpmmConfig) {
        let b = Matrix::<f32>::random(a.cols(), n, 77);
        let gpu = Gpu::v100();
        let (c, stats) = spmm(&gpu, a, &b, cfg);
        let expect = reference::spmm(a, &b);
        let diff = c.max_abs_diff(&expect);
        assert!(diff < 1e-3, "cfg {cfg:?}: max diff {diff}");
        assert!(stats.time_us > 0.0);
        assert_eq!(stats.flops > 0, a.nnz() > 0, "flops iff nonzeros exist");
    }

    #[test]
    fn matches_reference_default_config() {
        let a = gen::uniform(64, 128, 0.8, 1);
        check_against_reference(&a, 64, SpmmConfig::default());
    }

    #[test]
    fn matches_reference_all_ablations() {
        let a = gen::uniform(48, 96, 0.7, 2);
        let base = SpmmConfig::default();
        let variants = [
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
                block_items_x: 64,
                block_items_y: 2,
                ..base
            },
        ];
        for cfg in variants {
            check_against_reference(&a, 32, cfg);
        }
    }

    #[test]
    fn matches_reference_ragged_shapes() {
        // N not divisible by the tile, rows not divisible by block_items_y.
        let a = gen::uniform(37, 53, 0.6, 3);
        check_against_reference(&a, 19, SpmmConfig::heuristic::<f32>(19));
        check_against_reference(&a, 100, SpmmConfig::heuristic::<f32>(100));
    }

    #[test]
    fn matches_reference_extreme_sparsity() {
        check_against_reference(&gen::uniform(32, 64, 0.99, 4), 32, SpmmConfig::default());
        check_against_reference(&gen::uniform(32, 64, 0.05, 5), 32, SpmmConfig::default());
        check_against_reference(&CsrMatrix::<f32>::empty(16, 16), 16, SpmmConfig::default());
    }

    #[test]
    fn matches_reference_high_cov() {
        let a = gen::with_cov(128, 256, 0.85, 1.5, 6);
        check_against_reference(&a, 64, SpmmConfig::default());
    }

    #[test]
    fn mixed_precision_matches_reference_loosely() {
        use sparse::Half;
        let a32 = gen::uniform(32, 64, 0.8, 7);
        let a = a32.convert::<Half>();
        let mut b32 = Matrix::<f32>::random(64, 32, 8);
        // Quantize B to half precision for an apples-to-apples reference.
        let b = {
            let mut b16 = Matrix::<Half>::zeros(64, 32);
            for r in 0..64 {
                for c in 0..32 {
                    b16.set(r, c, Half::from_f32(b32.get(r, c)));
                }
            }
            b16
        };
        b32 = b.to_f32();
        let gpu = Gpu::v100();
        let cfg = SpmmConfig::heuristic::<Half>(32);
        let (c, _) = spmm(&gpu, &a, &b, cfg);
        let expect = reference::spmm(&a.convert::<f32>(), &b32);
        // FP32 accumulate, FP16 store: error bounded by half rounding.
        for r in 0..32 {
            for col in 0..32 {
                let got = c.get(r, col).to_f32();
                let want = expect.get(r, col);
                assert!(
                    (got - want).abs() <= want.abs() * 0.01 + 0.05,
                    "({r},{col}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn fused_bias_relu_epilogue() {
        let a = gen::uniform(32, 64, 0.7, 9);
        let b = Matrix::<f32>::random(64, 32, 10);
        let bias: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) / 8.0).collect();
        let gpu = Gpu::v100();
        let cfg = SpmmConfig {
            fused_bias_relu: true,
            ..SpmmConfig::default()
        };
        let swizzle = RowSwizzle::by_length_desc(&a);
        let mut out = Matrix::<f32>::zeros(32, 32);
        let stats = {
            let kernel = SpmmKernel::new(&a, &b, &mut out, &swizzle, cfg).with_bias_relu(&bias);
            gpu.launch(&kernel)
        };
        assert!(stats.time_us > 0.0);
        let expect = reference::bias_relu(&reference::spmm(&a, &b), &bias);
        assert!(out.max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn vector_loads_reduce_instructions() {
        let a = gen::uniform(512, 1024, 0.8, 11);
        let gpu = Gpu::v100();
        let scalar = spmm_profile(
            &gpu,
            &a,
            1024,
            256,
            SpmmConfig {
                vector_width: 1,
                roma: false,
                ..SpmmConfig::default()
            },
        );
        let vec4 = spmm_profile(&gpu, &a, 1024, 256, SpmmConfig::default());
        assert!(
            vec4.instructions < scalar.instructions,
            "vec4 {} vs scalar {}",
            vec4.instructions,
            scalar.instructions
        );
    }

    #[test]
    fn swizzle_helps_imbalanced_matrices() {
        let a = gen::with_cov(4096, 2048, 0.75, 1.2, 12);
        let gpu = Gpu::v100();
        let base = SpmmConfig::heuristic::<f32>(128);
        let with = spmm_profile(&gpu, &a, 2048, 128, base);
        let without = spmm_profile(
            &gpu,
            &a,
            2048,
            128,
            SpmmConfig {
                row_swizzle: false,
                ..base
            },
        );
        assert!(
            with.time_us < without.time_us,
            "swizzle {} should beat no-swizzle {}",
            with.time_us,
            without.time_us
        );
    }

    #[test]
    fn dedup_profile_is_bit_identical() {
        // The fast path (one execution per structural signature) must agree
        // exactly — not approximately — with brute force on every field.
        let shapes = [(64usize, 96usize, 32usize, 0.7), (128, 128, 128, 0.9)];
        for (m, k, n, sp) in shapes {
            let a = gen::with_cov(m, k, sp, 0.8, 21);
            let swizzle = RowSwizzle::by_length_desc(&a);
            let cfg = SpmmConfig::default();
            let fast = {
                let kernel = SpmmKernel::<f32>::for_profile(&a, n, &swizzle, cfg);
                Gpu::v100().profile(&kernel)
            };
            let brute = {
                let kernel = SpmmKernel::<f32>::for_profile(&a, n, &swizzle, cfg);
                Gpu::v100().with_block_dedup(false).profile(&kernel)
            };
            assert_eq!(fast, brute, "{m}x{k} n={n}");
        }
    }

    #[test]
    fn cached_profile_replays_identical_stats() {
        let a = gen::uniform(64, 128, 0.8, 22);
        let gpu = Gpu::v100();
        let cache = gpu_sim::LaunchCache::new();
        let cfg = SpmmConfig::default();
        let (first, hit1) = spmm_profile_cached(&gpu, &cache, &a, 128, 64, cfg);
        let (second, hit2) = spmm_profile_cached(&gpu, &cache, &a, 128, 64, cfg);
        assert!(!hit1, "cold lookup must miss");
        assert!(hit2, "identical problem must hit");
        assert_eq!(first, second);
        assert_eq!(first, spmm_profile(&gpu, &a, 128, 64, cfg));
        // A different dense width is a different problem even though the
        // kernel name is unchanged.
        let (_, hit3) = spmm_profile_cached(&gpu, &cache, &a, 128, 32, cfg);
        assert!(!hit3);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn profile_matches_launch_timing() {
        // Cost traces must be identical between functional and profile mode.
        let a = gen::uniform(64, 128, 0.8, 13);
        let b = Matrix::<f32>::random(128, 64, 14);
        let gpu = Gpu::v100();
        let (_, launch) = spmm(&gpu, &a, &b, SpmmConfig::default());
        let profile = spmm_profile(&gpu, &a, 128, 64, SpmmConfig::default());
        assert_eq!(launch.instructions, profile.instructions);
        assert!((launch.time_us - profile.time_us).abs() < 1e-9);
    }
}
