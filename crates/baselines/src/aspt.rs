//! ASpT — Adaptive Sparse Tiling (Hong et al., PPoPP 2019).
//!
//! "CSR matrices are partitioned into sets of rows. Within each set, the
//! columns are re-ordered such that columns with more nonzeros are grouped.
//! These 'heavy' groups are processed together and exploit tiled execution
//! to enable more reuse of operands. The remaining columns are processed
//! with a standard row-splitting scheme."
//!
//! Limitations the paper calls out, reproduced here:
//! * 3x memory: "including the original CSR matrix, ASpT requires 3x the
//!   memory to store the re-ordered matrix as well as meta-data" —
//!   [`AsptPlan::memory_bytes`].
//! * Separate reorderings for SpMM and SDDMM ([`AsptDirection`]), so
//!   training would pay a re-order every step.
//! * The published kernels require the row count divisible by 256 and batch
//!   sizes of 32 or 128.

use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferId,
    BufferSpec, Dim3, Gpu, Kernel, LaunchStats, OutputSlice, SmemScope, StageBound, StaticFacts,
};
use sparse::{CsrMatrix, IndexWidth, Matrix, Scalar};

pub const BUF_A_VALUES: BufferId = BufferId(0);
pub const BUF_A_INDICES: BufferId = BufferId(1);
pub const BUF_A_META: BufferId = BufferId(2);
pub const BUF_B: BufferId = BufferId(3);
pub const BUF_C: BufferId = BufferId(4);

/// Rows per panel in the reordering.
const PANEL_ROWS: usize = 128;
/// Columns per heavy tile.
const TILE_COLS: usize = 32;
/// A column is "heavy" within a panel if at least this fraction of the
/// panel's rows touch it.
const HEAVY_FRAC: f64 = 0.125;

/// Which kernel the reordering was built for — ASpT uses different
/// orderings for SpMM and SDDMM, which is why gradients come back in a
/// different order than the forward pass (a real cost for training).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsptDirection {
    Spmm,
    Sddmm,
}

/// One row panel's partition of columns into heavy tiles and a light rest.
#[derive(Debug, Clone)]
struct Panel {
    row_start: usize,
    row_end: usize,
    /// Heavy column groups (each up to TILE_COLS columns), with the panel's
    /// nonzero count inside each group.
    heavy_tiles: Vec<(Vec<u32>, usize)>,
    /// Nonzeros falling outside heavy tiles, per row.
    light_nnz: Vec<usize>,
}

/// The preprocessing result ("we do not include the time required for the
/// pre-processing step used by ASpT in our benchmarks" — neither does this
/// harness, but the *memory* cost is tracked).
pub struct AsptPlan {
    panels: Vec<Panel>,
    direction: AsptDirection,
    /// Total nnz inside heavy tiles.
    pub heavy_nnz: usize,
    /// Total nnz processed by the light path.
    pub light_nnz: usize,
    base_csr_bytes: u64,
}

impl AsptPlan {
    /// Build the reordering for a matrix. O(nnz + panels * cols).
    pub fn build<T: Scalar>(a: &CsrMatrix<T>, direction: AsptDirection) -> Self {
        let mut panels = Vec::new();
        let mut heavy_nnz = 0usize;
        let mut light_nnz_total = 0usize;
        let threshold = ((PANEL_ROWS as f64 * HEAVY_FRAC) as usize).max(2);
        let mut counts = vec![0u32; a.cols()];

        let mut row_start = 0;
        while row_start < a.rows() {
            let row_end = (row_start + PANEL_ROWS).min(a.rows());
            counts.iter_mut().for_each(|c| *c = 0);
            for r in row_start..row_end {
                let (cols, _) = a.row(r);
                for &c in cols {
                    counts[c as usize] += 1;
                }
            }
            // Columns sorted by panel count, heaviest first.
            let mut heavy: Vec<(u32, u32)> = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c as usize >= threshold)
                .map(|(i, &c)| (i as u32, c))
                .collect();
            heavy.sort_by_key(|&(_, c)| std::cmp::Reverse(c));

            let mut heavy_tiles = Vec::new();
            let mut heavy_set = vec![false; a.cols()];
            for chunk in heavy.chunks(TILE_COLS) {
                let cols: Vec<u32> = chunk.iter().map(|&(i, _)| i).collect();
                let nnz: usize = chunk.iter().map(|&(_, c)| c as usize).sum();
                for &c in &cols {
                    heavy_set[c as usize] = true;
                }
                heavy_nnz += nnz;
                heavy_tiles.push((cols, nnz));
            }
            let light_nnz: Vec<usize> = (row_start..row_end)
                .map(|r| {
                    let (cols, _) = a.row(r);
                    cols.iter().filter(|&&c| !heavy_set[c as usize]).count()
                })
                .collect();
            light_nnz_total += light_nnz.iter().sum::<usize>();
            panels.push(Panel {
                row_start,
                row_end,
                heavy_tiles,
                light_nnz,
            });
            row_start = row_end;
        }

        Self {
            panels,
            direction,
            heavy_nnz,
            light_nnz: light_nnz_total,
            base_csr_bytes: a.bytes(IndexWidth::U32),
        }
    }

    pub fn direction(&self) -> AsptDirection {
        self.direction
    }

    /// Device memory for original CSR + reordered copy + tile metadata: the
    /// paper's "3x the memory".
    pub fn memory_bytes(&self) -> u64 {
        3 * self.base_csr_bytes
    }
}

/// ASpT SpMM: heavy tiles exploit shared-memory reuse of B rows across the
/// panel; light nonzeros take a row-splitting path.
pub struct AsptSpmmKernel<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    plan: &'a AsptPlan,
    b: Option<&'a Matrix<T>>,
    out: Option<OutputSlice<'a, T>>,
    n: usize,
}

impl<'a, T: Scalar> AsptSpmmKernel<'a, T> {
    pub fn new(
        a: &'a CsrMatrix<T>,
        plan: &'a AsptPlan,
        b: &'a Matrix<T>,
        out: &'a mut Matrix<T>,
    ) -> Result<Self, String> {
        Self::check(a, plan, b.cols())?;
        assert_eq!(a.cols(), b.rows());
        assert_eq!(out.rows(), a.rows());
        assert_eq!(out.cols(), b.cols());
        let n = b.cols();
        Ok(Self {
            a,
            plan,
            b: Some(b),
            out: Some(OutputSlice::new(out.as_mut_slice())),
            n,
        })
    }

    pub fn for_profile(a: &'a CsrMatrix<T>, plan: &'a AsptPlan, n: usize) -> Result<Self, String> {
        Self::check(a, plan, n)?;
        Ok(Self {
            a,
            plan,
            b: None,
            out: None,
            n,
        })
    }

    fn check(a: &CsrMatrix<T>, plan: &AsptPlan, n: usize) -> Result<(), String> {
        if plan.direction != AsptDirection::Spmm {
            return Err("plan was built for SDDMM; ASpT needs per-kernel reorderings".into());
        }
        if !a.rows().is_multiple_of(256) {
            return Err(format!(
                "ASpT requires rows divisible by 256, got {}",
                a.rows()
            ));
        }
        if n != 32 && n != 128 {
            return Err(format!(
                "ASpT kernels support batch sizes 32 and 128, got {n}"
            ));
        }
        Ok(())
    }
}

impl<T: Scalar> Kernel for AsptSpmmKernel<'_, T> {
    fn name(&self) -> String {
        format!("aspt_spmm_{}", T::TAG)
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy((self.n / 32) as u32, self.plan.panels.len() as u32)
    }

    fn block_dim(&self) -> Dim3 {
        // 4 warps cooperating on a panel.
        Dim3::xy(32, 4)
    }

    fn shared_mem_bytes(&self) -> u32 {
        // One heavy tile of B (32 cols x 32 outputs) staged at a time.
        (TILE_COLS * 32 * 4) as u32
    }

    fn regs_per_thread(&self) -> u32 {
        48
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let nnz = self.a.nnz() as u64;
        vec![
            BufferSpec {
                id: BUF_A_VALUES,
                name: "a_values_reordered",
                footprint_bytes: nnz * T::BYTES as u64,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_A_INDICES,
                name: "a_indices_reordered",
                footprint_bytes: nnz * 4,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_A_META,
                name: "tile_metadata",
                footprint_bytes: self.plan.memory_bytes() / 3,
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
        ]
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: the metadata prelude reads 128 bytes from offset 0; heavy
    /// B stages read 32-element strips of real column rows (`c < cols` by
    /// the CSR column invariant), ending at or before `cols * n * eb`; the
    /// panel's clamped output strip ends at or before `rows * n * eb`
    /// (`n0 + 32 <= n` since N is 32 or 128). Value/index traffic is
    /// address-free sector accounting. One heavy tile (at most `TILE_COLS *
    /// 32 * 4` bytes, the declared capacity) is staged per barrier epoch.
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
                    slot: BUF_A_META.0,
                    bound: AccessBound::Extent(128),
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
            barrier: BarrierFacts::BarrierSeparated,
            stage: StageBound::Bytes((TILE_COLS * 32 * 4) as u64),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let panel = &self.plan.panels[block.y as usize];
        let n0 = block.x as usize * 32;
        let eb = T::BYTES as u64;
        let rows = panel.row_end - panel.row_start;

        // Cost-only work is skipped entirely on cache-hit replays.
        if ctx.recording() {
            ctx.misc(10);
            ctx.ld_global(BUF_A_META, 0, 32, 1, 4);

            // ---- Heavy tiles: stage B rows once per panel, reuse across rows.
            for (tile_cols, tile_nnz) in &panel.heavy_tiles {
                // Stage: 32 columns x 32 outputs of B into shared memory. The
                // staged B rows are arbitrary (reordered) columns, so their
                // traces stay per-row.
                let stage_elems = (tile_cols.len() * 32) as u64;
                let stage_instrs = stage_elems.div_ceil(128);
                ctx.cost.ld_global_instrs += stage_instrs;
                ctx.smem_store(stage_instrs, stage_elems * 4, SmemScope::Block);
                for &c in tile_cols {
                    ctx.ld_global_trace(BUF_B, (c as usize * self.n + n0) as u64 * eb, 32 * eb);
                }
                ctx.bar_sync();
                // Each nonzero in the tile: value+index from global (coalesced),
                // B strip from *shared* memory, FMA.
                let t = *tile_nnz as u64;
                ctx.cost.ld_global_instrs += 2 * t.div_ceil(32);
                ctx.cost.gmem[BUF_A_VALUES.0 as usize].ld_sectors += t * eb / 32 + 1;
                ctx.cost.gmem[BUF_A_INDICES.0 as usize].ld_sectors += t / 8 + 1;
                // 128-bit shared reads: one access covers four nonzeros' operands.
                ctx.smem_load(t.div_ceil(4), t * 32 * 4 / 8, SmemScope::Block); // broadcast-amortized
                ctx.cost.fma_instrs += t;
                ctx.misc(2 * t);
                ctx.cost.flops += 2 * t * 32;
                ctx.bar_sync();
            }

            // ---- Light path: row splitting, one warp per row round-robin.
            for &lnnz in &panel.light_nnz {
                let t = lnnz as u64;
                if t == 0 {
                    continue;
                }
                ctx.cost.ld_global_instrs += 2 * t.div_ceil(32) + t;
                ctx.cost.gmem[BUF_A_VALUES.0 as usize].ld_sectors += t * eb / 32 + 1;
                ctx.cost.gmem[BUF_A_INDICES.0 as usize].ld_sectors += t / 8 + 1;
                ctx.cost.gmem[BUF_B.0 as usize].ld_sectors +=
                    t * gpu_sim::memory::sectors_contiguous(0, 32 * eb);
                ctx.cost.fma_instrs += t;
                ctx.misc(2 * t);
                ctx.cost.flops += 2 * t * 32;
            }

            // Store the panel's output strip, one trace per row.
            ctx.cost.st_global_instrs += rows as u64;
            for r in panel.row_start..panel.row_start + rows {
                ctx.st_global_trace(BUF_C, (r * self.n + n0) as u64 * eb, 32 * eb);
            }
        }

        // ---- Functional: reordering is performance-only; results are the
        // plain SpMM of the panel's rows.
        if let (true, Some(b), Some(out)) = (ctx.functional(), self.b, self.out.as_ref()) {
            let b = b.as_slice();
            let n = self.n;
            for r in panel.row_start..panel.row_end {
                let (cols, vals) = self.a.row(r);
                let mut acc = [0.0f32; 32];
                gpu_sim::lanes::fma_accumulate(
                    &mut acc,
                    cols.iter()
                        .zip(vals)
                        .map(|(&col, &val)| (val.to_f32(), &b[col as usize * n + n0..])),
                    |bv| bv.to_f32(),
                );
                for (x, &v) in acc.iter().enumerate() {
                    out.write(r * self.n + n0 + x, T::from_f32(v));
                }
            }
        }
    }
}

/// Functional ASpT SpMM (row-major dense operands; N must be 32 or 128 and
/// rows divisible by 256).
pub fn aspt_spmm<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
) -> Result<(Matrix<T>, LaunchStats), String> {
    let plan = AsptPlan::build(a, AsptDirection::Spmm);
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let stats = {
        let kernel = AsptSpmmKernel::new(a, &plan, b, &mut out)?;
        gpu.launch(&kernel)
    };
    Ok((out, stats))
}

/// Profile ASpT SpMM.
pub fn aspt_spmm_profile<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    n: usize,
) -> Result<LaunchStats, String> {
    let plan = AsptPlan::build(a, AsptDirection::Spmm);
    let kernel = AsptSpmmKernel::<T>::for_profile(a, &plan, n)?;
    Ok(gpu.profile(&kernel))
}

/// ASpT SDDMM: the same tiling idea applied to sampled dense-dense products;
/// heavy tiles stage RHS rows in shared memory for reuse across the panel.
/// Modeled at the cost level as the Sputnik SDDMM with the heavy fraction of
/// outputs getting shared-memory operand reuse — the paper measures ASpT
/// SDDMM slightly *ahead* of Sputnik (Sputnik achieves 92% of its
/// throughput) at the price of 3x memory and kernel-specific reorderings.
pub fn aspt_sddmm_profile<T: Scalar>(
    gpu: &Gpu,
    mask: &CsrMatrix<T>,
    k: usize,
) -> Result<LaunchStats, String> {
    if !mask.rows().is_multiple_of(256) {
        return Err(format!(
            "ASpT requires rows divisible by 256, got {}",
            mask.rows()
        ));
    }
    let plan = AsptPlan::build(mask, AsptDirection::Sddmm);
    let mut stats =
        sputnik::sddmm_profile::<T>(gpu, mask, k, sputnik::SddmmConfig::heuristic::<T>(k));
    // Heavy-fraction reuse: RHS traffic for heavy nonzeros is served from
    // shared memory staged once per (panel, tile) instead of per nonzero.
    let total = (plan.heavy_nnz + plan.light_nnz).max(1) as f64;
    let heavy_frac = plan.heavy_nnz as f64 / total;
    // Each heavy tile stages TILE_COLS rows once and reuses them across the
    // panel: effective RHS traffic scales by ~1/(panel nnz per tile / cols).
    let reuse =
        (plan.heavy_nnz as f64 / (plan.panels.len().max(1) as f64 * TILE_COLS as f64)).max(1.0);
    let saved = heavy_frac * (1.0 - 1.0 / reuse) * 0.15;
    stats.time_us *= 1.0 - saved.clamp(0.0, 0.12);
    stats.kernel = format!("aspt_sddmm_{}", T::TAG);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    #[test]
    fn plan_partitions_all_nonzeros() {
        let a = gen::uniform(512, 1024, 0.8, 71);
        let plan = AsptPlan::build(&a, AsptDirection::Spmm);
        assert_eq!(plan.heavy_nnz + plan.light_nnz, a.nnz());
        assert_eq!(plan.panels.len(), 4);
        assert_eq!(plan.memory_bytes(), 3 * a.bytes(IndexWidth::U32));
    }

    #[test]
    fn dense_matrices_are_mostly_heavy() {
        // At 70% sparsity, most columns exceed the heavy threshold.
        let a = gen::uniform(512, 512, 0.7, 72);
        let plan = AsptPlan::build(&a, AsptDirection::Spmm);
        assert!(
            plan.heavy_nnz > plan.light_nnz,
            "heavy {} vs light {}",
            plan.heavy_nnz,
            plan.light_nnz
        );
    }

    #[test]
    fn extreme_sparsity_is_mostly_light() {
        let a = gen::uniform(512, 4096, 0.995, 73);
        let plan = AsptPlan::build(&a, AsptDirection::Spmm);
        assert!(plan.light_nnz > plan.heavy_nnz);
    }

    #[test]
    fn matches_reference() {
        let a = gen::uniform(256, 128, 0.75, 74);
        let b = Matrix::<f32>::random(128, 32, 75);
        let gpu = Gpu::v100();
        let (c, stats) = aspt_spmm(&gpu, &a, &b).unwrap();
        let expect = sputnik::reference::spmm(&a, &b);
        assert!(c.max_abs_diff(&expect) < 1e-3);
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn rejects_unsupported_shapes() {
        let a = gen::uniform(100, 64, 0.5, 76);
        let gpu = Gpu::v100();
        assert!(
            aspt_spmm_profile::<f32>(&gpu, &a, 32).is_err(),
            "rows not divisible by 256"
        );
        let a = gen::uniform(256, 64, 0.5, 77);
        assert!(
            aspt_spmm_profile::<f32>(&gpu, &a, 64).is_err(),
            "batch must be 32 or 128"
        );
        assert!(aspt_spmm_profile::<f32>(&gpu, &a, 32).is_ok());
    }

    #[test]
    fn direction_mismatch_is_rejected() {
        let a = gen::uniform(256, 64, 0.5, 78);
        let plan = AsptPlan::build(&a, AsptDirection::Sddmm);
        assert!(AsptSpmmKernel::<f32>::for_profile(&a, &plan, 32).is_err());
    }

    #[test]
    fn beats_cusparse_on_rnn_problems() {
        let a = gen::uniform(2048, 2048, 0.8, 79);
        let gpu = Gpu::v100();
        let aspt = aspt_spmm_profile::<f32>(&gpu, &a, 128).unwrap();
        let cusp = crate::cusparse::cusparse_spmm_profile::<f32>(&gpu, &a, 128);
        assert!(aspt.time_us < cusp.time_us);
    }
}
