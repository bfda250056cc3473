//! Sparse softmax kernel.
//!
//! The paper's sparse Transformer needs a softmax over the nonzero values of
//! each row of a sparse matrix ("we additionally wrote a kernel that
//! computes the softmax function on a sparse matrix", Section VII-C1). One
//! warp processes one row: a max-reduction pass for numerical stability, an
//! exp-and-sum pass, and a normalize-and-store pass, with warp shuffle
//! reductions between passes.

use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferId,
    BufferSpec, Dim3, Gpu, Kernel, LaunchStats, OutputSlice, StageBound, StaticFacts,
};
use sparse::{CsrMatrix, Scalar};

pub const BUF_VALUES: BufferId = BufferId(0);
pub const BUF_OFFSETS: BufferId = BufferId(1);
pub const BUF_OUT: BufferId = BufferId(2);

/// Warps (= rows) per thread block.
const ROWS_PER_BLOCK: u32 = 4;

/// The simulated sparse-softmax kernel.
pub struct SparseSoftmaxKernel<'a, T: Scalar> {
    m: &'a CsrMatrix<T>,
    out_values: Option<OutputSlice<'a, T>>,
    vector_width: u32,
    /// Logit scale folded into the read passes (attention's `1/sqrt(d)`).
    /// `None` is the plain softmax; `Some` meters one extra multiply pass
    /// and tags the launch name, so scaled and unscaled launches can never
    /// alias in the [`gpu_sim::LaunchCache`].
    scale: Option<f32>,
}

impl<'a, T: Scalar> SparseSoftmaxKernel<'a, T> {
    pub fn new(m: &'a CsrMatrix<T>, out_values: &'a mut [T]) -> Self {
        assert_eq!(out_values.len(), m.nnz());
        Self {
            m,
            out_values: Some(OutputSlice::new(out_values)),
            vector_width: 16 / T::BYTES,
            scale: None,
        }
    }

    pub fn for_profile(m: &'a CsrMatrix<T>) -> Self {
        Self {
            m,
            out_values: None,
            vector_width: 16 / T::BYTES,
            scale: None,
        }
    }

    /// Fold a logit scale into the kernel: every stored value is read as
    /// `value * scale` before the max/exp/normalize passes. Replaces the
    /// unmetered host-side scale loop the attention path used to run
    /// between launches.
    pub fn with_scale(mut self, scale: f32) -> Self {
        self.scale = Some(scale);
        self
    }
}

impl<T: Scalar> Kernel for SparseSoftmaxKernel<'_, T> {
    fn name(&self) -> String {
        match self.scale {
            None => format!("sputnik_sparse_softmax_{}", T::TAG),
            Some(_) => format!("sputnik_sparse_softmax_scaled_{}", T::TAG),
        }
    }

    fn grid(&self) -> Dim3 {
        Dim3::x((self.m.rows() as u32).div_ceil(ROWS_PER_BLOCK))
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::xy(32, ROWS_PER_BLOCK)
    }

    fn regs_per_thread(&self) -> u32 {
        24
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let eb = T::BYTES as u64;
        vec![
            BufferSpec {
                id: BUF_VALUES,
                name: "values",
                footprint_bytes: self.m.nnz() as u64 * eb,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_OFFSETS,
                name: "row_offsets",
                footprint_bytes: (self.m.rows() as u64 + 1) * 4,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_OUT,
                name: "out_values",
                footprint_bytes: self.m.nnz() as u64 * eb,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: each warp owns one row and touches `[start, start + len)`
    /// of the value/output buffers (`start + len <= nnz` by CSR), plus an
    /// 8-byte offset pair ending at `(rows + 1) * 4`. All accesses are
    /// scalar (the vector width only shapes instruction counts), warps never
    /// communicate (reductions are intra-warp shuffles), and no shared
    /// memory is declared or staged.
    fn static_facts(&self) -> StaticFacts {
        let eb = T::BYTES as u64;
        let nnz = self.m.nnz() as u64;
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_VALUES.0,
                    bound: AccessBound::Extent(nnz * eb),
                },
                BufferBound {
                    slot: BUF_OFFSETS.0,
                    bound: AccessBound::Extent((self.m.rows() as u64 + 1) * 4),
                },
                BufferBound {
                    slot: BUF_OUT.0,
                    bound: AccessBound::Extent(nnz * eb),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(0),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let eb = T::BYTES;
        let vw = self.vector_width;
        for w in 0..ROWS_PER_BLOCK as usize {
            let row = block.x as usize * ROWS_PER_BLOCK as usize + w;
            if row >= self.m.rows() {
                continue;
            }
            ctx.misc(4);
            ctx.ld_global(BUF_OFFSETS, row as u64 * 4, 2, 1, 4);
            let start = self.m.row_offsets()[row] as usize;
            let len = self.m.row_len(row);
            if len == 0 {
                continue;
            }

            // Two read passes (max, exp+sum) and one write pass. The values
            // are re-read rather than cached: rows can exceed register space.
            // Cost-only math is skipped on cache-hit replays.
            if ctx.recording() {
                let load_instrs = gpu_sim::memory::vector_instr_count(len as u64, 32, vw);
                let sectors = gpu_sim::memory::sectors_contiguous(
                    start as u64 * eb as u64,
                    len as u64 * eb as u64,
                );
                ctx.cost.ld_global_instrs += 3 * load_instrs;
                ctx.cost.gmem[BUF_VALUES.0 as usize].ld_sectors += 3 * sectors;
                // exp on each element + subtract max + divide: ~3 FLOPs each,
                // exp modeled as one MUFU-pipe instruction per element slice.
                let elem_instrs = (len as u64).div_ceil(32);
                if self.scale.is_some() {
                    // The metered logit-scale multiply (one pass).
                    ctx.fp(elem_instrs, len as u64);
                    ctx.cost.flops += len as u64;
                }
                ctx.fp(3 * elem_instrs, 3 * len as u64);
                // Warp reductions: 5 shuffle + 5 op for max, same for sum.
                ctx.shfl(10);
                ctx.fp(10, 10);
                ctx.cost.st_global_instrs += load_instrs;
                ctx.cost.gmem[BUF_OUT.0 as usize].st_sectors += sectors;
                ctx.cost.flops += 3 * len as u64;
            }

            if let (true, Some(out)) = (ctx.functional(), self.out_values.as_ref()) {
                // Arena-staged logits (the row's shared-memory tile in the
                // CUDA kernel): stored value times the folded scale, or the
                // stored value untouched when unscaled.
                let mut row_p = ctx.scratch_f32(len);
                for (p, v) in row_p.iter_mut().zip(&self.m.values()[start..start + len]) {
                    *p = match self.scale {
                        Some(s) => v.to_f32() * s,
                        None => v.to_f32(),
                    };
                }
                gpu_sim::lanes::softmax_in_place(&mut row_p);
                out.write_run(start, row_p.iter().map(|&p| T::from_f32(p)));
            }
        }
    }
}

/// Run the sparse softmax: returns the normalized sparse matrix and stats.
pub fn sparse_softmax<T: Scalar>(gpu: &Gpu, m: &CsrMatrix<T>) -> (CsrMatrix<T>, LaunchStats) {
    let mut values = vec![T::zero(); m.nnz()];
    let stats = {
        let kernel = SparseSoftmaxKernel::new(m, &mut values);
        gpu.launch(&kernel)
    };
    (m.with_values(values), stats)
}

/// Profile the sparse softmax (cost only).
pub fn sparse_softmax_profile<T: Scalar>(gpu: &Gpu, m: &CsrMatrix<T>) -> LaunchStats {
    let kernel = SparseSoftmaxKernel::for_profile(m);
    gpu.profile(&kernel)
}

/// Run the sparse softmax with a folded logit scale: each stored value is
/// read as `value * scale`. This is the attention path's `1/sqrt(d)` —
/// previously a host-side loop between launches with zero simulated cost.
pub fn sparse_softmax_scaled<T: Scalar>(
    gpu: &Gpu,
    m: &CsrMatrix<T>,
    scale: f32,
) -> (CsrMatrix<T>, LaunchStats) {
    let mut values = vec![T::zero(); m.nnz()];
    let stats = {
        let kernel = SparseSoftmaxKernel::new(m, &mut values).with_scale(scale);
        gpu.launch(&kernel)
    };
    (m.with_values(values), stats)
}

/// Profile the scaled sparse softmax (cost only).
pub fn sparse_softmax_scaled_profile<T: Scalar>(
    gpu: &Gpu,
    m: &CsrMatrix<T>,
    scale: f32,
) -> LaunchStats {
    let kernel = SparseSoftmaxKernel::for_profile(m).with_scale(scale);
    gpu.profile(&kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sparse::gen;

    #[test]
    fn matches_reference() {
        let m = gen::uniform(64, 96, 0.8, 41);
        let gpu = Gpu::v100();
        let (s, stats) = sparse_softmax(&gpu, &m);
        let expect = reference::sparse_softmax(&m);
        for (got, want) in s.values().iter().zip(expect.values()) {
            assert!((got - want).abs() < 1e-5);
        }
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn rows_sum_to_one() {
        let m = gen::attention_mask(256, 32, 0.9, 42);
        // Give the mask non-trivial values (attention logits).
        let m = m.with_values((0..m.nnz()).map(|i| (i % 13) as f32 * 0.3 - 2.0).collect());
        let gpu = Gpu::v100();
        let (s, _) = sparse_softmax(&gpu, &m);
        for r in 0..s.rows() {
            let (_, vals) = s.row(r);
            if vals.is_empty() {
                continue;
            }
            let sum: f32 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r}: {sum}");
        }
    }

    #[test]
    fn handles_empty_rows() {
        let m = CsrMatrix::<f32>::from_parts(
            3,
            4,
            vec![0, 2, 2, 3],
            vec![0, 1, 3],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        let gpu = Gpu::v100();
        let (s, _) = sparse_softmax(&gpu, &m);
        assert_eq!(s.row_len(1), 0);
        let (_, vals) = s.row(2);
        assert!(
            (vals[0] - 1.0).abs() < 1e-6,
            "single-element row softmaxes to 1"
        );
    }

    #[test]
    fn mixed_precision_softmax() {
        use sparse::Half;
        let m = gen::uniform(32, 48, 0.7, 44).convert::<Half>();
        let gpu = Gpu::v100();
        let (s, stats) = sparse_softmax(&gpu, &m);
        for r in 0..32 {
            let (_, vals) = s.row(r);
            if vals.is_empty() {
                continue;
            }
            let sum: f32 = vals.iter().map(|v| v.to_f32()).sum();
            assert!(
                (sum - 1.0).abs() < 5e-3,
                "row {r}: {sum} (half-rounding tolerance)"
            );
        }
        let f32_stats = sparse_softmax_profile::<f32>(&gpu, &m.convert::<f32>());
        assert!(
            stats.dram_bytes < f32_stats.dram_bytes,
            "f16 halves the value traffic"
        );
    }

    /// Regression: the normalize pass divided by the exp-sum unguarded, so
    /// rows whose logits drive the sum degenerate (all `-inf`, or a `+inf`
    /// making `exp(inf - inf)` NaN) emitted NaNs — which the dispatch
    /// NaN-guard then misattributed to a kernel fault. Every pathological
    /// row must now produce a finite distribution that sums to one.
    #[test]
    fn pathological_rows_stay_finite() {
        let m = CsrMatrix::<f32>::from_parts(
            4,
            4,
            vec![0, 3, 5, 8, 10],
            vec![0, 1, 2, 0, 3, 1, 2, 3, 0, 2],
            vec![
                // Row 0: all hugely negative but finite.
                -3.0e38,
                -3.0e38,
                -3.0e38,
                // Row 1: all -inf.
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                // Row 2: one +inf among finite logits.
                1.0,
                f32::INFINITY,
                -2.0,
                // Row 3: -inf mixed with finite.
                f32::NEG_INFINITY,
                4.0,
            ],
        )
        .unwrap();
        let gpu = Gpu::v100();
        let (s, _) = sparse_softmax(&gpu, &m);
        for r in 0..s.rows() {
            let (_, vals) = s.row(r);
            assert!(
                vals.iter().all(|v| v.is_finite()),
                "row {r} emitted non-finite probabilities: {vals:?}"
            );
            let sum: f32 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        let (_, row2) = s.row(2);
        assert_eq!(row2, [0.0, 1.0, 0.0], "+inf logit takes all the mass");
        let (_, row3) = s.row(3);
        assert_eq!(row3[0], 0.0, "-inf logit gets zero mass");
    }

    /// The folded logit scale must be bit-identical to scaling the stored
    /// values on the host first (the behavior the attention path used to
    /// get from its unmetered host loop), and must cost strictly more than
    /// the plain softmax (the multiply pass is metered now).
    #[test]
    fn scaled_softmax_matches_prescaled_values() {
        let m = gen::uniform(96, 80, 0.75, 45);
        let scale = 0.125;
        let gpu = Gpu::v100();
        let (scaled, scaled_stats) = sparse_softmax_scaled(&gpu, &m, scale);
        let prescaled = m.with_values(m.values().iter().map(|v| v * scale).collect());
        let (want, plain_stats) = sparse_softmax(&gpu, &prescaled);
        assert_eq!(scaled.values(), want.values(), "folded scale diverged");
        assert!(
            scaled_stats.instructions > plain_stats.instructions,
            "the scale pass must be metered"
        );
    }

    #[test]
    fn profile_matches_launch() {
        let m = gen::uniform(128, 128, 0.7, 43);
        let gpu = Gpu::v100();
        let (_, launch) = sparse_softmax(&gpu, &m);
        let profile = sparse_softmax_profile(&gpu, &m);
        assert_eq!(launch.instructions, profile.instructions);
    }

    use sparse::CsrMatrix;
}
