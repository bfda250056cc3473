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
//! [`JointSpmmKernel`] is [`SpmmKernel`] with a precomputed
//! [`sparse::PatternLut`] attached — a bitmap of 8x32 zero blocks of B.
//! There is one SpMM body: this module adds the LUT checks to
//! construction, its own launch name and the probe's two registers, and
//! forwards everything else to [`SpmmKernel`], which skips
//! the B load + FMA of any stored nonzero whose target tile the LUT marks
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
//! * Surviving elements run the *exact* per-element `mul_add` order of the
//!   weight-only kernel: it is the same functional body, with the LUT as
//!   one more filter term on its element stream.
//!
//! Therefore `joint_spmm` output is bit-identical to `spmm` output on the
//! same operands — asserted per-element in the tests and in the `jointwall`
//! bench gate, never within a tolerance.
//!
//! ## Cost model
//!
//! The cost trace is [`SpmmKernel`]'s. The A-side is unchanged: values and
//! indices are staged to shared memory in full (the indices must be *read*
//! to be probed), and the warp-divergence model is the dense one. Per strip
//! the LUT adds one gather of the distinct LUT words touched plus one
//! bit-test instruction per position, and then scales the inner-loop body —
//! B-load instructions, index-scaling, FMAs — by the strip's *union-live*
//! count: a position is executed iff at least one subwarp in the warp is
//! live there (dead positions are skipped warp-uniformly; a position where
//! any subwarp survives costs the whole warp an instruction slot, which is
//! exactly the lockstep-execution price the warp-uniform design accepts).
//! Per-subwarp B traffic and useful FLOPs count only that subwarp's own
//! live positions — a predicated-off lane moves no sectors. With every
//! position live the charges are exactly the weight-only kernel's, so any
//! change to the SpMM cost model moves the joint numbers with it.

use crate::config::SpmmConfig;
use crate::error::SputnikError;
use crate::spmm::{require_finite, validate_spmm, SpmmKernel};
use gpu_sim::trace::{self, Entry};
use gpu_sim::{
    BlockContext, BufferSpec, Dim3, Gpu, Kernel, LaunchRequest, LaunchStats, StaticFacts,
};
use sparse::{CsrMatrix, Matrix, PatternLut, RowSwizzle, Scalar};

/// The joint-sparsity SpMM kernel. Construct via [`JointSpmmKernel::try_new`]
/// (functional) or [`JointSpmmKernel::for_profile`] (cost model only), or
/// use the [`joint_spmm`] / [`joint_spmm_profile`] wrappers.
pub struct JointSpmmKernel<'a, T: Scalar> {
    /// The SpMM kernel, probing the LUT.
    spmm: SpmmKernel<'a, T>,
    /// `sputnik_joint_spmm_{T}_{cfg}_g8` (`g8` names the 8-row LUT tile).
    name: String,
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
        let spmm = SpmmKernel::try_new(a, b, out, swizzle, cfg)?;
        Self::validate_joint(a, swizzle, lut, &cfg, b.cols())?;
        Ok(Self::probing(spmm, lut, &cfg))
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
        let spmm = SpmmKernel::for_profile(a, n, swizzle, cfg);
        Ok(Self::probing(spmm, lut, &cfg))
    }

    fn probing(spmm: SpmmKernel<'a, T>, lut: &'a PatternLut, cfg: &SpmmConfig) -> Self {
        Self {
            spmm: spmm.with_lut(lut),
            name: format!("sputnik_joint_spmm_{}_{}_g8", T::TAG, cfg.tag()),
        }
    }
}

impl<T: Scalar> Kernel for JointSpmmKernel<'_, T> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn grid(&self) -> Dim3 {
        self.spmm.grid()
    }

    fn block_dim(&self) -> Dim3 {
        self.spmm.block_dim()
    }

    fn shared_mem_bytes(&self) -> u32 {
        self.spmm.shared_mem_bytes()
    }

    fn regs_per_thread(&self) -> u32 {
        // One extra register pair holds the strip's probe word + predicate.
        self.spmm.regs_per_thread() + 2
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        self.spmm.buffers()
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        self.spmm.execute_block(block, ctx);
    }

    fn static_facts(&self) -> StaticFacts {
        self.spmm.static_facts()
    }

    fn poison_output(&self, seed: u64) {
        self.spmm.poison_output(seed);
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

    fn lut_of(b: &Matrix<f32>) -> PatternLut {
        PatternLut::build(b, PatternGranularity::Fine)
    }

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
        let lut = lut_of(&b);
        assert!(
            lut.tiles_dead() > 0,
            "test needs real skips to be meaningful"
        );
        for cfg in variants {
            let (dense, _) = spmm(&gpu, &a, &b, cfg);
            let (joint, stats) = joint_spmm(&gpu, &a, &b, &lut, cfg);
            assert_bit_identical(&joint, &dense, &cfg.tag());
            assert!(stats.time_us > 0.0);
        }
    }

    #[test]
    fn bit_identical_on_ragged_shapes_and_densities() {
        let gpu = Gpu::v100();
        for (m, k, n) in [(37usize, 53usize, 19usize), (13, 130, 37), (1, 64, 32)] {
            for zero_frac in [0.0, 0.5, 0.9] {
                let (a, b) = problem(m, k, n, zero_frac);
                let cfg = joint_heuristic::<f32>(n);
                let lut = lut_of(&b);
                let (dense, _) = spmm(&gpu, &a, &b, cfg);
                let (joint, _) = joint_spmm(&gpu, &a, &b, &lut, cfg);
                assert_bit_identical(&joint, &dense, &format!("{m}x{k}x{n} zf={zero_frac}"));
            }
        }
    }

    #[test]
    fn negative_zero_activations_stay_live_and_identical() {
        // -0.0 marks a tile live, so a B full of negative zeros must take
        // the unskipped path and still match the dense kernel exactly.
        let a = gen::uniform(16, 32, 0.5, 3);
        let b = Matrix::<f32>::from_fn(32, 32, |r, c| if (r + c) % 3 == 0 { -0.0 } else { 0.25 });
        let lut = lut_of(&b);
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
        let lut = lut_of(&b);
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
        let lut = lut_of(&b);
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
        let lut = lut_of(&b);
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
        let other = lut_of(&gen::activations(64, 32, 0.5, 1));
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
        let lut = lut_of(&b);
        let (probes, dead) = lut.probe_stats(&a);
        assert!(probes > 0 && dead > 0, "problem must exercise real skips");
        let before_total = gpu_sim::metrics::global().get("joint_tiles_total");
        let before_skip = gpu_sim::metrics::global().get("joint_tiles_skipped");
        let gpu = Gpu::v100();
        let _ = joint_spmm(&gpu, &a, &b, &lut, SpmmConfig::default());
        assert_eq!(
            gpu_sim::metrics::global().get("joint_tiles_total"),
            before_total + probes
        );
        assert_eq!(
            gpu_sim::metrics::global().get("joint_tiles_skipped"),
            before_skip + dead
        );
    }

    #[test]
    fn skipping_beats_the_dense_kernel_on_sparse_activations() {
        let a = gen::uniform(256, 512, 0.8, 5);
        let b = gen::activations(512, 128, 0.85, 7);
        let lut = lut_of(&b);
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
        let lut = lut_of(&b);
        assert_eq!(lut.tiles_live(), 0);
        let gpu = Gpu::v100();
        let (c, stats) = joint_spmm(&gpu, &a, &b, &lut, SpmmConfig::default());
        assert!(c.as_slice().iter().all(|v| v.to_bits() == 0));
        assert_eq!(stats.flops, 0);
    }
}
