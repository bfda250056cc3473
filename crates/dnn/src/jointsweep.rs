//! The joint-sparsity crossover sweep (the Figure 9 methodology applied to
//! *activation* density).
//!
//! Figure 9 of the paper sweeps weight sparsity to locate where SpMM
//! overtakes dense GEMM. This module holds the weight sparsity fixed and
//! sweeps the *activation* zero fraction instead, measuring three
//! contenders at every point:
//!
//! * dense GEMM (`baselines::cublas`) — ignores both kinds of sparsity;
//! * weight-only Sputnik SpMM — the paper's kernel, blind to activations;
//! * joint SpMM with an 8x32 pattern LUT.
//!
//! The interesting structure is *multiplicative*: weight-only SpMM's
//! advantage over GEMM comes from the weight sparsity, and the joint
//! kernel's advantage over weight-only SpMM comes from the activation
//! sparsity, so the two compose. The sweep also locates the activation-
//! density crossover: the zero fraction past which the joint kernel beats
//! dense GEMM even when weight-only SpMM alone does not.
//!
//! Every point functionally launches both sparse contenders and asserts
//! nothing — it *records* whether the joint output is bit-identical to the
//! weight-only output, and downstream gates (tests, the
//! `jointwall` bench) turn that bit into a hard failure.

use baselines::gemm_profile;
use gpu_sim::Gpu;
use sparse::{gen, CsrMatrix, Matrix, PatternGranularity, PatternLut};
use sputnik::{joint_heuristic, joint_spmm, spmm, SpmmConfig};

/// One activation-density point of the sweep.
#[derive(Debug, Clone)]
pub struct JointSweepPoint {
    /// Target zero fraction handed to the activation generator.
    pub target_zero_frac: f64,
    /// Zero fraction the generator actually realized.
    pub realized_zero_frac: f64,
    /// Fraction of 8x32 LUT tiles proven dead.
    pub fine_dead_frac: f64,
    /// Simulated time of the dense GEMM baseline, microseconds.
    pub dense_gemm_us: f64,
    /// Simulated time of weight-only Sputnik SpMM, microseconds.
    pub weight_spmm_us: f64,
    /// Simulated time of the joint kernel with the 8x32 LUT, microseconds.
    pub joint_fine_us: f64,
    /// Whether the joint output matched the weight-only SpMM output
    /// bit-for-bit (the soundness contract, recorded per point).
    pub bit_identical: bool,
}

impl JointSweepPoint {
    /// Joint-fine speedup over the weight-only kernel (the activation
    /// multiplier).
    pub fn fine_speedup_vs_spmm(&self) -> f64 {
        self.weight_spmm_us / self.joint_fine_us
    }

    /// Whether the fine joint kernel beats the dense GEMM baseline here.
    pub fn fine_beats_dense(&self) -> bool {
        self.joint_fine_us < self.dense_gemm_us
    }
}

/// A completed crossover sweep over one problem shape.
#[derive(Debug, Clone)]
pub struct JointSweep {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Weight sparsity held fixed across the sweep.
    pub weight_sparsity: f64,
    /// Points in ascending target-zero-fraction order.
    pub points: Vec<JointSweepPoint>,
}

impl JointSweep {
    /// The activation-density crossover: the smallest swept zero fraction at
    /// which the fine joint kernel beats dense GEMM, if any point does.
    /// `None` means the dense baseline won everywhere (e.g. the weights are
    /// too dense for any activation sparsity to compensate).
    pub fn crossover_zero_frac(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.fine_beats_dense())
            .map(|p| p.target_zero_frac)
    }

    /// True iff every point's joint outputs were bit-identical to the
    /// weight-only kernel's.
    pub fn all_bit_identical(&self) -> bool {
        self.points.iter().all(|p| p.bit_identical)
    }
}

fn zero_fraction(m: &Matrix<f32>) -> f64 {
    let total = m.as_slice().len();
    if total == 0 {
        return 0.0;
    }
    let zeros = m.as_slice().iter().filter(|v| v.to_bits() == 0).count();
    zeros as f64 / total as f64
}

fn bits_equal(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run the crossover sweep: fixed `m x k` weights at `weight_sparsity`,
/// `k x n` activations regenerated at each target zero fraction with the
/// seeded generator ([`sparse::gen::activations`]), one functional launch
/// per contender per point. Deterministic for fixed arguments.
pub fn joint_crossover_sweep(
    gpu: &Gpu,
    m: usize,
    k: usize,
    n: usize,
    weight_sparsity: f64,
    zero_fracs: &[f64],
    seed: u64,
) -> JointSweep {
    let a: CsrMatrix<f32> = gen::uniform(m, k, weight_sparsity, seed);
    let cfg: SpmmConfig = joint_heuristic::<f32>(n);
    let mut points = Vec::with_capacity(zero_fracs.len());
    for (i, &zf) in zero_fracs.iter().enumerate() {
        let b = gen::activations(k, n, zf, seed.wrapping_add(1 + i as u64));
        let fine = PatternLut::build(&b, PatternGranularity::Fine);

        let dense_gemm_us = gemm_profile(gpu, m, k, n).time_us;
        let (c_weight, weight_stats) = spmm(gpu, &a, &b, cfg);
        let (c_fine, fine_stats) = joint_spmm(gpu, &a, &b, &fine, cfg);

        points.push(JointSweepPoint {
            target_zero_frac: zf,
            realized_zero_frac: zero_fraction(&b),
            fine_dead_frac: fine.dead_fraction(),
            dense_gemm_us,
            weight_spmm_us: weight_stats.time_us,
            joint_fine_us: fine_stats.time_us,
            bit_identical: bits_equal(&c_fine, &c_weight),
        });
    }
    JointSweep {
        m,
        k,
        n,
        weight_sparsity,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> JointSweep {
        // Memory-bound enough (B overflows L2 reuse) that skipped B traffic
        // shows up in launch time, small enough for a functional test.
        let gpu = Gpu::v100();
        joint_crossover_sweep(&gpu, 512, 1024, 256, 0.9, &[0.0, 0.3, 0.6, 0.85], 0x10_17)
    }

    #[test]
    fn sweep_is_bit_identical_at_every_point() {
        let s = sweep();
        assert_eq!(s.points.len(), 4);
        assert!(s.all_bit_identical(), "joint outputs diverged: {s:?}");
    }

    #[test]
    fn skipping_pays_off_as_activations_sparsify() {
        let s = sweep();
        let first = &s.points[0];
        let last = &s.points[s.points.len() - 1];
        assert!(
            last.joint_fine_us < first.joint_fine_us,
            "fine joint time should fall with activation sparsity: {} -> {}",
            first.joint_fine_us,
            last.joint_fine_us
        );
        assert!(
            last.fine_speedup_vs_spmm() > 1.2,
            "fine skip speedup at 85% target zeros: {}",
            last.fine_speedup_vs_spmm()
        );
    }

    #[test]
    fn dense_baseline_is_density_invariant() {
        let s = sweep();
        let d0 = s.points[0].dense_gemm_us;
        for p in &s.points {
            assert!((p.dense_gemm_us - d0).abs() < 1e-9, "GEMM ignores sparsity");
        }
    }

    #[test]
    fn crossover_is_reported_in_sweep_order() {
        let s = sweep();
        if let Some(zf) = s.crossover_zero_frac() {
            let idx = s
                .points
                .iter()
                .position(|p| p.target_zero_frac == zf)
                .expect("crossover point is a swept point");
            assert!(s.points[idx].fine_beats_dense());
            assert!(!s.points[..idx].iter().any(|p| p.fine_beats_dense()));
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let gpu = Gpu::v100();
        let a = joint_crossover_sweep(&gpu, 64, 128, 32, 0.7, &[0.5], 42);
        let b = joint_crossover_sweep(&gpu, 64, 128, 32, 0.7, &[0.5], 42);
        assert_eq!(a.points[0].joint_fine_us, b.points[0].joint_fine_us);
        assert_eq!(
            a.points[0].realized_zero_frac,
            b.points[0].realized_zero_frac
        );
    }
}
