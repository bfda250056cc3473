//! Multi-head attention: dense and sparse (Section VII-C).
//!
//! Dense attention computes `Softmax(Q K^T / sqrt(d_k)) V` with two GEMMs
//! and a dense softmax. Sparse attention computes "a subset of the outputs
//! of QK^T and then multiplies the sparse output by V. With unstructured
//! sparsity, these operations correspond to an SDDMM followed by an SpMM",
//! with the paper's custom sparse softmax in between.
//!
//! The sparse path is [`sputnik::sparse_attention_fused`]: the whole SDDMM →
//! scale → softmax → SpMM chain goes to the launch funnel as one fused
//! kernel, and when the funnel's static audit refutes it (the mask's staging
//! footprint exceeds the device's shared memory) it falls back to the
//! bit-identical three-launch pipeline. Either way the logit
//! scale is folded into a kernel (never applied by the host), so every
//! simulated microsecond and every device-data mutation is attributed to a
//! launch. Both paths report core's [`AttentionTime`].

use gpu_sim::Gpu;
use sparse::{CsrMatrix, Matrix};
pub use sputnik::AttentionTime;

/// Functional dense attention for one head: `q`, `k`, `v` are `seq x d`.
/// Returns the context and the simulated time of the three kernels (the
/// host-side K transpose stands in for cuBLAS's transB mode, which is free;
/// the logit scale rides inside the softmax kernel's read pass).
pub fn dense_attention(
    gpu: &Gpu,
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
) -> (Matrix<f32>, AttentionTime) {
    assert_eq!(q.cols(), k.cols());
    assert_eq!(k.rows(), v.rows());
    let d = q.cols();
    let scale = 1.0 / (d as f32).sqrt();

    let kt = k.transpose();
    let (scores, s1) = baselines::gemm(gpu, q, &kt);
    let (probs, s2) = crate::layers::dense_softmax_scaled(gpu, &scores, scale);
    let (ctxm, s3) = baselines::gemm(gpu, &probs, v);
    (
        ctxm,
        AttentionTime {
            scores_us: s1.time_us,
            softmax_us: s2.time_us,
            context_us: s3.time_us,
            launches: 3,
            ..Default::default()
        },
    )
}

/// Functional sparse attention for one head with the given connectivity
/// mask: one fused launch when the staging footprint fits shared memory,
/// the three-launch fallback otherwise.
pub fn sparse_attention(
    gpu: &Gpu,
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
) -> (Matrix<f32>, AttentionTime) {
    let scale = 1.0 / (q.cols() as f32).sqrt();
    let run = sputnik::sparse_attention_fused(gpu, q, k, v, mask, scale, None, None);
    (run.context, run.time)
}

/// Cost-only dense attention for one `seq x d` head.
pub fn dense_attention_profile(gpu: &Gpu, seq: usize, d: usize) -> AttentionTime {
    let scale = 1.0 / (d as f32).sqrt();
    AttentionTime {
        scores_us: baselines::gemm_profile(gpu, seq, d, seq).time_us,
        softmax_us: crate::layers::dense_softmax_scaled_profile(gpu, seq, seq, scale).time_us,
        context_us: baselines::gemm_profile(gpu, seq, seq, d).time_us,
        launches: 3,
        ..Default::default()
    }
}

/// Cost-only sparse attention for one head with the given mask, through
/// the same decision and config selection as the functional path.
pub fn sparse_attention_profile(gpu: &Gpu, mask: &CsrMatrix<f32>, d: usize) -> AttentionTime {
    let scale = 1.0 / (d as f32).sqrt();
    let (time, _, _) = sputnik::sparse_attention_fused_profile(gpu, mask, d, d, scale, None, None)
        .unwrap_or_else(|e| panic!("sparse_attention_profile: {e}"));
    time
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    /// Sparse attention under a fully dense causal mask must agree with
    /// dense attention masked the same way — checked against a host
    /// implementation instead (simpler and exact).
    #[test]
    fn sparse_attention_matches_host_reference() {
        let seq = 48;
        let d = 16;
        let q = Matrix::<f32>::random(seq, d, 101);
        let k = Matrix::<f32>::random(seq, d, 102);
        let v = Matrix::<f32>::random(seq, d, 103);
        let mask = gen::attention_mask(seq, 8, 0.8, 104);
        let gpu = Gpu::v100();
        let (ctxm, t) = sparse_attention(&gpu, &q, &k, &v, &mask);
        assert!(t.fused_us > 0.0, "small head should take the fused path");

        // Host reference.
        let scale = 1.0 / (d as f32).sqrt();
        for i in 0..seq {
            let (cols, _) = mask.row(i);
            let logits: Vec<f32> = cols
                .iter()
                .map(|&j| {
                    (0..d)
                        .map(|l| q.get(i, l) * k.get(j as usize, l))
                        .sum::<f32>()
                        * scale
                })
                .collect();
            let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for l in 0..d {
                let want: f32 = cols
                    .iter()
                    .zip(&exps)
                    .map(|(&j, &e)| e / sum * v.get(j as usize, l))
                    .sum();
                let got = ctxm.get(i, l);
                assert!((got - want).abs() < 1e-3, "({i},{l}): {got} vs {want}");
            }
        }
    }

    /// The fused-when-legal path and the three-launch reference must agree
    /// bitwise — fusion is invisible to the numbers.
    #[test]
    fn fused_and_unfused_attention_agree_bitwise() {
        let seq = 64;
        let d = 16;
        let q = Matrix::<f32>::random(seq, d, 110);
        let k = Matrix::<f32>::random(seq, d, 111);
        let v = Matrix::<f32>::random(seq, d, 112);
        let mask = gen::attention_mask(seq, 8, 0.8, 113);
        let gpu = Gpu::v100();
        let (fused, tf) = sparse_attention(&gpu, &q, &k, &v, &mask);
        let configs = sputnik::attention_configs(&gpu, None, None, &mask, d, d);
        let scale = 1.0 / (d as f32).sqrt();
        let (unfused, tu) =
            sputnik::sparse_attention_unfused(&gpu, &q, &k, &v, &mask, scale, &configs).unwrap();
        assert!(tf.fused_us > 0.0 && tu.fused_us == 0.0);
        assert_eq!(fused.as_slice(), unfused.as_slice());
    }

    #[test]
    fn dense_attention_rows_are_convex_combinations() {
        let seq = 32;
        let d = 8;
        let q = Matrix::<f32>::random(seq, d, 105);
        let k = Matrix::<f32>::random(seq, d, 106);
        // V = all ones: every output must be exactly 1 (softmax sums to 1).
        let v = Matrix::<f32>::from_fn(seq, d, |_, _| 1.0);
        let gpu = Gpu::v100();
        let (ctxm, t) = dense_attention(&gpu, &q, &k, &v);
        for r in 0..seq {
            for c in 0..d {
                assert!((ctxm.get(r, c) - 1.0).abs() < 1e-4);
            }
        }
        assert!(t.total_us() > 0.0);
    }

    #[test]
    fn sparse_attention_is_faster_at_long_sequences() {
        // The headline effect: at seq >> band, sparse attention wins.
        let gpu = Gpu::v100();
        let seq = 4096;
        let d = 64;
        let mask = gen::attention_mask(seq, 128, 0.95, 107);
        let dense = dense_attention_profile(&gpu, seq, d);
        let sparse = sparse_attention_profile(&gpu, &mask, d);
        let speedup = dense.total_us() / sparse.total_us();
        assert!(
            speedup > 1.5,
            "sparse attention should win at seq={seq}, got {speedup:.2}x"
        );
    }

    #[test]
    fn fusion_beats_unfused_profile_at_long_sequences() {
        let gpu = Gpu::v100();
        let d = 64;
        let mask = gen::attention_mask(4096, 128, 0.95, 108);
        let fused = sparse_attention_profile(&gpu, &mask, d);
        assert!(fused.fused_us > 0.0, "band mask must fuse");
        let scale = 1.0 / (d as f32).sqrt();
        let configs = sputnik::attention_configs(&gpu, None, None, &mask, d, d);
        let mut unfused_us = 0.0;
        unfused_us += sputnik::sddmm_profile::<f32>(&gpu, &mask, d, configs.sddmm).time_us;
        unfused_us += sputnik::sparse_softmax_scaled_profile::<f32>(&gpu, &mask, scale).time_us;
        unfused_us +=
            sputnik::spmm_profile::<f32>(&gpu, &mask, mask.cols(), d, configs.spmm).time_us;
        let speedup = unfused_us / fused.total_us();
        assert!(
            speedup > 1.3,
            "fusion should win at seq=4096, got {speedup:.2}x"
        );
    }
}
