//! The shared kernel/launch registry.
//!
//! Every simulated kernel the workspace ships, constructed on the same
//! deterministic shape grid `sanitize_all` has always swept, and handed to
//! a visitor one launch at a time. Both the dynamic sanitizer sweep
//! (`sanitize_all`) and the static auditor (`static_audit`) iterate THIS
//! list, so the "sanitized kernel set" and the "audited kernel set" cannot
//! drift apart: a kernel added here is automatically both dynamically
//! checked and statically audited. The workspace linter (`xlint`) closes
//! the loop from the other side — any non-test `impl Kernel for T` under
//! `crates/*/src` whose type is never constructed in this file fails the
//! `kernel-registry` lint, so new kernels cannot ship unaudited.
//!
//! Operand lifetimes force the visitor shape: most kernels borrow their
//! output matrix mutably, so the registry owns all operands on its stack
//! and the callback sees each kernel only for the duration of one scope.

use baselines::aspt::AsptSpmmKernel;
use baselines::cusparse::{
    ConstrainedGemmKernel, CusparseSpmmHalfFallbackKernel, CusparseSpmmKernel,
};
use baselines::{
    AsptDirection, AsptPlan, BlockSpmmKernel, GemmKernel, MergeSpmmKernel, NnzSplitSpmmKernel,
    TransposeKernel,
};
use dnn::layers::{BiasReluKernel, DenseSoftmaxKernel, DepthwiseConvKernel};
use dnn::lstm::LstmElementwiseKernel;
use dnn::Chw;
use gpu_sim::microbench::{CopyKernel, FmaKernel, LatencyProbeKernel, SmemSweepKernel};
use gpu_sim::{
    CheckLevel, Gpu, Kernel, LaunchCache, LaunchError, LaunchRequest, Launched,
    SddmmSoftmaxSpmmKernel,
};
use sparse::{block, gen, Layout, Matrix, PatternGranularity, PatternLut, RowSwizzle};
use sputnik::{
    joint_heuristic, FallbackSpmmKernel, JointSpmmKernel, PermuteKernel, SddmmConfig, SddmmKernel,
    SparseSoftmaxKernel, SpmmConfig, SpmmKernel,
};
use std::sync::atomic::AtomicU32;

/// The shape grid: one square power-of-two shape, one ragged shape
/// exercising partial tiles, and one high-sparsity shape with empty rows.
/// `(m, k, n, sparsity)`; shape `i` draws its operands from [`seed`]`(i)`.
pub const SHAPES: [(usize, usize, usize, f64); 3] =
    [(64, 96, 32, 0.7), (128, 128, 128, 0.9), (100, 76, 40, 0.8)];

/// The base seed of shape `i` in [`SHAPES`]; each operand of the shape
/// adds a small offset to it.
pub fn seed(i: usize) -> u64 {
    0x5A17 + i as u64 * 101
}

/// Sanitize one registered launch through `cache` under the pair index
/// `fp`: the registry is deterministic, so the index is a sound operand
/// fingerprint (same index, same operands).
pub fn sanitize_cached(
    gpu: &Gpu,
    cache: &LaunchCache,
    fp: u64,
    kernel: &dyn Kernel,
) -> Result<Launched, LaunchError> {
    let req = LaunchRequest::functional(kernel)
        .cached((cache, fp))
        .check(CheckLevel::Sanitize);
    gpu.run(&req)
}

/// Visit every registered kernel/launch pair once.
///
/// Construction failures panic: the grid is deterministic, so a
/// constructor rejecting one of these shapes is a bug in the registry (or
/// the kernel), not an input problem — and a panic fails the CI bins that
/// iterate the registry just as loudly as a sanitizer violation would.
pub fn for_each_kernel(visit: &mut dyn FnMut(&dyn Kernel)) {
    for (i, &(m, k, n, sparsity)) in SHAPES.iter().enumerate() {
        let seed = seed(i);
        let a = gen::uniform(m, k, sparsity, seed);
        let b = Matrix::<f32>::random(k, n, seed + 1);

        // Sputnik SpMM under the default config, the heuristic config, and
        // the heuristic config with row swizzling.
        for cfg in [
            SpmmConfig::default(),
            SpmmConfig::heuristic::<f32>(n),
            SpmmConfig {
                row_swizzle: true,
                ..SpmmConfig::heuristic::<f32>(n)
            },
        ] {
            let swizzle = RowSwizzle::for_config(&a, cfg.row_swizzle);
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = SpmmKernel::try_new(&a, &b, &mut out, &swizzle, cfg)
                .unwrap_or_else(|e| panic!("registry: spmm construction: {e}"));
            visit(&kernel);
        }

        // Joint activation x weight SpMM: same weights, but the dense
        // operand comes from the seeded activation generator so the pattern
        // LUT has dead tiles to probe.
        {
            let acts = gen::activations(k, n, 0.8, seed + 10);
            let cfg = joint_heuristic::<f32>(n);
            let swizzle = RowSwizzle::identity(a.rows());
            let lut = PatternLut::build(&acts, PatternGranularity::Fine);
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = JointSpmmKernel::try_new(&a, &acts, &mut out, &swizzle, &lut, cfg)
                .unwrap_or_else(|e| panic!("registry: joint spmm construction: {e}"));
            visit(&kernel);
        }

        // Scalar fallback SpMM.
        {
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = FallbackSpmmKernel::new(&a, &b, &mut out);
            visit(&kernel);
        }

        // SDDMM: lhs (m x k) . rhs^T (n x k), sampled by an m x n mask.
        {
            let mask = gen::uniform(m, n, sparsity, seed + 2);
            let lhs = Matrix::<f32>::random(m, k, seed + 3);
            let rhs = Matrix::<f32>::random(n, k, seed + 4);
            let swizzle = RowSwizzle::by_length_desc(&mask);
            let mut values = vec![0.0f32; mask.nnz()];
            let kernel = SddmmKernel::try_new(
                &lhs,
                &rhs,
                &mask,
                &mut values,
                &swizzle,
                SddmmConfig::heuristic::<f32>(k),
            )
            .unwrap_or_else(|e| panic!("registry: sddmm construction: {e}"));
            visit(&kernel);
        }

        // Sparse softmax over the sparse matrix's values.
        {
            let mut values = vec![0.0f32; a.nnz()];
            let kernel = SparseSoftmaxKernel::new(&a, &mut values);
            visit(&kernel);
        }

        // Fused sparse attention (SDDMM + scaled softmax + SpMM over one
        // mask), with the same stage tiles the fusion decision would pick.
        {
            let mask = gen::uniform(m, n, sparsity, seed + 2);
            let q = Matrix::<f32>::random(m, k, seed + 3);
            let kmat = Matrix::<f32>::random(n, k, seed + 4);
            let v = Matrix::<f32>::random(n, k, seed + 5);
            let mut out = Matrix::<f32>::zeros(m, k);
            let sddmm_tile = SddmmConfig::heuristic::<f32>(k).block_items_x as usize;
            let spmm_tile = SpmmConfig::heuristic::<f32>(k).block_items_x as usize;
            let kernel = SddmmSoftmaxSpmmKernel::new(
                &q,
                &kmat,
                &v,
                &mask,
                out.as_mut_slice(),
                0.125,
                sddmm_tile,
                spmm_tile,
                format!("s{sddmm_tile}x{spmm_tile}"),
            );
            visit(&kernel);
        }

        // Value permute (the cached-transpose gather).
        {
            let src = a.values().to_vec();
            let perm: Vec<u32> = (0..a.nnz() as u32).rev().collect();
            let mut dst = vec![0.0f32; a.nnz()];
            let kernel = PermuteKernel::new(&src, &perm, &mut dst);
            visit(&kernel);
        }

        // Dense GEMM and the staging transpose.
        {
            let da = Matrix::<f32>::random(m, k, seed + 5);
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = GemmKernel::new(&da, &b, &mut out);
            visit(&kernel);

            let mut t = Matrix::<f32>::zeros(k, m);
            let kernel = TransposeKernel::new(&da, &mut t);
            visit(&kernel);
        }

        // Merge-based SpMM requires N % 32 == 0.
        if n % 32 == 0 {
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = MergeSpmmKernel::new(&a, &b, &mut out)
                .unwrap_or_else(|e| panic!("registry: merge_spmm construction: {e}"));
            visit(&kernel);
        }

        // Nonzero-splitting SpMM (atomic output).
        {
            let out: Vec<AtomicU32> = (0..m * n).map(|_| AtomicU32::new(0)).collect();
            let kernel = NnzSplitSpmmKernel::new(&a, &b, &out);
            visit(&kernel);
        }

        // cuSPARSE-style SpMM wants column-major B and C.
        {
            let b_cm = b.to_layout(Layout::ColMajor);
            let mut out = Matrix::<f32>::zeros_with_layout(m, n, Layout::ColMajor);
            let kernel = CusparseSpmmKernel::new(&a, &b_cm, &mut out);
            visit(&kernel);

            let kernel = CusparseSpmmHalfFallbackKernel::new(&a, n);
            visit(&kernel);
        }

        // cusparseConstrainedGeMM-style SDDMM (pre-transposed RHS).
        {
            let mask = gen::uniform(m, n, sparsity, seed + 6);
            let lhs = Matrix::<f32>::random(m, k, seed + 7);
            let rhs_t = Matrix::<f32>::random(k, n, seed + 8);
            let mut values = vec![0.0f32; mask.nnz()];
            let kernel = ConstrainedGemmKernel::new(&lhs, &rhs_t, &mask, &mut values);
            visit(&kernel);
        }

        // The dnn epilogues: fused bias + ReLU, dense softmax, and the LSTM
        // gate update with hidden size m and batch n.
        {
            let x = Matrix::<f32>::random(m, n, seed + 11);
            let bias = vec![0.25f32; 4 * m];
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = BiasReluKernel::new(&x, &bias[..m], &mut out, true);
            visit(&kernel);

            let kernel = DenseSoftmaxKernel::new(&x, &mut out);
            visit(&kernel);

            let gates = Matrix::<f32>::random(4 * m, n, seed + 12);
            let mut c_out = Matrix::<f32>::zeros(m, n);
            let kernel = LstmElementwiseKernel::new(&gates, &bias, &x, &mut out, &mut c_out);
            visit(&kernel);
        }
    }

    // Shape-constrained baselines get dedicated launches.
    {
        // ASpT: rows % 256 == 0, n in {32, 128}.
        let a = gen::uniform(256, 128, 0.8, 0xA597);
        let b = Matrix::<f32>::random(128, 32, 0xA598);
        let plan = AsptPlan::build(&a, AsptDirection::Spmm);
        let mut out = Matrix::<f32>::zeros(256, 32);
        let kernel = AsptSpmmKernel::new(&a, &plan, &b, &mut out)
            .unwrap_or_else(|e| panic!("registry: aspt construction: {e}"));
        visit(&kernel);
    }
    {
        // Block-sparse SpMM on a block-pruned weight matrix.
        let dense = Matrix::<f32>::random(64, 64, 0xB10C);
        let bsr = block::block_prune(&dense, 8, 0.5);
        let b = Matrix::<f32>::random(64, 32, 0xB10D);
        let mut out = Matrix::<f32>::zeros(64, 32);
        let kernel = BlockSpmmKernel::new(&bsr, &b, &mut out);
        visit(&kernel);
    }
    // Depthwise 3x3 convolution at both MobileNet strides, on an odd-sized
    // image: stride 2 rounds the output up, and each channel's 256-pixel
    // block is only partly full.
    for stride in [1, 2] {
        let input = Chw::random(6, 13, 11, 0xD3C0);
        let filters = vec![0.1f32; 6 * 9];
        let bias = vec![0.0f32; 6];
        let (oh, ow) = DepthwiseConvKernel::out_dims(13, 11, stride);
        let mut out = Chw::zeros(6, oh, ow);
        let kernel = DepthwiseConvKernel::new(&input, &filters, &bias, &mut out, stride);
        visit(&kernel);
    }
    // The device self-validation microbenchmarks, at small sizes.
    visit(&CopyKernel { n: 16 * 1024 });
    visit(&FmaKernel {
        per_block: 64,
        blocks: 8,
    });
    visit(&LatencyProbeKernel { accesses: 64 });
    visit(&SmemSweepKernel {
        rounds: 4,
        blocks: 8,
        conflict_ways: 1,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is deterministic: 18 kernels per shape (three SpMM
    /// configs, the joint-sparsity SpMM, the fused attention pipeline, the
    /// three dnn epilogues, and ten other kernels), merge-SpMM only where
    /// `n % 32 == 0` (shapes 0 and 1), plus eight dedicated launches: the
    /// two shape-constrained baselines, depthwise convolution at strides 1
    /// and 2, and the four microbenchmarks.
    #[test]
    fn registry_enumerates_every_kernel() {
        let mut names = Vec::new();
        for_each_kernel(&mut |k| names.push(k.name().to_string()));
        let expected: usize = SHAPES
            .iter()
            .map(|&(_, _, n, _)| 18 + usize::from(n % 32 == 0))
            .sum::<usize>()
            + 8;
        assert_eq!(names.len(), expected, "{names:?}");
        for expected in [
            "sputnik_spmm",
            "sputnik_joint_spmm",
            "fallback_spmm",
            "sputnik_sddmm",
            "sputnik_sparse_softmax",
            "fused_sddmm_softmax_spmm",
            "value_permute",
            "cublas_sgemm",
            "cublas_transpose",
            "merge_spmm_rowsplit",
            "nnz_split_spmm",
            "cusparse_spmm",
            "cusparse_constrained_gemm",
            "aspt_spmm",
            "block_sparse_spmm",
            "fused_bias_relu",
            "dense_softmax",
            "lstm_elementwise",
            "depthwise_conv3x3_s1",
            "depthwise_conv3x3_s2",
            "microbench_copy",
            "microbench_fma",
            "microbench_latency",
            "microbench_smem",
        ] {
            assert!(
                names.iter().any(|n| n.starts_with(expected)),
                "registry never visited a kernel named like {expected}: {names:?}"
            );
        }
        // The half-precision cuSPARSE fallback is a distinct kernel from
        // the f32 path even though the names share a prefix.
        assert!(names.iter().any(|n| n.ends_with("_fallback")), "{names:?}");
    }
}
