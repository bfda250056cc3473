//! Launch fast-path equivalence gates.
//!
//! The launch engine has three result-affecting-if-wrong optimizations: the
//! streaming trace reduction, structural block dedup in profile mode, and
//! the cross-launch cache. Each must be *bit-identical* to the pre-fast-path
//! engine. This suite pins that across the same kernel/shape grid
//! `sanitize_all` exercises:
//!
//! * `Gpu::profile_reference` — the old collect-every-`BlockCost` path, kept
//!   as ground truth;
//! * `Gpu::with_block_dedup(false).profile` — the streaming reduction
//!   alone;
//! * `Gpu::profile` — streaming + dedup (the kernels with signatures; the
//!   rest take the streaming path, and must still match).
//!
//! All three must produce equal [`LaunchStats`] (`PartialEq` covers every
//! field, floats included — equality, not tolerance). Two more gates check
//! that functional launches ignore the dedup setting (they never dedup) and
//! that profile launches never touch functional outputs.

use baselines::aspt::AsptSpmmKernel;
use baselines::cusparse::{
    ConstrainedGemmKernel, CusparseSpmmHalfFallbackKernel, CusparseSpmmKernel,
};
use baselines::{
    AsptDirection, AsptPlan, BlockSpmmKernel, EllSpmmKernel, GemmKernel, MergeSpmmKernel,
    NnzSplitSpmmKernel, TransposeKernel,
};
use gpu_sim::{Gpu, Kernel};
use sparse::ell::EllMatrix;
use sparse::{block, gen, Matrix, PatternGranularity, PatternLut, RowSwizzle};
use sputnik::{
    joint_heuristic, FallbackSpmmKernel, JointSpmmKernel, PermuteKernel, SddmmConfig, SddmmKernel,
    SparseSoftmaxKernel, SpmmConfig,
};
use std::sync::atomic::{AtomicU32, Ordering};

/// The sanitize_all shape grid: square pow2, ragged partial tiles, high
/// sparsity with empty rows.
const SHAPES: &[(usize, usize, usize, f64)] =
    &[(64, 96, 32, 0.7), (128, 128, 128, 0.9), (100, 76, 40, 0.8)];

/// Assert the streamed and dedup'd profile paths match the reference
/// collect path bit-for-bit.
fn assert_fastpath_identical(kernel: &dyn Kernel, label: &str) {
    let reference = Gpu::v100()
        .profile_reference(kernel)
        .unwrap_or_else(|e| panic!("{label}: reference launch failed: {e}"));
    let streamed = Gpu::v100().with_block_dedup(false).profile(kernel);
    let dedup = Gpu::v100().profile(kernel);
    assert_eq!(streamed, reference, "{label}: streaming reduction diverged");
    assert_eq!(dedup, reference, "{label}: block dedup diverged");
}

#[test]
fn all_kernels_fastpath_bit_identical() {
    for (i, &(m, k, n, sparsity)) in SHAPES.iter().enumerate() {
        let seed = 0x5A17 + i as u64 * 101;
        let label = |name: &str| format!("{name} {m}x{k}x{n} s={sparsity}");
        let a = gen::uniform(m, k, sparsity, seed);
        let b = Matrix::<f32>::random(k, n, seed + 1);

        // Sputnik SpMM: default, heuristic, and swizzled configs.
        for cfg in [
            SpmmConfig::default(),
            SpmmConfig::heuristic::<f32>(n),
            SpmmConfig {
                row_swizzle: true,
                ..SpmmConfig::heuristic::<f32>(n)
            },
        ] {
            let swizzle = RowSwizzle::for_config(&a, cfg.row_swizzle);
            let kernel = sputnik::SpmmKernel::<f32>::for_profile(&a, n, &swizzle, cfg);
            assert_fastpath_identical(&kernel, &label("spmm"));
        }

        // Joint SpMM at both LUT granularities: the SpMM body probing a LUT
        // over seeded activations, so dead tiles are really skipped.
        {
            let acts = gen::activations(k, n, 0.7, seed + 7);
            let cfg = joint_heuristic::<f32>(n);
            let swizzle = RowSwizzle::for_config(&a, cfg.row_swizzle);
            for granularity in [PatternGranularity::Fine, PatternGranularity::Coarse] {
                let lut = PatternLut::build(&acts, granularity);
                let kernel = JointSpmmKernel::<f32>::for_profile(&a, n, &swizzle, &lut, cfg)
                    .unwrap_or_else(|e| panic!("joint construction: {e}"));
                assert_fastpath_identical(&kernel, &label(&format!("joint_spmm {granularity:?}")));
            }
        }

        // Scalar fallback SpMM.
        {
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = FallbackSpmmKernel::new(&a, &b, &mut out);
            assert_fastpath_identical(&kernel, &label("fallback_spmm"));
        }

        // SDDMM (swizzled heuristic).
        {
            let mask = gen::uniform(m, n, sparsity, seed + 2);
            let swizzle = RowSwizzle::by_length_desc(&mask);
            let kernel = SddmmKernel::<f32>::for_profile(
                &mask,
                k,
                &swizzle,
                SddmmConfig::heuristic::<f32>(k),
            );
            assert_fastpath_identical(&kernel, &label("sddmm"));
        }

        // Sparse softmax.
        {
            let mut values = vec![0.0f32; a.nnz()];
            let kernel = SparseSoftmaxKernel::new(&a, &mut values);
            assert_fastpath_identical(&kernel, &label("softmax"));
        }

        // Value permute.
        {
            let src = a.values().to_vec();
            let perm: Vec<u32> = (0..a.nnz() as u32).rev().collect();
            let mut dst = vec![0.0f32; a.nnz()];
            let kernel = PermuteKernel::new(&src, &perm, &mut dst);
            assert_fastpath_identical(&kernel, &label("permute"));
        }

        // Dense GEMM + transpose.
        {
            let da = Matrix::<f32>::random(m, k, seed + 5);
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = GemmKernel::new(&da, &b, &mut out);
            assert_fastpath_identical(&kernel, &label("gemm"));

            let mut t = Matrix::<f32>::zeros(k, m);
            let kernel = TransposeKernel::new(&da, &mut t);
            assert_fastpath_identical(&kernel, &label("transpose"));
        }

        // ELLR-T SpMM.
        {
            let ell = EllMatrix::from_csr(&a);
            let kernel = EllSpmmKernel::for_profile(&ell, n);
            assert_fastpath_identical(&kernel, &label("ell_spmm"));
        }

        // Merge SpMM (N % 32 == 0 only).
        if n % 32 == 0 {
            let kernel = MergeSpmmKernel::<f32>::for_profile(&a, n)
                .unwrap_or_else(|e| panic!("merge construction: {e}"));
            assert_fastpath_identical(&kernel, &label("merge_spmm"));
        }

        // Nonzero-split SpMM.
        {
            let kernel = NnzSplitSpmmKernel::<f32>::for_profile(&a, n);
            assert_fastpath_identical(&kernel, &label("nnz_split"));
        }

        // cuSPARSE SpMM + the half fallback.
        {
            let kernel = CusparseSpmmKernel::<f32>::for_profile(&a, n);
            assert_fastpath_identical(&kernel, &label("cusparse_spmm"));

            let kernel = CusparseSpmmHalfFallbackKernel::new(&a, n);
            assert_fastpath_identical(&kernel, &label("cusparse_half_fallback"));
        }

        // Constrained GEMM SDDMM.
        {
            let mask = gen::uniform(m, n, sparsity, seed + 6);
            let kernel = ConstrainedGemmKernel::for_profile(&mask, k);
            assert_fastpath_identical(&kernel, &label("constrained_gemm"));
        }
    }

    // Shape-constrained baselines.
    {
        let a = gen::uniform(256, 128, 0.8, 0xA597);
        let plan = AsptPlan::build(&a, AsptDirection::Spmm);
        let kernel = AsptSpmmKernel::<f32>::for_profile(&a, &plan, 32)
            .unwrap_or_else(|e| panic!("aspt construction: {e}"));
        assert_fastpath_identical(&kernel, "aspt 256x128x32");
    }
    {
        let dense = Matrix::<f32>::random(64, 64, 0xB10C);
        let bsr = block::block_prune(&dense, 8, 0.5);
        let kernel = BlockSpmmKernel::for_profile(&bsr, 32);
        assert_fastpath_identical(&kernel, "block_spmm 64x64x32");
    }
}

#[test]
fn functional_launch_unaffected_by_dedup_setting() {
    // Functional launches execute every block and never consult a block
    // signature, so outputs and stats must not depend on the dedup flag.
    let (m, k, n) = (96, 64, 48);
    let a = gen::uniform(m, k, 0.75, 77);
    let b = Matrix::<f32>::random(k, n, 78);
    let run = |dedup: bool| {
        let gpu = Gpu::v100().with_block_dedup(dedup);
        let mut out = Matrix::<f32>::zeros(m, n);
        let stats = {
            let swizzle = RowSwizzle::identity(m);
            let kernel =
                sputnik::SpmmKernel::try_new(&a, &b, &mut out, &swizzle, SpmmConfig::default())
                    .unwrap_or_else(|e| panic!("{e}"));
            gpu.launch(&kernel)
        };
        (out, stats)
    };
    let (out_on, stats_on) = run(true);
    let (out_off, stats_off) = run(false);
    assert_eq!(out_on.as_slice(), out_off.as_slice());
    assert_eq!(stats_on, stats_off);
}

#[test]
fn profile_launches_never_touch_outputs() {
    // Profile-only launches must not write functional outputs, even when
    // the kernel holds real output buffers.
    let (m, k, n) = (64, 96, 32);
    let a = gen::uniform(m, k, 0.7, 91);
    let b = Matrix::<f32>::random(k, n, 92);

    // Sputnik SpMM with a sentinel-filled output.
    {
        let mut out = Matrix::<f32>::from_fn(m, n, |_, _| 7.125);
        let swizzle = RowSwizzle::identity(m);
        {
            let kernel =
                sputnik::SpmmKernel::try_new(&a, &b, &mut out, &swizzle, SpmmConfig::default())
                    .unwrap_or_else(|e| panic!("{e}"));
            let _ = Gpu::v100().profile(&kernel);
        }
        assert!(
            out.as_slice().iter().all(|&v| v == 7.125),
            "profile launch wrote to the SpMM output"
        );
    }

    // Scalar fallback SpMM.
    {
        let mut out = Matrix::<f32>::from_fn(m, n, |_, _| 7.125);
        {
            let kernel = FallbackSpmmKernel::new(&a, &b, &mut out);
            let _ = Gpu::v100().profile(&kernel);
        }
        assert!(
            out.as_slice().iter().all(|&v| v == 7.125),
            "profile launch wrote to the fallback output"
        );
    }

    // Atomic-output kernel (nonzero-split): profile must leave the atomics
    // untouched too.
    {
        let out: Vec<AtomicU32> = (0..m * n)
            .map(|_| AtomicU32::new(7.125f32.to_bits()))
            .collect();
        let kernel = NnzSplitSpmmKernel::new(&a, &b, &out);
        let _ = Gpu::v100().profile(&kernel);
        assert!(
            out.iter()
                .all(|v| v.load(Ordering::Relaxed) == 7.125f32.to_bits()),
            "profile launch wrote to the atomic output"
        );
    }
}

#[test]
fn cached_profile_equals_uncached_across_kernels() {
    // The launch cache must replay exactly what an uncached profile returns,
    // for both SpMM and SDDMM entry points, across the shape grid.
    let cache = gpu_sim::LaunchCache::new();
    let gpu = Gpu::v100();
    for (i, &(m, k, n, sparsity)) in SHAPES.iter().enumerate() {
        let seed = 0xCAC4E + i as u64 * 31;
        let a = gen::uniform(m, k, sparsity, seed);
        let spmm_cfg = SpmmConfig::heuristic::<f32>(n);
        let sddmm_cfg = SddmmConfig::heuristic::<f32>(k);

        let plain_spmm = sputnik::spmm_profile::<f32>(&gpu, &a, k, n, spmm_cfg);
        let (cold, hit_cold) =
            sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &a, k, n, spmm_cfg);
        let (warm, hit_warm) =
            sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &a, k, n, spmm_cfg);
        assert!(!hit_cold && hit_warm);
        assert_eq!(plain_spmm, cold);
        assert_eq!(plain_spmm, warm);

        let plain_sddmm = sputnik::sddmm_profile::<f32>(&gpu, &a, k, sddmm_cfg);
        let (cold, hit_cold) = sputnik::sddmm_profile_cached::<f32>(&gpu, &cache, &a, k, sddmm_cfg);
        let (warm, hit_warm) = sputnik::sddmm_profile_cached::<f32>(&gpu, &cache, &a, k, sddmm_cfg);
        assert!(!hit_cold && hit_warm);
        assert_eq!(plain_sddmm, cold);
        assert_eq!(plain_sddmm, warm);
    }
}
