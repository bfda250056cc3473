//! Launch fast-path equivalence gates.
//!
//! The launch engine has three result-affecting-if-wrong optimizations: the
//! streaming trace reduction, structural block dedup in profile mode, and
//! the cross-launch cache. Each must be *bit-identical* to the pre-fast-path
//! engine. This suite pins that on every kernel/launch pair of the shared
//! registry (`sputnik_bench::registry`, the grid `sanitize_all` and
//! `static_audit` sweep), plus the extras the registry does not hold. On
//! each launch, three paths must agree:
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

use baselines::NnzSplitSpmmKernel;
use gpu_sim::{Gpu, Kernel};
use sparse::rng::SplitMix64;
use sparse::{gen, CsrMatrix, Matrix, PatternGranularity, PatternLut, RowSwizzle};
use sputnik::{
    joint_heuristic, FallbackSpmmKernel, JointSpmmKernel, SddmmConfig, SddmmKernel, SpmmConfig,
};
use sputnik_bench::registry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

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
    let mut pair = 0;
    registry::for_each_kernel(&mut |kernel| {
        assert_fastpath_identical(kernel, &format!("registry pair {pair} ({})", kernel.name()));
        pair += 1;
    });

    // An extra the registry does not hold: joint SpMM with the row swizzle
    // its heuristic asks for (the registry's joint launches run unswizzled),
    // at both LUT granularities.
    for (i, &(m, k, n, sparsity)) in registry::SHAPES.iter().enumerate() {
        let seed = registry::seed(i);
        let a = gen::uniform(m, k, sparsity, seed);
        let acts = gen::activations(k, n, 0.7, seed + 7);
        let cfg = joint_heuristic::<f32>(n);
        let swizzle = RowSwizzle::for_config(&a, cfg.row_swizzle);
        for granularity in [PatternGranularity::Fine, PatternGranularity::Coarse] {
            let lut = PatternLut::build(&acts, granularity);
            let kernel = JointSpmmKernel::<f32>::for_profile(&a, n, &swizzle, &lut, cfg)
                .unwrap_or_else(|e| panic!("joint construction: {e}"));
            let label = format!("swizzled joint_spmm {granularity:?} {m}x{k}x{n} s={sparsity}");
            assert_fastpath_identical(&kernel, &label);
        }
    }
}

#[test]
fn large_grid_fastpath_bit_identical() {
    // The registry's shapes are at most 128x128, so its grids stay small.
    // A wide N gives grids of thousands of blocks, so the scheduler's heap
    // runs thousands of steps past the first wave. On the balanced matrix
    // every row strip looks alike and dedup groups hold thousands of
    // members; on the uniform one, groups are many and smaller.
    let (m, k, n) = (256, 64, 8192);
    let matrices = [
        ("balanced", gen::balanced(m, k, 16, 0xB16_9E1D), 1000),
        ("uniform", gen::uniform(m, k, 0.7, 0xB16_9E1E), 100),
    ];
    for (shape, a, min_group) in &matrices {
        let cfg = SpmmConfig::heuristic::<f32>(n);
        let swizzle = RowSwizzle::for_config(a, cfg.row_swizzle);
        let spmm = sputnik::SpmmKernel::<f32>::for_profile(a, n, &swizzle, cfg);
        let cusparse = baselines::cusparse::CusparseSpmmKernel::<f32>::for_profile(a, n);
        for kernel in [&spmm as &dyn Kernel, &cusparse] {
            let label = format!("{} {shape} {m}x{k}x{n}", kernel.name());
            let grid = kernel.grid();
            let mut groups: HashMap<Option<u64>, u64> = HashMap::new();
            for lin in 0..grid.size() {
                *groups
                    .entry(kernel.block_signature(grid.delinearize(lin)))
                    .or_default() += 1;
            }
            let largest = groups.values().copied().max().unwrap_or(0);
            assert!(grid.size() >= 8192, "{label}: only {} blocks", grid.size());
            assert!(largest >= *min_group, "{label}: largest group {largest}");
            assert_fastpath_identical(kernel, &label);
        }
    }
}

/// A 1250 x 2048 mask whose row 0 holds 1,024 nonzeros and every other row
/// at most 40, at random sorted columns: the SDDMM grid is 32 strips x
/// 1250 rows = 40,000 blocks, and most of them exit early.
fn early_exit_mask() -> CsrMatrix<f32> {
    let (rows, cols) = (1250, 2048);
    let mut rng = SplitMix64::new(0xE4E7);
    let mut offsets = vec![0u32];
    let mut indices = Vec::new();
    for r in 0..rows {
        let len = if r == 0 {
            1024
        } else {
            (rng.next_u64() % 41) as usize
        };
        let stride = cols / len.max(1);
        indices.extend((0..len).map(|i| (i * stride + rng.next_u64() as usize % stride) as u32));
        offsets.push(indices.len() as u32);
    }
    let values = vec![1.0; indices.len()];
    CsrMatrix::from_parts(rows, cols, offsets, indices, values)
        .unwrap_or_else(|e| panic!("invalid mask: {e}"))
}

#[test]
fn large_grid_sddmm_fastpath_bit_identical() {
    // The SDDMM grid is (most strips in any row) x rows, so one long row
    // makes nearly every other block an early exit (paper §VI-A). Dedup
    // collapses those into a couple of groups; it must still match the
    // reference and the streaming path bit for bit, with row bytes both a
    // whole number of sectors (k = 64) and not (k = 37).
    let mask = early_exit_mask();
    let working: usize = (0..mask.rows()).map(|r| mask.row_len(r).div_ceil(32)).sum();
    for (k, swizzle_and_scale) in [(64, false), (37, true)] {
        let cfg = SddmmConfig {
            row_swizzle: swizzle_and_scale,
            scale_by_mask: swizzle_and_scale,
            ..SddmmConfig::heuristic::<f32>(k)
        };
        let swizzle = RowSwizzle::for_config(&mask, cfg.row_swizzle);
        let kernel = SddmmKernel::<f32>::for_profile(&mask, k, &swizzle, cfg);
        let blocks = kernel.grid().size() as usize;
        assert!(blocks >= 40_000, "grid of {blocks} blocks is too small");
        assert!(working * 2 < blocks, "{working} of {blocks} blocks work");
        assert_fastpath_identical(&kernel, &format!("{} early-exit k={k}", kernel.name()));
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
    for (i, &(m, k, n, sparsity)) in registry::SHAPES.iter().enumerate() {
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
