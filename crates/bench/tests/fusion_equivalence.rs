//! Fusion equivalence gates (the `fastpath_equivalence` of attention
//! fusion).
//!
//! The fused `SddmmSoftmaxSpmmKernel` replaces three launches with one; the
//! contract is that fusion is *bit-invisible*: the fused kernel's
//! functional body keeps the per-element accumulation order of the
//! three-launch reference (SDDMM strip chunks, the scaled-softmax passes,
//! the SpMM tile loop), and every intermediate round-trips through the
//! element type exactly where the unfused pipeline stores and reloads it.
//! This suite pins that bit-identity across the registry shape grid,
//! attention-style band masks, random topologies, and pathological ±inf
//! logits — and pins the legality rule: fuse exactly when the staging
//! footprint fits the device's shared memory, never otherwise.

use gpu_sim::{Gpu, SddmmSoftmaxSpmmKernel, Verdict};
use sparse::{gen, CsrMatrix, Matrix};
use sputnik::{
    attention_configs, sparse_attention_fused, sparse_attention_fused_profile,
    sparse_attention_unfused, FusionDecision, SddmmConfig, SpmmConfig,
};
use sputnik_bench::registry;

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The fusion decision for `mask`, as the cost-only path takes it.
fn decide(gpu: &Gpu, mask: &CsrMatrix<f32>, d: usize, n: usize) -> FusionDecision {
    sparse_attention_fused_profile(gpu, mask, d, n, 0.5, None, None)
        .unwrap_or_else(|e| panic!("fused profile failed: {e}"))
        .1
}

/// Run both paths and assert bitwise-equal contexts. Returns whether the
/// run fused.
fn assert_fusion_bit_identical(
    gpu: &Gpu,
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
    scale: f32,
    label: &str,
) -> bool {
    let run = sparse_attention_fused(gpu, q, k, v, mask, scale, None, None);
    let (reference, _) = sparse_attention_unfused(gpu, q, k, v, mask, scale, &run.configs)
        .unwrap_or_else(|e| panic!("{label}: unfused reference failed: {e}"));
    assert_eq!(
        bits(&run.context),
        bits(&reference),
        "{label}: fused output diverged from the three-launch reference"
    );
    if run.decision.fused {
        assert_eq!(
            run.time.launches, 1,
            "{label}: fused run must be one launch"
        );
        let mut context = vec![0.0f32; mask.rows() * v.cols()];
        let kernel = SddmmSoftmaxSpmmKernel::new(
            q,
            k,
            v,
            mask,
            &mut context,
            scale,
            run.configs.sddmm.block_items_x as usize,
            run.configs.spmm.block_items_x as usize,
            run.decision.plan_tag.clone(),
        );
        let (_, report) = gpu
            .sanitize(&kernel)
            .unwrap_or_else(|e| panic!("{label}: fused launch failed to sanitize: {e}"));
        assert!(
            report.violations.is_empty(),
            "{label}: sanitizer violations on the fused launch: {:?}",
            report.violations
        );
    } else {
        assert_eq!(
            run.time.launches, 3,
            "{label}: unfused run must be three launches"
        );
    }
    run.decision.fused
}

#[test]
fn fused_bit_identical_across_registry_grid() {
    let gpu = Gpu::v100();
    for (i, &(m, k, n, sparsity)) in registry::SHAPES.iter().enumerate() {
        let seed = registry::seed(i);
        let mask = gen::uniform(m, n, sparsity, seed + 2);
        let q = Matrix::<f32>::random(m, k, seed + 3);
        let kmat = Matrix::<f32>::random(n, k, seed + 4);
        let v = Matrix::<f32>::random(n, k, seed + 5);
        let scale = 1.0 / (k as f32).sqrt();
        let fused = assert_fusion_bit_identical(
            &gpu,
            &q,
            &kmat,
            &v,
            &mask,
            scale,
            &format!("grid {m}x{k}x{n} s={sparsity}"),
        );
        assert!(fused, "registry-grid shapes must all fit shared memory");
    }
}

#[test]
fn fused_bit_identical_on_attention_masks() {
    let gpu = Gpu::v100();
    for (seq, band, off, d, seed) in [
        (128usize, 16usize, 0.9f64, 32usize, 21u64),
        (256, 32, 0.95, 64, 22),
        (192, 8, 0.7, 16, 23),
    ] {
        let mask = gen::attention_mask(seq, band, off, seed);
        let q = Matrix::<f32>::random(seq, d, seed + 1);
        let kmat = Matrix::<f32>::random(seq, d, seed + 2);
        let v = Matrix::<f32>::random(seq, d, seed + 3);
        let scale = 1.0 / (d as f32).sqrt();
        let fused = assert_fusion_bit_identical(
            &gpu,
            &q,
            &kmat,
            &v,
            &mask,
            scale,
            &format!("attention seq={seq} band={band}"),
        );
        assert!(fused, "band masks must fuse at seq={seq}");
    }
}

#[test]
fn fused_bit_identical_on_random_topologies() {
    let gpu = Gpu::v100();
    for seed in 0..8u64 {
        let rows = 16 + (seed as usize * 13) % 90;
        let cols = 24 + (seed as usize * 29) % 110;
        let d = 8 + (seed as usize % 4) * 8;
        let sparsity = 0.5 + (seed as f64 % 5.0) / 10.0;
        let mask = gen::uniform(rows, cols, sparsity, 0xF0A + seed);
        let q = Matrix::<f32>::random(rows, d, 0xF1B + seed);
        let kmat = Matrix::<f32>::random(cols, d, 0xF2C + seed);
        let v = Matrix::<f32>::random(cols, d, 0xF3D + seed);
        assert_fusion_bit_identical(
            &gpu,
            &q,
            &kmat,
            &v,
            &mask,
            0.25,
            &format!("random {rows}x{cols} d={d} s={sparsity:.1}"),
        );
    }
}

/// Pathological logits: operand magnitudes around 1e20 drive the SDDMM
/// dot products to ±inf, exercising the softmax's +inf mass-split and
/// all-(-inf) uniform branches. Inputs stay finite (the wrappers reject
/// non-finite operands), the *scores* overflow — and the fused kernel must
/// still match the reference bit-for-bit, special values included.
#[test]
fn fused_bit_identical_on_inf_logits() {
    let gpu = Gpu::v100();
    let (seq, d) = (48usize, 8usize);
    let mask = gen::attention_mask(seq, 6, 0.6, 31);
    let q = Matrix::<f32>::from_fn(seq, d, |r, c| match r % 3 {
        0 => 1e20,
        1 => -1e20,
        _ => ((r * d + c) as f32).sin(),
    });
    let kmat = Matrix::<f32>::from_fn(seq, d, |_, _| 1e20);
    let v = Matrix::<f32>::random(seq, d, 32);
    assert_fusion_bit_identical(&gpu, &q, &kmat, &v, &mask, 0.5, "inf logits");
}

/// The legality rule, as a property over seeded random
/// topologies: fuse exactly when the staging footprint (scores row + index
/// strip) fits the device's per-block shared memory — and the unfused
/// fallback still matches the reference bitwise on the oversized path.
#[test]
fn planner_fuses_iff_staging_fits() {
    let gpu = Gpu::v100();
    let cap = gpu.device().smem_per_block_max as u64;
    let mut fused_seen = 0;
    let mut unfused_seen = 0;
    for seed in 0..12u64 {
        // Row lengths from ~3.7k up to ~29k nonzeros (staging ~15 KB to
        // ~118 KB, straddling the V100's 96 KiB capacity).
        let cols = 4096 * (1 + seed as usize % 8);
        let rows = 3;
        let sparsity = 0.1;
        let mask = gen::uniform(rows, cols, sparsity, 0xCAB + seed);
        let d = 4;
        let n = 4;
        let configs = attention_configs(&gpu, None, None, &mask, d, n);
        let staging =
            gpu_sim::fused::staging_bytes(mask.max_row_len(), configs.sddmm.block_items_x as usize);
        let decision = decide(&gpu, &mask, d, n);
        assert_eq!(
            decision.fused,
            staging <= cap,
            "seed {seed}: staging {staging} B vs capacity {cap} B, \
             decision said fused={} ({})",
            decision.fused,
            decision.reason
        );
        if decision.fused {
            fused_seen += 1;
        } else {
            unfused_seen += 1;
            assert!(
                decision.reason.contains("shared_capacity"),
                "oversized refusal must cite the shared-capacity audit: {}",
                decision.reason
            );
        }

        // Both sides of the boundary still agree bitwise end to end.
        let q = Matrix::<f32>::random(rows, d, 0xD0 + seed);
        let kmat = Matrix::<f32>::random(cols, d, 0xD1 + seed);
        let v = Matrix::<f32>::random(cols, n, 0xD2 + seed);
        let fused = assert_fusion_bit_identical(
            &gpu,
            &q,
            &kmat,
            &v,
            &mask,
            0.5,
            &format!("boundary seed {seed} ({cols} cols)"),
        );
        assert_eq!(fused, decision.fused, "decision must be deterministic");
    }
    assert!(
        fused_seen > 0 && unfused_seen > 0,
        "probe must straddle the capacity boundary (fused {fused_seen}, unfused {unfused_seen})"
    );
}

/// A smaller-capacity device must refuse topologies a V100 accepts.
#[test]
fn planner_respects_device_capacity() {
    let v100 = Gpu::v100();
    let gtx = Gpu::gtx1080();
    let v100_cap = v100.device().smem_per_block_max as u64;
    let gtx_cap = gtx.device().smem_per_block_max as u64;
    assert!(
        gtx_cap < v100_cap,
        "test premise: 1080 has less shared memory"
    );

    // A topology sized between the two capacities: fused on V100 only.
    let target_nnz = ((gtx_cap + v100_cap) / 2 / 4) as usize;
    let cols = target_nnz * 5 / 4;
    let mask = gen::uniform(2, cols, 0.2, 77);
    assert!(
        (gtx_cap..=v100_cap).contains(&gpu_sim::fused::staging_bytes(mask.max_row_len(), 32)),
        "probe topology must land between the capacities"
    );
    let d = 4;
    assert!(decide(&v100, &mask, d, d).fused);
    assert!(!decide(&gtx, &mask, d, d).fused);
}

/// Registry sweep: the fused kernel's static audit must come back free of
/// refutations on every registry shape (the same probes `static_audit`
/// counts), so fused launches always clear the audit gate of the funnel.
#[test]
fn fused_kernel_never_refuted_on_registry_shapes() {
    let gpu = Gpu::v100();
    for (i, &(m, k, n, sparsity)) in registry::SHAPES.iter().enumerate() {
        let seed = registry::seed(i);
        let mask = gen::uniform(m, n, sparsity, seed + 2);
        let sddmm_tile = SddmmConfig::heuristic::<f32>(k).block_items_x as usize;
        let spmm_tile = SpmmConfig::heuristic::<f32>(k).block_items_x as usize;
        let probe = gpu_sim::SddmmSoftmaxSpmmKernel::<f32>::for_profile(
            &mask,
            k,
            k,
            0.125,
            sddmm_tile,
            spmm_tile,
            format!("s{sddmm_tile}x{spmm_tile}"),
        );
        let audit = gpu.audit(&probe);
        let refuted: Vec<_> = audit
            .findings
            .iter()
            .filter(|f| f.verdict == Verdict::Refuted)
            .collect();
        assert!(
            refuted.is_empty(),
            "shape {m}x{k}x{n}: fused kernel refuted: {refuted:?}"
        );
    }
}
