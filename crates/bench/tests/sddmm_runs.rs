//! Bit identity of the SDDMM's run path on band masks that take it.
//!
//! `SddmmKernel` and the fused attention kernel compute each run of at
//! least 32 consecutive mask columns as register-group accumulates over a
//! transposed copy of the right operand (`lanes::fma_dot_strip`), but only
//! when a launch's runs pay for that copy. The uniform masks of the other
//! bit-identity suites never do, so this suite builds band-like masks that
//! do: each case asserts that the launch transposed, then that every output
//! equals `reference::sddmm` bit for bit. The run path's packed FMAs exist
//! only under release codegen, so CI runs this suite with `--release`.

use gpu_sim::{Gpu, LaunchRequest, SddmmSoftmaxSpmmKernel};
use sparse::{gen, CsrMatrix, Half, Matrix, RowSwizzle, Scalar};
use sputnik::{attention_configs, reference, sparse_attention_unfused, SddmmConfig, SddmmKernel};

/// Mask columns (right-operand rows).
const COLS: usize = 128;
/// Mask rows: 16 passes over the row patterns.
const ROWS: usize = 112;

/// One row pattern per case the run splitter must get right.
fn row_patterns() -> Vec<Vec<u32>> {
    let span = |lo: u32, hi: u32| (lo..hi).collect::<Vec<u32>>();
    vec![
        // Exactly 32 consecutive columns, and exactly 31.
        span(5, 37),
        span(40, 71),
        // An off-diagonal prefix, then a run of 32.
        [vec![0, 2, 9], span(20, 52)].concat(),
        // A run of 100 across every strip edge.
        span(0, 100),
        // A run of 33, one skipped column, then 32.
        [span(0, 33), span(34, 66)].concat(),
        // 30 scattered columns, then a run of 40 that a 64-wide strip edge
        // cuts into 34 and 6 (and a 32-wide one into 2, 32 and 6).
        [(0..60).step_by(2).collect(), span(60, 100)].concat(),
        vec![],
    ]
}

fn band_mask<T: Scalar>() -> CsrMatrix<T> {
    let patterns = row_patterns();
    let mut offsets = vec![0u32];
    let mut cols = Vec::new();
    for r in 0..ROWS {
        cols.extend(&patterns[r % patterns.len()]);
        offsets.push(cols.len() as u32);
    }
    let values = (0..cols.len())
        .map(|i| T::from_f32(1.0 + (i % 5) as f32 * 0.25))
        .collect();
    CsrMatrix::from_parts(ROWS, COLS, offsets, cols, values)
        .unwrap_or_else(|e| panic!("band mask: {e}"))
}

fn random<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    let m = Matrix::<f32>::random(rows, cols, seed);
    Matrix::from_vec(
        rows,
        cols,
        m.as_slice().iter().map(|&v| T::from_f32(v)).collect(),
    )
}

/// Launch the SDDMM functionally; return its output values and whether it
/// transposed the right operand.
fn launch<T: Scalar>(
    lhs: &Matrix<T>,
    rhs: &Matrix<T>,
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
) -> (Vec<T>, bool) {
    let gpu = Gpu::v100();
    let swizzle = RowSwizzle::for_config(mask, cfg.row_swizzle);
    let mut out = vec![T::zero(); mask.nnz()];
    let kernel = SddmmKernel::try_new(lhs, rhs, mask, &mut out, &swizzle, cfg)
        .unwrap_or_else(|e| panic!("sddmm kernel: {e}"));
    gpu.run(&LaunchRequest::functional(&kernel))
        .unwrap_or_else(|e| panic!("sddmm launch: {e}"));
    let transposed = kernel.transposed_rhs();
    (out, transposed)
}

fn bits<T: Scalar>(values: &[T]) -> Vec<u32> {
    values.iter().map(|v| v.to_f32().to_bits()).collect()
}

fn assert_band_runs_match_reference<T: Scalar>() {
    let mask = band_mask::<T>();
    for k in [13usize, 64] {
        let lhs = random::<T>(ROWS, k, 0x5D1 + k as u64);
        let rhs = random::<T>(COLS, k, 0x5D2 + k as u64);
        let plain = reference::sddmm(&lhs.to_f32(), &rhs.to_f32(), &mask);
        let scaled = reference::sddmm_scaled(&lhs.to_f32(), &rhs.to_f32(), &mask);
        let base = SddmmConfig::heuristic::<T>(k);
        let wide = SddmmConfig {
            block_items_x: 64,
            ..base
        };
        for (name, cfg, want) in [
            ("heuristic", base, &plain),
            (
                "64-wide swizzled",
                SddmmConfig {
                    row_swizzle: true,
                    ..wide
                },
                &plain,
            ),
            (
                "128-wide, two staged pieces",
                SddmmConfig {
                    block_items_x: 128,
                    ..base
                },
                &plain,
            ),
            (
                "64-wide scaled",
                SddmmConfig {
                    scale_by_mask: true,
                    ..wide
                },
                &scaled,
            ),
        ] {
            let label = format!("{} k={k} {name}", T::TAG);
            let (got, transposed) = launch(&lhs, &rhs, &mask, cfg);
            assert!(transposed, "{label}: the band mask must take the run path");
            let want: Vec<T> = want.values().iter().map(|&v| T::from_f32(v)).collect();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{label}: differs from the reference"
            );
        }
    }
}

#[test]
fn f32_band_runs_match_the_reference_bit_for_bit() {
    assert_band_runs_match_reference::<f32>();
}

#[test]
fn half_band_runs_match_the_reference_bit_for_bit() {
    assert_band_runs_match_reference::<Half>();
}

#[test]
fn uniform_masks_do_not_transpose() {
    let mask = gen::uniform(ROWS, COLS, 0.7, 0x5D3);
    let lhs = random::<f32>(ROWS, 64, 0x5D4);
    let rhs = random::<f32>(COLS, 64, 0x5D5);
    let (got, transposed) = launch(&lhs, &rhs, &mask, SddmmConfig::heuristic::<f32>(64));
    assert!(!transposed);
    assert_eq!(
        bits(&got),
        bits(reference::sddmm(&lhs, &rhs, &mask).values())
    );
}

#[test]
fn fused_band_runs_match_the_three_launches() {
    let gpu = Gpu::v100();
    let mask = band_mask::<f32>();
    let (d, n) = (24usize, 40usize);
    let q = random::<f32>(ROWS, d, 0x5D6);
    let kmat = random::<f32>(COLS, d, 0x5D7);
    let v = random::<f32>(COLS, n, 0x5D8);
    let scale = 1.0 / (d as f32).sqrt();
    let configs = attention_configs(&gpu, None, None, &mask, d, n);
    let (reference, _) = sparse_attention_unfused(&gpu, &q, &kmat, &v, &mask, scale, &configs)
        .unwrap_or_else(|e| panic!("unfused attention: {e}"));
    let mut context = vec![0.0f32; ROWS * n];
    let kernel = SddmmSoftmaxSpmmKernel::new(
        &q,
        &kmat,
        &v,
        &mask,
        &mut context,
        scale,
        configs.sddmm.block_items_x as usize,
        configs.spmm.block_items_x as usize,
        "band_runs".into(),
    );
    gpu.run(&LaunchRequest::functional(&kernel))
        .unwrap_or_else(|e| panic!("fused launch: {e}"));
    assert!(
        kernel.transposed_k(),
        "the band mask must take the run path"
    );
    drop(kernel);
    assert_eq!(bits(&context), bits(reference.as_slice()));
}
