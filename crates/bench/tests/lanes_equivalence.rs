//! Scalar-vs-vectorized bit-equivalence for every functional kernel body.
//!
//! The lane helpers in `gpu_sim::lanes` promise that the vectorized path
//! regroups only *independent* output elements and never reassociates a
//! per-element reduction, so flipping to the scalar fallback
//! (`set_vectorized(false)`) must reproduce the exact same output bits. This suite runs every Sputnik kernel and every baseline
//! on the standard problem grid under both paths and compares outputs with
//! `to_bits` equality — not tolerance.
//!
//! The path selector belongs to the calling thread, so a flip here reaches
//! only the launches this test runs; one `#[test]` keeps the suite's
//! flips in one place.

use gpu_sim::{lanes, Gpu};
use sparse::{block, gen, Layout, Matrix, PatternGranularity, PatternLut};
use sputnik::{joint_heuristic, SddmmConfig, SpmmConfig};

/// The last shape's N = 44 is not a multiple of 8, so the SpMM-family
/// kernels reach `fma_accumulate`'s scalar tail.
const SHAPES: &[(usize, usize, usize, f64)] = &[
    (64, 96, 32, 0.7),
    (128, 128, 128, 0.9),
    (100, 76, 40, 0.8),
    (72, 80, 44, 0.8),
];

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn vals_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// Run `f` under both lane paths and assert bitwise-equal results.
fn assert_paths_match<R: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> R) {
    lanes::set_vectorized(true);
    let vec = f();
    lanes::set_vectorized(false);
    let scalar = f();
    lanes::set_vectorized(true);
    assert_eq!(vec, scalar, "{label}: scalar and vectorized paths diverged");
}

#[test]
fn every_kernel_bit_identical_on_both_lane_paths() {
    let gpu = Gpu::v100();
    for (i, &(m, k, n, sparsity)) in SHAPES.iter().enumerate() {
        let seed = 0x1A9E5 + i as u64 * 57;
        let label = |name: &str| format!("{name} {m}x{k}x{n} s={sparsity}");
        let a = gen::uniform(m, k, sparsity, seed);
        let b = Matrix::<f32>::random(k, n, seed + 1);
        let b_col = b.to_layout(Layout::ColMajor);
        let lhs = Matrix::<f32>::random(m, k, seed + 2);
        let rhs = Matrix::<f32>::random(n, k, seed + 3);
        let mask = gen::uniform(m, n, sparsity, seed + 4);

        assert_paths_match(&label("reference_spmm"), || {
            bits(&sputnik::reference::spmm(&a, &b))
        });
        assert_paths_match(&label("reference_sddmm"), || {
            vals_bits(sputnik::reference::sddmm(&lhs, &rhs, &mask).values())
        });
        assert_paths_match(&label("spmm"), || {
            bits(&sputnik::spmm(&gpu, &a, &b, SpmmConfig::heuristic::<f32>(n)).0)
        });
        assert_paths_match(&label("spmm_swizzled"), || {
            let cfg = SpmmConfig {
                row_swizzle: true,
                ..SpmmConfig::heuristic::<f32>(n)
            };
            bits(&sputnik::spmm(&gpu, &a, &b, cfg).0)
        });
        assert_paths_match(&label("joint_spmm"), || {
            let acts = gen::activations(k, n, 0.7, seed + 5);
            let lut = PatternLut::build(&acts, PatternGranularity::Fine);
            bits(&sputnik::joint_spmm(&gpu, &a, &acts, &lut, joint_heuristic::<f32>(n)).0)
        });
        assert_paths_match(&label("sddmm"), || {
            let cfg = SddmmConfig::heuristic::<f32>(k);
            vals_bits(sputnik::sddmm(&gpu, &lhs, &rhs, &mask, cfg).0.values())
        });
        assert_paths_match(&label("softmax"), || {
            vals_bits(sputnik::sparse_softmax(&gpu, &a).0.values())
        });
        assert_paths_match(&label("cusparse_spmm"), || {
            bits(&baselines::cusparse_spmm(&gpu, &a, &b_col).0)
        });
        if n % 32 == 0 {
            assert_paths_match(&label("merge_spmm"), || {
                bits(
                    &baselines::merge_spmm(&gpu, &a, &b)
                        .unwrap_or_else(|e| panic!("merge: {e}"))
                        .0,
                )
            });
        }
        assert_paths_match(&label("nnz_split"), || {
            bits(&baselines::nnz_split_spmm(&gpu, &a, &b).0)
        });
        assert_paths_match(&label("gemm"), || bits(&baselines::gemm(&gpu, &lhs, &b).0));
        assert_paths_match(&label("transpose"), || {
            bits(&baselines::transpose(&gpu, &b).0)
        });
    }

    // Shape-constrained baselines.
    {
        let dense = Matrix::<f32>::random(64, 64, 0xB11D);
        let bsr = block::block_prune(&dense, 8, 0.5);
        let b = Matrix::<f32>::random(64, 48, 0xB11E);
        assert_paths_match("block_spmm 64x64x48", || {
            bits(&baselines::block_spmm(&gpu, &bsr, &b).0)
        });
    }
    {
        let a = gen::uniform(256, 128, 0.8, 0xA512);
        let b = Matrix::<f32>::random(128, 32, 0xA513);
        assert_paths_match("aspt 256x128x32", || {
            bits(
                &baselines::aspt_spmm(&gpu, &a, &b)
                    .unwrap_or_else(|e| panic!("aspt: {e}"))
                    .0,
            )
        });
    }
}
