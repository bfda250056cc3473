//! Property-based tests: baselines agree with references on arbitrary
//! problems, and the structured formats keep their invariants.

use gpu_sim::Gpu;
use proptest::prelude::*;
use sparse::{block, gen, Layout, Matrix};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The cuSPARSE-model SpMM matches the reference for arbitrary shapes.
    #[test]
    fn cusparse_spmm_matches_reference(m in 1usize..40, k in 1usize..40, n in 1usize..40,
                                       s in 0.0f64..1.0, seed in 0u64..300) {
        let a = gen::uniform(m, k, s, seed);
        let b_rm = Matrix::<f32>::random(k, n, seed ^ 0x7);
        let b = b_rm.to_layout(Layout::ColMajor);
        let gpu = Gpu::v100();
        let (c, _) = baselines::cusparse_spmm(&gpu, &a, &b);
        let expect = sputnik::reference::spmm(&a, &b_rm);
        for r in 0..m {
            for col in 0..n {
                prop_assert!((c.get(r, col) - expect.get(r, col)).abs() < 1e-3);
            }
        }
    }

    /// MergeSpmm matches the reference whenever its N constraint holds.
    #[test]
    fn merge_spmm_matches_reference(m in 1usize..48, k in 1usize..48, nm in 1usize..3,
                                    s in 0.0f64..1.0, seed in 0u64..300) {
        let n = nm * 32;
        let a = gen::uniform(m, k, s, seed);
        let b = Matrix::<f32>::random(k, n, seed ^ 0x8);
        let gpu = Gpu::v100();
        let (c, _) = baselines::merge_spmm(&gpu, &a, &b).unwrap();
        let expect = sputnik::reference::spmm(&a, &b);
        prop_assert!(c.max_abs_diff(&expect) < 1e-3);
    }

    /// Block pruning + block SpMM equals densified matmul for any block size
    /// that divides the shape.
    #[test]
    fn block_spmm_matches_reference(bm in 1usize..5, bk in 1usize..5,
                                    bs in prop_oneof![Just(4usize), Just(8)],
                                    sparsity in 0.0f64..1.0, seed in 0u64..300) {
        let (m, k) = (bm * bs * 2, bk * bs * 2);
        let d = Matrix::<f32>::random(m, k, seed);
        let a = block::block_prune(&d, bs, sparsity);
        let b = Matrix::<f32>::random(k, 32, seed ^ 0x9);
        let gpu = Gpu::v100();
        let (c, _) = baselines::block_spmm(&gpu, &a, &b);
        let expect = a.to_dense().matmul(&b);
        prop_assert!(c.max_abs_diff(&expect) < 1e-3);
    }

    /// Block-pruned retention is in (0, 1] and block sparsity tracks the
    /// element target.
    #[test]
    fn block_prune_invariants(bs in prop_oneof![Just(2usize), Just(4), Just(8)],
                              sparsity in 0.1f64..0.95, seed in 0u64..300) {
        let d = Matrix::<f32>::random(32, 32, seed);
        let a = block::block_prune(&d, bs, sparsity);
        let retention = block::block_magnitude_retention(&d, bs, sparsity);
        prop_assert!(retention > 0.0 && retention <= 1.0 + 1e-9);
        let stored_frac = a.stored_elements() as f64 / (32.0 * 32.0);
        prop_assert!((stored_frac - (1.0 - sparsity)).abs() < 0.15);
    }
}
