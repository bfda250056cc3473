//! Property-based tests for the DNN substrate.

use dnn::{magnitude_prune, MobileNetV1};
use proptest::prelude::*;
use sparse::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Magnitude pruning hits the requested density within one entry and
    /// keeps a subset of the original values unchanged.
    #[test]
    fn pruning_contract(rows in 1usize..32, cols in 1usize..32, sparsity in 0.0f64..1.0, seed in 0u64..500) {
        let w = Matrix::<f32>::random(rows, cols, seed);
        let p = magnitude_prune(&w, sparsity);
        let total = rows * cols;
        let expect_keep = total - ((total as f64) * sparsity).round() as usize;
        prop_assert!((p.nnz() as i64 - expect_keep as i64).abs() <= 1,
            "kept {} expected {}", p.nnz(), expect_keep);
        for (r, c, v) in p.iter() {
            prop_assert_eq!(v, w.get(r, c), "pruning must not alter surviving values");
        }
    }

    /// No pruned-away entry has larger magnitude than a kept one.
    #[test]
    fn pruning_keeps_heaviest(seed in 0u64..200) {
        let w = Matrix::<f32>::random(16, 16, seed);
        let p = magnitude_prune(&w, 0.5);
        let kept = p.to_dense();
        let min_kept = p.values().iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        for r in 0..16 {
            for c in 0..16 {
                if kept.get(r, c) == 0.0 && w.get(r, c) != 0.0 {
                    prop_assert!(w.get(r, c).abs() <= min_kept + 1e-6);
                }
            }
        }
    }

    /// MobileNet width scaling: channels are multiples of 8, monotone in
    /// width, and MACs grow with width.
    #[test]
    fn mobilenet_width_scaling(w1 in 0.5f64..2.0, delta in 0.1f64..1.0) {
        let a = MobileNetV1::new(w1);
        let b = MobileNetV1::new(w1 + delta);
        for blk in a.blocks.iter().chain(b.blocks.iter()) {
            prop_assert_eq!(blk.in_channels % 8, 0);
            prop_assert_eq!(blk.out_channels % 8, 0);
        }
        prop_assert!(b.macs() >= a.macs());
    }
}
