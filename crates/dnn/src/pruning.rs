//! Magnitude pruning (Zhu & Gupta, "To Prune or Not to Prune"), the
//! sparsification algorithm the paper uses for its MobileNetV1 experiments
//! ("we introduce sparsity into the 1x1 convolutions of MobileNetV1 using
//! magnitude pruning. We prune all models to 90% sparsity").

use sparse::{CsrMatrix, Matrix};

/// Prune a dense weight matrix to `sparsity` by zeroing the
/// smallest-magnitude entries. Returns the sparse weights in CSR form.
pub fn magnitude_prune(weights: &Matrix<f32>, sparsity: f64) -> CsrMatrix<f32> {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let total = weights.rows() * weights.cols();
    let keep = total - ((total as f64) * sparsity).round() as usize;
    if keep == 0 {
        return CsrMatrix::empty(weights.rows(), weights.cols());
    }
    // Threshold = keep-th largest magnitude via select_nth.
    let mut mags: Vec<f32> = weights.as_slice().iter().map(|v| v.abs()).collect();
    let idx = total - keep;
    mags.select_nth_unstable_by(idx, f32::total_cmp);
    let threshold = mags[idx];

    // Keep strictly-above first, then fill ties deterministically (row-major
    // order) to land exactly on `keep` survivors.
    let strictly_above = weights
        .as_slice()
        .iter()
        .filter(|v| v.abs() > threshold)
        .count();
    let mut pruned = Matrix::<f32>::zeros(weights.rows(), weights.cols());
    let mut tie_budget = keep.saturating_sub(strictly_above);
    for r in 0..weights.rows() {
        for c in 0..weights.cols() {
            let v = weights.get(r, c);
            if v.abs() > threshold {
                pruned.set(r, c, v);
            } else if v.abs() == threshold && v != 0.0 && tie_budget > 0 {
                pruned.set(r, c, v);
                tie_budget -= 1;
            }
        }
    }
    CsrMatrix::from_dense(&pruned)
}

/// Threshold *activations* in place: every entry with `|v| <= tau` becomes
/// an exact `+0.0` (bit pattern zero). Returns the realized zero fraction.
///
/// This is the inference-time analogue of magnitude pruning: ReLU networks
/// already emit exact zeros, and thresholding extends the dead region to
/// near-zero activations. Writing `+0.0` specifically (never `-0.0`) is
/// what makes the result eligible for [`sparse::PatternLut`] dead-tile
/// detection — the joint-sparsity kernel's skip proof only covers bits that
/// are exactly zero, so a sloppy `-0.0` here would silently disable skips
/// for its whole tile.
pub fn threshold_activations(x: &mut Matrix<f32>, tau: f32) -> f64 {
    assert!(tau >= 0.0, "threshold must be non-negative");
    let mut zeros = 0usize;
    let total = x.as_slice().len();
    for v in x.as_mut_slice() {
        if v.abs() <= tau {
            *v = 0.0;
        }
        if v.to_bits() == 0 {
            zeros += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        zeros as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prunes_to_exact_sparsity() {
        let w = Matrix::<f32>::random(64, 64, 5);
        let p = magnitude_prune(&w, 0.9);
        let expect = 64 * 64 / 10;
        assert!(
            (p.nnz() as i64 - expect as i64).abs() <= 1,
            "nnz {}",
            p.nnz()
        );
    }

    #[test]
    fn keeps_largest_magnitudes() {
        let w = Matrix::<f32>::from_fn(4, 4, |r, c| (r * 4 + c) as f32 - 8.0);
        let p = magnitude_prune(&w, 0.5);
        // Survivors are the 8 largest |values|: -8..-5 and 4..7.
        for (_, _, v) in p.iter() {
            assert!(v.abs() >= 4.0, "kept small value {v}");
        }
        assert_eq!(p.nnz(), 8);
    }

    #[test]
    fn zero_sparsity_keeps_everything_nonzero() {
        let w = Matrix::<f32>::random(16, 16, 6);
        let p = magnitude_prune(&w, 0.0);
        assert_eq!(p.nnz(), 256);
        assert_eq!(p.to_dense(), w);
    }

    #[test]
    fn full_sparsity_keeps_nothing() {
        let w = Matrix::<f32>::random(8, 8, 7);
        assert_eq!(magnitude_prune(&w, 1.0).nnz(), 0);
    }

    #[test]
    fn thresholding_writes_exact_positive_zeros() {
        let mut x = Matrix::<f32>::from_fn(8, 8, |r, c| {
            let v = (r as f32 - 4.0) * 0.1 + c as f32 * 0.01;
            if (r + c) % 2 == 0 {
                -v
            } else {
                v
            }
        });
        let frac = threshold_activations(&mut x, 0.15);
        assert!(frac > 0.0 && frac < 1.0, "realized fraction {frac}");
        let mut zeros = 0;
        for v in x.as_slice() {
            if *v == 0.0 {
                assert_eq!(v.to_bits(), 0, "thresholded zero must be +0.0");
                zeros += 1;
            } else {
                assert!(v.abs() > 0.15, "survivor {v} under threshold");
            }
        }
        assert_eq!(zeros as f64 / 64.0, frac);
        // Idempotent: a second pass changes nothing.
        assert_eq!(threshold_activations(&mut x, 0.15), frac);
    }
}
