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
}
