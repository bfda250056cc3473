//! Matrix statistics studied in Section II of the paper: sparsity, average
//! row length, and the row-length coefficient of variation (CoV).

use crate::csr::CsrMatrix;
use crate::element::Scalar;

/// The three properties the paper's Figure 2 plots for each matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixStats {
    /// Fraction of zero entries.
    pub sparsity: f64,
    /// Mean nonzeros per row.
    pub avg_row_length: f64,
    /// Standard deviation of row lengths divided by their mean. "A high CoV
    /// is indicative of load imbalance across the rows of a sparse matrix."
    pub row_cov: f64,
    pub rows: usize,
    pub cols: usize,
    pub nnz: usize,
}

/// Compute [`MatrixStats`] for a CSR matrix.
pub fn matrix_stats<T: Scalar>(m: &CsrMatrix<T>) -> MatrixStats {
    let lens: Vec<f64> = (0..m.rows()).map(|r| m.row_len(r) as f64).collect();
    MatrixStats {
        sparsity: m.sparsity(),
        avg_row_length: mean(&lens),
        row_cov: cov(&lens),
        rows: m.rows(),
        cols: m.cols(),
        nnz: m.nnz(),
    }
}

/// Arithmetic mean; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Coefficient of variation: std-dev / mean (0 when the mean is 0).
pub fn cov(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    std_dev(xs) / m
}

/// Geometric mean; ignores non-positive entries (0 if none remain).
///
/// The paper summarizes corpus speedups as geometric means; so do we.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    let positive: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|x| x.ln()).sum::<f64>() / positive.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn cov_of_uniform_rows_is_zero() {
        assert_eq!(cov(&[5.0, 5.0, 5.0]), 0.0);
        assert!(cov(&[1.0, 9.0]) > 0.5);
    }

    #[test]
    fn geo_mean() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn stats_on_known_matrix() {
        use crate::csr::CsrMatrix;
        // Rows of length 2, 0, 4 over 3x6.
        let m = CsrMatrix::<f32>::from_parts(
            3,
            6,
            vec![0, 2, 2, 6],
            vec![0, 1, 0, 1, 2, 3],
            vec![1.0; 6],
        )
        .unwrap();
        let s = matrix_stats(&m);
        assert_eq!(s.nnz, 6);
        assert!((s.avg_row_length - 2.0).abs() < 1e-12);
        assert!((s.sparsity - (1.0 - 6.0 / 18.0)).abs() < 1e-12);
        // lengths [2,0,4]: std = sqrt(8/3), mean 2.
        assert!((s.row_cov - (8.0f64 / 3.0).sqrt() / 2.0).abs() < 1e-12);
    }
}
