//! ELLPACK (ELL) format.
//!
//! The GPU-friendly fixed-width format behind the ELLR-T SpMM of Vázquez et
//! al. (reference \[47\] of the paper): every row is padded to the longest
//! row's length and the padded arrays are stored column-major, so
//! thread-per-row kernels read perfectly coalesced columns. The price is
//! padding proportional to the row-length *maximum* — negligible on the
//! low-CoV matrices of deep learning (Figure 2), catastrophic on the heavy-
//! tailed matrices of scientific computing. That asymmetry is exactly why
//! the format family was viable for the paper's problem domain yet CSR won
//! for generality.

use crate::csr::CsrMatrix;
use crate::element::Scalar;

/// A fixed-width ELL matrix. Storage is column-major over the padded
/// `rows x width` arrays: entry slot `(r, j)` lives at `j * rows + r`, so
/// consecutive rows (= consecutive GPU threads) are adjacent in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix<T> {
    rows: usize,
    cols: usize,
    /// Entries per row (the longest row's nonzero count).
    width: usize,
    /// Per-row true lengths (the "R" in ELLR-T: rows stop early).
    row_lengths: Vec<u32>,
    /// `rows * width` column indices; padding slots hold 0.
    col_indices: Vec<u32>,
    /// `rows * width` values; padding slots hold zero.
    values: Vec<T>,
}

impl<T: Scalar> EllMatrix<T> {
    /// Convert from CSR. The width is the maximum row length.
    pub fn from_csr(csr: &CsrMatrix<T>) -> Self {
        let rows = csr.rows();
        let width = csr.max_row_len();
        let mut col_indices = vec![0u32; rows * width];
        let mut values = vec![T::zero(); rows * width];
        let mut row_lengths = Vec::with_capacity(rows);
        for r in 0..rows {
            let (cols, vals) = csr.row(r);
            row_lengths.push(cols.len() as u32);
            for (j, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                col_indices[j * rows + r] = c;
                values[j * rows + r] = v;
            }
        }
        Self {
            rows,
            cols: csr.cols(),
            width,
            row_lengths,
            col_indices,
            values,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn row_length(&self, r: usize) -> usize {
        self.row_lengths[r] as usize
    }

    /// Entry slot `(r, j)` (may be padding).
    #[inline]
    pub fn slot(&self, r: usize, j: usize) -> (u32, T) {
        let i = j * self.rows + r;
        (self.col_indices[i], self.values[i])
    }

    /// True stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_lengths.iter().map(|&l| l as usize).sum()
    }

    /// Padding slots / true nonzeros — the format's waste factor. Roughly
    /// `max_row_len / avg_row_len - 1`, which Figure 2's CoV statistic
    /// predicts: near zero for DL matrices, large for scientific ones.
    pub fn padding_overhead(&self) -> f64 {
        let nnz = self.nnz();
        if nnz == 0 {
            return 0.0;
        }
        (self.rows * self.width) as f64 / nnz as f64 - 1.0
    }

    /// Device bytes (padded values + padded indices + row lengths).
    pub fn bytes(&self) -> u64 {
        (self.rows * self.width) as u64 * (T::BYTES as u64 + 4) + self.rows as u64 * 4
    }

    /// Convert back to CSR (dropping padding).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut row_offsets = vec![0u32];
        let mut col_indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for j in 0..self.row_length(r) {
                let (c, v) = self.slot(r, j);
                col_indices.push(c);
                values.push(v);
            }
            row_offsets.push(col_indices.len() as u32);
        }
        // Invariant: ELL slots are sorted and in bounds by construction.
        #[allow(clippy::expect_used)]
        let csr = CsrMatrix::from_parts(self.rows, self.cols, row_offsets, col_indices, values)
            .expect("ELL conversion preserves CSR validity");
        csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn csr_roundtrip() {
        let m = gen::uniform(32, 48, 0.8, 901);
        let ell = EllMatrix::from_csr(&m);
        assert_eq!(ell.to_csr(), m);
        assert_eq!(ell.nnz(), m.nnz());
    }

    #[test]
    fn column_major_layout() {
        // Row r's j-th entry sits at j*rows + r: adjacent rows adjacent.
        let m = gen::balanced(8, 16, 4, 902);
        let ell = EllMatrix::from_csr(&m);
        for r in 0..8 {
            for j in 0..4 {
                let (c, v) = ell.slot(r, j);
                let (cols, vals) = m.row(r);
                assert_eq!(c, cols[j]);
                assert_eq!(v, vals[j]);
            }
        }
    }

    #[test]
    fn balanced_matrices_have_no_padding() {
        let m = gen::balanced(64, 128, 32, 903);
        let ell = EllMatrix::from_csr(&m);
        assert_eq!(ell.padding_overhead(), 0.0);
        assert_eq!(ell.width(), 32);
    }

    #[test]
    fn heavy_tails_explode_the_padding() {
        // The Figure 2 asymmetry: DL-like (low CoV) pads a little,
        // scientific-like (power-law) pads enormously.
        let dl = gen::with_cov(1024, 1024, 0.9, 0.2, 904);
        let sci = gen::power_law(1024, 1024, 102.4, 1.2, 905);
        let dl_overhead = EllMatrix::from_csr(&dl).padding_overhead();
        let sci_overhead = EllMatrix::from_csr(&sci).padding_overhead();
        assert!(dl_overhead < 1.0, "DL-like padding {dl_overhead:.2}");
        assert!(sci_overhead > 3.0, "scientific padding {sci_overhead:.2}");
        assert!(sci_overhead > 4.0 * dl_overhead);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::<f32>::empty(4, 4);
        let ell = EllMatrix::from_csr(&m);
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.nnz(), 0);
        assert_eq!(ell.to_csr(), m);
    }
}
