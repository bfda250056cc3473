//! Compressed sparse row (CSR) matrices.
//!
//! The paper's kernels "operate directly on the standard compressed sparse
//! row format and do not enforce any structure on the topology of nonzero
//! values". This module provides that format, conversions, and the
//! transpose-caching trick discussed in the paper's Section IX.

use crate::dense::Matrix;
use crate::element::{IndexWidth, Scalar};
use crate::fingerprint::Fingerprint;
use std::fmt;
use std::sync::OnceLock;

/// Errors produced when validating CSR structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `row_offsets` must have exactly `rows + 1` entries.
    BadOffsetLen { expected: usize, got: usize },
    /// `row_offsets` must be non-decreasing.
    NonMonotoneOffsets { row: usize },
    /// The final offset must equal the number of stored values.
    BadNnz { expected: usize, got: usize },
    /// `col_indices` and `values` must have equal length.
    LengthMismatch { indices: usize, values: usize },
    /// A column index is out of bounds.
    ColumnOutOfBounds { row: usize, col: u32, cols: usize },
    /// Column indices within a row must be strictly increasing.
    UnsortedRow { row: usize },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::BadOffsetLen { expected, got } => {
                write!(f, "row_offsets length {got}, expected {expected}")
            }
            CsrError::NonMonotoneOffsets { row } => {
                write!(f, "row_offsets decrease at row {row}")
            }
            CsrError::BadNnz { expected, got } => {
                write!(f, "final offset {got} does not match nnz {expected}")
            }
            CsrError::LengthMismatch { indices, values } => {
                write!(f, "{indices} indices vs {values} values")
            }
            CsrError::ColumnOutOfBounds { row, col, cols } => {
                write!(f, "column {col} out of bounds ({cols}) in row {row}")
            }
            CsrError::UnsortedRow { row } => write!(f, "unsorted column indices in row {row}"),
        }
    }
}

impl std::error::Error for CsrError {}

/// A sparse matrix in CSR format with `Scalar` values and 32-bit metadata.
///
/// The mixed-precision kernels model 16-bit column indices; the width used
/// on "device" is a kernel-configuration concern (`IndexWidth`), while host
/// storage is always u32.
#[derive(Debug, Clone)]
pub struct CsrMatrix<T> {
    rows: usize,
    cols: usize,
    row_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<T>,
    /// Lazily memoized [`Self::fingerprint`]. Sound because the topology
    /// (`rows`, `cols`, `row_offsets`, `col_indices`) is immutable after
    /// construction: the type has no `&mut` accessor, and new values come
    /// only through constructors. Constructors that keep the topology (`Clone`,
    /// `with_values`, `convert`) carry the memo over; constructors that
    /// build a new topology start empty. Any future topology mutator must
    /// reset this field.
    fingerprint: OnceLock<u64>,
}

/// Equality of dimensions, topology and values; the fingerprint memo is a
/// cache and never takes part.
impl<T: PartialEq> PartialEq for CsrMatrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_offsets == other.row_offsets
            && self.col_indices == other.col_indices
            && self.values == other.values
    }
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build a validated CSR matrix.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_offsets: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self, CsrError> {
        if row_offsets.len() != rows + 1 {
            return Err(CsrError::BadOffsetLen {
                expected: rows + 1,
                got: row_offsets.len(),
            });
        }
        if col_indices.len() != values.len() {
            return Err(CsrError::LengthMismatch {
                indices: col_indices.len(),
                values: values.len(),
            });
        }
        for r in 0..rows {
            if row_offsets[r] > row_offsets[r + 1] {
                return Err(CsrError::NonMonotoneOffsets { row: r });
            }
        }
        if row_offsets[rows] as usize != values.len() {
            return Err(CsrError::BadNnz {
                expected: values.len(),
                got: row_offsets[rows] as usize,
            });
        }
        for r in 0..rows {
            let (s, e) = (row_offsets[r] as usize, row_offsets[r + 1] as usize);
            let mut prev: Option<u32> = None;
            for &c in &col_indices[s..e] {
                if c as usize >= cols {
                    return Err(CsrError::ColumnOutOfBounds {
                        row: r,
                        col: c,
                        cols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(CsrError::UnsortedRow { row: r });
                    }
                }
                prev = Some(c);
            }
        }
        Ok(Self {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
            fingerprint: OnceLock::new(),
        })
    }

    /// An empty (all-zero) sparse matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_offsets: vec![0; rows + 1],
            col_indices: vec![],
            values: vec![],
            fingerprint: OnceLock::new(),
        }
    }

    /// Extract the nonzero pattern and values from a dense matrix.
    pub fn from_dense(dense: &Matrix<T>) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_offsets = Vec::with_capacity(rows + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_offsets.push(0u32);
        for r in 0..rows {
            for c in 0..cols {
                let v = dense.get(r, c);
                if v.to_f32() != 0.0 {
                    col_indices.push(c as u32);
                    values.push(v);
                }
            }
            row_offsets.push(col_indices.len() as u32);
        }
        Self {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
            fingerprint: OnceLock::new(),
        }
    }

    /// Scatter back to a dense row-major matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out.set(r, c as usize, v);
            }
        }
        out
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are zero.
    pub fn sparsity(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of nonzeros in row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        (self.row_offsets[r + 1] - self.row_offsets[r]) as usize
    }

    /// Column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        let s = self.row_offsets[r] as usize;
        let e = self.row_offsets[r + 1] as usize;
        (&self.col_indices[s..e], &self.values[s..e])
    }

    /// Iterate over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Replace the stored values, keeping the topology. Panics if the length
    /// differs from `nnz`. This is how training-style updates work: topology
    /// changes rarely, values change every step.
    pub fn with_values(&self, values: Vec<T>) -> Self {
        assert_eq!(values.len(), self.nnz(), "value count must match nnz");
        Self {
            rows: self.rows,
            cols: self.cols,
            row_offsets: self.row_offsets.clone(),
            col_indices: self.col_indices.clone(),
            values,
            fingerprint: self.fingerprint.clone(),
        }
    }

    /// A stable 64-bit fingerprint of the matrix *topology*: dimensions,
    /// row offsets, and column indices (values excluded — simulated cost
    /// traces depend only on structure). FNV-1a over the raw words, so the
    /// result is identical across runs, platforms, and Rust versions, which
    /// makes it usable as a persistent cache-key component.
    ///
    /// Every launch-cache lookup keys on this. The O(nnz) hash runs once
    /// per topology; later calls, and calls on clones, `with_values` and
    /// `convert` results, return the memo in O(1).
    pub fn fingerprint(&self) -> u64 {
        let fp = *self.fingerprint.get_or_init(|| self.compute_fingerprint());
        debug_assert_eq!(fp, self.compute_fingerprint(), "stale fingerprint memo");
        fp
    }

    /// The uncached topology hash behind [`Self::fingerprint`].
    fn compute_fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.rows as u64)
            .write_u64(self.cols as u64)
            .write_u64(self.nnz() as u64);
        for &o in &self.row_offsets {
            fp.write_u64(o as u64);
        }
        for &c in &self.col_indices {
            fp.write_u64(c as u64);
        }
        fp.finish()
    }

    /// Do two matrices share the same topology (offsets and indices)?
    pub fn same_pattern(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_offsets == other.row_offsets
            && self.col_indices == other.col_indices
    }

    /// Transpose to a new CSR matrix (equivalently: interpret as CSC).
    ///
    /// The paper (Section IX) notes that for DNN training the transpose
    /// topology can be cached when the sparsity pattern is updated and the
    /// values permuted with an argsort; [`Self::transpose_permutation`]
    /// provides that permutation.
    pub fn transpose(&self) -> CsrMatrix<T> {
        let perm = self.transpose_permutation();
        let mut row_offsets = vec![0u32; self.cols + 1];
        for &c in &self.col_indices {
            row_offsets[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_offsets[c + 1] += row_offsets[c];
        }
        let mut col_indices = vec![0u32; self.nnz()];
        let mut values = vec![T::zero(); self.nnz()];
        // perm[t] = source position in the original value array.
        for (t, &src) in perm.iter().enumerate() {
            values[t] = self.values[src as usize];
        }
        // Column indices of the transpose are the source row indices.
        let mut cursor = row_offsets.clone();
        for r in 0..self.rows {
            let (cols, _) = self.row(r);
            for &c in cols {
                let dst = cursor[c as usize] as usize;
                col_indices[dst] = r as u32;
                cursor[c as usize] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_offsets,
            col_indices,
            values,
            fingerprint: OnceLock::new(),
        }
    }

    /// The permutation `perm` such that `transposed.values[t] =
    /// values[perm[t]]` — the cached "argsort of the matrix values" from
    /// Section IX. Recomputing only this (not the topology) is all a
    /// training step needs after a value update.
    pub fn transpose_permutation(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.cols + 1];
        for &c in &self.col_indices {
            counts[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            counts[c + 1] += counts[c];
        }
        let mut perm = vec![0u32; self.nnz()];
        let mut cursor = counts;
        let mut pos = 0usize;
        for r in 0..self.rows {
            let (cols, _) = self.row(r);
            for &c in cols {
                perm[cursor[c as usize] as usize] = pos as u32;
                cursor[c as usize] += 1;
                pos += 1;
            }
        }
        perm
    }

    /// Convert element precision.
    pub fn convert<U: Scalar>(&self) -> CsrMatrix<U> {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_offsets: self.row_offsets.clone(),
            col_indices: self.col_indices.clone(),
            values: self
                .values
                .iter()
                .map(|v| U::from_f32(v.to_f32()))
                .collect(),
            fingerprint: self.fingerprint.clone(),
        }
    }

    /// Device memory footprint: values + column indices + row offsets.
    pub fn bytes(&self, index_width: IndexWidth) -> u64 {
        self.values.len() as u64 * T::BYTES as u64
            + self.col_indices.len() as u64 * index_width.bytes() as u64
            + self.row_offsets.len() as u64 * 4
    }

    /// Longest row, in nonzeros.
    pub fn max_row_len(&self) -> usize {
        (0..self.rows).map(|r| self.row_len(r)).max().unwrap_or(0)
    }

    /// The explicit-padding alternative to ROMA (Section V-B2): pad every
    /// row with zero-valued entries until its length is a multiple of
    /// `multiple`, so vector memory instructions are alignment-safe without
    /// runtime masking. Padding entries use the smallest unused column
    /// indices in each row. Returns `None` when a row has no free columns
    /// left to pad with — the generality loss the paper's ROMA avoids.
    pub fn padded_to_multiple(&self, multiple: usize) -> Option<CsrMatrix<T>> {
        assert!(
            multiple.is_power_of_two(),
            "pad target must be a power of two"
        );
        let mut row_offsets = Vec::with_capacity(self.rows + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_offsets.push(0u32);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let pad = (multiple - cols.len() % multiple) % multiple;
            if pad > 0 {
                // Merge the sorted real columns with the smallest free ones.
                let mut free = Vec::with_capacity(pad);
                let mut next = 0u32;
                let mut it = cols.iter().peekable();
                while free.len() < pad {
                    if next as usize >= self.cols {
                        return None; // row too full to pad
                    }
                    match it.peek() {
                        Some(&&c) if c == next => {
                            it.next();
                        }
                        _ => free.push(next),
                    }
                    next += 1;
                }
                let mut merged: Vec<(u32, T)> = cols
                    .iter()
                    .zip(vals)
                    .map(|(&c, &v)| (c, v))
                    .chain(free.into_iter().map(|c| (c, T::zero())))
                    .collect();
                merged.sort_by_key(|&(c, _)| c);
                for (c, v) in merged {
                    col_indices.push(c);
                    values.push(v);
                }
            } else {
                col_indices.extend_from_slice(cols);
                values.extend_from_slice(vals);
            }
            row_offsets.push(col_indices.len() as u32);
        }
        // Invariant: padding only inserts sorted in-bounds zero entries.
        #[allow(clippy::expect_used)]
        let csr = CsrMatrix::from_parts(self.rows, self.cols, row_offsets, col_indices, values)
            .expect("padding preserves CSR validity");
        Some(csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f32> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_parts(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_dense() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(CsrMatrix::from_dense(&d), m);
    }

    #[test]
    fn validation_rejects_bad_offsets() {
        let e = CsrMatrix::<f32>::from_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]);
        assert_eq!(
            e.unwrap_err(),
            CsrError::BadOffsetLen {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn validation_rejects_unsorted_rows() {
        let e = CsrMatrix::<f32>::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert_eq!(e.unwrap_err(), CsrError::UnsortedRow { row: 0 });
    }

    #[test]
    fn validation_rejects_out_of_bounds() {
        let e = CsrMatrix::<f32>::from_parts(1, 3, vec![0, 1], vec![3], vec![1.0]);
        assert!(matches!(e.unwrap_err(), CsrError::ColumnOutOfBounds { .. }));
    }

    #[test]
    fn validation_rejects_decreasing_offsets() {
        let e = CsrMatrix::<f32>::from_parts(2, 3, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        // Final offset (1) also mismatches nnz, but monotonicity is checked first.
        assert_eq!(e.unwrap_err(), CsrError::NonMonotoneOffsets { row: 1 });
    }

    #[test]
    fn sparsity_and_lengths() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert!((m.sparsity() - (1.0 - 4.0 / 9.0)).abs() < 1e-12);
        assert_eq!(m.row_len(0), 2);
        assert_eq!(m.row_len(1), 0);
        assert_eq!(m.max_row_len(), 2);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        // Double transpose is identity.
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_permutation_permutes_values() {
        let m = sample();
        let t = m.transpose();
        let perm = m.transpose_permutation();
        let permuted: Vec<f32> = perm.iter().map(|&p| m.values()[p as usize]).collect();
        assert_eq!(permuted, t.values());
    }

    #[test]
    fn with_values_keeps_pattern() {
        let m = sample();
        let m2 = m.with_values(vec![9.0, 8.0, 7.0, 6.0]);
        assert!(m.same_pattern(&m2));
        assert_eq!(m2.values(), &[9.0, 8.0, 7.0, 6.0]);
    }

    #[test]
    fn bytes_accounting() {
        let m = sample();
        // 4 values * 4B + 4 indices * 4B + 4 offsets * 4B = 48.
        assert_eq!(m.bytes(IndexWidth::U32), 48);
        // 16-bit indices: 4 values * 4B + 4 * 2B + 16B = 40.
        assert_eq!(m.bytes(IndexWidth::U16), 40);
    }

    #[test]
    fn padding_aligns_every_row() {
        let m = crate::gen::uniform(32, 64, 0.7, 801);
        let p = m.padded_to_multiple(4).expect("plenty of free columns");
        for r in 0..32 {
            assert_eq!(p.row_len(r) % 4, 0, "row {r}");
        }
        // Padding adds only zeros: dense views agree.
        assert_eq!(p.to_dense(), m.to_dense());
        assert!(p.nnz() >= m.nnz());
    }

    #[test]
    fn padding_fails_on_full_rows() {
        // A fully dense 1x3 row cannot be padded to a multiple of 4.
        let m =
            CsrMatrix::<f32>::from_parts(1, 3, vec![0, 3], vec![0, 1, 2], vec![1.0; 3]).unwrap();
        assert!(m.padded_to_multiple(4).is_none());
    }

    #[test]
    fn fingerprint_tracks_topology_not_values() {
        let m = crate::gen::uniform(32, 64, 0.7, 801);
        let same_pattern = m.with_values(vec![7.0; m.nnz()]);
        assert_eq!(m.fingerprint(), same_pattern.fingerprint());
        let other = crate::gen::uniform(32, 64, 0.7, 802);
        assert_ne!(m.fingerprint(), other.fingerprint());
        // Dimensions are covered even when the pattern is empty.
        assert_ne!(
            CsrMatrix::<f32>::empty(4, 8).fingerprint(),
            CsrMatrix::<f32>::empty(8, 4).fingerprint()
        );
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // Launch-cache keys embed these hashes; they must never drift.
        assert_eq!(
            CsrMatrix::<f32>::empty(4, 8).fingerprint(),
            0x5770_b860_8afb_a819
        );
        assert_eq!(
            crate::gen::uniform(32, 64, 0.7, 801).fingerprint(),
            0x11d5_c708_1b86_6fa6
        );
        assert_eq!(
            crate::gen::uniform(32, 64, 0.7, 802).fingerprint(),
            0x0677_2b5d_4df7_e740
        );
    }

    #[test]
    fn fingerprint_memo_fills_on_first_call() {
        let m = crate::gen::uniform(32, 64, 0.7, 801);
        assert!(m.fingerprint.get().is_none());
        let fp = m.fingerprint();
        assert_eq!(m.fingerprint.get(), Some(&fp));
        assert_eq!(fp, m.compute_fingerprint());
    }

    #[test]
    fn fingerprint_memo_survives_topology_preserving_constructors() {
        let m = crate::gen::uniform(32, 64, 0.7, 801);
        let fp = m.fingerprint();
        let cloned = m.clone();
        let revalued = m.with_values(vec![7.0; m.nnz()]);
        let converted: CsrMatrix<crate::f16::Half> = m.convert();
        for (memo, fresh) in [
            (cloned.fingerprint.get(), cloned.compute_fingerprint()),
            (revalued.fingerprint.get(), revalued.compute_fingerprint()),
            (converted.fingerprint.get(), converted.compute_fingerprint()),
        ] {
            assert_eq!(memo, Some(&fp));
            assert_eq!(fresh, fp);
        }
    }

    #[test]
    fn fingerprint_memo_starts_empty_on_new_topology() {
        let m = crate::gen::uniform(32, 64, 0.7, 801);
        m.fingerprint();
        let t = m.transpose();
        let p = m.padded_to_multiple(4).expect("plenty of free columns");
        assert!(t.fingerprint.get().is_none());
        assert!(p.fingerprint.get().is_none());
        assert_ne!(t.fingerprint(), m.fingerprint());
        assert_ne!(p.fingerprint(), m.fingerprint());
    }

    #[test]
    fn equality_ignores_fingerprint_memo() {
        let m = sample();
        let twin = sample();
        m.fingerprint();
        assert!(m.fingerprint.get().is_some() && twin.fingerprint.get().is_none());
        assert_eq!(m, twin);
        assert_ne!(m, twin.with_values(vec![0.0; 4]));
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }
}
