//! Coordinate (COO) format — the construction-friendly intermediate.
//!
//! CSR is the computation format; building a matrix incrementally (pruning
//! masks, attention patterns, test fixtures) is much more natural as a list
//! of `(row, col, value)` triplets. `CooMatrix` accepts triplets in any
//! order, handles duplicates with a configurable policy, and converts to
//! CSR in O(nnz log nnz).

use crate::csr::CsrMatrix;
use crate::element::Scalar;

/// What to do when the same (row, col) appears more than once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicatePolicy {
    /// Sum the values (the linear-algebra convention).
    Sum,
    /// Keep the last value pushed (the assignment convention).
    KeepLast,
    /// Treat duplicates as an error.
    Reject,
}

/// A mutable triplet-list sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, T)>,
}

/// Errors from COO construction / conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CooError {
    OutOfBounds { row: usize, col: usize },
    Duplicate { row: u32, col: u32 },
}

impl std::fmt::Display for CooError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CooError::OutOfBounds { row, col } => write!(f, "entry ({row},{col}) out of bounds"),
            CooError::Duplicate { row, col } => write!(f, "duplicate entry ({row},{col})"),
        }
    }
}

impl std::error::Error for CooError {}

impl<T: Scalar> CooMatrix<T> {
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::with_capacity(nnz),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored triplets (duplicates included until conversion).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append one triplet.
    pub fn push(&mut self, row: usize, col: usize, value: T) -> Result<(), CooError> {
        if row >= self.rows || col >= self.cols {
            return Err(CooError::OutOfBounds { row, col });
        }
        self.entries.push((row as u32, col as u32, value));
        Ok(())
    }

    /// Append many triplets.
    pub fn extend(
        &mut self,
        it: impl IntoIterator<Item = (usize, usize, T)>,
    ) -> Result<(), CooError> {
        for (r, c, v) in it {
            self.push(r, c, v)?;
        }
        Ok(())
    }

    /// Convert to CSR, resolving duplicates per `policy` and dropping
    /// explicit zeros produced by summation.
    pub fn to_csr(&self, policy: DuplicatePolicy) -> Result<CsrMatrix<T>, CooError> {
        let mut entries = self.entries.clone();
        // Stable sort preserves push order among duplicates (KeepLast needs it).
        entries.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_offsets = Vec::with_capacity(self.rows + 1);
        let mut col_indices = Vec::with_capacity(entries.len());
        let mut values: Vec<T> = Vec::with_capacity(entries.len());
        row_offsets.push(0u32);
        let mut current_row = 0usize;

        let mut i = 0;
        while i < entries.len() {
            let (r, c, mut v) = entries[i];
            let mut j = i + 1;
            while j < entries.len() && entries[j].0 == r && entries[j].1 == c {
                match policy {
                    DuplicatePolicy::Sum => v = T::from_f32(v.to_f32() + entries[j].2.to_f32()),
                    DuplicatePolicy::KeepLast => v = entries[j].2,
                    DuplicatePolicy::Reject => return Err(CooError::Duplicate { row: r, col: c }),
                }
                j += 1;
            }
            while current_row < r as usize {
                row_offsets.push(col_indices.len() as u32);
                current_row += 1;
            }
            if v.to_f32() != 0.0 {
                col_indices.push(c);
                values.push(v);
            }
            i = j;
        }
        while current_row < self.rows {
            row_offsets.push(col_indices.len() as u32);
            current_row += 1;
        }

        // Invariant, not input validation: the sorted sweep above emits
        // offsets/indices that satisfy every CSR precondition.
        #[allow(clippy::expect_used)]
        let csr = CsrMatrix::from_parts(self.rows, self.cols, row_offsets, col_indices, values)
            .expect("COO conversion produces valid CSR");
        Ok(csr)
    }
}

impl<T: Scalar> From<&CsrMatrix<T>> for CooMatrix<T> {
    fn from(csr: &CsrMatrix<T>) -> Self {
        let mut coo = CooMatrix::with_capacity(csr.rows(), csr.cols(), csr.nnz());
        for (r, c, v) in csr.iter() {
            // Invariant: a constructed CsrMatrix has in-bounds entries.
            #[allow(clippy::expect_used)]
            coo.push(r, c, v).expect("CSR entries are in bounds");
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_convert() {
        let mut coo = CooMatrix::<f32>::new(3, 3);
        // Out of order on purpose.
        coo.push(2, 1, 4.0).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(2, 0, 3.0).unwrap();
        let csr = coo.to_csr(DuplicatePolicy::Reject).unwrap();
        assert_eq!(csr.row_offsets(), &[0, 2, 2, 4]);
        assert_eq!(csr.col_indices(), &[0, 2, 0, 1]);
        assert_eq!(csr.values(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn duplicates_sum() {
        let mut coo = CooMatrix::<f32>::new(2, 2);
        coo.push(0, 0, 1.5).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        let csr = coo.to_csr(DuplicatePolicy::Sum).unwrap();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.values()[0], 4.0);
    }

    #[test]
    fn duplicates_keep_last() {
        let mut coo = CooMatrix::<f32>::new(2, 2);
        coo.push(1, 1, 1.0).unwrap();
        coo.push(1, 1, 9.0).unwrap();
        let csr = coo.to_csr(DuplicatePolicy::KeepLast).unwrap();
        assert_eq!(csr.values(), &[9.0]);
    }

    #[test]
    fn duplicates_reject() {
        let mut coo = CooMatrix::<f32>::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        assert_eq!(
            coo.to_csr(DuplicatePolicy::Reject).unwrap_err(),
            CooError::Duplicate { row: 0, col: 1 }
        );
    }

    #[test]
    fn summation_to_zero_drops_entry() {
        let mut coo = CooMatrix::<f32>::new(1, 2);
        coo.push(0, 0, 5.0).unwrap();
        coo.push(0, 0, -5.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        let csr = coo.to_csr(DuplicatePolicy::Sum).unwrap();
        assert_eq!(csr.nnz(), 1, "cancelled entry must vanish");
        assert_eq!(csr.col_indices(), &[1]);
    }

    #[test]
    fn bounds_checked() {
        let mut coo = CooMatrix::<f32>::new(2, 2);
        assert!(matches!(
            coo.push(2, 0, 1.0),
            Err(CooError::OutOfBounds { .. })
        ));
        assert!(matches!(
            coo.push(0, 5, 1.0),
            Err(CooError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn csr_roundtrip() {
        let csr = crate::gen::uniform(16, 24, 0.7, 701);
        let coo = CooMatrix::from(&csr);
        assert_eq!(coo.to_csr(DuplicatePolicy::Reject).unwrap(), csr);
    }

    #[test]
    fn empty_and_trailing_rows() {
        let mut coo = CooMatrix::<f32>::new(4, 4);
        coo.push(1, 2, 7.0).unwrap();
        let csr = coo.to_csr(DuplicatePolicy::Sum).unwrap();
        assert_eq!(csr.row_offsets(), &[0, 0, 1, 1, 1]);
    }
}
