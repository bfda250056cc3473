//! Block-sparse matrices (BSR format).
//!
//! The paper's introduction discusses enforcing structure on the nonzero
//! topology — "nonzero values are grouped into blocks \[12\]-\[14\]. While this
//! approach is able to recover much of the performance achieved by dense
//! computation, the constraint on the location of nonzeros can significantly
//! degrade model quality relative to unstructured sparsity." This module
//! provides the block format, block-granular magnitude pruning, and the
//! quality proxy used by the structured-vs-unstructured extension study
//! (`ext_block_sparse` in the bench crate): how much weight magnitude block
//! pruning retains relative to unstructured pruning at equal parameter
//! count.

use crate::dense::Matrix;
use crate::element::Scalar;

/// A block compressed sparse row matrix: square `block_size` x `block_size`
/// dense blocks at block-granular CSR coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct BsrMatrix<T> {
    rows: usize,
    cols: usize,
    block_size: usize,
    /// Block-row offsets (length `rows / block_size + 1`).
    block_row_offsets: Vec<u32>,
    /// Block-column indices, sorted within each block row.
    block_col_indices: Vec<u32>,
    /// Block payloads, `block_size^2` each, row-major within the block.
    blocks: Vec<T>,
}

impl<T: Scalar> BsrMatrix<T> {
    /// Extract every block containing at least one nonzero from a dense
    /// matrix. Dimensions must be multiples of `block_size`.
    pub fn from_dense(dense: &Matrix<T>, block_size: usize) -> Self {
        assert!(block_size > 0);
        assert_eq!(
            dense.rows() % block_size,
            0,
            "rows must be a multiple of the block size"
        );
        assert_eq!(
            dense.cols() % block_size,
            0,
            "cols must be a multiple of the block size"
        );
        let brows = dense.rows() / block_size;
        let bcols = dense.cols() / block_size;
        let mut block_row_offsets = vec![0u32];
        let mut block_col_indices = Vec::new();
        let mut blocks = Vec::new();
        for br in 0..brows {
            for bc in 0..bcols {
                let mut any = false;
                'scan: for r in 0..block_size {
                    for c in 0..block_size {
                        if dense.get(br * block_size + r, bc * block_size + c).to_f32() != 0.0 {
                            any = true;
                            break 'scan;
                        }
                    }
                }
                if any {
                    block_col_indices.push(bc as u32);
                    for r in 0..block_size {
                        for c in 0..block_size {
                            blocks.push(dense.get(br * block_size + r, bc * block_size + c));
                        }
                    }
                }
            }
            block_row_offsets.push(block_col_indices.len() as u32);
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            block_size,
            block_row_offsets,
            block_col_indices,
            blocks,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn block_size(&self) -> usize {
        self.block_size
    }

    pub fn block_rows(&self) -> usize {
        self.rows / self.block_size
    }

    /// Number of stored blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.block_col_indices.len()
    }

    /// Stored elements (including explicit zeros inside blocks).
    pub fn stored_elements(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks in block-row `br`: `(block_col, payload)` pairs.
    pub fn block_row(&self, br: usize) -> impl Iterator<Item = (usize, &[T])> + Clone + '_ {
        let s = self.block_row_offsets[br] as usize;
        let e = self.block_row_offsets[br + 1] as usize;
        let bb = self.block_size * self.block_size;
        (s..e).map(move |i| {
            (
                self.block_col_indices[i] as usize,
                &self.blocks[i * bb..(i + 1) * bb],
            )
        })
    }

    /// Blocks per block-row (for load-balance analysis).
    pub fn block_row_len(&self, br: usize) -> usize {
        (self.block_row_offsets[br + 1] - self.block_row_offsets[br]) as usize
    }

    /// Densify.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let b = self.block_size;
        for br in 0..self.block_rows() {
            for (bc, payload) in self.block_row(br) {
                for r in 0..b {
                    for c in 0..b {
                        out.set(br * b + r, bc * b + c, payload[r * b + c]);
                    }
                }
            }
        }
        out
    }

    /// Device memory footprint: payloads + block metadata.
    pub fn bytes(&self) -> u64 {
        self.blocks.len() as u64 * T::BYTES as u64
            + self.block_col_indices.len() as u64 * 4
            + self.block_row_offsets.len() as u64 * 4
    }
}

/// Block-granular magnitude pruning: keep the blocks with the largest L1
/// norms such that the *element-level* sparsity reaches `sparsity` (every
/// kept block stores all `block_size^2` elements, zeros included — the
/// structured constraint).
pub fn block_prune(dense: &Matrix<f32>, block_size: usize, sparsity: f64) -> BsrMatrix<f32> {
    assert!((0.0..=1.0).contains(&sparsity));
    assert_eq!(dense.rows() % block_size, 0);
    assert_eq!(dense.cols() % block_size, 0);
    let brows = dense.rows() / block_size;
    let bcols = dense.cols() / block_size;
    let total_blocks = brows * bcols;
    let keep_blocks = ((total_blocks as f64) * (1.0 - sparsity)).round() as usize;

    // Rank blocks by L1 norm.
    let mut norms: Vec<(f32, usize)> = (0..total_blocks)
        .map(|i| {
            let (br, bc) = (i / bcols, i % bcols);
            let mut norm = 0.0f32;
            for r in 0..block_size {
                for c in 0..block_size {
                    norm += dense.get(br * block_size + r, bc * block_size + c).abs();
                }
            }
            (norm, i)
        })
        .collect();
    norms.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut kept = vec![false; total_blocks];
    for &(_, i) in norms.iter().take(keep_blocks) {
        kept[i] = true;
    }

    let mut masked = Matrix::<f32>::zeros(dense.rows(), dense.cols());
    for (i, &k) in kept.iter().enumerate() {
        if !k {
            continue;
        }
        let (br, bc) = (i / bcols, i % bcols);
        for r in 0..block_size {
            for c in 0..block_size {
                let (rr, cc) = (br * block_size + r, bc * block_size + c);
                masked.set(rr, cc, dense.get(rr, cc));
            }
        }
    }
    BsrMatrix::from_dense_with_kept(&masked, block_size, &kept, bcols)
}

impl BsrMatrix<f32> {
    /// Internal: build from a masked dense matrix keeping exactly the chosen
    /// blocks (including all-zero kept blocks, which `from_dense` would drop).
    fn from_dense_with_kept(
        dense: &Matrix<f32>,
        block_size: usize,
        kept: &[bool],
        bcols: usize,
    ) -> Self {
        let brows = dense.rows() / block_size;
        let mut block_row_offsets = vec![0u32];
        let mut block_col_indices = Vec::new();
        let mut blocks = Vec::new();
        for br in 0..brows {
            for bc in 0..bcols {
                if !kept[br * bcols + bc] {
                    continue;
                }
                block_col_indices.push(bc as u32);
                for r in 0..block_size {
                    for c in 0..block_size {
                        blocks.push(dense.get(br * block_size + r, bc * block_size + c));
                    }
                }
            }
            block_row_offsets.push(block_col_indices.len() as u32);
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            block_size,
            block_row_offsets,
            block_col_indices,
            blocks,
        }
    }
}

/// Quality proxy for the structured-vs-unstructured tradeoff: the fraction
/// of total weight magnitude that block pruning retains, divided by what
/// unstructured magnitude pruning retains at the same parameter budget.
/// 1.0 means structure costs nothing; lower values quantify the paper's
/// "constraint on the location of nonzeros can significantly degrade model
/// quality".
pub fn block_magnitude_retention(dense: &Matrix<f32>, block_size: usize, sparsity: f64) -> f64 {
    let blocked = block_prune(dense, block_size, sparsity);
    let kept_block: f64 = blocked
        .to_dense()
        .as_slice()
        .iter()
        .map(|v| v.abs() as f64)
        .sum();

    // Unstructured: top-k |w| at the same kept-parameter count.
    let kept_params = blocked.stored_elements();
    let mut mags: Vec<f32> = dense.as_slice().iter().map(|v| v.abs()).collect();
    mags.sort_by(|a, b| b.total_cmp(a));
    let kept_unstructured: f64 = mags.iter().take(kept_params).map(|&v| v as f64).sum();
    if kept_unstructured == 0.0 {
        return 1.0;
    }
    kept_block / kept_unstructured
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkerboard(n: usize, b: usize) -> Matrix<f32> {
        Matrix::from_fn(n, n, |r, c| {
            if ((r / b) + (c / b)).is_multiple_of(2) {
                (r * n + c) as f32 + 1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn roundtrip_dense() {
        let d = checkerboard(16, 4);
        let m = BsrMatrix::from_dense(&d, 4);
        assert_eq!(m.to_dense(), d);
        assert_eq!(m.nnz_blocks(), 8); // half of 16 blocks
    }

    #[test]
    fn block_prune_keeps_heaviest_blocks() {
        // Magnitudes grow with the linear index, so the bottom-right blocks
        // must survive.
        let d = Matrix::<f32>::from_fn(8, 8, |r, c| (r * 8 + c) as f32);
        let m = block_prune(&d, 4, 0.75); // keep 1 of 4 blocks
        assert_eq!(m.nnz_blocks(), 1);
        let (bc, _) = m
            .block_row(1)
            .next()
            .expect("bottom block row keeps a block");
        assert_eq!(bc, 1, "bottom-right block has the largest norm");
    }

    #[test]
    fn block_prune_hits_target_sparsity() {
        let d = Matrix::<f32>::random(64, 64, 401);
        for &s in &[0.5, 0.75, 0.9] {
            let m = block_prune(&d, 8, s);
            let stored_frac = m.stored_elements() as f64 / (64.0 * 64.0);
            assert!(
                (stored_frac - (1.0 - s)).abs() < 0.05,
                "sparsity {s}: stored {stored_frac}"
            );
        }
    }

    #[test]
    fn retention_degrades_with_block_size() {
        // Bigger blocks constrain the topology more -> lower retention: the
        // quality-vs-structure tradeoff from the paper's introduction.
        let d = Matrix::<f32>::random(128, 128, 402);
        let r1 = block_magnitude_retention(&d, 1, 0.8);
        let r4 = block_magnitude_retention(&d, 4, 0.8);
        let r16 = block_magnitude_retention(&d, 16, 0.8);
        assert!(r1 > 0.999, "1x1 blocks are unstructured pruning, got {r1}");
        assert!(
            r4 < r1 && r16 < r4,
            "retention must degrade: {r1} > {r4} > {r16}"
        );
        assert!(r16 > 0.3, "retention should stay meaningful, got {r16}");
    }

    #[test]
    fn bytes_accounts_for_padding_zeros() {
        // A single nonzero per block still stores the full block.
        let mut d = Matrix::<f32>::zeros(8, 8);
        d.set(0, 0, 1.0);
        d.set(4, 4, 2.0);
        let m = BsrMatrix::from_dense(&d, 4);
        assert_eq!(m.stored_elements(), 32); // 2 blocks x 16
        assert_eq!(m.bytes(), 32 * 4 + 2 * 4 + 3 * 4);
    }
}
