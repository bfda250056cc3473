//! Row-swizzle orderings (Section V-C of the paper).
//!
//! The swizzle is "a layer of indirection that re-orders when rows are
//! processed": an argsort of row indices by decreasing row length. Bundles
//! of `bundle_size` consecutive sorted rows group similarly sized rows for
//! subwarp processing (row bundling), and processing bundles in decreasing
//! order of heaviness approximates guided self-scheduling on the online
//! Volta block scheduler (row binning).

use crate::csr::CsrMatrix;
use crate::element::Scalar;

/// A precomputed row-processing order.
///
/// "Since the topology of sparse matrices in DNNs is typically updated
/// infrequently, the cost of the argsort ... can be amortized over many
/// training steps" — mirroring that, the swizzle is computed once per
/// topology and passed to kernels by reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSwizzle {
    order: Vec<u32>,
}

impl RowSwizzle {
    /// The identity ordering (what a kernel without load balancing uses).
    pub fn identity(rows: usize) -> Self {
        Self {
            order: (0..rows as u32).collect(),
        }
    }

    /// Argsort of rows by decreasing nonzero count. Ties keep the original
    /// row order (stable), which preserves locality between adjacent rows.
    pub fn by_length_desc<T: Scalar>(m: &CsrMatrix<T>) -> Self {
        let mut order: Vec<u32> = (0..m.rows() as u32).collect();
        order.sort_by_key(|&r| std::cmp::Reverse(m.row_len(r as usize)));
        Self { order }
    }

    /// The ordering a kernel configuration asks for: [`Self::by_length_desc`]
    /// when its `row_swizzle` flag is set, [`Self::identity`] otherwise.
    pub fn for_config<T: Scalar>(m: &CsrMatrix<T>, row_swizzle: bool) -> Self {
        if row_swizzle {
            Self::by_length_desc(m)
        } else {
            Self::identity(m.rows())
        }
    }

    /// The row processed by the `i`-th scheduled unit of work.
    #[inline]
    pub fn row(&self, i: usize) -> usize {
        self.order[i] as usize
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.order
    }

    /// Extra device memory the swizzle costs: one index per row ("the memory
    /// required to store the sorted indices for the matrix is negligible").
    pub fn bytes(&self) -> u64 {
        self.order.len() as u64 * 4
    }

    /// Validate that this is a permutation of `0..rows`.
    pub fn is_permutation(&self) -> bool {
        let mut seen = vec![false; self.order.len()];
        for &r in &self.order {
            let r = r as usize;
            if r >= seen.len() || seen[r] {
                return false;
            }
            seen[r] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn identity_maps_to_self() {
        let s = RowSwizzle::identity(5);
        assert_eq!(s.as_slice(), &[0, 1, 2, 3, 4]);
        assert!(s.is_permutation());
    }

    #[test]
    fn sorted_order_is_descending_by_length() {
        let m = gen::with_cov(256, 512, 0.8, 1.0, 3);
        let s = RowSwizzle::by_length_desc(&m);
        assert!(s.is_permutation());
        for w in s.as_slice().windows(2) {
            assert!(
                m.row_len(w[0] as usize) >= m.row_len(w[1] as usize),
                "lengths must be non-increasing"
            );
        }
    }

    #[test]
    fn sort_is_stable_for_ties() {
        let m = gen::balanced(16, 32, 4, 0);
        let s = RowSwizzle::by_length_desc(&m);
        assert_eq!(s.as_slice(), RowSwizzle::identity(16).as_slice());
    }

    #[test]
    fn bytes_is_four_per_row() {
        assert_eq!(RowSwizzle::identity(100).bytes(), 400);
    }
}
