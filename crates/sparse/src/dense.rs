//! Dense matrices.
//!
//! The paper stores dense operands row-major for its kernels (Section IV-C)
//! and notes that cuSPARSE uses column-major dense operands; both layouts
//! are supported so the baselines' strided-access penalties are real.

use crate::element::Scalar;

/// Storage order of a dense matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// C order: element (r, c) at `r * cols + c`. Used by our kernels.
    RowMajor,
    /// Fortran order: element (r, c) at `c * rows + r`. Used by cuSPARSE.
    ColMajor,
}

/// A dense matrix of `Scalar` elements.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    layout: Layout,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// A zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            layout: Layout::RowMajor,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// A zero-filled matrix with an explicit layout.
    pub fn zeros_with_layout(rows: usize, cols: usize, layout: Layout) -> Self {
        Self {
            rows,
            cols,
            layout,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, T::from_f32(f(r, c)));
            }
        }
        m
    }

    /// Build from row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self {
            rows,
            cols,
            layout: Layout::RowMajor,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn layout(&self) -> Layout {
        self.layout
    }

    #[inline]
    fn index(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        match self.layout {
            Layout::RowMajor => r * self.cols + c,
            Layout::ColMajor => c * self.rows + r,
        }
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[self.index(r, c)]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        let i = self.index(r, c);
        self.data[i] = v;
    }

    /// Flat storage access (layout order).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// A contiguous row slice (row-major matrices only).
    pub fn row(&self, r: usize) -> &[T] {
        assert_eq!(
            self.layout,
            Layout::RowMajor,
            "row() requires row-major layout"
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Convert to the other layout (physically rearranging storage).
    pub fn to_layout(&self, layout: Layout) -> Matrix<T> {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = Matrix::zeros_with_layout(self.rows, self.cols, layout);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(r, c, self.get(r, c));
            }
        }
        out
    }

    /// Logical transpose (returns a row-major matrix of shape cols x rows).
    pub fn transpose(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Convert elements to f32.
    pub fn to_f32(&self) -> Matrix<f32> {
        let mut out = Matrix::zeros_with_layout(self.rows, self.cols, self.layout);
        for (o, &v) in out.data.iter_mut().zip(self.data.iter()) {
            *o = v.to_f32();
        }
        out
    }

    /// Memory footprint in bytes at this element width.
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 * T::BYTES as u64
    }

    /// Maximum absolute elementwise difference vs `other` (in f32).
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut worst = 0.0f32;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let d = (self.get(r, c).to_f32() - other.get(r, c).to_f32()).abs();
                if d > worst {
                    worst = d;
                }
            }
        }
        worst
    }
}

impl Matrix<f32> {
    /// Reference dense matmul: `self (m x k) * other (k x n)`. Used to
    /// validate every kernel in the workspace.
    pub fn matmul(&self, other: &Matrix<f32>) -> Matrix<f32> {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += self.get(i, l) * other.get(l, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Fill with deterministic pseudo-random values in [-1, 1).
    pub fn fill_random(&mut self, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for v in self.data.iter_mut() {
            *v = rng.random_range(-1.0..1.0);
        }
    }

    /// A random matrix with the given shape and seed.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
        let mut m = Matrix::zeros(rows, cols);
        m.fill_random(seed);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f16::Half;

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::<f32>::zeros(3, 4);
        m.set(2, 3, 5.0);
        assert_eq!(m.get(2, 3), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn layouts_agree_logically() {
        let rm = Matrix::<f32>::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        let cm = rm.to_layout(Layout::ColMajor);
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(rm.get(r, c), cm.get(r, c));
            }
        }
        // But physical order differs.
        assert_ne!(rm.as_slice(), cm.as_slice());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = Matrix::<f32>::random(7, 4, 42);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::<f32>::random(4, 4, 1);
        let eye = Matrix::<f32>::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::<f32>::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::<f32>::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn half_matrix_bytes() {
        let m = Matrix::<Half>::zeros(10, 10);
        assert_eq!(m.bytes(), 200);
        let f = Matrix::<f32>::zeros(10, 10);
        assert_eq!(f.bytes(), 400);
    }

    #[test]
    fn row_slice() {
        let m = Matrix::<f32>::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Matrix::<f32>::random(5, 5, 99);
        let b = Matrix::<f32>::random(5, 5, 99);
        assert_eq!(a, b);
        let c = Matrix::<f32>::random(5, 5, 100);
        assert_ne!(a, c);
    }
}
