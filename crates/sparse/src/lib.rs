//! # sparse — tensors and corpora for the Sputnik reproduction
//!
//! Sparse (CSR) and dense matrices, a software IEEE binary16 type for the
//! mixed-precision kernels, the matrix statistics studied in Section II of
//! *Sparse GPU Kernels for Deep Learning* (Gale et al., SC 2020), seeded
//! random generators for every experimental workload, the row-swizzle
//! orderings of Section V-C, and synthetic stand-ins for the paper's matrix
//! corpora.
//!
//! ```
//! use sparse::{gen, stats, CsrMatrix};
//!
//! let w = gen::uniform(128, 256, 0.8, 42);       // 80% sparse weights
//! let s = stats::matrix_stats(&w);
//! assert!((s.sparsity - 0.8).abs() < 0.05);
//!
//! let dense = w.to_dense();                       // lossless roundtrip
//! assert_eq!(CsrMatrix::from_dense(&dense), w);
//! ```

pub mod block;
pub mod coo;
pub mod csr;
pub mod dataset;
pub mod dense;
pub mod element;
pub mod f16;
pub mod fingerprint;
pub mod gen;
pub mod io;
pub mod mtx;
pub mod pattern;
pub mod rng;
pub mod stats;
pub mod swizzle;

pub use block::{block_magnitude_retention, block_prune, BsrMatrix};
pub use coo::{CooMatrix, DuplicatePolicy};
pub use csr::{CsrError, CsrMatrix};
pub use dense::{Layout, Matrix};
pub use element::{IndexWidth, Scalar};
pub use f16::Half;
pub use fingerprint::Fingerprint;
pub use pattern::{PatternGranularity, PatternLut};
pub use stats::{matrix_stats, MatrixStats};
pub use swizzle::RowSwizzle;
