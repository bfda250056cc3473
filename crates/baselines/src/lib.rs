//! # baselines — comparator kernels on the simulated GPU
//!
//! Every system the paper benchmarks against, implemented against the same
//! `gpu-sim` substrate as the Sputnik kernels so relative performance is an
//! emergent property of algorithmic structure, not hard-coded ratios:
//!
//! * [`cublas`] — tiled dense GEMM ("cuBLAS") and a staging transpose.
//! * [`cusparse`] — warp-per-row CSR SpMM on column-major operands, the
//!   mixed-precision fallback pathology, and `cusparseConstrainedGeMM` for
//!   SDDMM (requiring an explicit transpose).
//! * [`mod@merge_spmm`] — Yang et al.'s row-splitting SpMM.
//! * [`aspt`] — Hong et al.'s Adaptive Sparse Tiling SpMM/SDDMM with its
//!   reordering plan, 3x memory overhead, and shape constraints.
pub mod aspt;
pub mod block_sparse;
pub mod cublas;
pub mod cusparse;
pub mod merge_spmm;
pub mod nnz_split;

pub use aspt::{aspt_sddmm_profile, aspt_spmm, aspt_spmm_profile, AsptDirection, AsptPlan};
pub use block_sparse::{block_spmm, block_spmm_profile, BlockSpmmKernel};
pub use cublas::{gemm, gemm_profile, transpose, transpose_profile, GemmKernel, TransposeKernel};
pub use cusparse::{
    cusparse_sddmm, cusparse_sddmm_profile, cusparse_spmm, cusparse_spmm_half_profile,
    cusparse_spmm_profile,
};
pub use merge_spmm::{merge_spmm, merge_spmm_profile, MergeSpmmKernel};
pub use nnz_split::{nnz_split_spmm, nnz_split_spmm_profile, NnzSplitSpmmKernel};
