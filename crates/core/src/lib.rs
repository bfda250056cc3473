//! # sputnik — sparse GPU kernels for deep learning, in simulation
//!
//! Rust reproduction of the kernels from *Sparse GPU Kernels for Deep
//! Learning* (Gale, Zaharia, Young, Elsen — SC 2020): SpMM and SDDMM with
//! hierarchical 1-D tiling, subwarp tiling, reverse offset memory alignment
//! (ROMA), row-swizzle load balancing, index pre-scaling, residue unrolling,
//! and mixed-precision variants — all executing against the `gpu-sim`
//! simulated V100.
pub mod batched;
pub mod config;
pub mod dispatch;
pub mod error;
pub mod joint;
pub mod plan;
pub mod reference;
pub mod roma;
pub mod sddmm;
pub mod shard;
pub mod softmax;
pub mod spmm;
pub mod transpose;
pub mod tune;

pub use batched::{sddmm_batched_dispatch, spmm_batched_dispatch, DispatchedBatch};
pub use config::{SddmmConfig, SpmmConfig};
pub use dispatch::{DispatchPolicy, DispatchReport, FallbackSpmmKernel, Rung};
pub use error::SputnikError;
pub use joint::{joint_heuristic, joint_spmm, joint_spmm_profile, try_joint_spmm, JointSpmmKernel};
pub use plan::{
    attention_configs, sparse_attention_fused, sparse_attention_fused_profile,
    sparse_attention_unfused, try_sparse_attention_fused, AttentionConfigs, AttentionTime,
    FusedAttention, FusionDecision,
};
pub use roma::MemoryAligner;
pub use sddmm::{sddmm, sddmm_profile, sddmm_profile_cached, try_sddmm, SddmmKernel};
pub use shard::{plan_row_shards, row_slice, sddmm_row_sharded, spmm_row_sharded, ShardedRun};
pub use softmax::{
    sparse_softmax, sparse_softmax_profile, sparse_softmax_scaled, sparse_softmax_scaled_profile,
    SparseSoftmaxKernel,
};
pub use spmm::{spmm, spmm_profile, spmm_profile_cached, try_spmm, SpmmKernel, BUF_LUT};
pub use transpose::{CachedTranspose, PermuteKernel};
pub use tune::{AutoTuner, ProblemClass, TuneResult};
