//! # dnn — the neural-network substrate for the application experiments
//!
//! Layers (dense/sparse linear, depthwise conv, fused bias+ReLU, softmax),
//! magnitude pruning, multi-head attention (dense and SDDMM->sparse-softmax
//! ->SpMM), the paper's sparse Transformer (Table III) and sparse
//! MobileNetV1 (Table IV / Figure 12) models, a functional sparse LSTM
//! cell, and the recurrent-network problem suite of Figure 10 — all running
//! on the simulated GPU.
pub mod accuracy;
pub mod attention;
pub mod fleet;
pub mod jointsweep;
pub mod layers;
pub mod lstm;
pub mod mobilenet;
pub mod pruning;
pub mod rnn;
pub mod transformer;

pub use attention::{dense_attention, sparse_attention, AttentionTime};
pub use fleet::{
    mobilenet_pointwise_problem, scaling_sweep, transformer_attention_problem, FleetProblem,
    ScalingPoint, ShardStrategy,
};
pub use jointsweep::{joint_crossover_sweep, JointSweep, JointSweepPoint};
pub use layers::{bias_relu, depthwise_conv, Chw, Linear};
pub use lstm::{LstmStep, SparseLstmCell};
pub use mobilenet::MobileNetV1;
pub use pruning::magnitude_prune;
pub use rnn::{problem_suite, CellKind, RnnProblem};
pub use transformer::{AttentionMode, TransformerConfig};
