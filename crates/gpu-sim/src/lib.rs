//! # gpu-sim — an analytic V100-class GPU execution simulator
//!
//! This crate is the hardware substrate for the Rust reproduction of
//! *Sparse GPU Kernels for Deep Learning* (Gale et al., SC 2020). No GPU is
//! available in this environment, so kernels are written against a simulated
//! device instead: each kernel supplies a per-thread-block body which
//! computes real numerical outputs **and** records a warp-level
//! instruction/memory cost trace. The launcher converts those traces into a
//! simulated runtime using
//!
//! * a memory-coalescing model (32-byte sectors, alignment effects — the
//!   machinery behind the paper's ROMA technique),
//! * an analytic L2/L1 cross-block reuse model (the source of the
//!   dense/sparse crossover in the paper's Figure 1),
//! * an occupancy calculator and latency-hiding penalty (why 1-D tiling wins
//!   on small problems),
//! * the reverse-engineered Volta thread-block scheduler from Section V-C1
//!   of the paper, driving an event-driven makespan simulation (the basis of
//!   the row-swizzle load-balancing results), and
//! * per-SM pipeline throughputs (issue, FMA, LSU, shared memory) with
//!   device-wide rooflines.
//!
//! Absolute times are model outputs, not silicon measurements; the model is
//! calibrated once against the paper's anchor points (see `DESIGN.md`) and
//! every comparative result is then emergent. [`microbench`] checks the
//! model against each device's datasheet bandwidth and FP32 peak.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{Gpu, Kernel, Dim3, BlockContext, BufferSpec, BufferId, AccessPattern};
//!
//! /// A kernel that streams through a buffer, one block per 128 floats.
//! struct Stream { n: u64 }
//!
//! impl Kernel for Stream {
//!     fn name(&self) -> String { "stream".into() }
//!     fn grid(&self) -> Dim3 { Dim3::x((self.n / 128) as u32) }
//!     fn block_dim(&self) -> Dim3 { Dim3::x(128) }
//!     fn buffers(&self) -> Vec<BufferSpec> {
//!         vec![BufferSpec { id: BufferId(0), name: "src", footprint_bytes: self.n * 4,
//!                           pattern: AccessPattern::Streaming }]
//!     }
//!     fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
//!         let base = block.x as u64 * 128 * 4;
//!         for w in 0..4u64 {
//!             ctx.ld_global(BufferId(0), base + w * 128, 32, 1, 4);
//!         }
//!         ctx.fma(4, 128);
//!     }
//! }
//!
//! let gpu = Gpu::v100();
//! let stats = gpu.launch(&Stream { n: 1 << 20 });
//! assert!(stats.time_us > 0.0);
//! ```

pub mod arena;
pub mod cache;
pub mod cost;
pub mod device;
pub mod dim;
pub mod fault;
pub mod fleet;
pub mod fused;
pub mod kernel;
pub mod lanes;
pub mod launch;
pub mod launch_cache;
pub mod memory;
pub mod metrics;
pub mod microbench;
pub mod occupancy;
pub mod sanitizer;
pub mod scheduler;
pub mod static_check;
pub mod timing;
pub mod trace;
pub mod util;

pub use arena::ScratchF32;
pub use cache::{AccessPattern, BufferSpec, DramTraffic};
pub use cost::{BlockContext, BlockCost, BlockCostLite, BufferId, Traffic, MAX_BUFFERS};
pub use device::{DeviceConfig, LinkProfile};
pub use dim::Dim3;
pub use fault::{DeviceFault, FaultKind, FaultPlan};
pub use fleet::{Fleet, FleetSync};
pub use fused::SddmmSoftmaxSpmmKernel;
pub use kernel::{key_hash, CostKey, Kernel, KeyedBlocks};
pub use launch::{
    pipelined_us, CheckLevel, Gpu, KernelBuilder, LaunchError, LaunchRequest, LaunchStats,
    LaunchSummary, Launched, Mode, PipelineBreakdown,
};
pub use launch_cache::{LaunchCache, LaunchKey};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use microbench::{validate, Validation};
pub use occupancy::{occupancy, BlockRequirements, Occupancy, OccupancyLimit};
pub use sanitizer::{
    CheckClass, SanitizerReport, SanitizerViolation, SanitizerWarning, SmemScope, Verdict,
};
pub use scheduler::{simulate_schedule, volta_first_wave_sm, ScheduleResult};
pub use sparse::Fingerprint;
pub use static_check::{
    audit, AccessBound, AlignmentFacts, BarrierFacts, BufferBound, StageBound, StaticAudit,
    StaticFacts, StaticFinding, VectorClass,
};
pub use trace::{chrome_trace_json, validate_chrome_trace, ProfileReport, TraceEvent};
pub use util::OutputSlice;
