//! # serve — the serving front door
//!
//! Continuous batching over the sparse kernels, with an explicit robustness
//! envelope: a deterministic seeded traffic simulator ([`traffic`]), a
//! bounded admission queue with typed outcomes ([`queue`]), per-request SLO
//! accounting with exact percentiles ([`slo`]), the transformer attention
//! workload ([`workload`]), and the discrete-event scheduler tying them
//! together ([`server`]).
//!
//! The design contract, end to end:
//!
//! - **Bounded.** Queue depth never exceeds the policy bound; overload
//!   becomes typed `Rejected`/`Shed` outcomes, not memory growth.
//! - **Conserved.** `served + shed + rejected == offered` on every run —
//!   asserted by the server, pinned by tests and the servewall chaos gate.
//! - **Degradable.** A [`gpu_sim::FaultPlan`] active during serving walks
//!   individual requests down the dispatch ladder (retry → heuristic →
//!   fallback → CPU); it never crashes the server or loses a request.
//! - **Reproducible.** Same seed ⇒ bit-identical traffic and, since the
//!   simulator is deterministic, bit-identical latency distributions.

pub mod queue;
pub mod server;
pub mod slo;
pub mod traffic;
pub mod workload;

pub use queue::{Admission, AdmissionQueue};
pub use server::{run, run_fleet, ServePolicy, ServeReport};
pub use slo::LatencyRecorder;
pub use traffic::{generate, ArrivalProcess, OpKind, Request, TrafficConfig};
pub use workload::{attention_topologies, Topology};
