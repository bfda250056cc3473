//! Deterministic, seeded request-arrival simulation.
//!
//! Serving experiments are only comparable if the traffic is: every run at a
//! given seed must offer the *same* requests at the *same* simulated
//! instants, bit for bit, on every platform. So this module draws from the
//! workspace's frozen [`sparse::rng::SplitMix64`] stream rather than any
//! external RNG, and derives arrivals from pure `f64` arithmetic on its
//! output — both are IEEE-deterministic.
//!
//! Two arrival processes cover the interesting load shapes:
//!
//! - [`ArrivalProcess::Poisson`] — memoryless arrivals at a fixed rate, the
//!   steady-state model behind every queueing result worth quoting.
//! - [`ArrivalProcess::Bursty`] — an on-off (interrupted Poisson) process:
//!   arrivals accrue at the on-rate during `on_us` windows separated by
//!   silent `off_us` gaps. This is the trace that actually stresses the
//!   admission queue: the mean rate can be modest while instantaneous rate
//!   overwhelms a batch window.

use sparse::rng::SplitMix64;

/// Exponential variate with the given rate (events per microsecond) — the
/// inter-arrival distribution of a Poisson process.
fn exp_us(rng: &mut SplitMix64, rate_per_us: f64) -> f64 {
    let u = rng.next_f64();
    -(1.0 - u).ln() / rate_per_us
}

/// What a request asks the front door to compute.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Sparse-matrix × dense-matrix (attention-weighted value gather).
    Spmm,
    /// Sampled dense-dense (the masked QK^T of sparse attention).
    Sddmm,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpKind::Spmm => write!(f, "spmm"),
            OpKind::Sddmm => write!(f, "sddmm"),
        }
    }
}

/// One request in a traffic trace. Deadlines are absolute simulated time;
/// a request still queued past its deadline is shed, one completed past it
/// counts as served-but-late.
#[derive(Clone, Debug)]
pub struct Request {
    pub id: u64,
    pub arrival_us: f64,
    pub deadline_us: f64,
    pub op: OpKind,
    /// Index into the serving workload's topology table. Requests sharing a
    /// topology coalesce into one batched window and hit the launch cache.
    pub topology: usize,
}

/// The arrival process shaping a trace.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_per_s` requests per second.
    Poisson { rate_per_s: f64 },
    /// On-off bursts: Poisson at `rate_per_s` during `on_us` windows, then
    /// silent for `off_us`. Mean rate = `rate_per_s * on / (on + off)`.
    Bursty {
        rate_per_s: f64,
        on_us: f64,
        off_us: f64,
    },
}

/// Everything that determines a traffic trace. Same config ⇒ bit-identical
/// trace (asserted by the invariants test suite).
#[derive(Clone, Copy, Debug)]
pub struct TrafficConfig {
    pub seed: u64,
    pub process: ArrivalProcess,
    /// Total requests to offer.
    pub requests: usize,
    /// Relative deadline stamped on every request.
    pub deadline_us: f64,
    /// Fraction of requests that are SDDMM; the rest are SpMM.
    pub sddmm_fraction: f64,
    /// Number of distinct topologies to spread requests over (uniform).
    pub topologies: usize,
}

/// Generate a trace. Arrivals are monotone non-decreasing; bursty traces
/// advance a phase clock so arrivals only accrue during on-windows.
pub fn generate(cfg: &TrafficConfig) -> Vec<Request> {
    let mut rng = SplitMix64::new(cfg.seed);
    let (rate_per_us, on_us, off_us) = match cfg.process {
        ArrivalProcess::Poisson { rate_per_s } => (rate_per_s / 1e6, f64::INFINITY, 0.0),
        ArrivalProcess::Bursty {
            rate_per_s,
            on_us,
            off_us,
        } => (rate_per_s / 1e6, on_us, off_us),
    };
    assert!(rate_per_us > 0.0, "arrival rate must be positive");
    let mut out = Vec::with_capacity(cfg.requests);
    let mut now = 0.0f64;
    // Simulated time already spent in the current on-window.
    let mut phase_elapsed = 0.0f64;
    for id in 0..cfg.requests as u64 {
        // Sample the gap in *on-time*, then map to wall time by inserting
        // off-gaps every time the gap crosses an on-window boundary.
        let mut gap = exp_us(&mut rng, rate_per_us);
        while phase_elapsed + gap >= on_us {
            let burn = on_us - phase_elapsed;
            gap -= burn;
            now += burn + off_us;
            phase_elapsed = 0.0;
        }
        phase_elapsed += gap;
        now += gap;
        let op = if rng.next_f64() < cfg.sddmm_fraction {
            OpKind::Sddmm
        } else {
            OpKind::Spmm
        };
        let topology = (rng.next_u64() % cfg.topologies.max(1) as u64) as usize;
        out.push(Request {
            id,
            arrival_us: now,
            deadline_us: now + cfg.deadline_us,
            op,
            topology,
        });
    }
    out
}
