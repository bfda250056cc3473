//! The serving front door: a discrete-event continuous-batching scheduler
//! on a simulated clock.
//!
//! The loop is the whole design:
//!
//! 1. **Admit.** Arrivals inside the current batch window go through the
//!    bounded [`AdmissionQueue`]. Queue full ⇒ typed `Rejected`. Projected
//!    completion latency over the p99 budget ⇒ typed `Shed` at the door
//!    (backpressure: refuse work you cannot serve in time, rather than
//!    queueing it to miss its deadline).
//! 2. **Expire.** Queued requests whose deadline already passed are shed —
//!    device time is not spent on answers nobody will accept.
//! 3. **Coalesce.** The oldest queued request picks the `(op, topology)`
//!    batch key; up to `max_batch` matching requests form a window. Keying
//!    by topology is what makes windows hit the [`LaunchCache`].
//! 4. **Serve.** The window runs through the fault-tolerant batched
//!    dispatchers ([`sputnik::spmm_batched_dispatch`] /
//!    [`sputnik::sddmm_batched_dispatch`]), so an armed
//!    [`gpu_sim::FaultPlan`] degrades individual requests down the PR-1
//!    ladder instead of crashing the server. Every request gets a
//!    [`sputnik::DispatchReport`] attributing the rung that served it.
//!
//! [`run`] and [`run_fleet`] are one loop: a single device is a fleet of
//! one, and windows go round-robin across the fleet's devices. Every
//! door outcome and every served window is one recording call
//! ([`gpu_sim::trace::record`]) that bumps its `serve_*` counter and, while
//! tracing is on, leaves an instant — door outcomes on the `serve` track,
//! windows on their device's track, after the launches they ran.
//!
//! Conservation is asserted on every run: `served + shed + rejected ==
//! offered`. Nothing falls on the floor, with or without faults — the chaos
//! test suite and the servewall chaos gate both pin this.

use crate::queue::{Admission, AdmissionQueue};
use crate::slo::LatencyRecorder;
use crate::traffic::{OpKind, Request};
use crate::workload::Topology;
use gpu_sim::trace::{self, Entry};
use gpu_sim::{Fleet, Gpu, LaunchCache};
use sparse::Matrix;
use sputnik::{sddmm_batched_dispatch, spmm_batched_dispatch, DispatchPolicy, Rung, SputnikError};

/// Serving policy: the queue bound, the batching window, and the robustness
/// envelope (backpressure budget, host-fallback cost model).
#[derive(Clone, Debug)]
pub struct ServePolicy {
    /// Hard bound on queued requests; offers beyond it are `Rejected`.
    pub queue_capacity: usize,
    /// Max requests coalesced into one batched launch window.
    pub max_batch: usize,
    /// How long the scheduler holds a window open to coalesce arrivals, in
    /// simulated microseconds. Every batch pays this once.
    pub batch_window_us: f64,
    /// Backpressure budget: a new arrival is shed at the door when its
    /// projected completion latency (backlog batches × smoothed batch time)
    /// exceeds this.
    pub p99_budget_us: f64,
    /// Host time charged per CPU-served item (the dispatch ladder's bottom
    /// rung reports no device time; the server owns the host-time model).
    pub cpu_service_us: f64,
    /// Degradation-ladder policy applied to every launch.
    pub dispatch: DispatchPolicy,
}

impl Default for ServePolicy {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 8,
            batch_window_us: 30.0,
            p99_budget_us: 5_000.0,
            cpu_service_us: 400.0,
            dispatch: DispatchPolicy::default(),
        }
    }
}

/// Everything a serving run produced. `latency` holds one sample per served
/// request (completion − arrival, including queue wait and window wait).
#[derive(Debug, Default)]
pub struct ServeReport {
    pub offered: u64,
    pub served: u64,
    pub shed: u64,
    pub rejected: u64,
    /// Served past deadline (subset of `served`).
    pub late: u64,
    pub latency: LatencyRecorder,
    /// Served requests by degradation rung, indexed by
    /// `sputnik::Rung as usize`.
    pub rung_counts: [u64; 4],
    /// Served requests whose rung was not the requested configuration.
    pub degraded: u64,
    pub max_queue_depth: usize,
    pub batches: u64,
    pub cache_hits: u64,
    /// Faults the GPU's plan delivered during this run.
    pub faults_injected: u64,
    /// Simulated clock at the end of the run.
    pub sim_end_us: f64,
    /// Batches dispatched per device (one entry for [`run`]).
    pub per_device_batches: Vec<u64>,
}

impl ServeReport {
    /// Requests served within their deadline.
    pub fn goodput(&self) -> u64 {
        self.served - self.late
    }

    /// Requests unaccounted for — zero by the conservation invariant; kept
    /// as a queryable quantity so gates can pin it rather than trust us.
    pub fn lost(&self) -> i64 {
        self.offered as i64 - (self.served + self.shed + self.rejected) as i64
    }
}

/// Projected completion latency for a request joining a backlog of `depth`
/// queued requests: how many windows must drain first — `devices` windows
/// drain concurrently — times the smoothed per-window time (window wait +
/// service).
fn projected_latency_us(
    depth: usize,
    devices: usize,
    policy: &ServePolicy,
    ewma_batch_us: f64,
) -> f64 {
    let batches_ahead = (depth.div_ceil(policy.max_batch) + 1).div_ceil(devices);
    batches_ahead as f64 * (policy.batch_window_us + ewma_batch_us)
}

/// Run one coalesced window through the batched dispatcher for `op`,
/// returning `(cpu_served, stream_us, cache_hits, per-request reports)`.
fn serve_window(
    gpu: &Gpu,
    cache: &LaunchCache,
    topo: &Topology,
    op: OpKind,
    batch: usize,
    policy: &ServePolicy,
) -> Result<(u64, f64, u64, Vec<sputnik::DispatchReport>), SputnikError> {
    match op {
        OpKind::Spmm => {
            let bs: Vec<&Matrix<f32>> = (0..batch).map(|_| &topo.dense).collect();
            let d = spmm_batched_dispatch(
                gpu,
                cache,
                &topo.mask,
                &bs,
                topo.spmm_cfg,
                &policy.dispatch,
            )?;
            Ok((d.cpu_served(), d.stream_us, d.cache_hits, d.reports))
        }
        OpKind::Sddmm => {
            let pairs: Vec<(&Matrix<f32>, &Matrix<f32>)> =
                (0..batch).map(|_| (&topo.lhs, &topo.rhs)).collect();
            let d = sddmm_batched_dispatch(
                gpu,
                cache,
                &pairs,
                &topo.mask,
                topo.sddmm_cfg,
                &policy.dispatch,
            )?;
            Ok((d.cpu_served(), d.stream_us, d.cache_hits, d.reports))
        }
    }
}

/// Per-device batch counters: the metrics registry takes `'static` names,
/// so the fleet width observable this way is capped at 8 (matching the
/// largest fleet the benches sweep).
const DEV_BATCHES: [&str; 8] = [
    "serve_dev0_batches",
    "serve_dev1_batches",
    "serve_dev2_batches",
    "serve_dev3_batches",
    "serve_dev4_batches",
    "serve_dev5_batches",
    "serve_dev6_batches",
    "serve_dev7_batches",
];

/// Serve a traffic trace (sorted by arrival) against the topologies on one
/// device: [`run_fleet`] on a fleet of one.
///
/// Errors are deterministic input violations only (shape mismatches);
/// transient device faults always degrade down the ladder and are part of
/// normal operation.
pub fn run(
    gpu: &Gpu,
    topologies: &[Topology],
    policy: &ServePolicy,
    requests: &[Request],
) -> Result<ServeReport, SputnikError> {
    serve(std::slice::from_ref(gpu), topologies, policy, requests)
}

/// Serve a traffic trace across a [`Fleet`]: batch windows are coalesced by
/// one admission/backpressure loop and dispatched round-robin across the
/// fleet's devices, each with its own busy clock. The scheduler keeps
/// coalescing while devices drain, so under a saturating load `N` devices
/// cut queue wait roughly `N`-fold — the fleetwall gate pins that p99 at 2
/// devices beats 1 at fixed load. With a single device this is exactly
/// [`run`].
///
/// One [`LaunchCache`] is shared across the fleet: keys carry device
/// identity, so homogeneous devices replay each other's topologies safely
/// while heterogeneous ones never cross-pollinate.
pub fn run_fleet(
    fleet: &Fleet,
    topologies: &[Topology],
    policy: &ServePolicy,
    requests: &[Request],
) -> Result<ServeReport, SputnikError> {
    serve(fleet.gpus(), topologies, policy, requests)
}

/// Record a front-door outcome: a `serve` instant bumping its counter.
fn door(counter: &'static str, name: impl FnOnce() -> String) {
    trace::record("serve", "serve", Entry::Instant, &[(counter, 1)], name);
}

/// The one serving loop behind [`run`] and [`run_fleet`].
fn serve(
    gpus: &[Gpu],
    topologies: &[Topology],
    policy: &ServePolicy,
    requests: &[Request],
) -> Result<ServeReport, SputnikError> {
    assert!(!topologies.is_empty(), "cannot serve without topologies");
    let devices = gpus.len();
    let cache = LaunchCache::new();
    let mut queue = AdmissionQueue::new(policy.queue_capacity);
    let mut report = ServeReport {
        offered: requests.len() as u64,
        per_device_batches: vec![0; devices],
        ..ServeReport::default()
    };
    let faults = || -> u64 {
        gpus.iter()
            .map(|g| g.fault_plan().map_or(0, |p| p.faults_injected()))
            .sum()
    };
    let faults_before = faults();

    let mut now = 0.0f64;
    let mut next_arrival = 0usize;
    // Smoothed per-window service time, seeding the backpressure projection
    // before the first batch completes.
    let mut ewma_batch_us = policy.batch_window_us.max(1.0);
    let mut busy_until = vec![0.0f64; devices];
    let mut next_dev = 0usize;

    while next_arrival < requests.len() || !queue.is_empty() {
        if queue.is_empty() {
            // Idle: jump the clock to the next arrival.
            now = now.max(requests[next_arrival].arrival_us);
        }

        // 1. Admit everything arriving inside this batch window.
        let window_close = now + policy.batch_window_us;
        while next_arrival < requests.len() && requests[next_arrival].arrival_us <= window_close {
            let r = requests[next_arrival].clone();
            next_arrival += 1;
            let projected = projected_latency_us(queue.len(), devices, policy, ewma_batch_us);
            let outcome = if projected > policy.p99_budget_us {
                Admission::Shed
            } else {
                queue.try_admit(r.clone())
            };
            match outcome {
                Admission::Admitted => {}
                Admission::Rejected => {
                    report.rejected += 1;
                    door("serve_rejected", || {
                        format!("rejected: request {} (queue at bound)", r.id)
                    });
                }
                Admission::Shed => {
                    report.shed += 1;
                    door("serve_shed", || {
                        format!(
                            "shed at door: request {} (projected {projected:.0} us over budget)",
                            r.id
                        )
                    });
                }
            }
        }
        now = window_close;

        // 2. Shed queued requests that already missed their deadline.
        for r in queue.take_expired(now) {
            report.shed += 1;
            door("serve_shed", || {
                format!(
                    "shed expired: request {} (deadline {:.0} us)",
                    r.id, r.deadline_us
                )
            });
        }

        // 3. Coalesce a window keyed by the oldest request's (op, topology).
        let Some(front) = queue.front() else {
            continue;
        };
        let (op, topo_idx) = (front.op, front.topology);
        let window = queue.take_window(op, topo_idx, policy.max_batch);
        let topo = &topologies[topo_idx];

        // 4. Serve it through the fault-tolerant batched dispatchers,
        // round-robin: the window starts when both it has closed and its
        // device is free; the scheduler moves on as soon as the earliest
        // device frees, coalescing the next window meanwhile.
        let dev = next_dev;
        next_dev = (next_dev + 1) % devices;
        let gpu = &gpus[dev];
        let (cpu_served, stream_us, hits, reports) =
            serve_window(gpu, &cache, topo, op, window.len(), policy)?;
        let service_us = stream_us + cpu_served as f64 * policy.cpu_service_us;
        let done = window_close.max(busy_until[dev]) + service_us;
        busy_until[dev] = done;
        now = window_close.max(busy_until.iter().copied().fold(f64::INFINITY, f64::min));
        ewma_batch_us = 0.7 * ewma_batch_us + 0.3 * service_us;
        report.batches += 1;
        report.per_device_batches[dev] += 1;
        report.cache_hits += hits;
        let (mut late, mut degraded) = (0, 0);
        for (r, rep) in window.iter().zip(&reports) {
            report.latency.record(done - r.arrival_us);
            report.rung_counts[rep.served_by as usize] += 1;
            degraded += u64::from(rep.served_by != Rung::Sputnik);
            late += u64::from(done > r.deadline_us);
        }
        let served = window.len() as u64;
        report.served += served;
        report.degraded += degraded;
        report.late += late;

        // The window's launches are already on the device track, so the
        // window itself is an instant there: it adds no work to the books.
        // Devices past the eighth have no per-device counter.
        let totals = [
            ("serve_batches", 1),
            ("serve_served", served),
            ("serve_late", late),
            ("serve_degraded", degraded),
        ];
        let dev_batches = DEV_BATCHES.get(dev).map(|&name| (name, 1));
        let counts = [&totals[..], dev_batches.as_slice()].concat();
        trace::record("serve", &gpu.device().name, Entry::Instant, &counts, || {
            format!("window {op}/{} x{served}: {service_us:.3} us", topo.name)
        });
    }

    report.max_queue_depth = queue.max_depth();
    report.sim_end_us = busy_until.iter().copied().fold(now, f64::max);
    report.faults_injected = faults() - faults_before;

    // The conservation invariant: every offered request got exactly one
    // typed outcome. A violation is a server bug, never load.
    assert_eq!(
        report.served + report.shed + report.rejected,
        report.offered,
        "conservation violation: served {} + shed {} + rejected {} != offered {}",
        report.served,
        report.shed,
        report.rejected,
        report.offered
    );
    gpu_sim::metrics::global().incr("serve_offered", report.offered);

    Ok(report)
}
