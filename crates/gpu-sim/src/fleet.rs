//! A simulated multi-GPU fleet: per-device command streams with async
//! submission, cross-stream events, and an interconnect cost model.
//!
//! The source paper saturates one V100; the at-scale successor line of work
//! (see PAPERS.md) shards the same sparse workloads across a fleet with
//! explicit transfer costs. This module supplies the execution substrate for
//! that: a [`Fleet`] owns N [`Gpu`] instances (one command stream each), and
//! work is *submitted* asynchronously — nothing advances the fleet clock
//! until [`Fleet::sync`] resolves every queued command against the stream
//! semantics below.
//!
//! ## Stream semantics
//!
//! * **Per-stream FIFO**: commands on one device's stream resolve strictly
//!   in submission order, like a CUDA stream.
//! * **Events**: every [`Fleet::transfer`] enqueues a marker after itself
//!   on the sending stream and returns its [`EventId`]; the marker
//!   completes when every earlier command on its stream has completed, at
//!   that stream's clock. [`Fleet::wait_event`] blocks a stream until the
//!   event completes, advancing the waiter's clock to the event's
//!   completion time (never backwards) — so an event can never be observed
//!   before its dependencies.
//! * **Deadlock is a typed error**: a cross-stream wait cycle (or a wait on
//!   an event nobody records) makes [`Fleet::sync`] return a
//!   [`FleetError`] instead of hanging; the simulated machine has no
//!   watchdog to rely on.
//!
//! ## What submission does vs what sync does
//!
//! Functional kernel execution (real numerical outputs) and per-launch cost
//! simulation happen eagerly at submission on the owning [`Gpu`] — outputs
//! are timing-independent, so there is nothing to defer (the same choice
//! the cache-replay fast path makes). What *is* deferred is
//! timeline placement: [`Fleet::sync`] replays the queued commands against
//! the event graph to place every launch and transfer on each device's
//! stream clock with a pipelined-submission model: a stream's first launch
//! pays its full time, and every later one hides its launch overhead behind
//! executing work, floored at 0.3 × the overhead. [`crate::pipelined_us`]
//! floors every launch but the *last* instead, the first included. The two
//! disagree when a stream's first or last launch is shorter than 1.3 × the
//! overhead (3.9 µs on the V100): for launches of [3.5, 10] µs,
//! `pipelined_us` gives 10.9 and the fleet 10.5, and the reverse order
//! swaps the two.
//!
//! ## Interconnect
//!
//! Cross-device traffic is charged by the fleet's [`LinkProfile`]
//! (alpha-beta: latency + bytes/bandwidth). Every resolved transfer is one
//! recording call ([`crate::trace::record`]): it bumps the
//! `fleet_transfers` / `fleet_transfer_bytes` metrics and, while tracing,
//! lands on the source device's trace track (with an `interconnect_bytes`
//! counter track in the Chrome export).

use crate::device::{DeviceConfig, LinkProfile};
use crate::kernel::Kernel;
use crate::launch::{Gpu, LaunchError, LaunchRequest, LaunchStats};
use crate::trace::{self, Entry};
use std::collections::{HashMap, VecDeque};

/// A cross-stream synchronization marker, returned by
/// [`Fleet::transfer`]. Opaque; compare and pass to [`Fleet::wait_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// Typed failures from [`Fleet::sync`] — the simulator refuses to model a
/// hung machine silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// Every non-empty stream is blocked on a wait, and every blocked-on
    /// event *would* eventually be recorded — i.e. the waits form a cycle
    /// across streams. `blocked` lists (device index, event) pairs at the
    /// stream heads.
    WaitCycle { blocked: Vec<(usize, EventId)> },
    /// A stream waits on an event that no stream ever records: not a cycle,
    /// just a wait that can never be satisfied.
    UnknownEvent { device: usize, event: EventId },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::WaitCycle { blocked } => {
                write!(f, "cross-stream wait cycle: ")?;
                for (i, (dev, ev)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "dev{dev} blocked on event {}", ev.0)?;
                }
                Ok(())
            }
            FleetError::UnknownEvent { device, event } => write!(
                f,
                "dev{device} waits on event {} which no stream records",
                event.0
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// One queued stream command. Launch costs are captured at submission; the
/// resolver only does timeline arithmetic.
#[derive(Debug, Clone)]
enum StreamOp {
    /// A launch whose end-to-end simulated time (including one launch
    /// overhead) is `time_us`.
    Launch { time_us: f64 },
    /// Complete the event at the stream's current clock.
    Record(EventId),
    /// Stall the stream until the event completes.
    Wait(EventId),
    /// Send `bytes` toward device `dst` over the fleet link.
    Transfer {
        bytes: u64,
        dst: usize,
        label: String,
    },
}

/// Summary of one [`Fleet::sync`]: where every stream clock ended up and
/// what the interconnect carried since the fleet was created.
#[derive(Debug, Clone)]
pub struct FleetSync {
    /// Per-device stream clocks after resolving every queued command, in
    /// simulated microseconds since fleet creation.
    pub device_busy_us: Vec<f64>,
    /// The fleet makespan: the latest stream clock.
    pub makespan_us: f64,
    /// Cumulative interconnect payload since fleet creation.
    pub transfer_bytes: u64,
    /// Cumulative transfer count since fleet creation.
    pub transfers: u64,
    /// Cumulative simulated time spent on interconnect transfers (summed
    /// across streams; overlapping transfers each count).
    pub transfer_us: f64,
}

/// A fleet of N simulated GPUs with one command stream per device.
///
/// ```
/// use gpu_sim::{DeviceConfig, Fleet, LinkProfile};
///
/// let mut fleet = Fleet::homogeneous(&DeviceConfig::v100(), 2, LinkProfile::nvlink());
/// // dev1 consumes dev0's result: transfer then wait on the completion event.
/// fleet.submit(0, 100.0);
/// let ready = fleet.transfer(0, 1, 1 << 20, "partial result");
/// fleet.wait_event(1, ready);
/// fleet.submit(1, 50.0);
/// let sync = fleet.sync().expect("no wait cycles");
/// assert!(sync.device_busy_us[1] > sync.device_busy_us[0]);
/// assert!(sync.transfer_bytes > 0);
/// ```
pub struct Fleet {
    gpus: Vec<Gpu>,
    link: LinkProfile,
    queues: Vec<VecDeque<StreamOp>>,
    /// Per-device stream clock, microseconds since fleet creation.
    clocks: Vec<f64>,
    /// Launches resolved per stream: the first pays its full launch
    /// overhead, later ones pipeline behind executing work.
    launches_resolved: Vec<u64>,
    /// Completed events: id -> completion time on the recording stream.
    events: HashMap<u64, f64>,
    next_event: u64,
    transfer_bytes: u64,
    transfers: u64,
    transfer_us: f64,
}

impl Fleet {
    /// A fleet of `n` identical devices built from `base`, joined by
    /// `link`. Each device gets a unique name (`"<base>[dev<i>]"`) so
    /// launch-cache keys and trace tracks separate naturally.
    pub fn homogeneous(base: &DeviceConfig, n: usize, link: LinkProfile) -> Self {
        assert!(n > 0, "a fleet needs at least one device");
        Self {
            gpus: (0..n)
                .map(|i| {
                    let mut dev = base.clone();
                    dev.name = format!("{}[dev{i}]", base.name);
                    Gpu::new(dev)
                })
                .collect(),
            link,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            clocks: vec![0.0; n],
            launches_resolved: vec![0; n],
            events: HashMap::new(),
            next_event: 0,
            transfer_bytes: 0,
            transfers: 0,
            transfer_us: 0.0,
        }
    }

    /// `n` V100s on NVLink — the DGX-1V-style box the at-scale experiments
    /// assume.
    pub fn v100(n: usize) -> Self {
        Self::homogeneous(&DeviceConfig::v100(), n, LinkProfile::nvlink())
    }

    pub fn num_devices(&self) -> usize {
        self.gpus.len()
    }

    /// The simulated GPU behind stream `device`. Kernels launched directly
    /// on it (e.g. through the core dispatch wrappers) compute outputs and
    /// record per-device metrics/trace; pair with [`Fleet::submit`] to
    /// place their cost on the stream timeline.
    pub fn gpu(&self, device: usize) -> &Gpu {
        &self.gpus[device]
    }

    pub fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }

    pub fn link(&self) -> &LinkProfile {
        &self.link
    }

    /// Current stream clock of `device`, microseconds since fleet creation.
    /// Only [`Fleet::sync`] advances it.
    pub fn clock(&self, device: usize) -> f64 {
        self.clocks[device]
    }

    /// Asynchronously launch `kernel` on `device`: run it through the owning
    /// [`Gpu`]'s funnel now ([`Gpu::run`]: audited, outputs + per-launch
    /// stats) and enqueue its cost on the device's stream. Returns the
    /// launch statistics.
    pub fn launch(
        &mut self,
        device: usize,
        kernel: &dyn Kernel,
    ) -> Result<LaunchStats, LaunchError> {
        let stats = self.gpus[device]
            .run(&LaunchRequest::functional(kernel))?
            .stats;
        self.submit(device, stats.time_us);
        Ok(stats)
    }

    /// Enqueue `time_us` of already-simulated launch time on `device`'s
    /// stream (the async half of a launch that was executed through the
    /// [`Gpu`] directly, e.g. by a cached dispatch wrapper). `time_us` must
    /// include one launch overhead, as [`LaunchStats::time_us`] does.
    pub fn submit(&mut self, device: usize, time_us: f64) {
        self.queues[device].push_back(StreamOp::Launch { time_us });
    }

    /// Enqueue an event marker on `device`'s stream. The event completes
    /// when everything submitted to the stream before it has completed.
    fn record_event(&mut self, device: usize) -> EventId {
        let id = EventId(self.next_event);
        self.next_event += 1;
        self.queues[device].push_back(StreamOp::Record(id));
        id
    }

    /// Enqueue a stall on `device`'s stream until `event` completes.
    pub fn wait_event(&mut self, device: usize, event: EventId) {
        self.queues[device].push_back(StreamOp::Wait(event));
    }

    /// Enqueue a transfer of `bytes` from `src` to `dst` over the fleet
    /// link, returning an event the receiver (or anyone else) can wait on
    /// for its completion.
    pub fn transfer(&mut self, src: usize, dst: usize, bytes: u64, label: &str) -> EventId {
        assert!(src != dst, "transfer requires two distinct devices");
        assert!(dst < self.gpus.len(), "transfer dst out of range");
        self.queues[src].push_back(StreamOp::Transfer {
            bytes,
            dst,
            label: label.to_string(),
        });
        self.record_event(src)
    }

    /// Resolve every queued command against the stream semantics, advancing
    /// the per-device clocks. Returns the resulting timeline summary, or a
    /// typed error if the queues can never drain (wait cycle / unknown
    /// event) — in which case the unresolvable commands stay queued.
    pub fn sync(&mut self) -> Result<FleetSync, FleetError> {
        loop {
            let mut progress = false;
            for d in 0..self.gpus.len() {
                while let Some(op) = self.queues[d].front() {
                    match op {
                        StreamOp::Wait(ev) => {
                            let Some(&done_at) = self.events.get(&ev.0) else {
                                break; // maybe recorded by a later pass
                            };
                            if done_at > self.clocks[d] {
                                self.clocks[d] = done_at;
                            }
                        }
                        StreamOp::Record(ev) => {
                            self.events.insert(ev.0, self.clocks[d]);
                        }
                        StreamOp::Launch { time_us } => {
                            let overhead = self.gpus[d].device().launch_overhead_us;
                            // Pipelined submission: the first launch pays
                            // its full time; later ones hide the overhead
                            // behind executing work, floored at 0.3 × the
                            // overhead. `pipelined_us` floors every launch
                            // but the last instead (see the module doc).
                            let exec = if self.launches_resolved[d] == 0 {
                                *time_us
                            } else {
                                (time_us - overhead).max(overhead * 0.3)
                            };
                            self.clocks[d] += exec;
                            self.launches_resolved[d] += 1;
                        }
                        StreamOp::Transfer { bytes, dst, label } => {
                            let us = self.link.transfer_us(*bytes);
                            let bytes = *bytes;
                            let transfer = Entry::Transfer {
                                dur_us: us,
                                bytes,
                                dst: &self.gpus[*dst].device().name,
                            };
                            let counts = [("fleet_transfers", 1), ("fleet_transfer_bytes", bytes)];
                            trace::record(
                                "transfer",
                                &self.gpus[d].device().name,
                                transfer,
                                &counts,
                                || label.clone(),
                            );
                            self.clocks[d] += us;
                            self.transfer_bytes += bytes;
                            self.transfers += 1;
                            self.transfer_us += us;
                        }
                    }
                    self.queues[d].pop_front();
                    progress = true;
                }
            }
            if self.queues.iter().all(VecDeque::is_empty) {
                break;
            }
            if !progress {
                return Err(self.diagnose_stall());
            }
        }
        let makespan_us = self.clocks.iter().cloned().fold(0.0, f64::max);
        Ok(FleetSync {
            device_busy_us: self.clocks.clone(),
            makespan_us,
            transfer_bytes: self.transfer_bytes,
            transfers: self.transfers,
            transfer_us: self.transfer_us,
        })
    }

    /// Classify a stalled resolution: every non-empty queue is headed by a
    /// `Wait`. If some blocked-on event is never recorded anywhere, that is
    /// the bug to report; otherwise the waits form a genuine cycle.
    fn diagnose_stall(&self) -> FleetError {
        let mut blocked = Vec::new();
        for (d, q) in self.queues.iter().enumerate() {
            if let Some(StreamOp::Wait(ev)) = q.front() {
                blocked.push((d, *ev));
            }
        }
        let pending_records: Vec<u64> = self
            .queues
            .iter()
            .flat_map(|q| {
                q.iter().filter_map(|op| match op {
                    StreamOp::Record(ev) => Some(ev.0),
                    _ => None,
                })
            })
            .collect();
        for &(device, event) in &blocked {
            if !pending_records.contains(&event.0) && !self.events.contains_key(&event.0) {
                return FleetError::UnknownEvent { device, event };
            }
        }
        FleetError::WaitCycle { blocked }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::rng::SplitMix64;

    fn fleet(n: usize) -> Fleet {
        Fleet::v100(n)
    }

    /// A draw below `n` from the frozen stream, for the property sweeps.
    fn below(rng: &mut SplitMix64, n: u64) -> u64 {
        rng.next_u64() % n
    }

    #[test]
    fn per_stream_fifo_order_holds() {
        let mut f = fleet(2);
        // Interleave launches and events on both streams; each event must
        // complete no earlier than the one recorded before it on the same
        // stream, with the submitted work in between accounted for.
        let mut marks: Vec<Vec<EventId>> = vec![Vec::new(); 2];
        for i in 0..8 {
            for (d, stream_marks) in marks.iter_mut().enumerate() {
                f.submit(d, 10.0 + i as f64);
                stream_marks.push(f.record_event(d));
            }
        }
        let sync = f.sync().expect("no waits, no cycle");
        for (d, stream_marks) in marks.iter().enumerate() {
            let times: Vec<f64> = stream_marks.iter().map(|ev| f.events[&ev.0]).collect();
            for w in times.windows(2) {
                assert!(
                    w[1] > w[0],
                    "stream {d}: later-submitted event completed earlier ({} <= {})",
                    w[1],
                    w[0]
                );
            }
            assert!((times[times.len() - 1] - sync.device_busy_us[d]).abs() < 1e-9);
        }
    }

    /// Property sweep: across random cross-stream DAGs, a waiter's
    /// downstream event never completes before the event it waited on.
    #[test]
    fn events_never_complete_before_dependencies() {
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            let n = 2 + (seed as usize % 3); // 2..=4 devices
            let mut f = fleet(n);
            // (upstream, downstream) pairs to check after sync.
            let mut edges: Vec<(EventId, EventId)> = Vec::new();
            let mut last_event: Vec<Option<EventId>> = vec![None; n];
            for _ in 0..40 {
                let d = below(&mut rng, n as u64) as usize;
                match below(&mut rng, 3) {
                    0 => f.submit(d, 1.0 + below(&mut rng, 50) as f64),
                    1 => last_event[d] = Some(f.record_event(d)),
                    _ => {
                        // Wait on some other stream's latest event (if any),
                        // then mark this stream so we can compare times.
                        let src = below(&mut rng, n as u64) as usize;
                        if src != d {
                            if let Some(upstream) = last_event[src] {
                                f.wait_event(d, upstream);
                                let downstream = f.record_event(d);
                                edges.push((upstream, downstream));
                                last_event[d] = Some(downstream);
                            }
                        }
                    }
                }
            }
            f.sync().expect("forward-only waits cannot cycle");
            for (up, down) in edges {
                let (up_t, down_t) = (f.events[&up.0], f.events[&down.0]);
                assert!(
                    down_t >= up_t - 1e-12,
                    "seed {seed}: event completed {down_t} before its dependency {up_t}"
                );
            }
        }
    }

    /// The fleet's own pipelining rule, on both orders of a short and a
    /// long launch: the first launch pays its full time, every later one is
    /// floored at 0.3 × the 3 µs overhead. `pipelined_us` floors every
    /// launch but the last, so it gives the two orders swapped.
    #[test]
    fn stream_floors_every_launch_but_the_first() {
        for (times, fleet_us, pipelined) in [([3.5, 10.0], 10.5, 10.9), ([10.0, 3.5], 10.9, 10.5)] {
            let mut f = fleet(1);
            for t in times {
                f.submit(0, t);
            }
            let sync = f.sync().expect("no waits");
            assert!((sync.makespan_us - fleet_us).abs() < 1e-9, "{times:?}");
            let overhead = f.gpu(0).device().launch_overhead_us;
            assert!((crate::pipelined_us(overhead, times) - pipelined).abs() < 1e-9);
        }
    }

    #[test]
    fn wait_cycle_is_a_typed_error_not_a_hang() {
        // Queue shape: dev0 = [Wait(e1), Record(e0)], dev1 = [Wait(e0),
        // Record(e1)] — each stream's event is recorded only after its wait
        // on the other's, a genuine cross-stream cycle. Event ids allocate
        // sequentially from zero, so the waits can name them up front.
        let mut f = fleet(2);
        let (e0, e1) = (EventId(0), EventId(1));
        f.wait_event(0, e1);
        f.wait_event(1, e0);
        assert_eq!(f.record_event(0), e0, "event ids allocate sequentially");
        assert_eq!(f.record_event(1), e1, "event ids allocate sequentially");
        match f.sync() {
            Err(FleetError::WaitCycle { blocked }) => {
                assert_eq!(blocked.len(), 2, "both streams blocked");
            }
            other => panic!("expected WaitCycle, got {other:?}"),
        }
    }

    #[test]
    fn wait_on_never_recorded_event_is_unknown_event() {
        let mut f = fleet(2);
        let real = f.record_event(0);
        let _ = real;
        f.wait_event(1, EventId(999));
        match f.sync() {
            Err(FleetError::UnknownEvent { device, event }) => {
                assert_eq!(device, 1);
                assert_eq!(event, EventId(999));
            }
            other => panic!("expected UnknownEvent, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_stream_never_exceeds_naive_sum() {
        let mut f = fleet(1);
        let times = [12.0, 7.0, 30.0, 4.0];
        for &t in &times {
            f.submit(0, t);
        }
        let sync = f.sync().expect("single stream");
        let naive: f64 = times.iter().sum();
        assert!(
            sync.makespan_us <= naive + 1e-9,
            "pipelining must not cost time: {} > {naive}",
            sync.makespan_us
        );
        assert!(sync.makespan_us > 0.0);
    }

    #[test]
    fn transfers_charge_the_interconnect_and_gate_the_receiver() {
        let mut f = fleet(2);
        f.submit(0, 100.0);
        let ready = f.transfer(0, 1, 1 << 20, "activations");
        f.wait_event(1, ready);
        f.submit(1, 10.0);
        let sync = f.sync().expect("acyclic");
        let xfer_us = f.link().transfer_us(1 << 20);
        assert_eq!(sync.transfers, 1);
        assert_eq!(sync.transfer_bytes, 1 << 20);
        assert!((sync.transfer_us - xfer_us).abs() < 1e-9);
        // dev1 cannot start its launch before the data lands.
        assert!(
            sync.device_busy_us[1] >= 100.0 + xfer_us,
            "receiver ran before the transfer completed: {}",
            sync.device_busy_us[1]
        );
    }

    #[test]
    fn fleet_devices_have_unique_names_and_shared_arch() {
        let f = fleet(4);
        let names: Vec<&str> = f.gpus().iter().map(|g| g.device().name.as_str()).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.contains(&format!("dev{i}")));
            for other in &names[i + 1..] {
                assert_ne!(n, other);
            }
        }
        let arch0 = f.gpu(0).device().arch_fingerprint();
        assert!(f
            .gpus()
            .iter()
            .all(|g| g.device().arch_fingerprint() == arch0));
    }
}
