//! A simulated multi-GPU fleet: N [`Gpu`]s joined by one interconnect, and
//! the placement of a sharded round on the simulated clock.
//!
//! The source paper saturates one V100; the at-scale successor line of work
//! (see PAPERS.md) shards the same sparse workloads across a fleet with
//! explicit transfer costs. A [`Fleet`] owns the devices (each with a
//! unique name, so launch-cache keys and trace tracks separate) and the
//! [`LinkProfile`] between them.
//!
//! ## One gather per round
//!
//! A sharded op runs one launch per device through that device's
//! [`Gpu`] (outputs and per-launch stats are timing-independent, so they
//! happen eagerly), then hands [`Fleet::gather`] each device's launch time
//! and the bytes its shard sends to device 0. The placement is a star
//! gather:
//!
//! * a device's clock is its launch time, plus the transfer of its shard to
//!   device 0 when it sends one;
//! * device 0 starts at its own launch time and waits for every gather;
//! * the makespan is the latest clock.
//!
//! A round has one launch per device, so no pipelining rule applies; back
//! to back launches on one device are [`crate::pipelined_us`]'s.
//!
//! ## Interconnect
//!
//! Cross-device traffic is charged by the fleet's [`LinkProfile`]
//! (alpha-beta: latency + bytes/bandwidth). Every transfer is one recording
//! call ([`crate::trace::record`]), in device order: it bumps the
//! `fleet_transfers` / `fleet_transfer_bytes` metrics and, while tracing,
//! lands on the source device's trace track (with an `interconnect_bytes`
//! counter track in the Chrome export).

use crate::device::{DeviceConfig, LinkProfile};
use crate::launch::Gpu;
use crate::trace::{self, Entry};

/// Where one [`Fleet::gather`] round left every device and what the
/// interconnect carried.
#[derive(Debug, Clone)]
pub struct FleetSync {
    /// Per-device clocks at the end of the round, in simulated
    /// microseconds: device 0's includes waiting for every gather.
    pub device_busy_us: Vec<f64>,
    /// The fleet makespan: the latest device clock.
    pub makespan_us: f64,
    /// Interconnect payload of the round.
    pub transfer_bytes: u64,
    /// Transfer count of the round.
    pub transfers: u64,
    /// Simulated time spent on interconnect transfers, summed across
    /// senders (overlapping transfers each count).
    pub transfer_us: f64,
}

/// A fleet of N simulated GPUs joined by one interconnect.
///
/// ```
/// use gpu_sim::Fleet;
///
/// let fleet = Fleet::v100(2);
/// // dev0's shard took 40 us; dev1's took 50 us and gathers 1 MiB to dev0.
/// let sync = fleet.gather(&[(40.0, None), (50.0, Some(1 << 20))], "partial result");
/// assert_eq!((sync.transfers, sync.transfer_bytes), (1, 1 << 20));
/// assert!(sync.device_busy_us[0] > 50.0, "dev0 waits for the gather");
/// assert_eq!(sync.makespan_us, sync.device_busy_us[0]);
/// ```
pub struct Fleet {
    gpus: Vec<Gpu>,
    link: LinkProfile,
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

    /// The simulated GPU behind `device`: shard launches run on it and
    /// record per-device metrics and trace.
    pub fn gpu(&self, device: usize) -> &Gpu {
        &self.gpus[device]
    }

    pub fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }

    /// Place one sharded round. `shards[d]` is device `d`'s launch time
    /// (including one launch overhead, as [`crate::LaunchStats::time_us`]
    /// does; 0.0 for a device that launched nothing) and the bytes its
    /// shard gathers to device 0, if any. Device 0's own bytes stay in
    /// place. Each gather is recorded as a `transfer` labelled `label`, in
    /// device order.
    pub fn gather(&self, shards: &[(f64, Option<u64>)], label: &str) -> FleetSync {
        assert_eq!(shards.len(), self.gpus.len(), "one shard entry per device");
        let dst = &self.gpus[0].device().name;
        let mut sync = FleetSync {
            device_busy_us: Vec::with_capacity(shards.len()),
            makespan_us: 0.0,
            transfer_bytes: 0,
            transfers: 0,
            transfer_us: 0.0,
        };
        for (d, &(time_us, bytes)) in shards.iter().enumerate() {
            let mut clock = time_us;
            if let Some(bytes) = bytes.filter(|_| d > 0) {
                let us = self.link.transfer_us(bytes);
                let transfer = Entry::Transfer {
                    dur_us: us,
                    bytes,
                    dst,
                };
                let counts = [("fleet_transfers", 1), ("fleet_transfer_bytes", bytes)];
                let src = &self.gpus[d].device().name;
                trace::record("transfer", src, transfer, &counts, || label.to_string());
                clock += us;
                sync.transfer_bytes += bytes;
                sync.transfers += 1;
                sync.transfer_us += us;
                // Device 0 (already placed) waits for the gather to land.
                if clock > sync.device_busy_us[0] {
                    sync.device_busy_us[0] = clock;
                }
            }
            sync.device_busy_us.push(clock);
        }
        sync.makespan_us = sync.device_busy_us.iter().copied().fold(0.0, f64::max);
        sync
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn fleet(n: usize) -> Fleet {
        Fleet::v100(n)
    }

    #[test]
    fn transfers_charge_the_interconnect_and_gate_the_receiver() {
        let f = fleet(2);
        let before = metrics::global().get("fleet_transfers");
        let sync = f.gather(&[(10.0, None), (100.0, Some(1 << 20))], "activations");
        let xfer_us = LinkProfile::nvlink().transfer_us(1 << 20);
        assert_eq!(metrics::global().get("fleet_transfers"), before + 1);
        assert_eq!(sync.transfers, 1);
        assert_eq!(sync.transfer_bytes, 1 << 20);
        assert_eq!(sync.transfer_us, xfer_us);
        // dev0 cannot finish before dev1's data lands.
        assert_eq!(sync.device_busy_us, [100.0 + xfer_us; 2]);
        assert_eq!(sync.makespan_us, 100.0 + xfer_us);
    }

    /// A 4-device round on a link of round numbers (1 us latency, 1000
    /// bytes/us): device 0's own bytes stay in place, device 1 gathers,
    /// device 2's shard is empty and device 3's has nothing to send (an
    /// SDDMM shard with no values), so device 0 does not wait for it.
    #[test]
    fn round_places_clocks_makespan_and_transfers_by_hand() {
        let link = LinkProfile {
            name: "round".to_string(),
            bandwidth_gbps: 1.0,
            latency_us: 1.0,
        };
        let f = Fleet::homogeneous(&DeviceConfig::v100(), 4, link);
        let shards = [
            (10.0, Some(8000)),
            (20.0, Some(3000)),
            (0.0, None),
            (30.0, None),
        ];
        let sync = f.gather(&shards, "gather");
        assert_eq!(sync.device_busy_us, [24.0, 24.0, 0.0, 30.0]);
        assert_eq!(sync.makespan_us, 30.0);
        assert_eq!((sync.transfers, sync.transfer_bytes), (1, 3000));
        assert_eq!(sync.transfer_us, 4.0);
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
