//! Device configurations describing the simulated GPU.
//!
//! The numbers for the V100 preset come from the Volta whitepaper and the
//! values the paper relies on (80 SMs, 15.7 TFLOP/s FP32 peak, 900 GB/s HBM2,
//! 6 MiB L2, 128 KiB unified L1/shared per SM). The GTX 1080 preset is used
//! for the sparse-Transformer experiment in Table III, where the dense model
//! runs out of the 1080's 8 GiB of device memory.

use sparse::Fingerprint;

/// Static description of a simulated GPU.
///
/// All throughputs are per-SM per-cycle unless otherwise noted. The timing
/// model in [`crate::timing`] combines these with per-block cost traces to
/// produce simulated runtimes.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Marketing name, e.g. `"V100-SXM2-16GB"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Sustained SM clock in GHz.
    pub clock_ghz: f64,
    /// Threads per warp (32 on all Nvidia hardware).
    pub warp_size: u32,
    /// FP32 FMA lanes per SM (64 on Volta => 2 warp-FMA instructions/cycle).
    pub fp32_lanes_per_sm: u32,
    /// Warp instructions issuable per SM per cycle (4 schedulers on Volta).
    pub issue_slots_per_sm: u32,
    /// Load/store unit lanes per SM per cycle. Volta services roughly half a
    /// warp of global accesses per cycle per SM in the steady state.
    pub lsu_lanes_per_sm: u32,
    /// Shared-memory bandwidth in bytes per SM per cycle (128 on Volta).
    pub smem_bytes_per_cycle: u32,
    /// Hardware limit on resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Hardware limit on resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Hardware limit on resident warps per SM.
    pub max_warps_per_sm: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Register allocation granularity (registers are allocated per warp in
    /// chunks of this many).
    pub reg_alloc_granularity: u32,
    /// Shared memory available per SM for thread blocks, in bytes.
    pub smem_per_sm: u32,
    /// Maximum shared memory a single block may request, in bytes.
    pub smem_per_block_max: u32,
    /// L2 cache capacity in bytes (shared by all SMs).
    pub l2_bytes: u64,
    /// L1 cache capacity per SM in bytes (the portion not claimed as shared
    /// memory; Volta unifies the two, which is why the paper's SDDMM avoids
    /// an explicit shared-memory transpose).
    pub l1_bytes_per_sm: u32,
    /// DRAM bandwidth in GB/s.
    pub dram_bw_gbps: f64,
    /// DRAM capacity in bytes. Models that do not fit report out-of-memory
    /// (Table III, dense Transformer on GTX 1080).
    pub dram_capacity_bytes: u64,
    /// Fixed host-side kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Typical DRAM access latency in cycles; used by the latency-hiding
    /// model: low-occupancy kernels cannot cover this latency and slow down.
    pub dram_latency_cycles: f64,
    /// Number of resident warps per SM needed to fully hide memory latency.
    /// The latency-hiding efficiency saturates as occupancy approaches this.
    pub latency_hiding_warps: f64,
    /// Fixed per-block scheduling/drain overhead in cycles.
    pub block_overhead_cycles: f64,
}

impl DeviceConfig {
    /// Nvidia Tesla V100 (SXM2, 16 GB) — the paper's primary platform.
    pub fn v100() -> Self {
        Self {
            name: "V100-SXM2-16GB".to_string(),
            num_sms: 80,
            clock_ghz: 1.53,
            warp_size: 32,
            fp32_lanes_per_sm: 64,
            issue_slots_per_sm: 4,
            lsu_lanes_per_sm: 8,
            smem_bytes_per_cycle: 128,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_warps_per_sm: 64,
            regs_per_sm: 65_536,
            reg_alloc_granularity: 256,
            smem_per_sm: 96 * 1024,
            smem_per_block_max: 96 * 1024,
            l2_bytes: 6 * 1024 * 1024,
            l1_bytes_per_sm: 128 * 1024,
            dram_bw_gbps: 900.0,
            dram_capacity_bytes: 16 * 1024 * 1024 * 1024,
            launch_overhead_us: 3.0,
            dram_latency_cycles: 450.0,
            latency_hiding_warps: 12.0,
            block_overhead_cycles: 600.0,
        }
    }

    /// Nvidia GeForce GTX 1080 (Pascal, 8 GB) — used for Table III to show
    /// the sparse Transformer fitting where the dense one cannot.
    pub fn gtx1080() -> Self {
        Self {
            name: "GTX-1080-8GB".to_string(),
            num_sms: 20,
            clock_ghz: 1.73,
            warp_size: 32,
            fp32_lanes_per_sm: 128,
            issue_slots_per_sm: 4,
            lsu_lanes_per_sm: 8,
            smem_bytes_per_cycle: 128,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_warps_per_sm: 64,
            regs_per_sm: 65_536,
            reg_alloc_granularity: 256,
            smem_per_sm: 96 * 1024,
            smem_per_block_max: 48 * 1024,
            l2_bytes: 2 * 1024 * 1024,
            l1_bytes_per_sm: 48 * 1024,
            dram_bw_gbps: 320.0,
            dram_capacity_bytes: 8 * 1024 * 1024 * 1024,
            launch_overhead_us: 3.0,
            dram_latency_cycles: 400.0,
            latency_hiding_warps: 12.0,
            block_overhead_cycles: 600.0,
        }
    }

    /// Nvidia A100 (Ampere, 40 GB) — the "new advances in hardware" the
    /// paper's Section IX anticipates: 2.4x the L2, 1.7x the bandwidth, and
    /// more SMs than the V100, which shifts sparse kernels' balance points.
    pub fn a100() -> Self {
        Self {
            name: "A100-SXM4-40GB".to_string(),
            num_sms: 108,
            clock_ghz: 1.41,
            warp_size: 32,
            fp32_lanes_per_sm: 64,
            issue_slots_per_sm: 4,
            lsu_lanes_per_sm: 8,
            smem_bytes_per_cycle: 128,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_warps_per_sm: 64,
            regs_per_sm: 65_536,
            reg_alloc_granularity: 256,
            smem_per_sm: 164 * 1024,
            smem_per_block_max: 164 * 1024,
            l2_bytes: 40 * 1024 * 1024,
            l1_bytes_per_sm: 192 * 1024,
            dram_bw_gbps: 1555.0,
            dram_capacity_bytes: 40 * 1024 * 1024 * 1024,
            launch_overhead_us: 3.0,
            dram_latency_cycles: 400.0,
            latency_hiding_warps: 12.0,
            block_overhead_cycles: 600.0,
        }
    }

    /// Peak single-precision throughput in TFLOP/s
    /// (`SMs * lanes * 2 flops/FMA * clock`). For the V100 preset this is
    /// 15.67 TFLOP/s, matching the 15.7 the paper's "27% of peak" refers to.
    pub fn fp32_peak_tflops(&self) -> f64 {
        self.num_sms as f64 * self.fp32_lanes_per_sm as f64 * 2.0 * self.clock_ghz / 1000.0
    }

    /// DRAM bandwidth expressed in bytes per SM clock cycle, device-wide.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bw_gbps / self.clock_ghz
    }

    /// Convert a cycle count to microseconds at the SM clock.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1000.0)
    }

    /// A stable structural hash of every architectural field (everything
    /// *except* the marketing name). Two devices with the same name but
    /// different resources — e.g. a fleet mixing a stock V100 with a
    /// cut-down one — hash differently, so [`crate::LaunchKey`]s carrying
    /// this value can never serve one profile's cached statistics to the
    /// other.
    pub fn arch_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.write_u64(self.num_sms as u64)
            .write_u64(self.clock_ghz.to_bits())
            .write_u64(self.warp_size as u64)
            .write_u64(self.fp32_lanes_per_sm as u64)
            .write_u64(self.issue_slots_per_sm as u64)
            .write_u64(self.lsu_lanes_per_sm as u64)
            .write_u64(self.smem_bytes_per_cycle as u64)
            .write_u64(self.max_threads_per_sm as u64)
            .write_u64(self.max_blocks_per_sm as u64)
            .write_u64(self.max_warps_per_sm as u64)
            .write_u64(self.regs_per_sm as u64)
            .write_u64(self.reg_alloc_granularity as u64)
            .write_u64(self.smem_per_sm as u64)
            .write_u64(self.smem_per_block_max as u64)
            .write_u64(self.l2_bytes)
            .write_u64(self.l1_bytes_per_sm as u64)
            .write_u64(self.dram_bw_gbps.to_bits())
            .write_u64(self.dram_capacity_bytes)
            .write_u64(self.launch_overhead_us.to_bits())
            .write_u64(self.dram_latency_cycles.to_bits())
            .write_u64(self.latency_hiding_warps.to_bits())
            .write_u64(self.block_overhead_cycles.to_bits());
        f.finish()
    }
}

/// An inter-device link: the cost model for moving bytes between two GPUs
/// in a simulated fleet.
///
/// Transfers are charged `latency + bytes / bandwidth` on the simulated
/// clock — the standard alpha-beta (latency/bandwidth) model used by
/// collective-communication cost analyses. [`LinkProfile::nvlink`] models
/// an NVLink-class fabric (DGX-style boxes).
#[derive(Debug, Clone)]
pub struct LinkProfile {
    /// Profile name, e.g. `"NVLink2"`.
    pub name: String,
    /// Sustained point-to-point bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Fixed per-transfer latency in microseconds (software stack + fabric
    /// hop). Applied once per transfer regardless of size.
    pub latency_us: f64,
}

impl LinkProfile {
    /// NVLink 2.0-class link: ~150 GB/s per direction between V100 pairs
    /// in a DGX-1V, with a low microsecond-scale initiation cost.
    pub fn nvlink() -> Self {
        Self {
            name: "NVLink2".to_string(),
            bandwidth_gbps: 150.0,
            latency_us: 1.3,
        }
    }

    /// Simulated microseconds to move `bytes` across this link.
    ///
    /// `bytes / (GB/s * 1e3)` converts to microseconds directly
    /// (1 GB/s == 1e3 bytes/us).
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        self.latency_us + bytes as f64 / (self.bandwidth_gbps * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_peak_matches_datasheet() {
        let dev = DeviceConfig::v100();
        let peak = dev.fp32_peak_tflops();
        assert!(
            (peak - 15.67).abs() < 0.1,
            "V100 FP32 peak should be ~15.7 TFLOP/s, got {peak}"
        );
    }

    #[test]
    fn gtx1080_peak_matches_datasheet() {
        let dev = DeviceConfig::gtx1080();
        let peak = dev.fp32_peak_tflops();
        assert!(
            (peak - 8.9).abs() < 0.3,
            "GTX 1080 FP32 peak should be ~8.9 TFLOP/s, got {peak}"
        );
    }

    #[test]
    fn cycle_conversion() {
        let dev = DeviceConfig::v100();
        let us = dev.cycles_to_us(1530.0);
        assert!((us - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a100_peak_matches_datasheet() {
        let dev = DeviceConfig::a100();
        let peak = dev.fp32_peak_tflops();
        assert!(
            (peak - 19.5).abs() < 0.3,
            "A100 FP32 peak should be ~19.5 TFLOP/s, got {peak}"
        );
        assert!(dev.l2_bytes > DeviceConfig::v100().l2_bytes);
    }

    #[test]
    fn v100_has_more_memory_than_1080() {
        assert!(
            DeviceConfig::v100().dram_capacity_bytes > DeviceConfig::gtx1080().dram_capacity_bytes
        );
    }

    #[test]
    fn arch_fingerprint_ignores_name_but_not_resources() {
        let base = DeviceConfig::v100();
        let mut renamed = base.clone();
        renamed.name = "V100-dev3".to_string();
        assert_eq!(
            base.arch_fingerprint(),
            renamed.arch_fingerprint(),
            "the marketing name is not architecture"
        );
        let mut cut_down = base.clone();
        cut_down.num_sms = 40;
        assert_ne!(base.arch_fingerprint(), cut_down.arch_fingerprint());
        let mut slower_dram = base.clone();
        slower_dram.dram_bw_gbps = 450.0;
        assert_ne!(base.arch_fingerprint(), slower_dram.arch_fingerprint());
        assert_ne!(
            DeviceConfig::v100().arch_fingerprint(),
            DeviceConfig::a100().arch_fingerprint()
        );
    }

    #[test]
    fn link_transfer_cost_is_latency_plus_bandwidth_term() {
        let nv = LinkProfile::nvlink();
        // Zero bytes still pays the initiation latency.
        assert!((nv.transfer_us(0) - nv.latency_us).abs() < 1e-12);
        // 150 MB at 150 GB/s is 1 ms of bandwidth term.
        let us = nv.transfer_us(150_000_000);
        assert!(
            (us - (nv.latency_us + 1000.0)).abs() < 1e-9,
            "150 MB over NVLink should cost ~1 ms, got {us} us"
        );
        // A PCIe 3.0 x16-class link is strictly slower for any nonzero payload.
        let pcie = LinkProfile {
            name: "PCIe3-x16".to_string(),
            bandwidth_gbps: 12.0,
            latency_us: 5.0,
        };
        assert!(pcie.transfer_us(1 << 20) > nv.transfer_us(1 << 20));
    }
}
