//! Cross-block cache reuse estimation.
//!
//! Kernels record how many sectors they *request* per buffer; how much of
//! that reaches DRAM depends on reuse captured by the L2 (and, secondarily,
//! per-SM L1s). For SpMM this is the crucial effect: every nonzero in the
//! sparse matrix triggers a load of a dense-matrix row strip, so the same B
//! row is requested once per nonzero in the corresponding column of A.
//! At deep-learning sparsities (70–95%) those repeats mostly hit in cache;
//! at scientific sparsities (99.9%) they mostly miss. This asymmetry is why
//! the paper's Figure 1 crossover exists and why lower sparsity "opens up
//! opportunities for the reuse of operands through caches" (Section II).
//!
//! Model: per buffer, given requested bytes `A` and unique footprint `F`,
//! the reuse volume is `A - F`. The fraction of reuse captured is the
//! probability that a line survives in the cache between consecutive uses,
//! approximated by the classic capacity argument `min(1, C_eff / F)` where
//! `C_eff` is this buffer's share of L2 (apportioned by request volume),
//! times a reuse-efficiency constant that accounts for scheduling spread.

use crate::cost::{Traffic, MAX_BUFFERS};
use crate::device::DeviceConfig;

/// How a kernel accesses a buffer — guides the reuse estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Each byte is touched approximately once (e.g. CSR values/indices in
    /// SpMM, the output matrix). Reuse volume is assumed zero beyond
    /// intra-warp coalescing, which sector counting already captured.
    Streaming,
    /// Bytes are touched repeatedly by different blocks/subwarps (e.g. the
    /// dense B operand of SpMM, both dense operands of SDDMM).
    SharedReuse,
}

/// Declares one device buffer to the launcher.
#[derive(Debug, Clone)]
pub struct BufferSpec {
    /// Slot in the kernel's traffic table.
    pub id: crate::cost::BufferId,
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Unique bytes this kernel can possibly touch in the buffer
    /// (the footprint — e.g. `K * N * 4` for the B matrix).
    pub footprint_bytes: u64,
    /// Access pattern classification.
    pub pattern: AccessPattern,
}

/// Fraction of inter-block reuse that the cache hierarchy can capture even
/// under perfect capacity conditions (scheduling spread, associativity
/// conflicts). Calibrated against the paper's corpus-level speedups.
const REUSE_EFFICIENCY: f64 = 0.92;

/// Per-buffer DRAM traffic after cache filtering.
#[derive(Debug, Clone, Default)]
pub struct DramTraffic {
    /// DRAM bytes loaded per buffer.
    pub ld_bytes: [u64; MAX_BUFFERS],
    /// DRAM bytes stored per buffer (stores are write-through to DRAM here;
    /// write-back subtleties are below the model's resolution).
    pub st_bytes: [u64; MAX_BUFFERS],
    /// Per-buffer miss rate for loads (DRAM bytes / requested bytes).
    pub ld_miss_rate: [f64; MAX_BUFFERS],
}

impl DramTraffic {
    pub fn total_bytes(&self) -> u64 {
        self.ld_bytes.iter().sum::<u64>() + self.st_bytes.iter().sum::<u64>()
    }
}

/// Estimate DRAM traffic from aggregate per-buffer requested sectors.
pub fn dram_traffic(
    dev: &DeviceConfig,
    buffers: &[BufferSpec],
    requested: &[Traffic; MAX_BUFFERS],
) -> DramTraffic {
    let mut out = DramTraffic::default();
    for rate in out.ld_miss_rate.iter_mut() {
        *rate = 1.0;
    }

    // Apportion L2 capacity among reused buffers by request volume.
    let total_reused_requests: u64 = buffers
        .iter()
        .filter(|b| b.pattern == AccessPattern::SharedReuse)
        .map(|b| requested[b.id.0 as usize].ld_bytes())
        .sum();

    for spec in buffers {
        let slot = spec.id.0 as usize;
        let req = requested[slot];
        let requested_ld = req.ld_bytes();
        let requested_st = req.st_bytes();

        match spec.pattern {
            AccessPattern::Streaming => {
                // Requested sectors go straight to DRAM; there is no reuse to
                // capture. (Compulsory-traffic: already minimal.)
                out.ld_bytes[slot] = requested_ld;
                out.st_bytes[slot] = requested_st;
                out.ld_miss_rate[slot] = 1.0;
            }
            AccessPattern::SharedReuse => {
                let footprint = spec.footprint_bytes.max(1);
                // Compulsory misses can't exceed what was actually requested.
                let compulsory = footprint.min(requested_ld);
                let reuse_volume = requested_ld.saturating_sub(compulsory);

                let share = if total_reused_requests > 0 {
                    requested_ld as f64 / total_reused_requests as f64
                } else {
                    1.0
                };
                let capacity = dev.l2_bytes as f64 * share
                    + dev.l1_bytes_per_sm as f64 * dev.num_sms as f64 * 0.25 * share;
                let captured_frac = (capacity / footprint as f64).min(1.0) * REUSE_EFFICIENCY;
                let reuse_misses = (reuse_volume as f64 * (1.0 - captured_frac)).round() as u64;

                let dram = compulsory + reuse_misses;
                out.ld_bytes[slot] = dram;
                out.st_bytes[slot] = requested_st;
                out.ld_miss_rate[slot] = if requested_ld > 0 {
                    dram as f64 / requested_ld as f64
                } else {
                    1.0
                };
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{BufferId, Traffic};

    fn spec(id: u8, footprint: u64, pattern: AccessPattern) -> BufferSpec {
        BufferSpec {
            id: BufferId(id),
            name: "t",
            footprint_bytes: footprint,
            pattern,
        }
    }

    fn req(ld: u64) -> Traffic {
        Traffic {
            ld_sectors: ld / 32,
            st_sectors: 0,
        }
    }

    #[test]
    fn streaming_passes_through() {
        let dev = DeviceConfig::v100();
        let buffers = [spec(0, 1 << 20, AccessPattern::Streaming)];
        let mut t = [Traffic::default(); MAX_BUFFERS];
        t[0] = req(1 << 20);
        let d = dram_traffic(&dev, &buffers, &t);
        assert_eq!(d.ld_bytes[0], 1 << 20);
        assert_eq!(d.ld_miss_rate[0], 1.0);
    }

    #[test]
    fn small_footprint_reuse_is_captured() {
        let dev = DeviceConfig::v100();
        // 1 MiB footprint requested 100x: fits in 6 MiB L2, nearly all reuse hits.
        let buffers = [spec(0, 1 << 20, AccessPattern::SharedReuse)];
        let mut t = [Traffic::default(); MAX_BUFFERS];
        t[0] = req(100 << 20);
        let d = dram_traffic(&dev, &buffers, &t);
        let miss = d.ld_miss_rate[0];
        assert!(miss < 0.12, "expected high hit rate, miss = {miss}");
        assert!(d.ld_bytes[0] >= 1 << 20, "at least compulsory traffic");
    }

    #[test]
    fn huge_footprint_reuse_is_lost() {
        let dev = DeviceConfig::v100();
        // 1 GiB footprint requested 4x: L2 captures almost nothing.
        let buffers = [spec(0, 1 << 30, AccessPattern::SharedReuse)];
        let mut t = [Traffic::default(); MAX_BUFFERS];
        t[0] = req(4 << 30);
        let d = dram_traffic(&dev, &buffers, &t);
        assert!(d.ld_miss_rate[0] > 0.95, "miss = {}", d.ld_miss_rate[0]);
    }

    #[test]
    fn miss_rate_monotone_in_footprint() {
        let dev = DeviceConfig::v100();
        let mut t = [Traffic::default(); MAX_BUFFERS];
        t[0] = req(256 << 20);
        let mut prev = 0.0;
        for fp_mb in [1u64, 4, 16, 64, 256] {
            let buffers = [spec(0, fp_mb << 20, AccessPattern::SharedReuse)];
            let d = dram_traffic(&dev, &buffers, &t);
            assert!(d.ld_miss_rate[0] >= prev - 1e-12, "fp={fp_mb}MiB");
            prev = d.ld_miss_rate[0];
        }
    }
}
