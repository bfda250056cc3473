//! Per-block and kernel-level timing model.
//!
//! Each thread block's cost trace is converted to a cycle count by treating
//! the SM as a set of pipelines (instruction issue, FP32 FMA units,
//! load/store units, shared memory, and the SM's share of DRAM bandwidth)
//! that overlap perfectly when enough warps are resident. The block's time is
//! the max over pipelines, inflated by a latency-hiding penalty when
//! occupancy is too low to cover DRAM latency. Kernel time is then
//! `max(schedule makespan, device-wide rooflines) + launch overhead`.

use crate::cost::{BlockCost, BlockCostLite};
use crate::device::DeviceConfig;

/// Decomposition of one block's pipeline cycles — retained for reports and
/// ablation analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockTiming {
    pub issue_cycles: f64,
    pub fma_cycles: f64,
    pub lsu_cycles: f64,
    pub smem_cycles: f64,
    pub dram_cycles: f64,
    /// Latency-hiding multiplier applied (>= 1).
    pub latency_penalty: f64,
    /// Final modeled cycles for the block, including fixed overhead.
    pub total_cycles: f64,
}

/// Latency-hiding penalty: with `eff_warps` resident warps per SM, the SM can
/// overlap that many outstanding memory operations; below the device's
/// `latency_hiding_warps` threshold, exposed DRAM latency inflates runtime.
///
/// `penalty = 1 + (need - w) / need * (latency_fraction)` smoothly approaches
/// 1 as `w -> need` and `1 + latency_fraction` as `w -> 0`.
pub fn latency_penalty(dev: &DeviceConfig, eff_warps: f64) -> f64 {
    let need = dev.latency_hiding_warps;
    if eff_warps >= need {
        return 1.0;
    }
    let shortfall = (need - eff_warps.max(0.25)) / need;
    // With no warps to switch to, memory time is dominated by serialized
    // latency; a factor of ~4 matches the gap between latency-bound and
    // bandwidth-bound streaming on Volta-class parts.
    1.0 + 3.0 * shortfall
}

/// Convert one block's cost trace into cycles.
///
/// `dram_bytes` is this block's share of post-cache DRAM traffic;
/// `dram_bytes_per_cycle_per_sm` is the device bandwidth divided by the
/// number of SMs expected to be active concurrently.
pub fn block_cycles(
    dev: &DeviceConfig,
    cost: &BlockCost,
    eff_warps: f64,
    dram_bytes: f64,
    dram_bytes_per_cycle_per_sm: f64,
    concurrency: f64,
) -> BlockTiming {
    block_cycles_lite(
        dev,
        &BlockCostLite::from(cost),
        eff_warps,
        dram_bytes,
        dram_bytes_per_cycle_per_sm,
        concurrency,
    )
}

/// [`block_cycles`] over the compact per-block record the streaming launch
/// path retains. The full-cost entry point above delegates here, so both
/// paths share one arithmetic expression and stay bit-identical (the lite
/// fields are exact integer pre-sums of the `BlockCost` counters this
/// function reads).
pub fn block_cycles_lite(
    dev: &DeviceConfig,
    cost: &BlockCostLite,
    eff_warps: f64,
    dram_bytes: f64,
    dram_bytes_per_cycle_per_sm: f64,
    concurrency: f64,
) -> BlockTiming {
    // Block service time charges the SM's full issue rate: co-resident
    // blocks interleave on the schedulers, so a block's cost to the SM is its
    // instruction count at the aggregate rate (a lone small block that cannot
    // reach this rate is covered by the latency penalty instead).
    let issue_cycles = cost.instrs as f64 / dev.issue_slots_per_sm as f64;

    // FP32 pipeline: fp32 lanes / warp_size warp-FMAs per cycle (2.0 on Volta).
    let fma_tp = dev.fp32_lanes_per_sm as f64 / dev.warp_size as f64;
    let fma_cycles = cost.fma_fp_instrs as f64 / fma_tp;

    // LSU pipeline: global & shared access instructions contend for ld/st
    // issue; throughput in warp-instructions per cycle.
    let lsu_tp = (dev.lsu_lanes_per_sm as f64 / dev.warp_size as f64).max(0.125);
    // Global accesses pay the full LSU/TLB path; shared-memory accesses
    // issue at one warp-instruction per cycle on Volta's dedicated pipe.
    // Shuffles run on their own crossbar and contend for issue only.
    let lsu_cycles = cost.global_instrs as f64 / lsu_tp + cost.smem_instrs as f64;

    // Shared-memory bandwidth: bytes / (bytes-per-cycle), plus one full warp
    // access per conflict pass.
    let smem_cycles = cost.shared_bytes as f64 / dev.smem_bytes_per_cycle as f64
        + cost.bank_conflict_passes as f64;

    // DRAM: the block's traffic at its SM's bandwidth share.
    let dram_cycles = if dram_bytes_per_cycle_per_sm > 0.0 {
        dram_bytes / dram_bytes_per_cycle_per_sm
    } else {
        0.0
    };

    let penalty = latency_penalty(dev, eff_warps);
    let exec = issue_cycles
        .max(fma_cycles)
        .max(lsu_cycles)
        .max(smem_cycles);
    // Memory and execution overlap; the slower one dominates, and whatever
    // latency the resident warps cannot hide inflates the memory component.
    // The fixed launch/drain overhead is amortized across co-resident blocks
    // (a new block's setup overlaps its neighbours' execution).
    let total = exec
        .max(dram_cycles * penalty)
        .max(exec * (1.0 + 0.15 * (penalty - 1.0)))
        + dev.block_overhead_cycles / concurrency.max(1.0)
        + cost.barriers as f64 * 20.0
        + cost.stall_cycles as f64;

    BlockTiming {
        issue_cycles,
        fma_cycles,
        lsu_cycles,
        smem_cycles,
        dram_cycles,
        latency_penalty: penalty,
        total_cycles: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::BlockContext;
    use crate::cost::BufferId;

    fn v100() -> DeviceConfig {
        DeviceConfig::v100()
    }

    #[test]
    fn fma_bound_block() {
        let dev = v100();
        let mut ctx = BlockContext::new(false);
        ctx.fma(10_000, 320_000);
        let t = block_cycles(
            &dev,
            &ctx.cost,
            16.0,
            0.0,
            dev.dram_bytes_per_cycle() / 80.0,
            2.0,
        );
        // 10_000 warp FMAs at 2/cycle = 5_000 cycles; issue is 10_000/4 = 2_500.
        assert!((t.fma_cycles - 5_000.0).abs() < 1.0);
        assert!(t.total_cycles >= 5_000.0);
        assert!(t.total_cycles < 7_000.0);
    }

    #[test]
    fn dram_bound_block_slows_with_low_occupancy() {
        let dev = v100();
        let mut ctx = BlockContext::new(false);
        ctx.ld_global(BufferId(0), 0, 32, 4, 4);
        let bw = dev.dram_bytes_per_cycle() / dev.num_sms as f64;
        let fast = block_cycles(&dev, &ctx.cost, 32.0, 1_000_000.0, bw, 2.0);
        let slow = block_cycles(&dev, &ctx.cost, 1.0, 1_000_000.0, bw, 2.0);
        assert!(
            slow.total_cycles > fast.total_cycles * 2.0,
            "low occupancy must expose latency: fast={} slow={}",
            fast.total_cycles,
            slow.total_cycles
        );
    }

    #[test]
    fn penalty_saturates_at_high_occupancy() {
        let dev = v100();
        assert_eq!(latency_penalty(&dev, 64.0), 1.0);
        assert_eq!(latency_penalty(&dev, 12.0), 1.0);
        assert!(latency_penalty(&dev, 1.0) > 2.0);
    }

    #[test]
    fn vector_loads_reduce_issue_time() {
        // Same bytes moved, fewer instructions: issue/lsu cycles drop.
        let dev = v100();
        let mut scalar = BlockContext::new(false);
        let mut vec4 = BlockContext::new(false);
        for i in 0..64 {
            scalar.ld_global(BufferId(0), i * 128, 32, 1, 4);
        }
        for i in 0..16 {
            vec4.ld_global(BufferId(0), i * 512, 32, 4, 4);
        }
        assert_eq!(scalar.cost.gmem[0].ld_sectors, vec4.cost.gmem[0].ld_sectors);
        let bw = dev.dram_bytes_per_cycle() / dev.num_sms as f64;
        let ts = block_cycles(&dev, &scalar.cost, 32.0, 0.0, bw, 2.0);
        let tv = block_cycles(&dev, &vec4.cost, 32.0, 0.0, bw, 2.0);
        assert!(tv.lsu_cycles < ts.lsu_cycles / 3.0);
    }
}
