//! Occupancy calculation: how many thread blocks of a kernel can be resident
//! on one SM simultaneously, and which resource limits that.
//!
//! Higher occupancy gives the SM more warps to switch between while memory
//! requests are in flight, which is the latency-hiding mechanism the paper's
//! 1-D tiling exploits ("for problems with small M and K dimensions we launch
//! more thread blocks than would otherwise be possible, enabling us to
//! achieve higher occupancy").

use crate::device::DeviceConfig;

/// Per-block resource requirements, the inputs to the occupancy calculator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRequirements {
    /// Threads per block (product of the block dims).
    pub threads: u32,
    /// Dynamic + static shared memory per block, bytes.
    pub smem_bytes: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
}

/// Which resource capped the number of resident blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupancyLimit {
    Threads,
    Warps,
    Blocks,
    SharedMemory,
    Registers,
    /// The grid is smaller than the device could accommodate.
    GridSize,
}

/// Result of the occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Resident blocks per SM permitted by hardware resources.
    pub blocks_per_sm: u32,
    /// Resident warps per SM (`blocks_per_sm * warps_per_block`).
    pub warps_per_sm: u32,
    /// Fraction of the device's maximum resident warps achieved.
    pub fraction: f64,
    /// The binding resource.
    pub limited_by: OccupancyLimit,
}

/// Compute the occupancy of a kernel with the given per-block requirements.
pub fn occupancy(dev: &DeviceConfig, req: &BlockRequirements) -> Occupancy {
    assert!(req.threads > 0, "a block must have at least one thread");
    let warps_per_block = req.threads.div_ceil(dev.warp_size);

    // Register allocation is per-warp with a granularity.
    let regs_per_warp = {
        let raw = req.regs_per_thread.max(1) * dev.warp_size;
        raw.div_ceil(dev.reg_alloc_granularity) * dev.reg_alloc_granularity
    };
    let regs_per_block = regs_per_warp * warps_per_block;

    let mut best = u32::MAX;
    let mut limit = OccupancyLimit::Blocks;

    let by_threads = dev.max_threads_per_sm / req.threads;
    if by_threads < best {
        best = by_threads;
        limit = OccupancyLimit::Threads;
    }
    let by_warps = dev.max_warps_per_sm / warps_per_block;
    if by_warps < best {
        best = by_warps;
        limit = OccupancyLimit::Warps;
    }
    if dev.max_blocks_per_sm < best {
        best = dev.max_blocks_per_sm;
        limit = OccupancyLimit::Blocks;
    }
    if let Some(by_smem) = dev.smem_per_sm.checked_div(req.smem_bytes) {
        if by_smem < best {
            best = by_smem;
            limit = OccupancyLimit::SharedMemory;
        }
    }
    if let Some(by_regs) = dev.regs_per_sm.checked_div(regs_per_block) {
        if by_regs < best {
            best = by_regs;
            limit = OccupancyLimit::Registers;
        }
    }

    let blocks_per_sm = best;
    let warps_per_sm = blocks_per_sm * warps_per_block;
    Occupancy {
        blocks_per_sm,
        warps_per_sm,
        fraction: warps_per_sm as f64 / dev.max_warps_per_sm as f64,
        limited_by: limit,
    }
}

/// Effective warps resident per *active* SM once the actual grid size is
/// considered: a grid smaller than one full wave leaves each active SM with a
/// single resident block regardless of theoretical occupancy. This is the
/// effect that makes the paper's 1-D tiling win on problems with small M —
/// more blocks mean more resident warps and better latency hiding.
pub fn effective_warps_per_sm(
    dev: &DeviceConfig,
    occ: &Occupancy,
    grid_blocks: u64,
    warps_per_block: u32,
) -> f64 {
    if grid_blocks == 0 {
        return 0.0;
    }
    // Blocks co-resident on each SM that has work at all.
    let blocks_per_active_sm = grid_blocks
        .div_ceil(dev.num_sms as u64)
        .min(occ.blocks_per_sm as u64)
        .max(1);
    (blocks_per_active_sm * warps_per_block as u64).min(occ.warps_per_sm as u64) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> DeviceConfig {
        DeviceConfig::v100()
    }

    #[test]
    fn small_blocks_hit_block_limit() {
        // 32-thread blocks, no smem, few regs: capped by the 32-block limit.
        let occ = occupancy(
            &v100(),
            &BlockRequirements {
                threads: 32,
                smem_bytes: 0,
                regs_per_thread: 32,
            },
        );
        assert_eq!(occ.blocks_per_sm, 32);
        assert_eq!(occ.limited_by, OccupancyLimit::Blocks);
        assert_eq!(occ.warps_per_sm, 32);
    }

    #[test]
    fn big_blocks_hit_thread_limit() {
        let occ = occupancy(
            &v100(),
            &BlockRequirements {
                threads: 1024,
                smem_bytes: 0,
                regs_per_thread: 32,
            },
        );
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.warps_per_sm, 64);
        assert_eq!(occ.fraction, 1.0);
    }

    #[test]
    fn shared_memory_limits() {
        // 48 KiB per block on a 96 KiB SM: 2 blocks.
        let occ = occupancy(
            &v100(),
            &BlockRequirements {
                threads: 128,
                smem_bytes: 48 * 1024,
                regs_per_thread: 32,
            },
        );
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limited_by, OccupancyLimit::SharedMemory);
    }

    #[test]
    fn registers_limit() {
        // 255 regs/thread, 256 threads: 255*32 -> 8160 -> rounded 8192 per warp,
        // 8 warps per block -> 65536 regs: exactly 1 block.
        let occ = occupancy(
            &v100(),
            &BlockRequirements {
                threads: 256,
                smem_bytes: 0,
                regs_per_thread: 255,
            },
        );
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limited_by, OccupancyLimit::Registers);
    }

    #[test]
    fn smem_exactly_at_sm_capacity_fits_one_block() {
        // A block staging exactly `smem_per_sm` bytes is legal and leaves
        // room for exactly one resident block — the boundary the static
        // auditor's shared-capacity check sits on.
        let dev = v100();
        let occ = occupancy(
            &dev,
            &BlockRequirements {
                threads: 128,
                smem_bytes: dev.smem_per_sm,
                regs_per_thread: 32,
            },
        );
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limited_by, OccupancyLimit::SharedMemory);
        // One byte past capacity: zero resident blocks (the launch
        // validator and the auditor's grid_occupancy check refuse this).
        let occ = occupancy(
            &dev,
            &BlockRequirements {
                threads: 128,
                smem_bytes: dev.smem_per_sm + 1,
                regs_per_thread: 32,
            },
        );
        assert_eq!(occ.blocks_per_sm, 0);
        assert_eq!(occ.warps_per_sm, 0);
        assert_eq!(occ.limited_by, OccupancyLimit::SharedMemory);
    }

    #[test]
    fn one_thread_blocks_occupy_a_full_warp_each() {
        // A 1-thread block still allocates one warp; residency is capped
        // by the per-SM block limit, not threads.
        let dev = v100();
        let occ = occupancy(
            &dev,
            &BlockRequirements {
                threads: 1,
                smem_bytes: 0,
                regs_per_thread: 32,
            },
        );
        assert_eq!(occ.blocks_per_sm, dev.max_blocks_per_sm);
        assert_eq!(occ.limited_by, OccupancyLimit::Blocks);
        assert_eq!(occ.warps_per_sm, dev.max_blocks_per_sm);
        assert!(occ.fraction < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_blocks_are_rejected() {
        occupancy(
            &v100(),
            &BlockRequirements {
                threads: 0,
                smem_bytes: 0,
                regs_per_thread: 32,
            },
        );
    }

    #[test]
    fn effective_warps_clamp_at_the_occupancy_cap() {
        // A grid far larger than the device cannot push more blocks onto
        // an SM than occupancy permits: `blocks_per_active_sm` clamps at
        // `occ.blocks_per_sm`, so effective warps clamp at `warps_per_sm`.
        let dev = v100();
        let occ = occupancy(
            &dev,
            &BlockRequirements {
                threads: 1024,
                smem_bytes: 0,
                regs_per_thread: 32,
            },
        );
        assert_eq!(occ.blocks_per_sm, 2);
        for grid in [u64::from(dev.num_sms) * 2, 1 << 20, u64::MAX / 2] {
            assert_eq!(
                effective_warps_per_sm(&dev, &occ, grid, 32),
                occ.warps_per_sm as f64,
                "grid {grid}"
            );
        }
        // And the degenerate boundaries: no work, and a single block.
        assert_eq!(effective_warps_per_sm(&dev, &occ, 0, 32), 0.0);
        assert_eq!(effective_warps_per_sm(&dev, &occ, 1, 32), 32.0);
    }

    #[test]
    fn effective_warps_small_grid() {
        let dev = v100();
        let occ = occupancy(
            &dev,
            &BlockRequirements {
                threads: 256,
                smem_bytes: 0,
                regs_per_thread: 32,
            },
        );
        // 40 blocks of 8 warps on 80 SMs: half the SMs idle, 4 warps/SM avg.
        let eff = effective_warps_per_sm(&dev, &occ, 40, 8);
        assert!(eff <= 8.0);
        // A huge grid saturates at the occupancy cap.
        let eff_big = effective_warps_per_sm(&dev, &occ, 1_000_000, 8);
        assert_eq!(eff_big, occ.warps_per_sm as f64);
    }
}
