//! Per-thread-block cost traces.
//!
//! Kernels execute their block body functionally (computing real outputs)
//! while recording, through [`BlockContext`], how many warp-level
//! instructions of each class they issued and how many global-memory sectors
//! each access touched. The launcher turns these traces into simulated time.

use crate::memory;
use crate::sanitizer::{BlockSan, SmemScope};

/// Identifies one logical device buffer (e.g. the sparse matrix values, the
/// dense operand, the output). Buffer identities let the cache model reason
/// about cross-block reuse per buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u8);

/// Maximum number of distinct buffers a single kernel may declare.
pub const MAX_BUFFERS: usize = 8;

/// Global-memory traffic against a single buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// 32-byte sectors requested by loads (after intra-warp coalescing).
    pub ld_sectors: u64,
    /// 32-byte sectors written by stores.
    pub st_sectors: u64,
}

impl Traffic {
    pub fn ld_bytes(&self) -> u64 {
        self.ld_sectors * memory::SECTOR_BYTES
    }
    pub fn st_bytes(&self) -> u64 {
        self.st_sectors * memory::SECTOR_BYTES
    }
}

/// Warp-level instruction and memory-traffic counts for one thread block.
///
/// "Warp-level" means one FFMA entry covers up to 32 lanes; this matches how
/// the hardware issues and how the paper counts the 6-PTX-instruction cost of
/// ROMA or the instruction savings of vector loads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockCost {
    /// FP32 FMA warp instructions issued.
    pub fma_instrs: u64,
    /// Other floating-point warp instructions (adds, mults, exp for softmax).
    pub fp_instrs: u64,
    /// Useful scalar FLOPs performed (2 per scalar FMA) — for throughput
    /// reporting, not timing.
    pub flops: u64,
    /// Global load warp instructions.
    pub ld_global_instrs: u64,
    /// Global store warp instructions.
    pub st_global_instrs: u64,
    /// Shared-memory load warp instructions.
    pub ld_shared_instrs: u64,
    /// Shared-memory store warp instructions.
    pub st_shared_instrs: u64,
    /// Bytes moved through shared memory (reads + writes).
    pub shared_bytes: u64,
    /// Extra shared-memory passes caused by bank conflicts, in units of
    /// warp-accesses (an N-way conflict adds N-1 here).
    pub bank_conflict_passes: u64,
    /// Warp shuffle instructions (used by the SDDMM reduction).
    pub shfl_instrs: u64,
    /// Integer / address / predicate / control warp instructions.
    pub misc_instrs: u64,
    /// `__syncthreads()` barriers executed.
    pub barriers: u64,
    /// Exposed-latency stall cycles the block cannot hide (e.g. warp
    /// divergence reducing memory-level parallelism). Added directly to the
    /// block's modeled time.
    pub stall_cycles: u64,
    /// Per-buffer global-memory traffic.
    pub gmem: [Traffic; MAX_BUFFERS],
}

impl BlockCost {
    /// Total warp instructions issued (all classes).
    pub fn total_instrs(&self) -> u64 {
        self.fma_instrs
            + self.fp_instrs
            + self.ld_global_instrs
            + self.st_global_instrs
            + self.ld_shared_instrs
            + self.st_shared_instrs
            + self.shfl_instrs
            + self.misc_instrs
    }

    /// Accumulate another block's cost into this one (for aggregation).
    pub fn merge(&mut self, other: &BlockCost) {
        self.fma_instrs += other.fma_instrs;
        self.fp_instrs += other.fp_instrs;
        self.flops += other.flops;
        self.ld_global_instrs += other.ld_global_instrs;
        self.st_global_instrs += other.st_global_instrs;
        self.ld_shared_instrs += other.ld_shared_instrs;
        self.st_shared_instrs += other.st_shared_instrs;
        self.shared_bytes += other.shared_bytes;
        self.bank_conflict_passes += other.bank_conflict_passes;
        self.shfl_instrs += other.shfl_instrs;
        self.misc_instrs += other.misc_instrs;
        self.barriers += other.barriers;
        self.stall_cycles += other.stall_cycles;
        for (a, b) in self.gmem.iter_mut().zip(other.gmem.iter()) {
            a.ld_sectors += b.ld_sectors;
            a.st_sectors += b.st_sectors;
        }
    }

    /// Accumulate `k` copies of `other`: the same exact `u64` sums as `k`
    /// calls to [`Self::merge`], in one pass. Profile dedup weights each
    /// representative's cost by its group's member count with this.
    pub fn merge_times(&mut self, other: &BlockCost, k: u64) {
        self.fma_instrs += other.fma_instrs * k;
        self.fp_instrs += other.fp_instrs * k;
        self.flops += other.flops * k;
        self.ld_global_instrs += other.ld_global_instrs * k;
        self.st_global_instrs += other.st_global_instrs * k;
        self.ld_shared_instrs += other.ld_shared_instrs * k;
        self.st_shared_instrs += other.st_shared_instrs * k;
        self.shared_bytes += other.shared_bytes * k;
        self.bank_conflict_passes += other.bank_conflict_passes * k;
        self.shfl_instrs += other.shfl_instrs * k;
        self.misc_instrs += other.misc_instrs * k;
        self.barriers += other.barriers * k;
        self.stall_cycles += other.stall_cycles * k;
        for (a, b) in self.gmem.iter_mut().zip(other.gmem.iter()) {
            a.ld_sectors += b.ld_sectors * k;
            a.st_sectors += b.st_sectors * k;
        }
    }
}

/// The compact per-block record the launcher's timing model actually needs.
///
/// [`crate::timing::block_cycles`] reads only a handful of derived sums from
/// a [`BlockCost`] plus the per-buffer traffic; on large grids, keeping one
/// full `BlockCost` per block alive until the cache model has run wastes
/// memory and bandwidth. The streaming launch path folds each block's cost
/// into a running total immediately and retains only this struct per block;
/// the profile-dedup path retains one per signature group (its
/// representative) and a 4-byte group index per block.
///
/// Every field is an exact integer pre-sum of `BlockCost` counters, so
/// cycles computed from a `BlockCostLite` are bit-identical to cycles
/// computed from the originating `BlockCost` (the float math in
/// [`crate::timing`] consumes the same `u64` values either way). The
/// per-buffer [`Traffic`] array is kept whole because each slot is scaled by
/// its own cache miss rate — pre-summing across slots would reassociate
/// float additions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCostLite {
    /// `BlockCost::total_instrs()`.
    pub instrs: u64,
    /// `fma_instrs + fp_instrs`.
    pub fma_fp_instrs: u64,
    /// `ld_global_instrs + st_global_instrs`.
    pub global_instrs: u64,
    /// `ld_shared_instrs + st_shared_instrs`.
    pub smem_instrs: u64,
    pub shared_bytes: u64,
    pub bank_conflict_passes: u64,
    pub barriers: u64,
    pub stall_cycles: u64,
    /// Per-buffer global-memory traffic (kept per-slot for the cache model's
    /// per-buffer miss rates).
    pub gmem: [Traffic; MAX_BUFFERS],
}

impl From<&BlockCost> for BlockCostLite {
    fn from(c: &BlockCost) -> Self {
        Self {
            instrs: c.total_instrs(),
            fma_fp_instrs: c.fma_instrs + c.fp_instrs,
            global_instrs: c.ld_global_instrs + c.st_global_instrs,
            smem_instrs: c.ld_shared_instrs + c.st_shared_instrs,
            shared_bytes: c.shared_bytes,
            bank_conflict_passes: c.bank_conflict_passes,
            barriers: c.barriers,
            stall_cycles: c.stall_cycles,
            gmem: c.gmem,
        }
    }
}

/// Recording context handed to a kernel's `execute_block`.
///
/// Provides the memory/arithmetic primitives a CUDA kernel would use; each
/// call updates the block's [`BlockCost`]. The `functional` flag tells the
/// kernel whether it must also compute real output values (launch mode) or
/// may skip the arithmetic (profile mode, used for large parameter sweeps).
#[derive(Debug)]
pub struct BlockContext {
    pub cost: BlockCost,
    functional: bool,
    /// When false, the recording methods below are no-ops: the context is a
    /// replay of a launch whose statistics are already known (a
    /// [`LaunchCache`](crate::LaunchCache) hit), so sector/conflict math
    /// would be wasted. Kernels that poke `ctx.cost` fields directly still
    /// pay those (cheap) increments; the resulting cost is discarded.
    record: bool,
    /// Per-block sanitizer state; `None` outside sanitized launches, so the
    /// hot path pays one branch per recorded access.
    san: Option<Box<BlockSan>>,
}

impl BlockContext {
    pub fn new(functional: bool) -> Self {
        Self {
            cost: BlockCost::default(),
            functional,
            record: true,
            san: None,
        }
    }

    /// A functional context with cost recording disabled: used when a cached
    /// launch still has to produce its outputs but the statistics are served
    /// from the [`LaunchCache`](crate::LaunchCache).
    pub fn replay() -> Self {
        Self {
            cost: BlockCost::default(),
            functional: true,
            record: false,
            san: None,
        }
    }

    /// A context that additionally records sanitizer findings (see
    /// [`crate::sanitizer`]). Used by [`Gpu::sanitize`](crate::Gpu::sanitize).
    pub fn sanitized(functional: bool, san: BlockSan) -> Self {
        Self {
            cost: BlockCost::default(),
            functional,
            record: true,
            san: Some(Box::new(san)),
        }
    }

    /// Detach the block's sanitizer findings after `execute_block`.
    pub fn take_sanitizer(&mut self) -> Option<BlockSan> {
        self.san.take().map(|b| *b)
    }

    /// Whether the kernel must produce real numerical outputs.
    #[inline]
    pub fn functional(&self) -> bool {
        self.functional
    }

    /// Whether cost recording is active. Kernels use this to skip work that
    /// exists only to feed the cost model (gather-address staging, sector
    /// bookkeeping) when the context is a cache-hit replay.
    #[inline]
    pub fn recording(&self) -> bool {
        self.record
    }

    /// Check out a zeroed per-block `f32` staging buffer from the thread's
    /// scratch arena (see [`crate::arena`]). The buffer models CUDA shared
    /// memory: block-scoped, recycled across blocks, zero heap allocations
    /// once the worker's pool is warm. Must not outlive `execute_block`.
    #[inline]
    pub fn scratch_f32(&self, len: usize) -> crate::arena::ScratchF32 {
        crate::arena::ScratchF32::take(len)
    }

    /// A contiguous warp-wide global load: `lanes` active lanes, lane `i`
    /// reading `vec_width` consecutive elements of `elem_bytes` starting at
    /// `byte_addr + i * vec_width * elem_bytes`. One warp instruction.
    #[inline]
    pub fn ld_global(
        &mut self,
        buf: BufferId,
        byte_addr: u64,
        lanes: u32,
        vec_width: u32,
        elem_bytes: u32,
    ) {
        if !self.record {
            return;
        }
        let bytes = lanes as u64 * vec_width as u64 * elem_bytes as u64;
        let sectors = memory::sectors_contiguous(byte_addr, bytes);
        self.cost.ld_global_instrs += 1;
        self.cost.gmem[buf.0 as usize].ld_sectors += sectors;
        if let Some(san) = self.san.as_deref_mut() {
            san.check_global(buf.0 as usize, byte_addr, bytes);
            san.check_align(buf.0 as usize, byte_addr, vec_width, elem_bytes);
        }
    }

    /// A contiguous warp-wide global store; mirror of [`Self::ld_global`].
    #[inline]
    pub fn st_global(
        &mut self,
        buf: BufferId,
        byte_addr: u64,
        lanes: u32,
        vec_width: u32,
        elem_bytes: u32,
    ) {
        if !self.record {
            return;
        }
        let bytes = lanes as u64 * vec_width as u64 * elem_bytes as u64;
        let sectors = memory::sectors_contiguous(byte_addr, bytes);
        self.cost.st_global_instrs += 1;
        self.cost.gmem[buf.0 as usize].st_sectors += sectors;
        if let Some(san) = self.san.as_deref_mut() {
            san.check_global(buf.0 as usize, byte_addr, bytes);
            san.check_align(buf.0 as usize, byte_addr, vec_width, elem_bytes);
        }
    }

    /// A strided warp store.
    #[inline]
    pub fn st_global_strided(
        &mut self,
        buf: BufferId,
        base: u64,
        lanes: u32,
        stride_bytes: u64,
        elem_bytes: u32,
    ) {
        if !self.record {
            return;
        }
        let sectors = memory::sectors_strided(base, lanes, stride_bytes, elem_bytes as u64);
        self.cost.st_global_instrs += 1;
        self.cost.gmem[buf.0 as usize].st_sectors += sectors;
        if let Some(san) = self.san.as_deref_mut() {
            if lanes > 0 {
                let span = (lanes as u64 - 1) * stride_bytes + elem_bytes as u64;
                san.check_global(buf.0 as usize, base, span);
            }
        }
    }

    /// A gather load with arbitrary per-lane byte addresses.
    #[inline]
    pub fn ld_global_gather(&mut self, buf: BufferId, addrs: &[u64], elem_bytes: u32) {
        if !self.record {
            return;
        }
        let sectors = memory::sectors_gather(addrs, elem_bytes as u64);
        self.cost.ld_global_instrs += 1;
        self.cost.gmem[buf.0 as usize].ld_sectors += sectors;
        if let Some(san) = self.san.as_deref_mut() {
            for &addr in addrs {
                san.check_global(buf.0 as usize, addr, elem_bytes as u64);
            }
            san.note_uncoalesced(buf.0 as usize, addrs.len() as u32, sectors);
        }
    }

    /// A shared-memory load: one warp instruction moving
    /// `lanes * vec_width * elem_bytes` bytes, with an N-way bank conflict
    /// adding N-1 extra passes.
    #[inline]
    pub fn ld_shared(&mut self, lanes: u32, vec_width: u32, elem_bytes: u32, conflict_ways: u32) {
        if !self.record {
            return;
        }
        self.cost.ld_shared_instrs += 1;
        self.cost.shared_bytes += lanes as u64 * vec_width as u64 * elem_bytes as u64;
        self.cost.bank_conflict_passes += conflict_ways.saturating_sub(1) as u64;
        if let Some(san) = self.san.as_deref_mut() {
            san.note_smem_load(SmemScope::Block);
            san.note_bank_conflict(conflict_ways);
        }
    }

    /// A shared-memory store; mirror of [`Self::ld_shared`].
    #[inline]
    pub fn st_shared(&mut self, lanes: u32, vec_width: u32, elem_bytes: u32, conflict_ways: u32) {
        if !self.record {
            return;
        }
        let bytes = lanes as u64 * vec_width as u64 * elem_bytes as u64;
        self.cost.st_shared_instrs += 1;
        self.cost.shared_bytes += bytes;
        self.cost.bank_conflict_passes += conflict_ways.saturating_sub(1) as u64;
        if let Some(san) = self.san.as_deref_mut() {
            san.note_smem_store(bytes, SmemScope::Block);
            san.note_bank_conflict(conflict_ways);
        }
    }

    /// Aggregate shared-memory staging: `warp_instrs` store instructions
    /// moving `bytes` total. `scope` tells the sanitizer whether the data is
    /// consumed warp-synchronously or crosses warps (requiring a barrier
    /// before the matching [`Self::smem_load`]).
    #[inline]
    pub fn smem_store(&mut self, warp_instrs: u64, bytes: u64, scope: SmemScope) {
        if !self.record {
            return;
        }
        self.cost.st_shared_instrs += warp_instrs;
        self.cost.shared_bytes += bytes;
        if let Some(san) = self.san.as_deref_mut() {
            san.note_smem_store(bytes, scope);
        }
    }

    /// Aggregate shared-memory readback; mirror of [`Self::smem_store`].
    #[inline]
    pub fn smem_load(&mut self, warp_instrs: u64, bytes: u64, scope: SmemScope) {
        if !self.record {
            return;
        }
        self.cost.ld_shared_instrs += warp_instrs;
        self.cost.shared_bytes += bytes;
        if let Some(san) = self.san.as_deref_mut() {
            san.note_smem_load(scope);
        }
    }

    /// Sector-accurate contiguous global-load traffic for callers that
    /// account load *instructions* separately (bulk staging loops). Adds
    /// sectors and runs memcheck; no instruction is counted.
    #[inline]
    pub fn ld_global_trace(&mut self, buf: BufferId, byte_addr: u64, bytes: u64) {
        if !self.record {
            return;
        }
        self.cost.gmem[buf.0 as usize].ld_sectors += memory::sectors_contiguous(byte_addr, bytes);
        if let Some(san) = self.san.as_deref_mut() {
            san.check_global(buf.0 as usize, byte_addr, bytes);
        }
    }

    /// Sector-accurate contiguous global-store traffic; mirror of
    /// [`Self::ld_global_trace`].
    #[inline]
    pub fn st_global_trace(&mut self, buf: BufferId, byte_addr: u64, bytes: u64) {
        if !self.record {
            return;
        }
        self.cost.gmem[buf.0 as usize].st_sectors += memory::sectors_contiguous(byte_addr, bytes);
        if let Some(san) = self.san.as_deref_mut() {
            san.check_global(buf.0 as usize, byte_addr, bytes);
        }
    }

    /// `warp_instrs` FMA warp instructions performing `scalar_fmas` useful
    /// scalar fused multiply-adds (2 FLOPs each).
    #[inline]
    pub fn fma(&mut self, warp_instrs: u64, scalar_fmas: u64) {
        if !self.record {
            return;
        }
        self.cost.fma_instrs += warp_instrs;
        self.cost.flops += 2 * scalar_fmas;
    }

    /// Non-FMA floating-point warp instructions performing `scalar_ops` FLOPs
    /// (e.g. the exp/add/div of the sparse softmax).
    #[inline]
    pub fn fp(&mut self, warp_instrs: u64, scalar_ops: u64) {
        if !self.record {
            return;
        }
        self.cost.fp_instrs += warp_instrs;
        self.cost.flops += scalar_ops;
    }

    /// Warp shuffle instructions (SDDMM's cross-lane reduction).
    #[inline]
    pub fn shfl(&mut self, n: u64) {
        if !self.record {
            return;
        }
        self.cost.shfl_instrs += n;
    }

    /// Integer / address / predicate / control instructions.
    #[inline]
    pub fn misc(&mut self, n: u64) {
        if !self.record {
            return;
        }
        self.cost.misc_instrs += n;
    }

    /// A `__syncthreads()` barrier.
    #[inline]
    pub fn bar_sync(&mut self) {
        if !self.record {
            return;
        }
        self.cost.barriers += 1;
        if let Some(san) = self.san.as_deref_mut() {
            san.note_barrier();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ld_global_counts_instruction_and_sectors() {
        let mut ctx = BlockContext::new(true);
        let b = BufferId(0);
        // Full warp, vec4, f32: 512 bytes aligned -> 16 sectors, 1 instruction.
        ctx.ld_global(b, 0, 32, 4, 4);
        assert_eq!(ctx.cost.ld_global_instrs, 1);
        assert_eq!(ctx.cost.gmem[0].ld_sectors, 16);
    }

    #[test]
    fn misaligned_load_costs_extra_sector() {
        let mut a = BlockContext::new(true);
        let mut m = BlockContext::new(true);
        a.ld_global(BufferId(0), 0, 32, 1, 4); // 128B aligned: 4 sectors
        m.ld_global(BufferId(0), 20, 32, 1, 4); // 128B at offset 20: 5 sectors
        assert_eq!(a.cost.gmem[0].ld_sectors, 4);
        assert_eq!(m.cost.gmem[0].ld_sectors, 5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BlockContext::new(true);
        a.fma(10, 320);
        a.ld_global(BufferId(1), 0, 32, 1, 4);
        let mut total = BlockCost::default();
        total.merge(&a.cost);
        total.merge(&a.cost);
        assert_eq!(total.fma_instrs, 20);
        assert_eq!(total.flops, 2 * 320 * 2);
        assert_eq!(total.gmem[1].ld_sectors, 8);
    }

    #[test]
    fn merge_times_equals_repeated_merge() {
        let mut ctx = BlockContext::new(false);
        ctx.fma(3, 70);
        ctx.fp(2, 9);
        ctx.misc(5);
        ctx.shfl(1);
        ctx.bar_sync();
        ctx.ld_shared(32, 2, 4, 3);
        ctx.st_shared(16, 1, 4, 2);
        ctx.ld_global(BufferId(2), 20, 32, 4, 4);
        ctx.st_global(BufferId(7), 4, 32, 1, 4);
        ctx.cost.stall_cycles = 11;
        let c = ctx.cost;
        let mut base = BlockCost::default();
        base.merge(&c);
        for k in [0u64, 1, 2, 4099, 1 << 20] {
            let mut repeated = base.clone();
            for _ in 0..k {
                repeated.merge(&c);
            }
            let mut weighted = base.clone();
            weighted.merge_times(&c, k);
            assert_eq!(weighted, repeated, "k = {k}");
        }
    }

    #[test]
    fn replay_context_skips_recording_and_reports_it() {
        let mut ctx = BlockContext::replay();
        assert!(ctx.functional());
        assert!(!ctx.recording());
        ctx.ld_global_trace(BufferId(0), 0, 128);
        assert_eq!(ctx.cost, BlockCost::default());
    }

    #[test]
    fn total_instrs_sums_all_classes() {
        let mut ctx = BlockContext::new(false);
        ctx.fma(1, 32);
        ctx.misc(2);
        ctx.shfl(3);
        ctx.ld_shared(32, 1, 4, 1);
        assert_eq!(ctx.cost.total_instrs(), 7);
    }
}
