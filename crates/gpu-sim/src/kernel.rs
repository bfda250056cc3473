//! The kernel abstraction: what a "CUDA kernel" looks like to the simulator.

use crate::cache::BufferSpec;
use crate::cost::BlockContext;
use crate::dim::Dim3;
use crate::occupancy::BlockRequirements;
use crate::static_check::StaticFacts;

/// A simulated GPU kernel.
///
/// Implementors provide the launch configuration (grid/block dims, shared
/// memory, register pressure) and a per-thread-block body. The body is
/// executed once per block in the grid — functionally computing the block's
/// outputs (when the launch is functional) and recording the block's
/// instruction/memory cost trace through the [`BlockContext`].
///
/// Blocks must be independent, as on the hardware: the launcher runs a
/// launch's blocks one at a time on the calling thread, in any order. A
/// kernel's outputs are [`OutputSlice`](crate::OutputSlice)s, so a kernel
/// that holds one cannot be shared between threads.
pub trait Kernel {
    /// Kernel name for reports (e.g. `"sputnik_spmm_f32_n32_v4"`).
    fn name(&self) -> String;

    /// Grid dimensions (thread blocks along x/y/z).
    fn grid(&self) -> Dim3;

    /// Block dimensions (threads along x/y/z).
    fn block_dim(&self) -> Dim3;

    /// Dynamic + static shared memory per block, in bytes.
    fn shared_mem_bytes(&self) -> u32 {
        0
    }

    /// Registers per thread (determines occupancy alongside shared memory).
    fn regs_per_thread(&self) -> u32 {
        32
    }

    /// The device buffers this kernel touches, with footprints for the cache
    /// model.
    fn buffers(&self) -> Vec<BufferSpec>;

    /// Execute one thread block. `block` is the block index within the grid.
    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext);

    /// A structural signature of this block's *cost trace*: two blocks with
    /// equal signatures must record bit-identical [`BlockCost`]s from
    /// `execute_block` (instruction counts, sector counts, stalls — the
    /// functional output may of course differ). Profile-mode launches
    /// execute one representative per signature and replay its cost for the
    /// others, which is how dataset-scale sweeps skip the long tail of
    /// structurally repeated blocks. Only profile launches consult this:
    /// functional and sanitized launches execute every block and never call
    /// it.
    ///
    /// Soundness is the implementor's burden: the signature must cover every
    /// input the trace depends on, including address *alignment* classes
    /// (sector counts change with `addr % 32`). Return `None` (the default)
    /// for blocks whose cost cannot be cheaply summarized — those execute
    /// normally. Override it only where a measured profile sweep is faster
    /// with dedup than without (`Gpu::with_block_dedup(false)` is the
    /// comparison): hashing every block costs host time, and a kernel with
    /// few repeated blocks pays it for nothing.
    ///
    /// The launcher calls this once per block of a profile launch. An
    /// implementation may precompute per-launch state on its first call
    /// (e.g. one hash per row strip in a `OnceLock`, shared by every block
    /// of that strip), so a signature costs O(distinct work) rather than a
    /// full recomputation per block; it is still one call per block.
    ///
    /// [`BlockCost`]: crate::cost::BlockCost
    fn block_signature(&self, _block: Dim3) -> Option<u64> {
        None
    }

    /// Corrupt this kernel's functional output with non-finite values, as a
    /// silent data-corruption fault would. Called by the launcher when a
    /// [`FaultPlan`](crate::fault::FaultPlan) injects
    /// [`FaultKind::PoisonOutput`](crate::fault::FaultKind) on a functional
    /// launch; `seed` makes the corruption pattern deterministic. The default
    /// is a no-op: kernels that do not opt in simply cannot be poisoned.
    fn poison_output(&self, _seed: u64) {}

    /// Whether this kernel accumulates its output with device atomics
    /// (e.g. `atomicAdd`-style CAS loops). Atomic kernels legitimately have
    /// multiple blocks touching the same output index, so the sanitizer's
    /// cross-block racecheck is skipped for them; every other check still
    /// runs.
    fn atomic_output(&self) -> bool {
        false
    }

    /// Declarative facts for the static launch auditor
    /// ([`crate::static_check::audit`]): sound access-extent bounds,
    /// worst-case vector residue classes, barrier discipline, and staging
    /// bounds. The default declares nothing, which audits every
    /// data-dependent check to `NeedsDynamic` — always sound, never fast.
    /// Like [`Kernel::block_signature`], soundness of a non-default
    /// declaration is the implementor's burden; `static_audit` and
    /// `sanitize_all` cross-check it against the dynamic sanitizer in CI.
    fn static_facts(&self) -> StaticFacts {
        StaticFacts::conservative()
    }

    /// Derived per-block resource requirements.
    fn block_requirements(&self) -> BlockRequirements {
        BlockRequirements {
            threads: self.block_dim().size() as u32,
            smem_bytes: self.shared_mem_bytes(),
            regs_per_thread: self.regs_per_thread(),
        }
    }
}
