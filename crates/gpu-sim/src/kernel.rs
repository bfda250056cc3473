//! The kernel abstraction: what a "CUDA kernel" looks like to the simulator.

use crate::cache::BufferSpec;
use crate::cost::BlockContext;
use crate::dim::Dim3;
use crate::occupancy::BlockRequirements;
use crate::static_check::StaticFacts;
use sparse::Fingerprint;
use std::hash::Hash;

/// A simulated GPU kernel.
///
/// Implementors provide the launch configuration (grid/block dims, shared
/// memory, register pressure) and a per-thread-block body. The body is
/// executed once per block in the grid — functionally computing the block's
/// outputs (when the launch is functional) and recording the block's
/// instruction/memory cost trace through the [`BlockContext`]. A kernel
/// with [`CostKey`]s records that trace as `charge(&cost_key(block))`.
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

    /// This kernel's per-block cost keys, when its blocks have them (see
    /// [`CostKey`]); `None` (the default) otherwise. Profile launches group
    /// blocks by key hash, execute one representative per group and replay
    /// its cost for the others, which is how dataset-scale sweeps skip the
    /// long tail of structurally repeated blocks. Only profile launches
    /// consult this: functional and sanitized launches execute every block.
    ///
    /// Return `Some(self)` only where a measured profile sweep is faster
    /// with dedup than without (`Gpu::with_block_dedup(false)` is the
    /// comparison): building and hashing every block's key costs host
    /// time, and a kernel with few repeated blocks pays it for nothing.
    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
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
    /// Soundness of a non-default declaration is the implementor's burden;
    /// `static_audit` and `sanitize_all` cross-check it against the dynamic
    /// sanitizer in CI.
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

/// A kernel whose blocks differ in cost only through a small per-block
/// record: work sizes and address classes, such as row and strip lengths,
/// ROMA's aligned start or a tile's residue.
///
/// `cost_key` builds the record and `charge` records the block's trace from
/// it, so two blocks with equal keys record bit-identical [`BlockCost`]s by
/// construction: `charge` gets no block index, and the key holds counts
/// and classes, never a row or column index to look data up by.
///
/// Both halves speak [`BlockContext`]'s one vocabulary. The key builder
/// is the only code that sees a global address: it turns each into a
/// sector count through the `*sectors` helpers
/// ([`sectors`](BlockContext::sectors),
/// [`tile_sectors`](BlockContext::tile_sectors),
/// [`strided_sectors`](BlockContext::strided_sectors),
/// [`gather_sectors`](BlockContext::gather_sectors)), which in a sanitized
/// block also run memcheck, aligncheck and the uncoalesced-gather lint on
/// the real address. `charge` puts counts into the books through the
/// charge helpers only; it keeps the shared-memory, bank-conflict and
/// barrier hooks, which take no address.
///
/// [`BlockCost`]: crate::cost::BlockCost
pub trait CostKey {
    /// A `Copy` stack record of exactly the counts and alignment classes
    /// the block's trace reads.
    type Key: Copy + Hash;

    /// Build `block`'s key.
    fn cost_key(&self, block: Dim3, ctx: &mut BlockContext) -> Self::Key;

    /// Record a block's trace from its key and the launch's constants.
    fn charge(&self, key: &Self::Key, ctx: &mut BlockContext);

    /// The block's dedup signature: the hash of its key. Override only to
    /// memoize part of that hash across the blocks of one launch.
    fn block_signature(&self, block: Dim3, ctx: &mut BlockContext) -> u64 {
        key_hash(&self.cost_key(block, ctx))
    }
}

/// The object-safe face of a [`CostKey`] kernel, reached through
/// [`Kernel::keyed`].
pub trait KeyedBlocks {
    /// [`CostKey::block_signature`].
    fn signature(&self, block: Dim3, ctx: &mut BlockContext) -> u64;

    /// `charge(&cost_key(block))`: the cost half of `execute_block`.
    fn charge_block(&self, block: Dim3, ctx: &mut BlockContext);
}

impl<K: CostKey> KeyedBlocks for K {
    fn signature(&self, block: Dim3, ctx: &mut BlockContext) -> u64 {
        self.block_signature(block, ctx)
    }

    fn charge_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let key = self.cost_key(block, ctx);
        self.charge(&key, ctx);
    }
}

/// The stable hash of a cost key (or of any part of one).
pub fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut fp = Fingerprint::new();
    key.hash(&mut fp);
    fp.finish()
}
