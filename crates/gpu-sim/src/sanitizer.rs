//! Kernel sanitizer: the simulator's analogue of CUDA `compute-sanitizer`.
//!
//! Kernels in this repo execute against two unchecked contracts: thread
//! blocks write a shared output buffer through [`OutputSlice`] on a
//! disjoint-tiling promise (the simulator runs blocks one at a time, but
//! on the GPU overlapping tiles race), and the cost recorder
//! ([`BlockContext`]) trusts that traced addresses are in-bounds and that
//! vector accesses respect the alignment legality that ROMA (§III-B of
//! Gale et al., SC 2020) exists to guarantee. A launch run through
//! [`Gpu::sanitize`] turns violations of those contracts into typed,
//! testable diagnostics instead of silently wrong outputs or silent
//! mismodeling:
//!
//! * **racecheck** — two different thread blocks writing the same output
//!   index (via a per-index writer-ID shadow map under the instrumented
//!   [`OutputSlice`]), plus intra-block shared-memory read-after-write
//!   hazards across `bar_sync` epochs (a block-scope staging store followed
//!   by a block-scope load with no intervening barrier, in a multi-warp
//!   block).
//! * **memcheck** — global accesses beyond the declared
//!   [`BufferSpec::footprint_bytes`], slice accesses beyond the output
//!   length, and per-epoch shared staging that exceeds the declared shared
//!   memory.
//! * **aligncheck** — vector accesses (`vec_width > 1`) whose byte address
//!   is not naturally aligned to `vec_width * elem_bytes`.
//! * **lints** — warnings (not failures) for fully-uncoalesced global loads
//!   and ≥8-way shared-memory bank conflicts.
//!
//! The cross-block state belongs to the launch: each sanitized launch
//! builds one `Session` (the shadow map and the report) and runs every
//! block inside `in_block`, which tags the launching thread with the block
//! id and the session in two thread-locals and restores both when the
//! block returns or panics. The output store reads the block id alone, so
//! an unsanitized store pays one thread-local read.
//!
//! [`OutputSlice`]: crate::util::OutputSlice
//! [`BlockContext`]: crate::cost::BlockContext
//! [`Gpu::sanitize`]: crate::launch::Gpu::sanitize
//! [`BufferSpec::footprint_bytes`]: crate::cache::BufferSpec

use crate::cache::BufferSpec;
use crate::cost::MAX_BUFFERS;
use crate::kernel::Kernel;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::{Entry, HashMap};
use std::rc::Rc;

/// Three-valued verdict of one static check class (see
/// [`crate::static_check`]). The lattice is ordered by severity:
/// `Proven < NeedsDynamic < Refuted`.
///
/// * `Proven` — the property holds for every block of the launch, shown from
///   the launch descriptor alone; the matching dynamic check is redundant.
/// * `Refuted` — the descriptor already contains a counterexample; executing
///   the launch would only rediscover it.
/// * `NeedsDynamic` — the property depends on runtime data (gathered
///   indices, barrier interleavings); fall back to the dynamic sanitizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Proven,
    NeedsDynamic,
    Refuted,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Proven => "proven",
            Verdict::NeedsDynamic => "needs_dynamic",
            Verdict::Refuted => "refuted",
        }
    }
}

/// The check classes the static auditor can rule on. Each maps onto the
/// dynamic check the sanitizer would otherwise run for every block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckClass {
    /// Traced global accesses vs declared buffer footprints (memcheck).
    Bounds,
    /// Vector-access natural alignment (aligncheck).
    Alignment,
    /// Per-epoch block-scope staging vs declared shared memory, and the
    /// declared shared memory vs the device's per-block capacity.
    SharedCapacity,
    /// Grid/block dimension legality and nonzero occupancy.
    GridOccupancy,
    /// Block-scope store→load phases separated by `bar_sync`.
    BarrierStructure,
}

impl CheckClass {
    pub const ALL: [CheckClass; 5] = [
        CheckClass::Bounds,
        CheckClass::Alignment,
        CheckClass::SharedCapacity,
        CheckClass::GridOccupancy,
        CheckClass::BarrierStructure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CheckClass::Bounds => "bounds",
            CheckClass::Alignment => "alignment",
            CheckClass::SharedCapacity => "shared_capacity",
            CheckClass::GridOccupancy => "grid_occupancy",
            CheckClass::BarrierStructure => "barrier_structure",
        }
    }
}

/// Scope of a shared-memory access for the barrier-epoch hazard check.
///
/// `Warp` marks warp-synchronous staging (e.g. Sputnik's sparse-operand
/// loads, where the warp that stores is the only consumer — legal without a
/// barrier). `Block` marks staging consumed by other warps of the block,
/// which requires a `bar_sync` between the store and the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmemScope {
    /// Producer and consumer are the same warp; no barrier required.
    Warp,
    /// Data crosses warps within the block; a barrier is required between
    /// the store phase and the load phase.
    Block,
}

/// A hard sanitizer finding: the kernel (or its cost model) broke a contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SanitizerViolation {
    /// Two different thread blocks wrote the same output-slice index.
    CrossBlockRace {
        index: usize,
        first_writer: u64,
        second_writer: u64,
    },
    /// An output-slice write beyond the slice length.
    OutOfBoundsWrite { index: usize, len: usize },
    /// An output-slice read beyond the slice length.
    OutOfBoundsRead { index: usize, len: usize },
    /// A traced global access beyond the buffer's declared footprint.
    GlobalOutOfBounds {
        buffer: &'static str,
        byte_addr: u64,
        bytes: u64,
        footprint: u64,
    },
    /// A traced global access against a buffer slot the kernel never
    /// declared in [`Kernel::buffers`](crate::kernel::Kernel::buffers).
    UndeclaredBuffer { slot: u8 },
    /// Block-scope shared-memory stores within one barrier epoch exceeded
    /// the kernel's declared shared memory.
    SharedStageOverflow { stored_bytes: u64, smem_bytes: u64 },
    /// A vector access whose byte address is not aligned to the vector size.
    Misaligned {
        buffer: &'static str,
        byte_addr: u64,
        vec_width: u32,
        elem_bytes: u32,
    },
    /// A block-scope shared-memory load observed stores from the same
    /// barrier epoch: the kernel omitted a `bar_sync` between the store
    /// phase and the load phase of a multi-warp block.
    MissingBarrier { epoch: u64 },
}

impl std::fmt::Display for SanitizerViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanitizerViolation::CrossBlockRace { index, first_writer, second_writer } => write!(
                f,
                "cross-block race: blocks {first_writer} and {second_writer} both wrote index {index}"
            ),
            SanitizerViolation::OutOfBoundsWrite { index, len } => {
                write!(f, "out-of-bounds write: index {index} >= len {len}")
            }
            SanitizerViolation::OutOfBoundsRead { index, len } => {
                write!(f, "out-of-bounds read: index {index} >= len {len}")
            }
            SanitizerViolation::GlobalOutOfBounds { buffer, byte_addr, bytes, footprint } => write!(
                f,
                "global OOB on `{buffer}`: [{byte_addr}, {}) exceeds footprint {footprint}",
                byte_addr + bytes
            ),
            SanitizerViolation::UndeclaredBuffer { slot } => {
                write!(f, "traced access to undeclared buffer slot {slot}")
            }
            SanitizerViolation::SharedStageOverflow { stored_bytes, smem_bytes } => write!(
                f,
                "shared staging overflow: {stored_bytes} B stored in one epoch, {smem_bytes} B declared"
            ),
            SanitizerViolation::Misaligned { buffer, byte_addr, vec_width, elem_bytes } => write!(
                f,
                "misaligned vec{vec_width} access on `{buffer}`: address {byte_addr} not aligned to {}",
                vec_width * elem_bytes
            ),
            SanitizerViolation::MissingBarrier { epoch } => write!(
                f,
                "missing barrier: block-scope smem load after store in epoch {epoch} with no bar_sync"
            ),
        }
    }
}

/// A soft sanitizer finding: legal, but a performance smell worth knowing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SanitizerWarning {
    /// A gather or long-stride load whose lanes each touched their own
    /// sector — zero intra-warp coalescing.
    UncoalescedLoad {
        buffer: &'static str,
        lanes: u32,
        sectors: u64,
    },
    /// A shared-memory access with `ways`-way bank conflicts (>= 8).
    BankConflict { ways: u32 },
}

impl std::fmt::Display for SanitizerWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanitizerWarning::UncoalescedLoad {
                buffer,
                lanes,
                sectors,
            } => {
                write!(
                    f,
                    "uncoalesced load on `{buffer}`: {lanes} lanes touched {sectors} sectors"
                )
            }
            SanitizerWarning::BankConflict { ways } => {
                write!(f, "{ways}-way shared-memory bank conflict")
            }
        }
    }
}

/// Cap on the example violations/warnings kept per report (total counts are
/// always exact).
pub const MAX_REPORTED: usize = 64;
/// Cap on examples kept per block before merging into the report.
const MAX_PER_BLOCK: usize = 16;

/// The outcome of one sanitized launch.
#[derive(Debug, Clone, Default)]
pub struct SanitizerReport {
    /// Kernel name.
    pub kernel: String,
    /// Thread blocks executed.
    pub blocks: u64,
    /// Total hard violations (exact, even when examples are capped).
    pub violation_count: u64,
    /// Total lint warnings (exact).
    pub warning_count: u64,
    /// Example violations, capped at [`MAX_REPORTED`].
    pub violations: Vec<SanitizerViolation>,
    /// Example warnings, capped at [`MAX_REPORTED`].
    pub warnings: Vec<SanitizerWarning>,
}

impl SanitizerReport {
    pub fn new(kernel: String, blocks: u64) -> Self {
        Self {
            kernel,
            blocks,
            ..Self::default()
        }
    }

    /// No hard violations (warnings do not make a launch dirty).
    pub fn clean(&self) -> bool {
        self.violation_count == 0
    }

    fn push_violation(&mut self, v: SanitizerViolation) {
        self.violation_count += 1;
        if self.violations.len() < MAX_REPORTED {
            self.violations.push(v);
        }
    }

    fn push_warning(&mut self, w: SanitizerWarning) {
        self.warning_count += 1;
        if self.warnings.len() < MAX_REPORTED {
            self.warnings.push(w);
        }
    }

    /// Fold one block's findings into the launch report.
    pub(crate) fn absorb_block(&mut self, san: BlockSan) {
        let extra_v = san
            .violation_count
            .saturating_sub(san.violations.len() as u64);
        let extra_w = san.warning_count.saturating_sub(san.warnings.len() as u64);
        for v in san.violations {
            self.push_violation(v);
        }
        for w in san.warnings {
            self.push_warning(w);
        }
        self.violation_count += extra_v;
        self.warning_count += extra_w;
    }
}

impl std::fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} blocks, {} violation(s), {} warning(s)",
            self.kernel, self.blocks, self.violation_count, self.warning_count
        )?;
        for v in &self.violations {
            write!(f, "\n  VIOLATION {v}")?;
        }
        for w in &self.warnings {
            write!(f, "\n  warning   {w}")?;
        }
        Ok(())
    }
}

/// Per-block sanitizer state, carried inside a sanitized [`BlockContext`]
/// (one per block, no cross-thread sharing — the launch's cross-block
/// shadow map lives in its session).
///
/// [`BlockContext`]: crate::cost::BlockContext
#[derive(Debug, Clone)]
pub struct BlockSan {
    /// Declared footprint per buffer slot (name, bytes).
    footprints: [Option<(&'static str, u64)>; MAX_BUFFERS],
    /// Declared shared memory per block.
    smem_bytes: u32,
    /// Whether the block runs more than one warp (barrier/capacity hazards
    /// only exist across warps; single-warp blocks are warp-synchronous).
    multi_warp: bool,
    /// Barrier epoch counter (incremented by `bar_sync`).
    epoch: u64,
    /// A block-scope smem store happened in the current epoch.
    store_in_epoch: bool,
    /// Block-scope bytes staged in the current epoch.
    epoch_store_bytes: u64,
    /// Dedup flags: report each hazard class at most once per epoch.
    barrier_reported: bool,
    overflow_reported: bool,
    violation_count: u64,
    warning_count: u64,
    violations: Vec<SanitizerViolation>,
    warnings: Vec<SanitizerWarning>,
}

impl BlockSan {
    pub fn for_kernel(buffers: &[BufferSpec], smem_bytes: u32, multi_warp: bool) -> Self {
        let mut footprints: [Option<(&'static str, u64)>; MAX_BUFFERS] = [None; MAX_BUFFERS];
        for b in buffers {
            let slot = b.id.0 as usize;
            if slot < MAX_BUFFERS {
                footprints[slot] = Some((b.name, b.footprint_bytes));
            }
        }
        Self {
            footprints,
            smem_bytes,
            multi_warp,
            epoch: 0,
            store_in_epoch: false,
            epoch_store_bytes: 0,
            barrier_reported: false,
            overflow_reported: false,
            violation_count: 0,
            warning_count: 0,
            violations: Vec::new(),
            warnings: Vec::new(),
        }
    }

    fn record(&mut self, v: SanitizerViolation) {
        self.violation_count += 1;
        if self.violations.len() < MAX_PER_BLOCK {
            self.violations.push(v);
        }
    }

    fn warn(&mut self, w: SanitizerWarning) {
        self.warning_count += 1;
        if self.warnings.len() < MAX_PER_BLOCK {
            self.warnings.push(w);
        }
    }

    /// Memcheck: a traced global access of `bytes` at `byte_addr` against
    /// the declared footprint of buffer `slot`. Cold, like the other
    /// address checks: every cost-key build tests for a sanitizer, and
    /// only sanitized launches, a small share of all, take the branch.
    #[cold]
    pub(crate) fn check_global(&mut self, slot: usize, byte_addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        match self.footprints.get(slot).copied().flatten() {
            None => self.record(SanitizerViolation::UndeclaredBuffer { slot: slot as u8 }),
            Some((name, footprint)) => {
                if byte_addr.saturating_add(bytes) > footprint {
                    self.record(SanitizerViolation::GlobalOutOfBounds {
                        buffer: name,
                        byte_addr,
                        bytes,
                        footprint,
                    });
                }
            }
        }
    }

    /// Aligncheck: vector accesses must be naturally aligned.
    #[cold]
    pub(crate) fn check_align(
        &mut self,
        slot: usize,
        byte_addr: u64,
        vec_width: u32,
        elem_bytes: u32,
    ) {
        if vec_width <= 1 {
            return;
        }
        let align = vec_width as u64 * elem_bytes as u64;
        if align > 0 && !byte_addr.is_multiple_of(align) {
            let name = self
                .footprints
                .get(slot)
                .copied()
                .flatten()
                .map_or("<undeclared>", |(n, _)| n);
            self.record(SanitizerViolation::Misaligned {
                buffer: name,
                byte_addr,
                vec_width,
                elem_bytes,
            });
        }
    }

    /// Barrier-epoch tracking: a shared-memory store of `bytes`.
    pub(crate) fn note_smem_store(&mut self, bytes: u64, scope: SmemScope) {
        if scope != SmemScope::Block || !self.multi_warp {
            return;
        }
        self.store_in_epoch = true;
        self.epoch_store_bytes += bytes;
        if !self.overflow_reported
            && self.smem_bytes > 0
            && self.epoch_store_bytes > self.smem_bytes as u64
        {
            self.overflow_reported = true;
            self.record(SanitizerViolation::SharedStageOverflow {
                stored_bytes: self.epoch_store_bytes,
                smem_bytes: self.smem_bytes as u64,
            });
        }
    }

    /// Barrier-epoch tracking: a shared-memory load. A block-scope load in
    /// an epoch that already staged block-scope data is a read-after-write
    /// hazard: the consumer warps never synchronized with the producers.
    pub(crate) fn note_smem_load(&mut self, scope: SmemScope) {
        if scope == SmemScope::Block
            && self.multi_warp
            && self.store_in_epoch
            && !self.barrier_reported
        {
            self.barrier_reported = true;
            self.record(SanitizerViolation::MissingBarrier { epoch: self.epoch });
        }
    }

    /// Lint: an N-way bank conflict (>= 8 ways is pathological).
    pub(crate) fn note_bank_conflict(&mut self, ways: u32) {
        if ways >= 8 {
            self.warn(SanitizerWarning::BankConflict { ways });
        }
    }

    /// Lint: a warp-wide load where every lane paid its own sector.
    #[cold]
    pub(crate) fn note_uncoalesced(&mut self, slot: usize, lanes: u32, sectors: u64) {
        if lanes >= 16 && sectors >= lanes as u64 {
            let name = self
                .footprints
                .get(slot)
                .copied()
                .flatten()
                .map_or("<undeclared>", |(n, _)| n);
            self.warn(SanitizerWarning::UncoalescedLoad {
                buffer: name,
                lanes,
                sectors,
            });
        }
    }

    /// A `bar_sync`: advance the epoch, clearing the hazard state.
    pub(crate) fn note_barrier(&mut self) {
        self.epoch += 1;
        self.store_in_epoch = false;
        self.epoch_store_bytes = 0;
        self.barrier_reported = false;
        self.overflow_reported = false;
    }
}

// ---------------------------------------------------------------------------
// Session state: the cross-block half of one sanitized launch (see the
// module docs). The instrumented `OutputSlice` consults only the thread's
// two tags, so sanitized launches on different threads never share state or
// wait on each other, and an untagged thread (host code, or an unsanitized
// launch) keeps plain semantics: an out-of-bounds slice access still panics.
// ---------------------------------------------------------------------------

/// The launch-owned state of one sanitized launch: the racecheck switch, a
/// fresh block's sanitizer state, and the shadow map and report that every
/// block feeds. The launch runs its blocks one at a time on the thread
/// that owns the session.
pub(crate) struct Session {
    /// `false` for kernels that legitimately overlap (atomic accumulation).
    racecheck: bool,
    block: BlockSan,
    shadow: RefCell<Shadow>,
}

struct Shadow {
    /// (slice base pointer, index) -> first writer's linear block id.
    writers: HashMap<(usize, usize), u64>,
    report: SanitizerReport,
}

impl Session {
    /// The session for one sanitized launch of `kernel` on a device with
    /// `warp_size`-thread warps.
    pub(crate) fn new(kernel: &dyn Kernel, warp_size: u32) -> Self {
        let req = kernel.block_requirements();
        let block =
            BlockSan::for_kernel(&kernel.buffers(), req.smem_bytes, req.threads > warp_size);
        let report = SanitizerReport::new(kernel.name(), kernel.grid().size());
        Self {
            racecheck: !kernel.atomic_output(),
            block,
            shadow: RefCell::new(Shadow {
                writers: HashMap::new(),
                report,
            }),
        }
    }

    /// The sanitizer state a block starts from.
    pub(crate) fn block_san(&self) -> BlockSan {
        self.block.clone()
    }

    /// Fold one block's findings into the launch report.
    pub(crate) fn absorb_block(&self, san: BlockSan) {
        self.shadow.borrow_mut().report.absorb_block(san);
    }

    /// Take the launch report, once every block has run.
    pub(crate) fn finish(&self) -> SanitizerReport {
        std::mem::take(&mut self.shadow.borrow_mut().report)
    }

    fn claim(&self, base: usize, index: usize, me: u64) -> bool {
        if !self.racecheck {
            return true;
        }
        let shadow = &mut *self.shadow.borrow_mut();
        match shadow.writers.entry((base, index)) {
            Entry::Vacant(slot) => {
                slot.insert(me);
                true
            }
            Entry::Occupied(slot) if *slot.get() == me => true,
            Entry::Occupied(slot) => {
                shadow
                    .report
                    .push_violation(SanitizerViolation::CrossBlockRace {
                        index,
                        first_writer: *slot.get(),
                        second_writer: me,
                    });
                false
            }
        }
    }
}

thread_local! {
    /// The linear id of the sanitized block this thread is executing;
    /// `None` outside [`in_block`].
    static BLOCK: Cell<Option<u64>> = const { Cell::new(None) };
    /// The session that block belongs to.
    static SESSION: RefCell<Option<Rc<Session>>> = const { RefCell::new(None) };
}

/// Restores the thread's previous block tag and session when dropped, also
/// when the block panics.
struct Tag {
    block: Option<u64>,
    session: Option<Rc<Session>>,
}

impl Drop for Tag {
    fn drop(&mut self) {
        BLOCK.set(self.block);
        SESSION.set(self.session.take());
    }
}

/// Run `f` as block `lin` of `session`: slice accesses on this thread feed
/// the session until `f` returns or unwinds.
pub(crate) fn in_block<R>(session: &Rc<Session>, lin: u64, f: impl FnOnce() -> R) -> R {
    let _tag = Tag {
        block: BLOCK.replace(Some(lin)),
        session: SESSION.replace(Some(Rc::clone(session))),
    };
    f()
}

/// Call `f` with the session and block id of the sanitized block this
/// thread is executing; `None` when it executes none.
#[inline]
fn with_block<R>(f: impl FnOnce(&Session, u64) -> R) -> Option<R> {
    let lin = BLOCK.get()?;
    SESSION.with_borrow(|session| session.as_deref().map(|session| f(session, lin)))
}

/// Whether this thread is executing a sanitized block: the one slot read
/// [`OutputSlice::write_run`](crate::OutputSlice::write_run) pays
/// per run instead of per element.
#[inline]
pub(crate) fn in_sanitized_block() -> bool {
    BLOCK.get().is_some()
}

/// Racecheck: claim `(base, index)` for the current block. Returns `false`
/// when another block already owns the index — the caller must then SKIP the
/// raw write, because performing it would be the very data race being
/// reported.
#[inline]
pub(crate) fn claim_write(base: usize, index: usize) -> bool {
    with_block(|session, me| session.claim(base, index, me)).unwrap_or(true)
}

/// Memcheck: record a slice access beyond its length. Returns `true` when a
/// sanitized block absorbed the violation (the caller skips the access);
/// `false` means the calling thread is not executing a sanitized block and
/// the caller should panic.
pub(crate) fn report_slice_oob(index: usize, len: usize, is_write: bool) -> bool {
    with_block(|session, _| {
        session
            .shadow
            .borrow_mut()
            .report
            .push_violation(if is_write {
                SanitizerViolation::OutOfBoundsWrite { index, len }
            } else {
                SanitizerViolation::OutOfBoundsRead { index, len }
            })
    })
    .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AccessPattern;
    use crate::cost::BufferId;

    fn spec(slot: u8, name: &'static str, footprint: u64) -> BufferSpec {
        BufferSpec {
            id: BufferId(slot),
            name,
            footprint_bytes: footprint,
            pattern: AccessPattern::Streaming,
        }
    }

    #[test]
    fn memcheck_flags_footprint_overrun() {
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 128)], 0, true);
        san.check_global(0, 0, 128); // exactly the footprint: fine
        assert_eq!(san.violation_count, 0);
        san.check_global(0, 64, 96); // 160 > 128
        assert_eq!(san.violation_count, 1);
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::GlobalOutOfBounds { footprint: 128, .. }
        ));
    }

    #[test]
    fn memcheck_flags_undeclared_slot() {
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 128)], 0, true);
        san.check_global(3, 0, 4);
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::UndeclaredBuffer { slot: 3 }
        ));
    }

    #[test]
    fn aligncheck_only_fires_on_vectors() {
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 1024)], 0, true);
        san.check_align(0, 20, 1, 4); // scalar: any address is legal
        assert_eq!(san.violation_count, 0);
        san.check_align(0, 16, 4, 4); // vec4 f32 at 16: aligned
        assert_eq!(san.violation_count, 0);
        san.check_align(0, 20, 4, 4); // vec4 f32 at 20: misaligned
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::Misaligned {
                byte_addr: 20,
                vec_width: 4,
                elem_bytes: 4,
                ..
            }
        ));
    }

    #[test]
    fn barrier_epochs_catch_store_load_hazard() {
        let mut san = BlockSan::for_kernel(&[], 4096, true);
        san.note_smem_store(128, SmemScope::Block);
        san.note_barrier();
        san.note_smem_load(SmemScope::Block); // synced: fine
        assert_eq!(san.violation_count, 0);
        san.note_smem_store(128, SmemScope::Block);
        san.note_smem_load(SmemScope::Block); // same epoch: hazard
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::MissingBarrier { epoch: 1 }
        ));
        // Deduped within the epoch.
        san.note_smem_load(SmemScope::Block);
        assert_eq!(san.violation_count, 1);
    }

    #[test]
    fn warp_scope_and_single_warp_blocks_are_exempt() {
        let mut warp = BlockSan::for_kernel(&[], 4096, true);
        warp.note_smem_store(128, SmemScope::Warp);
        warp.note_smem_load(SmemScope::Warp);
        assert_eq!(warp.violation_count, 0);

        let mut single = BlockSan::for_kernel(&[], 4096, false);
        single.note_smem_store(128, SmemScope::Block);
        single.note_smem_load(SmemScope::Block);
        assert_eq!(single.violation_count, 0);
    }

    #[test]
    fn stage_overflow_is_per_epoch() {
        let mut san = BlockSan::for_kernel(&[], 256, true);
        san.note_smem_store(200, SmemScope::Block);
        assert_eq!(san.violation_count, 0);
        san.note_barrier();
        san.note_smem_store(200, SmemScope::Block); // new epoch: fine again
        assert_eq!(san.violation_count, 0);
        san.note_smem_store(100, SmemScope::Block); // 300 > 256 within one epoch
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::SharedStageOverflow {
                stored_bytes: 300,
                smem_bytes: 256
            }
        ));
    }

    #[test]
    fn report_caps_examples_but_counts_all() {
        let mut report = SanitizerReport::new("k".into(), 1);
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 4)], 0, true);
        for _ in 0..100 {
            san.check_global(0, 8, 4);
        }
        report.absorb_block(san);
        assert_eq!(report.violation_count, 100);
        assert!(report.violations.len() <= MAX_REPORTED);
        assert!(!report.clean());
    }

    #[test]
    fn lints_are_warnings_not_violations() {
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 1 << 20)], 0, true);
        san.note_bank_conflict(2); // mild: below threshold
        san.note_bank_conflict(16);
        san.note_uncoalesced(0, 32, 32);
        san.note_uncoalesced(0, 8, 8); // too few lanes to matter
        assert_eq!(san.violation_count, 0);
        assert_eq!(san.warning_count, 2);
        let mut report = SanitizerReport::new("k".into(), 1);
        report.absorb_block(san);
        assert!(report.clean());
        assert_eq!(report.warning_count, 2);
    }
}
