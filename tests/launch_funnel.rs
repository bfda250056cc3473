//! Every public launch entry point goes through `Gpu::run`, so every one of
//! them rejects a statically refuted launch before a block runs.
//!
//! The probe kernel **panics in `execute_block`** unless it is the clean
//! variant, so a test that reaches a block fails with the probe's own
//! message. Fallible entry points must return
//! `LaunchError::StaticallyRefuted`; panicking wrappers must panic with the
//! refutation, never with the probe's message.
//!
//! A second probe counts its cost-key builds: block dedup is a
//! profile-mode fast path, so only a profile simulation may consult it.
//!
//! A run is the thread that launches it: its books, its trace switch and
//! its lane selector are that thread's, so the counter deltas asserted here
//! are exact while the harness runs other tests beside them.

use gpu_sim::{
    lanes, metrics, trace, AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext,
    BufferBound, BufferId, BufferSpec, CheckClass, CheckLevel, CostKey, Dim3, Fleet, Gpu, Kernel,
    KeyedBlocks, LaunchCache, LaunchError, LaunchRequest, Mode, StageBound, StaticFacts,
    VectorClass,
};
use sparse::{gen, Matrix};
use sputnik::{spmm_row_sharded, SpmmConfig, SputnikError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

const FOOTPRINT: u64 = 4096;
const PROBE_PANIC: &str = "refuted probe reached execute_block";

/// A probe whose block body must never run unless `executable`.
#[derive(Clone)]
struct Refutable {
    block: Dim3,
    facts: StaticFacts,
    executable: bool,
}

impl Refutable {
    /// Statically clean on every class; its blocks may run.
    fn clean() -> Self {
        Refutable {
            block: Dim3::x(64),
            facts: StaticFacts {
                bounds: Some(vec![BufferBound {
                    slot: 0,
                    bound: AccessBound::Extent(FOOTPRINT),
                }]),
                alignment: AlignmentFacts::ScalarOnly,
                barrier: BarrierFacts::WarpSynchronous,
                stage: StageBound::Bytes(0),
            },
            executable: true,
        }
    }

    /// One probe per check class, each refuted on exactly that class.
    fn refuted() -> Vec<(CheckClass, Refutable)> {
        let bad = || Refutable {
            executable: false,
            ..Refutable::clean()
        };
        let mut bounds = bad();
        bounds.facts.bounds = Some(vec![BufferBound {
            slot: 0,
            bound: AccessBound::Extent(FOOTPRINT + 4),
        }]);
        let mut alignment = bad();
        alignment.facts.alignment = AlignmentFacts::Residues(vec![VectorClass {
            slot: 0,
            vec_width: 4,
            elem_bytes: 4,
            worst_residue: 8,
        }]);
        let mut stage = bad();
        stage.facts.stage = StageBound::Bytes(1024 + 64);
        let mut grid = bad();
        grid.block = Dim3::x(2048);
        let mut barrier = bad();
        barrier.facts.barrier = BarrierFacts::NoBarrier;
        vec![
            (CheckClass::Bounds, bounds),
            (CheckClass::Alignment, alignment),
            (CheckClass::SharedCapacity, stage),
            (CheckClass::GridOccupancy, grid),
            (CheckClass::BarrierStructure, barrier),
        ]
    }
}

impl Kernel for Refutable {
    fn name(&self) -> String {
        "refutable_probe".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(4)
    }
    fn block_dim(&self) -> Dim3 {
        self.block
    }
    fn shared_mem_bytes(&self) -> u32 {
        1024
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        vec![BufferSpec {
            id: BufferId(0),
            name: "buf",
            footprint_bytes: FOOTPRINT,
            pattern: AccessPattern::Streaming,
        }]
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        assert!(self.executable, "{PROBE_PANIC}");
        ctx.ld_global(BufferId(0), 0, 32, 1, 4);
    }
    fn static_facts(&self) -> StaticFacts {
        self.facts.clone()
    }
}

/// Every request shape the funnel accepts: mode x cached x check level.
fn requests<'r>(kernel: &'r dyn Kernel, cache: &'r LaunchCache) -> Vec<LaunchRequest<'r>> {
    let mut out = Vec::new();
    for mode in [Mode::Functional, Mode::Profile] {
        for cached in [None, Some((cache, 7))] {
            for level in [CheckLevel::Audit, CheckLevel::Sanitize] {
                out.push(LaunchRequest::new(mode, kernel).cached(cached).check(level));
            }
        }
    }
    out
}

fn assert_refuted<T: std::fmt::Debug>(
    result: Result<T, LaunchError>,
    expected: CheckClass,
    what: &str,
) {
    match result {
        Err(LaunchError::StaticallyRefuted { kernel, class, .. }) => {
            assert_eq!(kernel, "refutable_probe", "{what}");
            assert_eq!(class, expected, "{what}: wrong class");
        }
        other => panic!("{what}: expected StaticallyRefuted, got {other:?}"),
    }
}

/// Run a panicking entry point and return its panic message.
fn panic_message(f: impl FnOnce()) -> String {
    let Err(payload) = catch_unwind(AssertUnwindSafe(f)) else {
        panic!("a refuted launch must panic");
    };
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

fn assert_refutation_panic(what: &str, f: impl FnOnce()) {
    let msg = panic_message(f);
    assert!(
        msg.contains("statically refuted"),
        "{what}: panicked without the refutation: {msg}"
    );
    assert!(!msg.contains(PROBE_PANIC), "{what}: a block ran: {msg}");
}

#[test]
fn run_refutes_in_every_mode_cache_and_check_level() {
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();
    for (class, probe) in Refutable::refuted() {
        for (i, req) in requests(&probe, &cache).iter().enumerate() {
            let before = gpu_sim::metrics::global().get("dispatch_static_refuted");
            assert_refuted(gpu.run(req), class, &format!("{class:?} request #{i}"));
            assert_eq!(
                gpu_sim::metrics::global().get("dispatch_static_refuted"),
                before + 1
            );
        }
    }
    assert!(cache.is_empty(), "a refuted launch must never be cached");
}

#[test]
fn gpu_wrappers_refute() {
    let gpu = Gpu::v100();
    for (class, probe) in Refutable::refuted() {
        assert_refuted(gpu.sanitize(&probe), class, "Gpu::sanitize");
        assert_refutation_panic("Gpu::launch", || {
            gpu.launch(&probe);
        });
        assert_refutation_panic("Gpu::profile", || {
            gpu.profile(&probe);
        });
    }
}

/// The sharded entry points launch each shard through `Gpu::run`, so the
/// gate refutes an unaligned `assume_aligned` SpMM before any block runs:
/// `SpmmKernel::static_facts` scans the shard's row starts.
#[test]
fn fleet_refutes() {
    let a = gen::uniform(64, 96, 0.7, 3);
    let b = Matrix::<f32>::random(96, 32, 5);
    let cfg = SpmmConfig {
        assume_aligned: true,
        roma: false,
        vector_width: 4,
        ..SpmmConfig::default()
    };
    let before = metrics::global().get("dispatch_static_refuted");
    let got = spmm_row_sharded(&Fleet::v100(2), &LaunchCache::new(), &a, &b, cfg);
    assert!(
        matches!(&got, Err(SputnikError::StaticallyRefuted { class, .. }) if class == "alignment"),
        "expected an alignment refutation, got {:?}",
        got.map(|run| run.shard_stats)
    );
    assert_eq!(metrics::global().get("dispatch_static_refuted"), before + 1);
}

#[test]
fn clean_probe_launches_through_every_entry_point() {
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();
    let probe = Refutable::clean();
    for req in requests(&probe, &cache) {
        assert_eq!(gpu.run(&req).expect("clean launch").stats.blocks, 4);
    }
    assert_eq!(gpu.launch(&probe).blocks, 4);
    assert_eq!(gpu.profile(&probe).blocks, 4);
    let (_, report) = gpu.sanitize(&probe).expect("clean sanitize");
    assert!(report.clean(), "{report}");
}

#[test]
fn profile_hit_never_builds_the_kernel() {
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();
    let probe = Refutable::clean();
    let build = |go: &mut dyn FnMut(&dyn Kernel)| go(&probe);
    let req = LaunchRequest::profile_lazy(probe.name(), &build).cached((&cache, 11));
    let cold = gpu.run(&req).expect("cold launch");
    assert!(!cold.hit);

    let unbuildable = |_: &mut dyn FnMut(&dyn Kernel)| panic!("a cache hit built the kernel");
    let req = LaunchRequest::profile_lazy(probe.name(), &unbuildable).cached((&cache, 11));
    let warm = gpu.run(&req).expect("warm launch");
    assert!(warm.hit);
    assert_eq!(warm.stats, cold.stats);
}

/// The clean probe with a cost key that counts its builds and puts every
/// block in one class.
struct SignatureCounter {
    inner: Refutable,
    calls: AtomicU64,
}

impl SignatureCounter {
    fn new() -> Self {
        SignatureCounter {
            inner: Refutable::clean(),
            calls: AtomicU64::new(0),
        }
    }

    /// The calls made since the last `take`.
    fn take(&self) -> u64 {
        self.calls.swap(0, Ordering::Relaxed)
    }
}

impl Kernel for SignatureCounter {
    fn name(&self) -> String {
        "signature_probe".into()
    }
    fn grid(&self) -> Dim3 {
        self.inner.grid()
    }
    fn block_dim(&self) -> Dim3 {
        self.inner.block_dim()
    }
    fn shared_mem_bytes(&self) -> u32 {
        self.inner.shared_mem_bytes()
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        self.inner.buffers()
    }
    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        self.inner.execute_block(block, ctx);
    }
    fn static_facts(&self) -> StaticFacts {
        self.inner.static_facts()
    }
    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
        Some(self)
    }
}

impl CostKey for SignatureCounter {
    type Key = ();

    fn cost_key(&self, _block: Dim3, _ctx: &mut BlockContext) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn charge(&self, _key: &(), _ctx: &mut BlockContext) {}
}

#[test]
fn only_profile_launches_consult_block_signatures() {
    let gpu = Gpu::v100();
    let probe = SignatureCounter::new();
    let blocks = probe.grid().size();

    gpu.launch(&probe);
    assert_eq!(probe.take(), 0, "functional launch");
    gpu.sanitize(&probe).expect("clean sanitize");
    assert_eq!(probe.take(), 0, "sanitized launch");
    let cache = LaunchCache::new();
    let req = LaunchRequest::functional(&probe).cached((&cache, 3));
    assert!(!gpu.run(&req).expect("functional miss").hit);
    assert!(gpu.run(&req).expect("functional hit").hit);
    assert_eq!(probe.take(), 0, "functional cache miss and hit replay");

    let stats = gpu.profile(&probe);
    assert_eq!(probe.take(), blocks, "profile launch: one call per block");
    assert_eq!(stats, Gpu::v100().with_block_dedup(false).profile(&probe));
    assert_eq!(probe.take(), 0, "dedup off never consults a signature");
}

/// Launches on a spawned thread land in that thread's books and trace, and
/// the lane selector set here does not reach it.
#[test]
fn a_spawned_run_keeps_its_books_trace_and_lanes_to_itself() {
    let launches_before = metrics::global().get("launches");
    trace::enable();
    lanes::set_vectorized(false);
    let (launched, traced, their_lanes) = std::thread::scope(|s| {
        s.spawn(|| {
            let their_lanes = lanes::vectorized();
            trace::enable();
            let before = metrics::global().get("launches");
            let gpu = Gpu::v100();
            let probe = Refutable::clean();
            for _ in 0..3 {
                gpu.profile(&probe);
            }
            gpu.launch(&probe);
            let launched = metrics::global().get("launches") - before;
            (launched, trace::disable().len(), their_lanes)
        })
        .join()
        .expect("the spawned run")
    });
    lanes::set_vectorized(true);
    let mine = trace::disable();

    assert_eq!(launched, 4, "the spawned run counts its own launches");
    assert!(traced >= 4, "the spawned run traces its own launches");
    assert_eq!(
        metrics::global().get("launches"),
        launches_before,
        "another thread's launches moved this thread's counters"
    );
    let names: Vec<&str> = mine.iter().map(|e| e.name.as_str()).collect();
    assert!(
        names.is_empty(),
        "this thread's trace drained another thread's events: {names:?}"
    );
    assert!(
        their_lanes,
        "this thread's lane selector reached another thread"
    );
}
