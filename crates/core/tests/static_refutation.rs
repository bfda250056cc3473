//! Seeded-violation tests for the static launch auditor at the launch
//! funnel: one provably-bad kernel per check class, each driven through
//! [`Gpu::run`] — the one path every launch, ladder rungs included, takes —
//! and surfaced as the typed [`SputnikError`] the Sputnik APIs return.
//!
//! The probe kernel **panics in `execute_block`**, so these tests prove the
//! strongest property the auditor claims: a `Refuted` launch is rejected
//! with a typed [`SputnikError::StaticallyRefuted`] *before the simulator
//! executes a single block*. If the gate ever ran the launch first, the
//! panic would fail the test before the assertion was reached.

use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferId,
    BufferSpec, Dim3, Gpu, Kernel, LaunchRequest, LaunchStats, StageBound, StaticFacts,
    VectorClass,
};
use sputnik::SputnikError;

/// A probe whose block body must never run: each constructor seeds exactly
/// one class of statically refutable violation.
struct Refutable {
    grid: Dim3,
    block: Dim3,
    smem: u32,
    facts: StaticFacts,
    executable: bool,
}

const FOOTPRINT: u64 = 4096;

impl Refutable {
    fn clean() -> Self {
        Refutable {
            grid: Dim3::x(4),
            block: Dim3::x(64),
            smem: 1024,
            facts: StaticFacts {
                bounds: Some(vec![BufferBound {
                    slot: 0,
                    bound: AccessBound::Extent(FOOTPRINT),
                }]),
                alignment: AlignmentFacts::ScalarOnly,
                barrier: BarrierFacts::WarpSynchronous,
                stage: StageBound::Bytes(0),
            },
            executable: false,
        }
    }
}

impl Kernel for Refutable {
    fn name(&self) -> String {
        "refutable_probe".into()
    }
    fn grid(&self) -> Dim3 {
        self.grid
    }
    fn block_dim(&self) -> Dim3 {
        self.block
    }
    fn shared_mem_bytes(&self) -> u32 {
        self.smem
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
        assert!(
            self.executable,
            "a statically refuted launch reached execute_block — the \
             launch funnel ran the simulation before (or instead of) \
             rejecting it"
        );
        ctx.ld_global(BufferId(0), 0, 32, 1, 4);
    }
    fn static_facts(&self) -> StaticFacts {
        self.facts.clone()
    }
}

/// A functional launch through the funnel, as a Sputnik API sees it.
fn launch(gpu: &Gpu, probe: &Refutable) -> Result<LaunchStats, SputnikError> {
    Ok(gpu.run(&LaunchRequest::functional(probe))?.stats)
}

/// Drive the probe through the funnel and demand a refutation of the
/// expected class.
fn expect_refuted(probe: &Refutable, expected_class: &str) {
    let gpu = Gpu::v100();
    let before = gpu_sim::metrics::global().get("dispatch_static_refuted");
    match launch(&gpu, probe) {
        Err(SputnikError::StaticallyRefuted {
            kernel,
            class,
            detail,
        }) => {
            assert_eq!(kernel, "refutable_probe");
            assert_eq!(class, expected_class, "wrong class: {detail}");
            assert!(!detail.is_empty());
        }
        Err(other) => panic!("expected StaticallyRefuted, got: {other}"),
        Ok(_) => panic!("a seeded {expected_class} violation launched successfully"),
    }
    let after = gpu_sim::metrics::global().get("dispatch_static_refuted");
    assert_eq!(
        after,
        before + 1,
        "dispatch_static_refuted did not count the rejection once"
    );
}

#[test]
fn clean_probe_passes_the_gate_and_launches() {
    let mut probe = Refutable::clean();
    probe.executable = true;
    let stats = launch(&Gpu::v100(), &probe).expect("clean launch");
    assert_eq!(stats.blocks, 4);
}

#[test]
fn bounds_overrun_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    probe.facts.bounds = Some(vec![BufferBound {
        slot: 0,
        bound: AccessBound::Extent(FOOTPRINT + 4),
    }]);
    expect_refuted(&probe, "bounds");
}

#[test]
fn misaligned_vector_class_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    probe.facts.alignment = AlignmentFacts::Residues(vec![VectorClass {
        slot: 0,
        vec_width: 4,
        elem_bytes: 4,
        worst_residue: 8,
    }]);
    expect_refuted(&probe, "alignment");
}

#[test]
fn shared_stage_overflow_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    // Declares staging more bytes per barrier epoch than the block's
    // shared memory holds.
    probe.facts.stage = StageBound::Bytes(u64::from(probe.smem) + 64);
    expect_refuted(&probe, "shared_capacity");
}

#[test]
fn oversized_block_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    probe.block = Dim3::x(2048); // device max is 1024 threads per block
    expect_refuted(&probe, "grid_occupancy");
}

#[test]
fn barrier_free_multiwarp_producer_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    // Multi-warp block staging through shared memory with no barrier at
    // all: consumers can never synchronize with producers.
    probe.facts.barrier = BarrierFacts::NoBarrier;
    expect_refuted(&probe, "barrier_structure");
}
