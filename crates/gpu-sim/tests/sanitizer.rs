//! Integration tests for the kernel sanitizer: seed each class of violation
//! in a deliberately broken kernel and assert the sanitizer reports exactly
//! that violation — and that well-behaved kernels come back clean.

use gpu_sim::{
    AccessPattern, BlockContext, BufferId, BufferSpec, CheckLevel, CostKey, Dim3, Gpu, Kernel,
    KeyedBlocks, LaunchCache, LaunchRequest, LaunchStats, LaunchSummary, OutputSlice,
    SanitizerReport, SanitizerViolation, SanitizerWarning, SmemScope,
};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Barrier;
use std::time::Duration;

const BUF: BufferId = BufferId(0);

/// A sanitized functional launch memoized in `cache` under `fingerprint`:
/// the stats, the report, and whether the cache served them.
fn sanitize_cached(
    gpu: &Gpu,
    cache: &LaunchCache,
    fingerprint: u64,
    kernel: &dyn Kernel,
) -> (LaunchStats, SanitizerReport, bool) {
    let req = LaunchRequest::functional(kernel)
        .cached((cache, fingerprint))
        .check(CheckLevel::Sanitize);
    let launched = gpu.run(&req).unwrap_or_else(|e| panic!("{e}"));
    let report = launched.report.unwrap_or_default();
    (launched.stats, report, launched.hit)
}

fn buffer(footprint_bytes: u64) -> Vec<BufferSpec> {
    vec![BufferSpec {
        id: BUF,
        name: "out",
        footprint_bytes,
        pattern: AccessPattern::Streaming,
    }]
}

/// Writes one element past the end of its output slice.
struct OobWriteKernel<'a> {
    out: OutputSlice<'a, f32>,
}

impl Kernel for OobWriteKernel<'_> {
    fn name(&self) -> String {
        "seeded_oob_write".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(8 * 4)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.misc(1);
        if ctx.functional() {
            self.out.write(8, 1.0); // one past the end
        }
    }
}

#[test]
fn oob_slice_write_is_reported() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 8];
    let kernel = OobWriteKernel {
        out: OutputSlice::new(&mut data),
    };
    let (_, report) = gpu.sanitize(&kernel).unwrap();
    assert_eq!(report.violation_count, 1);
    assert_eq!(
        report.violations[0],
        SanitizerViolation::OutOfBoundsWrite { index: 8, len: 8 }
    );
    // The sanitizer suppressed the write, so the buffer is untouched.
    assert!(data.iter().all(|&v| v == 0.0));
}

#[test]
#[should_panic(expected = "out of bounds")]
fn oob_slice_write_panics_outside_sanitize_mode() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 8];
    let kernel = OobWriteKernel {
        out: OutputSlice::new(&mut data),
    };
    let _ = gpu.launch(&kernel);
}

/// Writes one element past the end of its output slice, then parks its
/// block on `gate` twice: once to signal that the sanitize session is
/// live, once to wait for the other thread's launch to finish.
struct ParkedOobKernel<'a> {
    out: OutputSlice<'a, f32>,
    gate: &'a Barrier,
}

impl Kernel for ParkedOobKernel<'_> {
    fn name(&self) -> String {
        "seeded_parked_oob_write".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(8 * 4)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.misc(1);
        if ctx.functional() {
            self.out.write(8, 1.0);
            self.gate.wait();
            self.gate.wait();
        }
    }
}

/// A sanitize session on one thread must not absorb an out-of-bounds write
/// from an unsanitized launch on another: that launch still panics, and the
/// session reports only its own violation.
#[test]
fn sanitize_session_does_not_absorb_another_threads_oob_write() {
    let gpu = Gpu::v100();
    let gate = Barrier::new(2);
    let mut parked_data = vec![0.0f32; 8];
    let mut plain_data = vec![0.0f32; 8];
    let plain = OobWriteKernel {
        out: OutputSlice::new(&mut plain_data),
    };
    let (report, plain_panicked) = std::thread::scope(|s| {
        // A kernel holds `OutputSlice`s, which are not `Sync`: each thread
        // builds its own.
        let session = s.spawn(|| {
            let parked = ParkedOobKernel {
                out: OutputSlice::new(&mut parked_data),
                gate: &gate,
            };
            gpu.sanitize(&parked).unwrap()
        });
        gate.wait();
        let plain_panicked =
            std::panic::catch_unwind(AssertUnwindSafe(|| gpu.launch(&plain))).is_err();
        gate.wait();
        (session.join().unwrap().1, plain_panicked)
    });
    assert!(plain_panicked, "the unsanitized OOB write must panic");
    assert_eq!(report.violation_count, 1);
}

/// Writes one element past the end of its output slice, tells the test its
/// block is running, then waits up to 2 s for `done`.
struct WaitingOobKernel<'a> {
    out: OutputSlice<'a, f32>,
    running: Sender<()>,
    done: Receiver<()>,
    /// Whether `done` arrived before the timeout.
    saw_done: AtomicBool,
}

impl Kernel for WaitingOobKernel<'_> {
    fn name(&self) -> String {
        "seeded_waiting_oob_write".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(8 * 4)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.misc(1);
        if ctx.functional() {
            self.out.write(8, 1.0);
            let _ = self.running.send(());
            let saw_done = self.done.recv_timeout(Duration::from_secs(2)).is_ok();
            self.saw_done.store(saw_done, Ordering::Relaxed);
        }
    }
}

/// Sanitized launches on two threads run side by side: the second finishes
/// while the first is still inside its block, and each report holds
/// exactly its own violation.
#[test]
fn sanitized_launches_overlap() {
    let gpu = Gpu::v100();
    let (running_tx, running_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let mut waiting_data = vec![0.0f32; 8];
    let mut plain_data = vec![0.0f32; 8];
    let ((a, saw_done), b) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let waiting = WaitingOobKernel {
                out: OutputSlice::new(&mut waiting_data),
                running: running_tx,
                done: done_rx,
                saw_done: AtomicBool::new(false),
            };
            let report = gpu.sanitize(&waiting).unwrap().1;
            (report, waiting.saw_done)
        });
        running_rx.recv().unwrap();
        let b = s.spawn(|| {
            let plain = OobWriteKernel {
                out: OutputSlice::new(&mut plain_data),
            };
            let report = gpu.sanitize(&plain).unwrap().1;
            done_tx.send(()).unwrap();
            report
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(
        saw_done.load(Ordering::Relaxed),
        "the second sanitized launch waited for the first to finish"
    );
    for (report, kernel) in [(&a, "seeded_waiting_oob_write"), (&b, "seeded_oob_write")] {
        assert_eq!(report.kernel, kernel);
        assert_eq!(report.violation_count, 1, "{report}");
        assert_eq!(
            report.violations,
            vec![SanitizerViolation::OutOfBoundsWrite { index: 8, len: 8 }]
        );
    }
}

/// Panics inside its block.
struct PanickingKernel;

impl Kernel for PanickingKernel {
    fn name(&self) -> String {
        "seeded_panic".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(8 * 4)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.misc(1);
        if ctx.functional() {
            panic!("seeded block panic");
        }
    }
}

/// A block that panics under the sanitizer leaves its thread untagged: a
/// later unsanitized out-of-bounds write on the same thread still panics
/// instead of feeding the dead session.
#[test]
fn panicking_sanitized_block_leaves_its_thread_untagged() {
    let gpu = Gpu::v100();
    let sanitized = std::panic::catch_unwind(AssertUnwindSafe(|| gpu.sanitize(&PanickingKernel)));
    assert!(sanitized.is_err(), "the seeded panic must propagate");

    let mut data = vec![0.0f32; 8];
    let kernel = OobWriteKernel {
        out: OutputSlice::new(&mut data),
    };
    let plain = std::panic::catch_unwind(AssertUnwindSafe(|| gpu.launch(&kernel)));
    assert!(plain.is_err(), "the unsanitized OOB write must panic");
}

/// Two blocks both write output index 0: a cross-block race unless the
/// kernel declares atomic accumulation.
struct OverlapKernel<'a> {
    out: OutputSlice<'a, f32>,
    atomic: bool,
}

impl Kernel for OverlapKernel<'_> {
    fn name(&self) -> String {
        "seeded_overlap".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(2)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(4 * 4)
    }
    fn atomic_output(&self) -> bool {
        self.atomic
    }
    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        ctx.st_global_trace(BUF, 0, 4);
        if ctx.functional() {
            self.out.write(0, block.x as f32);
        }
    }
}

#[test]
fn cross_block_race_is_reported() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 4];
    let kernel = OverlapKernel {
        out: OutputSlice::new(&mut data),
        atomic: false,
    };
    let (_, report) = gpu.sanitize(&kernel).unwrap();
    assert_eq!(report.violation_count, 1);
    assert!(
        matches!(
            report.violations[0],
            SanitizerViolation::CrossBlockRace { index: 0, .. }
        ),
        "expected a race at index 0, got {:?}",
        report.violations[0]
    );
}

/// Block `b` stores the run `[10 b + 1, 10 b + 2, ..]` of `len` values at
/// `starts[b]`: through one `write_run`, or through a per-element `write`
/// loop (its twin).
struct RunKernel<'a> {
    out: OutputSlice<'a, f32>,
    starts: Vec<usize>,
    len: usize,
    per_element: bool,
}

impl RunKernel<'_> {
    fn value(block: usize, x: usize) -> f32 {
        (10 * block + x + 1) as f32
    }
}

impl Kernel for RunKernel<'_> {
    fn name(&self) -> String {
        "seeded_runs".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(self.starts.len() as u32)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(self.out.len() as u64 * 4)
    }
    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        ctx.misc(1);
        if ctx.functional() {
            let b = block.x as usize;
            let start = self.starts[b];
            if self.per_element {
                for x in 0..self.len {
                    self.out.write(start + x, RunKernel::value(b, x));
                }
            } else {
                let run = (0..self.len).map(|x| RunKernel::value(b, x));
                self.out.write_run(start, run);
            }
        }
    }
}

/// Launch a `RunKernel` over a fresh zeroed buffer of `buf_len`, sanitized
/// or not: the report (`None` unsanitized), whether the launch panicked
/// (and its message), and the buffer afterwards.
fn run_kernel(
    buf_len: usize,
    starts: &[usize],
    len: usize,
    per_element: bool,
    sanitized: bool,
) -> (Option<SanitizerReport>, Option<String>, Vec<f32>) {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; buf_len];
    let kernel = RunKernel {
        out: OutputSlice::new(&mut data),
        starts: starts.to_vec(),
        len,
        per_element,
    };
    let launched = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if sanitized {
            Some(gpu.sanitize(&kernel).unwrap_or_else(|e| panic!("{e}")).1)
        } else {
            gpu.launch(&kernel);
            None
        }
    }));
    drop(kernel);
    match launched {
        Ok(report) => (report, None, data),
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            (None, Some(message), data)
        }
    }
}

/// Blocks whose runs overlap race on the shared indices: `write_run`
/// under the sanitizer claims, reports and skips exactly what its
/// per-element twin does.
#[test]
fn overlapping_runs_report_the_same_races_as_per_element_writes() {
    let (starts, len) = ([0, 5, 2], 6);
    let (run_report, run_panic, run_data) = run_kernel(16, &starts, len, false, true);
    let (twin_report, twin_panic, twin_data) = run_kernel(16, &starts, len, true, true);
    assert!(run_panic.is_none() && twin_panic.is_none());
    let (run_report, twin_report) = (run_report.unwrap(), twin_report.unwrap());
    assert!(run_report.violation_count > 0, "{run_report}");
    assert!(run_report
        .violations
        .iter()
        .all(|v| matches!(v, SanitizerViolation::CrossBlockRace { .. })));
    assert_eq!(run_report.violation_count, twin_report.violation_count);
    assert_eq!(run_report.violations, twin_report.violations);
    assert_eq!(run_data, twin_data);
}

/// A run past the end of the slice: under the sanitizer it reports one
/// `OutOfBoundsWrite` per index past the end and writes the in-bounds
/// prefix, like its twin; unsanitized it panics at the first index past
/// the end after writing the same prefix.
#[test]
fn a_run_past_the_end_matches_per_element_writes() {
    let (starts, len) = ([6], 4);
    let (run_report, _, run_data) = run_kernel(8, &starts, len, false, true);
    let (twin_report, _, twin_data) = run_kernel(8, &starts, len, true, true);
    let (run_report, twin_report) = (run_report.unwrap(), twin_report.unwrap());
    assert_eq!(
        run_report.violations,
        vec![
            SanitizerViolation::OutOfBoundsWrite { index: 8, len: 8 },
            SanitizerViolation::OutOfBoundsWrite { index: 9, len: 8 },
        ]
    );
    assert_eq!(run_report.violations, twin_report.violations);
    assert_eq!(run_data, twin_data);
    assert_eq!(&run_data[6..], &[1.0, 2.0]);

    let (_, run_panic, run_data) = run_kernel(8, &starts, len, false, false);
    let (_, twin_panic, twin_data) = run_kernel(8, &starts, len, true, false);
    let run_panic = run_panic.expect("an unsanitized run past the end panics");
    assert!(run_panic.contains("index 8 >= len 8"), "{run_panic}");
    assert_eq!(Some(run_panic), twin_panic);
    assert_eq!(run_data, twin_data);
    assert_eq!(&run_data[6..], &[1.0, 2.0]);
}

/// In bounds and unsanitized, a run stores every value in place.
#[test]
fn an_in_bounds_run_stores_every_value() {
    let (report, panic, data) = run_kernel(12, &[0, 4, 8], 4, false, false);
    assert!(report.is_none() && panic.is_none());
    let want: Vec<f32> = (0..3)
        .flat_map(|b| (0..4).map(move |x| RunKernel::value(b, x)))
        .collect();
    assert_eq!(data, want);
}

#[test]
fn atomic_kernels_are_exempt_from_racecheck() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 4];
    let kernel = OverlapKernel {
        out: OutputSlice::new(&mut data),
        atomic: true,
    };
    let (_, report) = gpu.sanitize(&kernel).unwrap();
    assert_eq!(
        report.violation_count, 0,
        "atomic overlap must not be flagged: {report}"
    );
}

/// Issues a vec4 load from byte address 4 — not 16-byte aligned.
struct MisalignedKernel;

impl Kernel for MisalignedKernel {
    fn name(&self) -> String {
        "seeded_misaligned_vec4".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(1024)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.ld_global(BUF, 4, 32, 4, 4);
    }
}

#[test]
fn misaligned_vector_access_is_reported() {
    let gpu = Gpu::v100();
    let (_, report) = gpu.sanitize(&MisalignedKernel).unwrap();
    assert_eq!(report.violation_count, 1);
    assert_eq!(
        report.violations[0],
        SanitizerViolation::Misaligned {
            buffer: "out",
            byte_addr: 4,
            vec_width: 4,
            elem_bytes: 4
        }
    );
}

/// A keyed kernel: its key builder reads `64` bytes at `byte_addr` of a
/// 128-byte buffer as a `vec_width`-wide access, and its `charge` records
/// only the sector count. The key builder is the only place the address
/// exists, so that is where the sanitizer must see it.
struct KeyedProbe {
    byte_addr: u64,
    vec_width: u32,
}

impl CostKey for KeyedProbe {
    type Key = u64;

    fn cost_key(&self, _block: Dim3, ctx: &mut BlockContext) -> u64 {
        ctx.sectors(BUF, self.byte_addr, 64, self.vec_width, 4)
    }

    fn charge(&self, sectors: &u64, ctx: &mut BlockContext) {
        ctx.ld_sectors(BUF, 1, *sectors);
    }
}

impl Kernel for KeyedProbe {
    fn name(&self) -> String {
        "seeded_keyed_probe".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(128)
    }
    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        if ctx.recording() {
            self.charge_block(block, ctx);
        }
    }
    fn keyed(&self) -> Option<&dyn KeyedBlocks> {
        Some(self)
    }
}

#[test]
fn keyed_kernels_are_checked_where_their_keys_are_built() {
    let gpu = Gpu::v100();
    let past_the_end = KeyedProbe {
        byte_addr: 96,
        vec_width: 1,
    };
    let (_, report) = gpu.sanitize(&past_the_end).unwrap();
    assert_eq!(report.violation_count, 1, "{report}");
    assert_eq!(
        report.violations[0],
        SanitizerViolation::GlobalOutOfBounds {
            buffer: "out",
            byte_addr: 96,
            bytes: 64,
            footprint: 128,
        }
    );

    let misaligned = KeyedProbe {
        byte_addr: 4,
        vec_width: 4,
    };
    let (_, report) = gpu.sanitize(&misaligned).unwrap();
    assert_eq!(report.violation_count, 1, "{report}");
    assert_eq!(
        report.violations[0],
        SanitizerViolation::Misaligned {
            buffer: "out",
            byte_addr: 4,
            vec_width: 4,
            elem_bytes: 4
        }
    );

    let clean = KeyedProbe {
        byte_addr: 64,
        vec_width: 4,
    };
    let (_, report) = gpu.sanitize(&clean).unwrap();
    assert!(report.clean(), "{report}");
}

/// Multi-warp block stores to shared memory and reads it back with no
/// `bar_sync` in between. With `barrier: true` the kernel is correct.
struct SmemKernel {
    barrier: bool,
}

impl Kernel for SmemKernel {
    fn name(&self) -> String {
        "seeded_smem_raw".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(64) // two warps: cross-warp visibility needs the barrier
    }
    fn shared_mem_bytes(&self) -> u32 {
        1024
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(1024)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.smem_store(2, 256, SmemScope::Block);
        if self.barrier {
            ctx.bar_sync();
        }
        ctx.smem_load(2, 256, SmemScope::Block);
    }
}

#[test]
fn missing_barrier_is_reported() {
    let gpu = Gpu::v100();
    let (_, report) = gpu.sanitize(&SmemKernel { barrier: false }).unwrap();
    assert_eq!(report.violation_count, 1);
    assert_eq!(
        report.violations[0],
        SanitizerViolation::MissingBarrier { epoch: 0 }
    );
}

#[test]
fn barriered_smem_roundtrip_is_clean() {
    let gpu = Gpu::v100();
    let (_, report) = gpu.sanitize(&SmemKernel { barrier: true }).unwrap();
    assert_eq!(report.violation_count, 0, "{report}");
}

/// Stores past the declared footprint of its global buffer.
struct GlobalOobKernel;

impl Kernel for GlobalOobKernel {
    fn name(&self) -> String {
        "seeded_global_oob".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(64)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.st_global_trace(BUF, 32, 64); // [32, 96) overruns the 64-byte buffer
    }
}

#[test]
fn global_footprint_overrun_is_reported() {
    let gpu = Gpu::v100();
    let (_, report) = gpu.sanitize(&GlobalOobKernel).unwrap();
    assert_eq!(report.violation_count, 1);
    assert_eq!(
        report.violations[0],
        SanitizerViolation::GlobalOutOfBounds {
            buffer: "out",
            byte_addr: 32,
            bytes: 64,
            footprint: 64,
        }
    );
}

/// Heavily bank-conflicted shared loads: a lint warning, not a violation.
struct BankConflictKernel;

impl Kernel for BankConflictKernel {
    fn name(&self) -> String {
        "seeded_bank_conflict".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn shared_mem_bytes(&self) -> u32 {
        4096
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(4096)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.st_shared(32, 1, 4, 1);
        ctx.bar_sync();
        ctx.ld_shared(32, 1, 4, 16); // 16-way conflict
    }
}

#[test]
fn bank_conflicts_warn_but_do_not_fail() {
    let gpu = Gpu::v100();
    let (_, report) = gpu.sanitize(&BankConflictKernel).unwrap();
    assert_eq!(report.violation_count, 0);
    assert_eq!(report.warning_count, 1);
    assert_eq!(
        report.warnings[0],
        SanitizerWarning::BankConflict { ways: 16 }
    );
}

/// A well-behaved kernel: coalesced IO, barriers where needed, in-bounds
/// writes partitioned across blocks.
struct CleanKernel<'a> {
    out: OutputSlice<'a, f32>,
}

impl Kernel for CleanKernel<'_> {
    fn name(&self) -> String {
        "clean_kernel".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(4)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(64)
    }
    fn shared_mem_bytes(&self) -> u32 {
        256
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(4 * 64 * 4)
    }
    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let base = block.x as usize * 64;
        ctx.smem_store(2, 256, SmemScope::Block);
        ctx.bar_sync();
        ctx.smem_load(2, 256, SmemScope::Block);
        ctx.st_global_trace(BUF, base as u64 * 4, 64 * 4);
        if ctx.functional() {
            for i in 0..64 {
                self.out.write(base + i, i as f32);
            }
        }
    }
}

#[test]
fn clean_kernel_reports_nothing_and_still_computes() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 256];
    let kernel = CleanKernel {
        out: OutputSlice::new(&mut data),
    };
    let (stats, report) = gpu.sanitize(&kernel).unwrap();
    assert_eq!(report.violation_count, 0, "{report}");
    assert_eq!(report.warning_count, 0);
    assert_eq!(report.blocks, 4);
    assert!(stats.time_us > 0.0);
    assert_eq!(data[65], 1.0); // functional output still produced
}

#[test]
fn sanitized_stats_match_plain_launch() {
    // Sanitizing must not perturb the cost model: same kernel, same stats.
    let gpu = Gpu::v100();
    let mut a = vec![0.0f32; 256];
    let plain = {
        let kernel = CleanKernel {
            out: OutputSlice::new(&mut a),
        };
        gpu.launch(&kernel)
    };
    let mut b = vec![0.0f32; 256];
    let kernel = CleanKernel {
        out: OutputSlice::new(&mut b),
    };
    let (sanitized, _) = gpu.sanitize(&kernel).unwrap();
    assert_eq!(plain.time_us, sanitized.time_us);
    assert_eq!(plain.instructions, sanitized.instructions);
    assert_eq!(plain.dram_bytes, sanitized.dram_bytes);
}

#[test]
fn launch_summary_accumulates_sanitizer_counts() {
    let gpu = Gpu::v100();
    let mut summary = LaunchSummary::default();

    let mut data = vec![0.0f32; 4];
    let kernel = OverlapKernel {
        out: OutputSlice::new(&mut data),
        atomic: false,
    };
    let (stats, report) = gpu.sanitize(&kernel).unwrap();
    summary.add_sanitized(&stats, &report);

    let (stats, report) = gpu.sanitize(&BankConflictKernel).unwrap();
    summary.add_sanitized(&stats, &report);

    assert_eq!(summary.launches, 2);
    assert_eq!(summary.violations, 1);
    assert_eq!(summary.warnings, 1);
}

#[test]
fn sanitize_cached_skips_resanitizing_identical_fingerprints() {
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();
    let fingerprint = 0xF00D;

    let mut a = vec![0.0f32; 256];
    let (cold_stats, cold_report, hit) = {
        let kernel = CleanKernel {
            out: OutputSlice::new(&mut a),
        };
        sanitize_cached(&gpu, &cache, fingerprint, &kernel)
    };
    assert!(!hit, "first sight of the fingerprint cannot be a cache hit");
    assert_eq!(a[65], 1.0);

    // Same kernel shape, same fingerprint: the whole dynamic pass is
    // skipped, the memoized report replays, the output is still computed,
    // and the skip is counted.
    let skips_before = gpu_sim::metrics::global().get("sanitizer_skips");
    let mut b = vec![0.0f32; 256];
    let (warm_stats, warm_report, hit) = {
        let kernel = CleanKernel {
            out: OutputSlice::new(&mut b),
        };
        sanitize_cached(&gpu, &cache, fingerprint, &kernel)
    };
    assert!(
        hit,
        "fingerprint-identical relaunch must serve from the cache"
    );
    assert_eq!(
        b[65], 1.0,
        "cache hits must still produce functional output"
    );
    assert_eq!(warm_stats.time_us, cold_stats.time_us);
    assert_eq!(warm_report.violation_count, cold_report.violation_count);
    assert_eq!(warm_report.warning_count, cold_report.warning_count);
    assert_eq!(
        gpu_sim::metrics::global().get("sanitizer_skips"),
        skips_before + 1,
        "the skip must be counted in the metrics registry"
    );
}

#[test]
fn sanitize_cached_distinguishes_fingerprints() {
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();

    let mut a = vec![0.0f32; 256];
    let kernel = CleanKernel {
        out: OutputSlice::new(&mut a),
    };
    let (_, _, hit) = sanitize_cached(&gpu, &cache, 1, &kernel);
    assert!(!hit);
    // A different operand fingerprint is a different launch: no false hit.
    let (_, _, hit) = sanitize_cached(&gpu, &cache, 2, &kernel);
    assert!(
        !hit,
        "distinct fingerprints must not share sanitize entries"
    );
    let (_, _, hit) = sanitize_cached(&gpu, &cache, 1, &kernel);
    assert!(hit);
}

#[test]
fn sanitize_cached_replays_violations_from_the_cache() {
    // A violating kernel's memoized report must keep reporting the
    // violation on hits — the cache cannot launder a bad kernel.
    // (GlobalOobKernel violates through its cost trace, so the hit's
    // functional replay is safe to run.)
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();

    let (_, cold_report, hit) = sanitize_cached(&gpu, &cache, 9, &GlobalOobKernel);
    assert!(!hit);
    assert_eq!(cold_report.violation_count, 1);

    let (_, report, hit) = sanitize_cached(&gpu, &cache, 9, &GlobalOobKernel);
    assert!(hit);
    assert_eq!(report.violation_count, 1);
    assert_eq!(report.violations, cold_report.violations);
}
