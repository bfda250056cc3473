//! End-to-end fault-tolerance tests: injected device faults across the
//! whole stack, the dispatch degradation ladder, and the zero-overhead
//! guarantee for fault-free operation.

use gpu_sim::{FaultKind, FaultPlan, Gpu};
use sparse::{gen, Matrix};
use sputnik::dispatch::{self, DispatchPolicy, Rung};
use sputnik::{reference, try_sddmm, try_spmm, SddmmConfig, SpmmConfig, SputnikError};

fn problem(seed: u64) -> (sparse::CsrMatrix<f32>, Matrix<f32>) {
    let a = gen::uniform(48, 96, 0.7, seed);
    let b = Matrix::<f32>::random(96, 32, seed + 1);
    (a, b)
}

#[test]
fn try_spmm_surfaces_injected_faults_as_errors() {
    let (a, b) = problem(100);
    let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError));
    let err = try_spmm(&gpu, &a, &b, SpmmConfig::default()).expect_err("launch must fault");
    assert!(matches!(err, SputnikError::DeviceFault(_)));
}

#[test]
fn try_sddmm_surfaces_injected_faults_as_errors() {
    let mask = gen::uniform(24, 24, 0.6, 102);
    let lhs = Matrix::<f32>::random(24, 32, 103);
    let rhs = Matrix::<f32>::random(24, 32, 104);
    let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::LaunchTimeout));
    let err =
        try_sddmm(&gpu, &lhs, &rhs, &mask, SddmmConfig::default()).expect_err("launch must fault");
    assert!(matches!(err, SputnikError::DeviceFault(_)));
    // Same device, no plan: succeeds and matches the reference.
    let gpu = Gpu::v100();
    let (d, _) = try_sddmm(&gpu, &lhs, &rhs, &mask, SddmmConfig::default()).expect("clean launch");
    let expect = reference::sddmm(&lhs, &rhs, &mask);
    for (got, want) in d.values().iter().zip(expect.values()) {
        assert!((got - want).abs() < 1e-3);
    }
}

/// The headline acceptance criterion: with a plan failing 100% of Sputnik
/// launches, dispatch still returns bit-correct results via the fallback
/// kernel (whose name a sputnik-filtered plan does not match).
#[test]
fn dispatch_survives_total_sputnik_failure_bit_correct() {
    let (a, b) = problem(200);
    let gpu =
        Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError).matching("sputnik"));
    let (out, report) = dispatch::spmm(
        &gpu,
        None,
        &a,
        &b,
        SpmmConfig::default(),
        &DispatchPolicy::default(),
    )
    .expect("dispatch must not fail");
    assert_eq!(report.served_by, Rung::Fallback);
    assert!(
        !report.attempts.is_empty(),
        "the failed sputnik attempts are recorded"
    );
    assert!(
        report.backoff_us > 0.0,
        "transient faults trigger retries with backoff"
    );
    let expect = reference::spmm(&a, &b);
    assert_eq!(
        out.as_slice(),
        expect.as_slice(),
        "bit-identical to the CPU reference"
    );
}

/// When every launch faults — fallback included — the ladder bottoms out at
/// host execution and the result is still bit-correct.
#[test]
fn dispatch_survives_total_device_failure_via_cpu() {
    let (a, b) = problem(300);
    let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError));
    let (out, report) = dispatch::spmm(
        &gpu,
        None,
        &a,
        &b,
        SpmmConfig::default(),
        &DispatchPolicy::default(),
    )
    .expect("dispatch must not fail");
    assert_eq!(report.served_by, Rung::CpuReference);
    assert!(report.stats.is_none(), "no launch served this call");
    let expect = reference::spmm(&a, &b);
    assert_eq!(out.as_slice(), expect.as_slice());
}

/// Silent corruption: the launch "succeeds" but the output is poisoned.
/// The NaN/Inf guard must detect it and degrade.
#[test]
fn dispatch_detects_poisoned_output() {
    let (a, b) = problem(400);
    let gpu = Gpu::v100()
        .with_fault_plan(FaultPlan::fail_all(FaultKind::PoisonOutput).matching("sputnik"));
    let (out, report) = dispatch::spmm(
        &gpu,
        None,
        &a,
        &b,
        SpmmConfig::default(),
        &DispatchPolicy::default(),
    )
    .expect("dispatch must not fail");
    assert_eq!(report.served_by, Rung::Fallback);
    assert!(report
        .attempts
        .iter()
        .all(|at| matches!(at.error, SputnikError::CorruptOutput { .. })));
    let expect = reference::spmm(&a, &b);
    assert_eq!(out.as_slice(), expect.as_slice());
    assert!(out.as_slice().iter().all(|v| v.is_finite()));
}

/// Transient faults that clear (fail-first-N) are absorbed by same-rung
/// retries: the requested configuration still serves.
#[test]
fn transient_fault_recovered_by_retry() {
    let (a, b) = problem(600);
    let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_first(1, FaultKind::EccError));
    let (out, report) = dispatch::spmm(
        &gpu,
        None,
        &a,
        &b,
        SpmmConfig::default(),
        &DispatchPolicy::default(),
    )
    .expect("dispatch must not fail");
    assert_eq!(
        report.served_by,
        Rung::Sputnik,
        "retry on the same rung succeeds"
    );
    assert_eq!(report.attempts.len(), 1);
    assert!(report.backoff_us > 0.0);
    let expect = reference::spmm(&a, &b);
    assert!(out.max_abs_diff(&expect) < 1e-3);
}

/// Fault-rate plans are deterministic per seed: two identical runs degrade
/// identically.
#[test]
fn rate_plans_replay_deterministically() {
    let (a, b) = problem(700);
    let run = || {
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::with_rate(9, 0.8, FaultKind::EccError));
        let mut rungs = Vec::new();
        for _ in 0..6 {
            let (_, report) = dispatch::spmm(
                &gpu,
                None,
                &a,
                &b,
                SpmmConfig::default(),
                &DispatchPolicy::default(),
            )
            .expect("dispatch must not fail");
            rungs.push(report.served_by);
        }
        rungs
    };
    assert_eq!(run(), run(), "same seed, same degradation schedule");
}

/// The zero-overhead guarantee: with an empty fault plan, dispatch produces
/// simulated LaunchStats identical to a direct spmm call — the guards run on
/// the host and never perturb the simulation.
#[test]
fn empty_fault_plan_changes_nothing() {
    let (a, b) = problem(800);
    let plain_gpu = Gpu::v100();
    let (direct_out, direct_stats) = sputnik::spmm(&plain_gpu, &a, &b, SpmmConfig::default());

    let guarded_gpu = Gpu::v100().with_fault_plan(FaultPlan::none());
    let (out, report) = dispatch::spmm(
        &guarded_gpu,
        None,
        &a,
        &b,
        SpmmConfig::default(),
        &DispatchPolicy::default(),
    )
    .expect("dispatch must not fail");
    assert!(report.clean());
    let stats = report.stats.expect("served by a launch");

    assert_eq!(out.as_slice(), direct_out.as_slice());
    assert_eq!(stats.kernel, direct_stats.kernel);
    assert_eq!(stats.time_us, direct_stats.time_us);
    assert_eq!(stats.instructions, direct_stats.instructions);
    assert_eq!(stats.flops, direct_stats.flops);
    assert_eq!(stats.dram_bytes, direct_stats.dram_bytes);
    assert_eq!(stats.blocks, direct_stats.blocks);
    assert_eq!(stats.makespan_cycles, direct_stats.makespan_cycles);

    let plan = guarded_gpu.fault_plan().expect("plan attached");
    assert!(plan.launches_observed() > 0);
    assert_eq!(plan.faults_injected(), 0);
}

/// Mixed precision rides the same ladder.
#[test]
fn dispatch_handles_half_precision_under_faults() {
    use sparse::Half;
    let a = gen::uniform(24, 48, 0.6, 900).convert::<Half>();
    let mut b = Matrix::<Half>::zeros(48, 32);
    let b32 = Matrix::<f32>::random(48, 32, 901);
    for r in 0..48 {
        for c in 0..32 {
            b.set(r, c, Half::from_f32(b32.get(r, c)));
        }
    }
    let gpu =
        Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError).matching("sputnik"));
    let (out, report) = dispatch::spmm(
        &gpu,
        None,
        &a,
        &b,
        SpmmConfig::heuristic::<Half>(32),
        &DispatchPolicy::default(),
    )
    .expect("dispatch must not fail");
    assert_eq!(report.served_by, Rung::Fallback);
    let expect = reference::spmm(&a.convert::<f32>(), &b.to_f32());
    for (got, want) in out.as_slice().iter().zip(expect.as_slice()) {
        assert!((got.to_f32() - want).abs() <= want.abs() * 0.01 + 0.05);
    }
}

/// A fused ReLU epilogue exists only on the Sputnik rung, so a degraded
/// call would silently drop it (negative outputs from the fallback kernel).
/// Dispatch rejects the configuration before any rung runs.
#[test]
fn dispatch_rejects_fused_epilogue() {
    let (a, b) = problem(200);
    let gpu =
        Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError).matching("sputnik"));
    let cfg = SpmmConfig {
        fused_bias_relu: true,
        ..SpmmConfig::default()
    };
    let err = dispatch::spmm(&gpu, None, &a, &b, cfg, &DispatchPolicy::default())
        .expect_err("no rung below Sputnik applies the epilogue");
    assert!(matches!(err, SputnikError::IllegalConfig { .. }));
    assert_eq!(
        gpu.fault_plan().map(FaultPlan::launches_observed),
        Some(0),
        "rejected before any launch"
    );
}

/// SDDMM's `scale_by_mask` is likewise applied by the Sputnik rung only.
#[test]
fn dispatch_rejects_sddmm_scale_by_mask() {
    let mask = gen::uniform(24, 24, 0.6, 210);
    let lhs = Matrix::<f32>::random(24, 32, 211);
    let rhs = Matrix::<f32>::random(24, 32, 212);
    let cfg = SddmmConfig {
        scale_by_mask: true,
        ..SddmmConfig::default()
    };
    let err = dispatch::sddmm(
        &Gpu::v100(),
        None,
        &lhs,
        &rhs,
        &mask,
        cfg,
        &DispatchPolicy::default(),
    )
    .expect_err("no rung below Sputnik scales by the mask");
    assert!(matches!(err, SputnikError::IllegalConfig { .. }));
}
