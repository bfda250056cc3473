//! Pins the dispatch ladder's observable behaviour under seeded fault
//! plans: which rung served each item of a batched window, how many
//! attempts failed first, the simulated backoff, the output bits, and the
//! window's pipelined and naive times. The literals were recorded before
//! the SpMM and SDDMM ladders were merged into one policy, so any change
//! to retry, degradation, output checking or stream timing shows up here.

use gpu_sim::{FaultKind, FaultPlan, Gpu, LaunchCache};
use sparse::{gen, Matrix};
use sputnik::{
    dispatch, reference, DispatchPolicy, DispatchedBatch, Rung, SddmmConfig, SpmmConfig,
    SputnikError,
};

const ITEMS: u64 = 8;

/// FNV-1a over the bit patterns of a value slice.
fn bits_hash(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One item's pin: `(served_by, attempts, backoff_us, output hash)`.
/// Backoff is compared bit for bit.
type ItemPin = (Rung, usize, f64, u64);

fn pins<T>(batch: &DispatchedBatch<T>, values: impl Fn(&T) -> &[f32]) -> Vec<ItemPin> {
    batch
        .reports
        .iter()
        .zip(&batch.outputs)
        .map(|(r, out)| {
            (
                r.served_by,
                r.attempts.len(),
                r.backoff_us,
                bits_hash(values(out)),
            )
        })
        .collect()
}

fn check<T>(
    name: &str,
    batch: &DispatchedBatch<T>,
    values: impl Fn(&T) -> &[f32],
    want_items: &[ItemPin],
    want_times: (u64, u64),
) {
    let bits = |pins: &[ItemPin]| -> Vec<(Rung, usize, u64, u64)> {
        pins.iter()
            .map(|&(r, n, b, h)| (r, n, b.to_bits(), h))
            .collect()
    };
    let got_items = pins(batch, values);
    let got_times = (batch.stream_us.to_bits(), batch.naive_us.to_bits());
    assert_eq!(
        (bits(&got_items), got_times),
        (bits(want_items), want_times),
        "{name}: ladder pin moved; got {got_items:?}"
    );
}

/// An 8-item SpMM window under a seeded fault-rate plan. `n = 64` makes
/// the heuristic configuration differ from the default one, so every rung
/// of the SpMM ladder is reachable.
fn spmm_window(
    kind: FaultKind,
    seed: u64,
    rate: f64,
) -> Result<DispatchedBatch<Matrix<f32>>, SputnikError> {
    let gpu = Gpu::v100().with_fault_plan(FaultPlan::with_rate(seed, rate, kind));
    let a = gen::uniform(64, 96, 0.7, 1601);
    let bs: Vec<Matrix<f32>> = (0..ITEMS)
        .map(|i| Matrix::random(96, 64, 1610 + i))
        .collect();
    let refs: Vec<&Matrix<f32>> = bs.iter().collect();
    sputnik::spmm_batched_dispatch(
        &gpu,
        &LaunchCache::new(),
        &a,
        &refs,
        SpmmConfig::default(),
        &DispatchPolicy::default(),
    )
}

#[test]
fn spmm_window_under_seeded_device_faults_is_pinned() {
    let batch = spmm_window(FaultKind::EccError, 17, 0.8).expect("faults degrade, never error");
    check(
        "spmm ecc",
        &batch,
        |m| m.as_slice(),
        &[
            (Rung::Sputnik, 1, 50.0, 0x1a284c07b6185f82),
            (Rung::Sputnik, 1, 50.0, 0x285eb9d8cb01a86a),
            (Rung::Heuristic, 3, 100.0, 0x1ea57cb858e26ed7),
            (Rung::Heuristic, 2, 50.0, 0x2a3f36d1ca31dc98),
            (Rung::CpuReference, 6, 150.0, 0x69b5bd34643d47a3),
            (Rung::CpuReference, 6, 150.0, 0xc49b76567339e69f),
            (Rung::Fallback, 5, 150.0, 0x4ca2072f9cdb6b1e),
            (Rung::CpuReference, 6, 150.0, 0xfd662657e9c3ff62),
        ],
        (0x408acd36240a218f, 0x408b2c92135c89c1),
    );
}

#[test]
fn spmm_window_under_seeded_poisoning_is_pinned() {
    let batch = spmm_window(FaultKind::PoisonOutput, 19, 0.6).expect("faults degrade, never error");
    check(
        "spmm poison",
        &batch,
        |m| m.as_slice(),
        &[
            (Rung::Sputnik, 0, 0.0, 0x1a284c07b6185f82),
            (Rung::Sputnik, 0, 0.0, 0x285eb9d8cb01a86a),
            (Rung::Sputnik, 0, 0.0, 0x1ea57cb858e26ed7),
            (Rung::Sputnik, 0, 0.0, 0x2a3f36d1ca31dc98),
            (Rung::Fallback, 4, 100.0, 0x69b5bd34643d47a3),
            (Rung::Heuristic, 3, 100.0, 0xc49b76567339e69f),
            (Rung::Sputnik, 0, 0.0, 0x4ca2072f9cdb6b1e),
            (Rung::Heuristic, 3, 100.0, 0xfd662657e9c3ff62),
        ],
        (0x407368d187bcdd28, 0x4074b818c9da3af6),
    );
}

/// An 8-item SDDMM window. The requested configuration swizzles rows and
/// the heuristic one does not, so both per-window swizzles are used.
#[test]
fn sddmm_window_under_seeded_poisoning_is_pinned() {
    let gpu = Gpu::v100().with_fault_plan(FaultPlan::with_rate(23, 0.6, FaultKind::PoisonOutput));
    let mask = gen::attention_mask(96, 16, 0.85, 1701);
    let qs: Vec<Matrix<f32>> = (0..2 * ITEMS)
        .map(|i| Matrix::random(96, 32, 1710 + i))
        .collect();
    let pairs: Vec<(&Matrix<f32>, &Matrix<f32>)> = qs.chunks(2).map(|p| (&p[0], &p[1])).collect();
    let cfg = SddmmConfig {
        row_swizzle: true,
        ..SddmmConfig::default()
    };
    let batch = sputnik::sddmm_batched_dispatch(
        &gpu,
        &LaunchCache::new(),
        &pairs,
        &mask,
        cfg,
        &DispatchPolicy::default(),
    )
    .expect("faults degrade, never error");
    check(
        "sddmm poison",
        &batch,
        |m| m.values(),
        &[
            (Rung::Sputnik, 1, 50.0, 0x37e418abc93a3044),
            (Rung::CpuReference, 4, 100.0, 0x6c81392e0e625a0e),
            (Rung::Sputnik, 0, 0.0, 0x1e6e41b979ca5c9d),
            (Rung::Sputnik, 0, 0.0, 0xceba14df53a250f5),
            (Rung::CpuReference, 4, 100.0, 0x52dad7d1677bd58e),
            (Rung::Heuristic, 2, 50.0, 0xd82ab748d40a0f65),
            (Rung::Sputnik, 0, 0.0, 0xcfe484f5215fbc87),
            (Rung::Sputnik, 1, 50.0, 0x94d27eb9cf4d5a1f),
        ],
        (0x4076660382c65522, 0x407753adde99b2a8),
    );
}

fn sddmm_problem() -> (Matrix<f32>, Matrix<f32>, sparse::CsrMatrix<f32>) {
    let mask = gen::attention_mask(64, 8, 0.9, 1801);
    let lhs = Matrix::random(64, 32, 1802);
    let rhs = Matrix::random(64, 32, 1803);
    (lhs, rhs, mask)
}

#[test]
fn standalone_sddmm_clean_matches_the_kernel_bit_for_bit() {
    let (lhs, rhs, mask) = sddmm_problem();
    let gpu = Gpu::v100();
    let cfg = SddmmConfig::heuristic::<f32>(32);
    let (out, report) = dispatch::sddmm(
        &gpu,
        None,
        &lhs,
        &rhs,
        &mask,
        cfg,
        &DispatchPolicy::default(),
    )
    .expect("clean dispatch");
    assert!(report.clean());
    let (direct, stats) = sputnik::sddmm(&gpu, &lhs, &rhs, &mask, cfg);
    assert_eq!(report.stats, Some(stats));
    assert_eq!(out, direct);
}

#[test]
fn standalone_sddmm_under_total_failure_serves_the_cpu_reference() {
    let (lhs, rhs, mask) = sddmm_problem();
    let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError));
    let (out, report) = dispatch::sddmm(
        &gpu,
        None,
        &lhs,
        &rhs,
        &mask,
        SddmmConfig::default(),
        &DispatchPolicy::default(),
    )
    .expect("the CPU rung cannot fail");
    assert_eq!(report.served_by, Rung::CpuReference);
    assert!(report.stats.is_none());
    assert_eq!(out, reference::sddmm(&lhs, &rhs, &mask));
}
