//! Fault tolerance tour: typed errors, fault injection, and the graceful
//! degradation ladder.
//!
//! ```bash
//! cargo run --release --example fault_tolerance
//! ```

// Examples crash loudly on purpose; the workspace-wide unwrap/expect denial
// is for library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpu_sim::{FaultKind, FaultPlan, Gpu};
use sparse::{gen, Matrix};
use sputnik::{dispatch, reference, try_spmm, DispatchPolicy, SpmmConfig};

fn main() {
    let (m, k, n) = (256, 256, 64);
    let a = gen::uniform(m, k, 0.85, 7);
    let b = Matrix::<f32>::random(k, n, 11);
    let cfg = SpmmConfig::heuristic::<f32>(n);
    let expect = reference::spmm(&a, &b);

    // 1. Typed errors instead of panics: a shape mismatch comes back as a value.
    let bad_b = Matrix::<f32>::random(k + 1, n, 11);
    match try_spmm(&Gpu::v100(), &a, &bad_b, cfg) {
        Err(e) => println!("typed error     : {e}"),
        Ok(_) => unreachable!("shape mismatch must not succeed"),
    }

    // 2. Clean device: dispatch serves from the requested Sputnik config.
    let gpu = Gpu::v100();
    let policy = DispatchPolicy::default();
    let (out, report) = dispatch::spmm(&gpu, None, &a, &b, cfg, &policy).expect("clean dispatch");
    println!(
        "clean device    : served by {} (clean: {})",
        report.served_by,
        report.clean()
    );
    assert_eq!(out.as_slice(), expect.as_slice());

    // 3. Every Sputnik launch fails with an ECC error: the ladder degrades to
    //    the conservative fallback kernel and still returns bit-correct output.
    let gpu =
        Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError).matching("sputnik"));
    let (out, report) =
        dispatch::spmm(&gpu, None, &a, &b, cfg, &policy).expect("degraded dispatch");
    println!(
        "all-ECC device  : served by {} after {} failed attempts ({:.0} us backoff)",
        report.served_by,
        report.attempts.len(),
        report.backoff_us
    );
    assert_eq!(
        out.as_slice(),
        expect.as_slice(),
        "degraded result must stay bit-correct"
    );

    // 4. Silent corruption: outputs are NaN-poisoned, launches "succeed", and
    //    the post-launch guards catch it anyway.
    let gpu = Gpu::v100()
        .with_fault_plan(FaultPlan::fail_all(FaultKind::PoisonOutput).matching("sputnik"));
    let (out, report) =
        dispatch::spmm(&gpu, None, &a, &b, cfg, &policy).expect("poisoned dispatch");
    println!(
        "poisoned device : served by {} ({} corrupt outputs detected)",
        report.served_by,
        report.attempts.len()
    );
    assert_eq!(out.as_slice(), expect.as_slice());

    // 5. Transient flake: only the first launch fails; a bounded retry recovers
    //    without leaving the fast path.
    let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_first(1, FaultKind::EccError));
    let (_, report) = dispatch::spmm(&gpu, None, &a, &b, cfg, &policy).expect("retried dispatch");
    println!(
        "transient flake : served by {} after retry ({} attempt logged)",
        report.served_by,
        report.attempts.len()
    );
}
