//! Run every registered kernel under the sanitizer and fail if any kernel
//! reports a violation.
//!
//! This is the repo's analogue of running the whole kernel suite under
//! `compute-sanitizer`: racecheck, memcheck, aligncheck, and the coalescing /
//! bank-conflict lints all execute against real launches of every Sputnik
//! kernel and every baseline. The kernel/launch inventory lives in
//! [`sputnik_bench::registry`] — the same list `static_audit` proves
//! verdicts over, so the two CI gates cannot cover different kernel sets.
//!
//! Every launch goes through `Gpu::run` at `CheckLevel::Sanitize`: the
//! static audit (a refuted launch fails the run) plus the sanitizer with
//! every dynamic check armed. Two passes:
//!
//! 1. **Cold pass** (empty cache): every kernel is sanitized; its
//!    violations gate CI.
//! 2. **Warm replay pass** (same cache, now hot): every launch must be
//!    served from the cache, replaying the memoized report, and the pass
//!    must beat the cold pass's wall time — the saving the sanitize cache
//!    exists for, asserted on every CI run.
//!
//! Lint warnings are reported but do not fail the run; violations and
//! disagreements do (`exit(1)`), which is what the CI gate keys on.

// Wall-timing bin: reading the host clock is the whole point here, and is
// exactly what `clippy.toml` bans inside simulated-clock code.
#![allow(clippy::disallowed_methods)]

use gpu_sim::{Gpu, LaunchCache, LaunchSummary, SanitizerReport};
use sputnik_bench::registry;
use std::time::Instant;

fn note(report: &SanitizerReport, failures: &mut u64) {
    if report.violation_count > 0 {
        *failures += report.violation_count;
        println!("FAIL {report}");
    } else if report.warning_count > 0 {
        println!(
            "  ok {:40} {} blocks, {} warnings",
            report.kernel, report.blocks, report.warning_count
        );
    } else {
        println!("  ok {:40} {} blocks", report.kernel, report.blocks);
    }
}

fn main() {
    let gpu = Gpu::v100();
    let mut summary = LaunchSummary::default();
    let mut failures = 0u64;
    let cache = LaunchCache::new();

    // Pass 1: cold cache, keyed by pair index.
    println!("-- sanitize (every dynamic check armed) --");
    let t = Instant::now();
    let mut fp = 0u64;
    registry::for_each_kernel(&mut |kernel| {
        fp += 1;
        match registry::sanitize_cached(&gpu, &cache, fp, kernel) {
            Ok(launched) => {
                let report = launched.report.unwrap_or_default();
                summary.add_sanitized(&launched.stats, &report);
                note(&report, &mut failures);
            }
            Err(e) => {
                failures += 1;
                println!("FAIL {}: launch error: {e}", kernel.name());
            }
        }
    });
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;

    // Pass 2: warm replay. Every launch must hit the cache, and skipping
    // the dynamic pass must actually be cheaper than running it.
    let t = Instant::now();
    let mut hits = 0u64;
    let mut fp = 0u64;
    registry::for_each_kernel(&mut |kernel| {
        fp += 1;
        match registry::sanitize_cached(&gpu, &cache, fp, kernel) {
            Ok(launched) => hits += u64::from(launched.hit),
            Err(e) => {
                failures += 1;
                println!("FAIL {}: warm replay error: {e}", kernel.name());
            }
        }
    });
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let launches = fp;
    if hits != launches {
        failures += 1;
        println!("FAIL warm replay: only {hits}/{launches} launches served from the cache");
    }
    if warm_ms >= cold_ms {
        failures += 1;
        println!(
            "FAIL warm replay: {warm_ms:.1} ms did not beat the cold sanitize \
             pass ({cold_ms:.1} ms) — the sanitize cache stopped saving wall time"
        );
    } else {
        println!(
            "warm replay: {warm_ms:.1} ms vs cold {cold_ms:.1} ms \
             ({:.0}% saved), {hits}/{launches} cache hits",
            (1.0 - warm_ms / cold_ms) * 100.0
        );
    }

    println!(
        "\n{} sanitized launches, {} violations, {} warnings",
        summary.launches, summary.violations, summary.warnings
    );
    if failures > 0 {
        println!("sanitize_all: FAILED ({failures} failures)");
        std::process::exit(1);
    }
    println!("sanitize_all: clean");
}
