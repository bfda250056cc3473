//! Wall-clock benchmark of the simulator's launch fast path.
//!
//! Every other bench bin reports *simulated* microseconds; this one times
//! the simulator itself. It runs a Figure-9-style corpus sweep (SpMM +
//! SDDMM heuristic profiles) three times:
//!
//! 1. `slowpath` — block dedup off, no launch cache: the pre-fast-path
//!    engine's per-block cost.
//! 2. `cold` — dedup on, fresh [`LaunchCache`]: the fast path populating
//!    the cache.
//! 3. `warm` — the same cache again: every launch served by memoized
//!    replay, the steady state of the tuner / dispatch ladder / repeated
//!    sweeps. A warm sweep is pure O(1) host work per launch (tens of
//!    microseconds in total), so `warm_ms` is the fastest of
//!    [`WARM_SWEEPS`] sweeps, each of which must replay the cold stats.
//!
//! Results land in `BENCH_simwall.json` (repo root) so the perf trajectory
//! is tracked across PRs. `--check <baseline.json>` gates CI: wall-clock
//! times are machine-dependent, so the gates are on ratios — the
//! quantities the fast path actually controls. The cold/warm speedup fails
//! when it drops below half the committed baseline's, and the
//! slowpath/cold speedup fails below 1.0. The sweep's two halves are also
//! timed apart: `spmm_dedup_speedup` and `sddmm_dedup_speedup` (each
//! family's slowpath over cold wall time) fail below 1.0, so each of
//! `SpmmKernel`'s and `SddmmKernel`'s profile dedup must pay on its own.
//! The other signatures are not gated here.

// Wall-timing bin: reading the host clock is the whole point here, and is
// exactly what `clippy.toml` bans inside simulated-clock code.
#![allow(clippy::disallowed_methods)]

use gpu_sim::{Gpu, LaunchCache, LaunchSummary};
use sparse::dataset::{self, ProblemSpec};
use sputnik::{SddmmConfig, SpmmConfig};
use sputnik_bench::gate::{BenchRecord, Gate};
use sputnik_bench::{grid_label, Table};
use std::time::Instant;

/// Warm sweeps timed; the fastest counts, so one scheduler hiccup cannot
/// sink `cold_warm_speedup`.
const WARM_SWEEPS: usize = 5;

/// Wall milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One full sweep over the corpus: the accumulated summary, plus the wall
/// milliseconds spent in its SpMM and in its SDDMM launches.
fn sweep(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    problems: &[(ProblemSpec, sparse::CsrMatrix<f32>)],
) -> (LaunchSummary, [f64; 2]) {
    let mut summary = LaunchSummary::default();
    let mut family_ms = [0.0; 2];
    for (spec, a) in problems {
        let (inference, training) = spec.batch_sizes();
        for batch in [inference, training] {
            let n = spec.n(batch);
            let spmm_cfg = SpmmConfig::heuristic::<f32>(n);
            let sddmm_cfg = SddmmConfig::heuristic::<f32>(n);
            let t = Instant::now();
            match cache {
                Some(lc) => {
                    let (s, hit) =
                        sputnik::spmm_profile_cached::<f32>(gpu, lc, a, spec.cols, n, spmm_cfg);
                    summary.add_cached(&s, hit);
                }
                None => summary.add(&sputnik::spmm_profile::<f32>(
                    gpu, a, spec.cols, n, spmm_cfg,
                )),
            }
            family_ms[0] += ms_since(t);
            let t = Instant::now();
            match cache {
                Some(lc) => {
                    let (s, hit) = sputnik::sddmm_profile_cached::<f32>(gpu, lc, a, n, sddmm_cfg);
                    summary.add_cached(&s, hit);
                }
                None => summary.add(&sputnik::sddmm_profile::<f32>(gpu, a, n, sddmm_cfg)),
            }
            family_ms[1] += ms_since(t);
        }
    }
    (summary, family_ms)
}

fn main() {
    let grid = grid_label();
    let count = match grid {
        "full" => 48,
        "quick" => 6,
        _ => 16,
    };
    let specs = dataset::dl_corpus_sample(count, 17);
    let problems: Vec<(ProblemSpec, sparse::CsrMatrix<f32>)> = specs
        .iter()
        .map(|spec| (spec.clone(), spec.generate()))
        .collect();

    // Pass 1: the pre-fast-path engine (no dedup, no cache).
    let slow_gpu = Gpu::v100().with_block_dedup(false);
    let t = Instant::now();
    let (slow, slow_family_ms) = sweep(&slow_gpu, None, &problems);
    let slowpath_ms = ms_since(t);

    // Pass 2 + 3: fast path, cold then warm.
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();
    let t = Instant::now();
    let (cold, cold_family_ms) = sweep(&gpu, Some(&cache), &problems);
    let cold_ms = ms_since(t);
    let mut warm_ms = f64::INFINITY;
    let mut warm = LaunchSummary::default();
    for _ in 0..WARM_SWEEPS {
        let t = Instant::now();
        warm = sweep(&gpu, Some(&cache), &problems).0;
        warm_ms = warm_ms.min(ms_since(t));
        // The fast path must not change simulated results: every warm sweep
        // replays exactly the cold pass's stats.
        assert_eq!(cold.time_us, warm.time_us, "cache replay changed results");
        assert_eq!(
            warm.cache_hits, warm.launches,
            "warm sweep missed the cache"
        );
    }
    assert_eq!(slow.time_us, cold.time_us, "dedup changed results");

    let cold_warm = cold_ms / warm_ms.max(1e-9);
    let slow_cold = slowpath_ms / cold_ms.max(1e-9);
    let [spmm_dedup, sddmm_dedup] = [0, 1].map(|f| slow_family_ms[f] / cold_family_ms[f].max(1e-9));

    let mut t = Table::new(
        "simwall — simulator wall-clock (fig09-style sweep)",
        &["pass", "wall ms", "launches", "cache hits"],
    );
    t.row(&[
        "slowpath (no dedup)".into(),
        format!("{slowpath_ms:.1}"),
        format!("{}", slow.launches),
        "-".into(),
    ]);
    t.row(&[
        "cold (dedup + cache fill)".into(),
        format!("{cold_ms:.1}"),
        format!("{}", cold.launches),
        format!("{}/{}", cold.cache_hits, cold.launches),
    ]);
    t.row(&[
        format!("warm (cache replay, best of {WARM_SWEEPS})"),
        format!("{warm_ms:.3}"),
        format!("{}", warm.launches),
        format!("{}/{}", warm.cache_hits, warm.launches),
    ]);
    t.print();
    println!("cold -> warm speedup: {cold_warm:.1}x   slowpath -> cold: {slow_cold:.2}x");
    println!("dedup speedup per family: spmm {spmm_dedup:.2}x   sddmm {sddmm_dedup:.2}x");

    BenchRecord::new("simwall")
        .text("grid", grid)
        .int("problems", count as u64)
        .int("launches_per_pass", cold.launches)
        .float("slowpath_ms", slowpath_ms, 3)
        .float("cold_ms", cold_ms, 3)
        .float("warm_ms", warm_ms, 3)
        .float("cold_warm_speedup", cold_warm, 3)
        .float("slowpath_cold_speedup", slow_cold, 3)
        .float("spmm_dedup_speedup", spmm_dedup, 3)
        .float("sddmm_dedup_speedup", sddmm_dedup, 3)
        .int("cache_hits_warm", warm.cache_hits)
        .int("cache_misses_cold", cold.cache_misses)
        .gate("cold_warm_speedup", Gate::AtLeastBaseline(0.5))
        .gate("slowpath_cold_speedup", Gate::AtLeast(1.0))
        .gate("spmm_dedup_speedup", Gate::AtLeast(1.0))
        .gate("sddmm_dedup_speedup", Gate::AtLeast(1.0))
        .finish();
}
