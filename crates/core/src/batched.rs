//! Batched kernel launches: fault-tolerant windows over one topology.
//!
//! Sparse attention runs the *same* sparse topology against many dense
//! operands — one per (head, batch element) — and sparse training reuses one
//! weight topology across micro-batches. [`spmm_batched_dispatch`] /
//! [`sddmm_batched_dispatch`] amortize everything amortizable: each item
//! consults a caller-owned [`LaunchCache`] — the simulated statistics depend
//! on the topology and configuration, not the dense values, so items 2..k
//! of a window replay item 1's simulation (and repeated windows hit across
//! calls) — and the window is timed with [`pipelined_us`], so consecutive
//! kernels overlap their launch overhead as back-to-back launches do on real
//! hardware. The usual bypass rule applies: a [`Gpu`] carrying a fault plan
//! simulates every launch in full.
//!
//! The windows are loops over [`dispatch::spmm`] / [`dispatch::sddmm`], so
//! each item walks the one degradation ladder: a fault degrades the item,
//! never the window. The serving front door runs on them.

use crate::config::{SddmmConfig, SpmmConfig};
use crate::dispatch::{self, DispatchPolicy, DispatchReport, Rung, SwizzledRows};
use crate::error::SputnikError;
use gpu_sim::trace::{self, Entry};
use gpu_sim::{pipelined_us, Gpu, LaunchCache};
use sparse::{CsrMatrix, Matrix, Scalar};

/// Per-item attribution for window items that bypass the launch cache
/// because the [`Gpu`] carries a fault plan. The bypass itself is silent
/// (it happens inside [`Gpu::run`]), which used to leave chaos
/// runs with no record of *which* window items consumed fault-schedule
/// indices — this instant restores the audit trail.
fn note_fault_plan_bypass(gpu: &Gpu, op: &str, item: usize) {
    if gpu.fault_plan().is_some() {
        trace::record("batched", "batched", Entry::Instant, &[], || {
            format!("fault-plan bypass: {op} item {item} simulated in full")
        });
    }
}

/// Check the stream-vs-naive model invariant for a finished window.
fn assert_stream_invariant(stream_us: f64, naive_us: f64) {
    assert!(
        stream_us <= naive_us + 1e-9,
        "model violation: stream time {stream_us} us exceeds naive sequential {naive_us} us \
         (pipelining can only hide overhead)"
    );
}

/// Result of a fault-tolerant batched window: per-item outputs plus the
/// [`DispatchReport`] for every item, so serving layers can attribute each
/// request to the degradation rung that produced its answer.
///
/// Timing: `stream_us` pipelines the GPU-served launches' overhead with
/// [`pipelined_us`] (one exposed launch overhead, subsequent launches
/// hidden behind execution), plus the simulated retry backoff. CPU-served items contribute **no** simulated
/// device time here — the caller owns the host-time model (see
/// `serve::ServePolicy::cpu_service_us`), because how expensive a host
/// fallback is depends on what else the host is doing.
pub struct DispatchedBatch<T> {
    pub outputs: Vec<T>,
    /// Per-item dispatch reports, same order as `outputs`.
    pub reports: Vec<DispatchReport>,
    /// Pipelined simulated time of the GPU-served launches plus backoff.
    pub stream_us: f64,
    /// Sum of standalone GPU launch times plus backoff (naive sequential).
    pub naive_us: f64,
    /// Launches whose statistics were replayed from the launch cache.
    pub cache_hits: u64,
}

impl<T> DispatchedBatch<T> {
    /// Items whose request was served by the host CPU rung (no launch stats).
    pub fn cpu_served(&self) -> u64 {
        self.reports.iter().filter(|r| r.stats.is_none()).count() as u64
    }

    /// Items served by a rung other than the requested configuration.
    pub fn degraded(&self) -> u64 {
        self.reports
            .iter()
            .filter(|r| r.served_by != Rung::Sputnik)
            .count() as u64
    }
}

/// Run a window of `items` dispatched calls: `serve(i)` answers item `i`
/// through the [`crate::dispatch`] ladder. The GPU-served launches are
/// pipelined by [`pipelined_us`]; retry backoff is serial in both the
/// pipelined and the naive view.
fn dispatch_window<T>(
    gpu: &Gpu,
    cache: &LaunchCache,
    op: &str,
    items: usize,
    mut serve: impl FnMut(usize) -> Result<(T, DispatchReport), SputnikError>,
) -> Result<DispatchedBatch<T>, SputnikError> {
    let hits_before = cache.hits();
    let mut outputs = Vec::with_capacity(items);
    let mut reports = Vec::with_capacity(items);
    for item in 0..items {
        note_fault_plan_bypass(gpu, op, item);
        let (out, report) = serve(item)?;
        outputs.push(out);
        reports.push(report);
    }
    let launches = || {
        reports
            .iter()
            .filter_map(|r| r.stats.as_ref().map(|s| s.time_us))
    };
    let backoff: f64 = reports.iter().map(|r| r.backoff_us).sum();
    let naive_us = launches().sum::<f64>() + backoff;
    let stream_us = pipelined_us(gpu.device().launch_overhead_us, launches()) + backoff;
    assert_stream_invariant(stream_us, naive_us);
    Ok(DispatchedBatch {
        outputs,
        reports,
        stream_us,
        naive_us,
        cache_hits: cache.hits() - hits_before,
    })
}

/// Fault-tolerant batched SpMM: every item goes through
/// [`dispatch::spmm`] (retry → heuristic → fallback → CPU), so an armed
/// [`gpu_sim::FaultPlan`] degrades individual items instead of killing the
/// batch. Clean items consult `cache` (fault-plan GPUs bypass it, and each
/// bypassed item leaves a trace instant for auditability).
///
/// The row swizzles of `a` are built once for the whole window.
///
/// Errors are returned only for deterministic input violations; transient
/// device faults always land on a rung.
pub fn spmm_batched_dispatch<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    a: &CsrMatrix<T>,
    bs: &[&Matrix<T>],
    cfg: SpmmConfig,
    policy: &DispatchPolicy,
) -> Result<DispatchedBatch<Matrix<T>>, SputnikError> {
    let rows = SwizzledRows::new(a);
    dispatch_window(gpu, cache, "spmm-dispatch", bs.len(), |i| {
        dispatch::spmm_swizzled(gpu, Some(cache), &rows, bs[i], cfg, policy)
    })
}

/// Fault-tolerant batched SDDMM: the SDDMM arm of the serving front door.
/// Every item goes through [`dispatch::sddmm`] (requested config →
/// heuristic config → CPU reference), with the mask's row swizzles built
/// once for the whole window.
pub fn sddmm_batched_dispatch<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    pairs: &[(&Matrix<T>, &Matrix<T>)],
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
    policy: &DispatchPolicy,
) -> Result<DispatchedBatch<CsrMatrix<T>>, SputnikError> {
    let mask = SwizzledRows::new(mask);
    dispatch_window(gpu, cache, "sddmm-dispatch", pairs.len(), |i| {
        let (lhs, rhs) = pairs[i];
        dispatch::sddmm_swizzled(gpu, Some(cache), lhs, rhs, &mask, cfg, policy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gpu_sim::{FaultKind, FaultPlan};
    use sparse::gen;

    fn spmm_window(
        gpu: &Gpu,
        cache: &LaunchCache,
        a: &CsrMatrix<f32>,
        bs: &[&Matrix<f32>],
        cfg: SpmmConfig,
    ) -> DispatchedBatch<Matrix<f32>> {
        spmm_batched_dispatch(gpu, cache, a, bs, cfg, &DispatchPolicy::default())
            .expect("clean inputs never error")
    }

    #[test]
    fn batched_spmm_matches_individual_launches() {
        let gpu = Gpu::v100();
        let a = gen::uniform(64, 48, 0.7, 321);
        let b1 = Matrix::<f32>::random(48, 32, 322);
        let b2 = Matrix::<f32>::random(48, 32, 323);
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let result = spmm_window(&gpu, &LaunchCache::new(), &a, &[&b1, &b2], cfg);
        assert_eq!(result.outputs.len(), 2);
        assert!(result.outputs[0].max_abs_diff(&reference::spmm(&a, &b1)) < 1e-3);
        assert!(result.outputs[1].max_abs_diff(&reference::spmm(&a, &b2)) < 1e-3);
        assert_eq!(
            result.cache_hits, 1,
            "second item replays the first's simulation"
        );
    }

    #[test]
    fn window_saves_launch_overhead() {
        let gpu = Gpu::v100();
        let a = gen::uniform(128, 128, 0.8, 324);
        let bs: Vec<Matrix<f32>> = (0..8).map(|i| Matrix::random(128, 64, 325 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let cfg = SpmmConfig::heuristic::<f32>(64);
        let result = spmm_window(&gpu, &LaunchCache::new(), &a, &refs, cfg);
        assert!(
            result.stream_us < result.naive_us,
            "pipelining must save time"
        );
        assert_eq!(result.cache_hits, 7, "items 2..8 hit the window's cache");
    }

    /// Regression (negative saved overhead): a single tiny kernel used to
    /// pay the short-kernel gap penalty with no successor to pipeline, so a
    /// one-item window came out slower than its naive launch. The saved
    /// overhead must be non-negative for every window size.
    #[test]
    fn overhead_saved_is_never_negative() {
        let gpu = Gpu::v100();
        // Tiny problem: execution well under the launch overhead.
        let a = gen::uniform(4, 4, 0.5, 331);
        let bs: Vec<Matrix<f32>> = (0..8).map(|i| Matrix::random(4, 4, 332 + i)).collect();
        let cfg = SpmmConfig::heuristic::<f32>(4);
        for k in 1..=bs.len() {
            let refs: Vec<&Matrix<f32>> = bs[..k].iter().collect();
            let result = spmm_window(&gpu, &LaunchCache::new(), &a, &refs, cfg);
            assert!(
                result.naive_us - result.stream_us >= 0.0,
                "window of {k}: stream {} us exceeds naive {} us",
                result.stream_us,
                result.naive_us
            );
        }
    }

    /// The cache replays *statistics*, never values: every item's functional
    /// output must match its own reference even when served from the cache.
    #[test]
    fn cache_hits_do_not_cross_contaminate_outputs() {
        let gpu = Gpu::v100();
        let a = gen::uniform(48, 40, 0.6, 340);
        let bs: Vec<Matrix<f32>> = (0..4).map(|i| Matrix::random(40, 16, 341 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let cfg = SpmmConfig::heuristic::<f32>(16);
        let result = spmm_window(&gpu, &LaunchCache::new(), &a, &refs, cfg);
        assert_eq!(result.cache_hits, 3);
        for (out, b) in result.outputs.iter().zip(&bs) {
            assert!(out.max_abs_diff(&reference::spmm(&a, b)) < 1e-3);
        }
    }

    #[test]
    fn dispatched_batch_matches_reference_and_hits_cache() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let a = gen::uniform(64, 48, 0.7, 370);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 371 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let first = spmm_window(&gpu, &cache, &a, &refs, cfg);
        assert_eq!(first.outputs.len(), 3);
        assert_eq!(first.degraded(), 0, "clean run serves from Sputnik rung");
        assert!(first.reports.iter().all(|r| r.clean()));
        for (out, b) in first.outputs.iter().zip(&bs) {
            assert!(out.max_abs_diff(&reference::spmm(&a, b)) < 1e-3);
        }
        assert_eq!(first.cache_hits, 2, "items 2..3 replay item 1");
        assert!(first.stream_us <= first.naive_us);
        let second = spmm_window(&gpu, &cache, &a, &refs, cfg);
        assert_eq!(second.cache_hits, 3, "warm window: every item hits");
        assert_eq!(first.stream_us, second.stream_us, "replay is bit-identical");
    }

    /// The point of the dispatched window: a fault plan degrades individual
    /// items instead of aborting the window, every item lands on a rung,
    /// and the outputs stay correct.
    #[test]
    fn dispatched_batch_survives_faults_per_item() {
        let gpu = Gpu::v100()
            .with_fault_plan(FaultPlan::fail_first(2, FaultKind::EccError).matching("sputnik"));
        let cache = LaunchCache::new();
        let a = gen::uniform(64, 48, 0.7, 380);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 381 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let result = spmm_window(&gpu, &cache, &a, &refs, cfg);
        assert_eq!(result.outputs.len(), 3);
        assert!(result.degraded() >= 1, "the faulted item must degrade");
        let failed: usize = result.reports.iter().map(|r| r.attempts.len()).sum();
        assert!(failed >= 2, "both scheduled faults surface as attempts");
        assert_eq!(result.cache_hits, 0, "fault plans bypass the cache");
        for (out, b) in result.outputs.iter().zip(&bs) {
            assert!(out.max_abs_diff(&reference::spmm(&a, b)) < 1e-3);
        }
    }

    #[test]
    fn dispatched_sddmm_degrades_to_cpu_under_sustained_faults() {
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError));
        let cache = LaunchCache::new();
        let mask = gen::attention_mask(64, 8, 0.9, 390);
        let q = Matrix::<f32>::random(64, 32, 391);
        let k = Matrix::<f32>::random(64, 32, 392);
        let cfg = SddmmConfig::heuristic::<f32>(32);
        let result = sddmm_batched_dispatch(
            &gpu,
            &cache,
            &[(&q, &k)],
            &mask,
            cfg,
            &DispatchPolicy::default(),
        )
        .expect("the CPU rung cannot fault");
        assert_eq!(result.reports[0].served_by, Rung::CpuReference);
        assert_eq!(result.cpu_served(), 1);
        let expect = reference::sddmm(&q, &k, &mask);
        for (a, b) in result.outputs[0].values().iter().zip(expect.values()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    /// One mask against many (lhs, rhs) pairs — the per-head QK^T of sparse
    /// attention: pair 2 replays pair 1's simulation.
    #[test]
    fn dispatched_sddmm_clean_run_shares_the_mask() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let mask = gen::attention_mask(96, 16, 0.9, 393);
        let q1 = Matrix::<f32>::random(96, 32, 394);
        let k1 = Matrix::<f32>::random(96, 32, 395);
        let q2 = Matrix::<f32>::random(96, 32, 396);
        let k2 = Matrix::<f32>::random(96, 32, 397);
        let cfg = SddmmConfig::heuristic::<f32>(32);
        let result = sddmm_batched_dispatch(
            &gpu,
            &cache,
            &[(&q1, &k1), (&q2, &k2)],
            &mask,
            cfg,
            &DispatchPolicy::default(),
        )
        .unwrap();
        assert!(result.reports.iter().all(|r| r.served_by == Rung::Sputnik));
        assert_eq!(result.cache_hits, 1, "pair 2 replays pair 1");
        for (out, (q, k)) in result.outputs.iter().zip([(&q1, &k1), (&q2, &k2)]) {
            let expect = reference::sddmm(q, k, &mask);
            assert!(out.same_pattern(&expect));
            for (a, b) in out.values().iter().zip(expect.values()) {
                assert!((a - b).abs() < 1e-3);
            }
        }
    }

    /// Window items under a fault plan bypass the launch cache silently
    /// inside the launcher — the window loop must record a per-item trace
    /// instant so chaos runs can audit exactly which items consumed
    /// fault-schedule indices.
    #[test]
    fn fault_plan_bypass_leaves_per_item_trace_instants() {
        let a = gen::uniform(48, 40, 0.6, 400);
        let bs: Vec<Matrix<f32>> = (0..4).map(|i| Matrix::random(40, 16, 401 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let mask = gen::attention_mask(48, 8, 0.9, 405);
        let q = Matrix::<f32>::random(48, 16, 406);
        let k = Matrix::<f32>::random(48, 16, 407);
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::none());
        let cache = LaunchCache::new();
        let policy = DispatchPolicy::default();

        trace::enable();
        spmm_window(&gpu, &cache, &a, &refs, SpmmConfig::heuristic::<f32>(16));
        let pairs = [(&q, &k), (&q, &k)];
        let cfg = SddmmConfig::heuristic::<f32>(16);
        sddmm_batched_dispatch(&gpu, &cache, &pairs, &mask, cfg, &policy).unwrap();
        let events = trace::disable();

        // The books are this thread's, so the window's instants are exactly
        // these, in order.
        let bypasses: Vec<&str> = events
            .iter()
            .filter(|e| e.cat == "batched")
            .map(|e| e.name.as_str())
            .collect();
        let want: Vec<String> = [("spmm-dispatch", 4), ("sddmm-dispatch", 2)]
            .into_iter()
            .flat_map(|(op, items)| {
                (0..items)
                    .map(move |i| format!("fault-plan bypass: {op} item {i} simulated in full"))
            })
            .collect();
        assert_eq!(bypasses, want);
    }

    /// Fault-plan GPUs must bypass the window's cache (fault schedules
    /// consume per-launch indices): every launch simulates, and a scheduled
    /// fault fires at its exact index.
    #[test]
    fn fault_plan_bypasses_window_cache() {
        let a = gen::uniform(64, 48, 0.7, 360);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 361 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);

        // An armed-but-quiet plan: the cache must still be bypassed.
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::none());
        let result = spmm_window(&gpu, &LaunchCache::new(), &a, &refs, cfg);
        assert_eq!(result.cache_hits, 0, "no cache service under a fault plan");
        assert_eq!(
            gpu.fault_plan().map(FaultPlan::launches_observed),
            Some(3),
            "every window launch consults the schedule"
        );

        // A plan that kills the first launch: item 0 must see the fault,
        // proving launches were not served from a cache that would skip it.
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_first(1, FaultKind::EccError));
        let result = spmm_window(&gpu, &LaunchCache::new(), &a, &refs, cfg);
        assert_eq!(result.reports[0].attempts.len(), 1, "scheduled fault fired");
        assert!(result.reports[1..].iter().all(|r| r.clean()));
    }
}
