//! One set of books: the counters and the trace are two views of the same
//! recording calls, so they agree by construction.
//!
//! A fixed mix runs twice on fresh GPUs and caches — once untraced, once
//! traced. Tracing must not change a single counter, and folding the traced
//! run's events must reproduce the counter deltas exactly: `sim_time_ns`
//! (every launch plus every modelled replay, rounded per event like the
//! counter), `launches`, `launches_replayed`, `faults_injected` and
//! `dispatch_degraded`. Last, `reset` must zero the counters without
//! touching a frozen snapshot or the event log.
//!
//! The books are the calling thread's, so the deltas are exact even beside
//! other tests.

use dnn::transformer::{self, AttentionMode, TransformerConfig};
use gpu_sim::trace::{self, Entry, EventKind, TraceEvent};
use gpu_sim::{metrics, FaultKind, FaultPlan, Gpu, LaunchCache};
use sparse::{gen, Matrix};
use sputnik::{DispatchPolicy, Rung, SpmmConfig};
use std::collections::BTreeMap;

/// The mix: a small transformer forward (layer spans plus replays), a
/// dispatch forced down the ladder, and four cached profiles (one miss,
/// three replayed launches).
fn mix() {
    let gpu = Gpu::v100();
    let cfg = TransformerConfig {
        layers: 2,
        heads: 2,
        d_model: 64,
        ff: 128,
        seq: 128,
        batch: 1,
    };
    let mode = AttentionMode::Sparse {
        band: 16,
        off_diag_sparsity: 0.9,
        seed: 17,
    };
    let bench = transformer::benchmark(&gpu, &cfg, &mode);
    assert!(!bench.out_of_memory && bench.forward_us > 0.0);

    let faulty =
        Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError).matching("sputnik"));
    let a = gen::uniform(64, 64, 0.8, 3);
    let b = Matrix::<f32>::random(64, 32, 4);
    let policy = DispatchPolicy::default();
    let (_, report) =
        sputnik::dispatch::spmm(&faulty, None, &a, &b, SpmmConfig::default(), &policy)
            .unwrap_or_else(|e| panic!("the ladder must bottom out: {e}"));
    assert_ne!(
        report.served_by,
        Rung::Sputnik,
        "the fault plan must degrade"
    );

    let cache = LaunchCache::new();
    for _ in 0..4 {
        sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &a, 64, 32, SpmmConfig::default());
    }
}

/// Every counter the mix moved, as `after - before`.
fn delta(
    before: &metrics::MetricsSnapshot,
    after: &metrics::MetricsSnapshot,
) -> BTreeMap<String, u64> {
    after
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), v - before.get(name)))
        .filter(|&(_, d)| d > 0)
        .collect()
}

/// Microseconds as the integer nanoseconds one event adds to `sim_time_ns`.
fn ns(us: f64) -> u64 {
    (us * 1e3).round().max(0.0) as u64
}

/// Re-derive the reconciled counters from the events alone.
fn fold(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut books = BTreeMap::new();
    for ev in events {
        let mut bump = |name, by| *books.entry(name).or_insert(0) += by;
        match &ev.kind {
            EventKind::Launch { stats, cached } => {
                bump("sim_time_ns", ns(stats.time_us));
                bump("launches", 1);
                bump("launches_replayed", u64::from(*cached == Some(true)));
            }
            EventKind::Replay { dur_us, .. } => bump("sim_time_ns", ns(*dur_us)),
            EventKind::Instant if ev.cat == "fault" => bump("faults_injected", 1),
            EventKind::Instant if ev.cat == "dispatch" && ev.name.starts_with("degraded:") => {
                bump("dispatch_degraded", 1)
            }
            _ => {}
        }
    }
    books
}

#[test]
fn counters_and_trace_are_one_set_of_books() {
    let m = metrics::global();

    let before = m.snapshot();
    mix();
    let untraced = delta(&before, &m.snapshot());

    let before = m.snapshot();
    trace::enable();
    mix();
    let events = trace::disable();
    let traced = delta(&before, &m.snapshot());

    assert_eq!(untraced, traced, "tracing must not move a counter");

    let folded = fold(&events);
    for name in [
        "sim_time_ns",
        "launches",
        "launches_replayed",
        "faults_injected",
        "dispatch_degraded",
    ] {
        let counted = traced.get(name).copied().unwrap_or(0);
        assert!(counted > 0, "the mix must move {name}");
        assert_eq!(
            folded.get(name).copied().unwrap_or(0),
            counted,
            "folding the trace must reproduce the {name} delta"
        );
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Replay { .. })),
        "the mix must exercise replays"
    );

    // `reset` zeroes the counter view only: a frozen snapshot keeps its
    // values and the event log keeps its events.
    let frozen = m.snapshot();
    let launches = frozen.get("launches");
    assert!(launches > 0);
    trace::enable();
    trace::record("test", "one-books", Entry::Instant, &[], || {
        "before reset".into()
    });
    m.reset();
    let events = trace::disable();
    assert_eq!(m.get("launches"), 0, "reset zeroes every counter");
    assert!(
        m.snapshot().counters.iter().all(|&(_, v)| v == 0),
        "reset zeroes every counter"
    );
    assert_eq!(frozen.get("launches"), launches, "snapshots are frozen");
    assert_eq!(events.len(), 1, "reset leaves the event log alone");
}
