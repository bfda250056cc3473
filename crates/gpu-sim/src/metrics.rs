//! The profiler counters: monotonic running totals, snapshot-able as JSON.
//!
//! The counters are one of two views of the calling thread's books kept by
//! [`crate::trace`] (the other is the event log). Every event that bumps a
//! counter goes through the one recording call, [`crate::trace::record`],
//! which always bumps the counters and appends the event only while tracing
//! is on, so the two views agree by construction. [`global`] reads the
//! totals and bumps counters that have no event (cache inserts, audits,
//! serve totals). A [`MetricsSnapshot`] freezes the totals for reports and
//! for the `trace_model` CI regression gate.
//!
//! Counters belong to the thread that runs the launches (the simulator runs
//! a whole run on its caller's thread) and are monotonic: only
//! [`MetricsRegistry::reset`] zeroes them. Launches on another thread, such
//! as a parallel test, land in that thread's books, so a test reads exact
//! deltas of its own work.
//!
//! ## Counter vocabulary
//!
//! | counter | meaning |
//! |---|---|
//! | `launches` | launches recorded (simulated + cache replays) |
//! | `launches_replayed` | launches served from a [`crate::LaunchCache`] |
//! | `sim_time_ns` | total simulated time, nanoseconds: every launch plus every modelled replay (e.g. a transformer's repeated heads and layers), each rounded by [`sim_ns`] — the sum [`crate::ProfileReport::total_us`] takes |
//! | `flops` | useful scalar FLOPs across launches |
//! | `dram_bytes` | DRAM bytes moved across launches |
//! | `blocks` | thread blocks launched |
//! | `cache_hits` / `cache_misses` | launch-cache lookups |
//! | `cache_inserts` | launch-cache entries written (the cache never evicts) |
//! | `dedup_blocks_total` / `dedup_blocks_executed` | blocks of deduplicated profile launches, and how many of them executed (functional and sanitized launches never dedup) |
//! | `faults_injected` | faults delivered by a [`crate::FaultPlan`] |
//! | `sanitizer_runs` / `sanitizer_violations` | sanitized launches and findings |
//! | `static_audits` / `static_checks_proven` | launches audited by [`crate::Gpu::run`] (every cache miss) and classes proven |
//! | `sanitizer_skips` | whole sanitize runs skipped on a fingerprint-identical cache hit |
//! | `dispatch_static_refuted` | launches rejected by the static auditor, from every entry point (they all go through [`crate::Gpu::run`]) |
//! | `dispatch_degraded` / `dispatch_failed_attempts` | degradation-ladder traffic |
//! | `dispatch_rung_*` | dispatched calls served per ladder rung (`sputnik`, `heuristic`, `fallback`, `cpu_reference`), bumped by the ladder's serve point in `sputnik::dispatch` |
//! | `fleet_transfers` / `fleet_transfer_bytes` | interconnect transfers a [`crate::Fleet`] gather placed |
//! | `serve_offered` / `serve_served` / `serve_shed` / `serve_rejected` | front-door outcome totals |
//! | `serve_late` / `serve_batches` / `serve_degraded` | SLO misses, launch windows, degraded serves |
//! | `serve_dev*_batches` | launch windows served per device (devices 0..8) |
//! | `joint_tiles_total` / `joint_tiles_skipped` | pattern-LUT probes issued by joint-sparsity launches, and how many hit dead tiles (skip rate = skipped/total) |

use crate::trace;

/// Simulated microseconds as the integer nanoseconds `sim_time_ns` adds for
/// one event (rounded per event, so a fold over the trace matches exactly).
pub fn sim_ns(us: f64) -> u64 {
    (us * 1e3).round().max(0.0) as u64
}

/// The counter view of the calling thread's books: reads, resets and
/// event-less bumps.
#[derive(Debug)]
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// Add `delta` to a counter, creating it at zero first if needed.
    pub fn incr(&self, name: &'static str, delta: u64) {
        trace::with_books(|books| books.bump(name, delta));
    }

    /// Bump several counters under one borrow of the books.
    pub fn incr_many(&self, deltas: &[(&'static str, u64)]) {
        trace::with_books(|books| {
            for &(name, delta) in deltas {
                books.bump(name, delta);
            }
        });
    }

    /// Current value of a counter (0 if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        trace::with_books(|books| books.counters.get(name).copied().unwrap_or(0))
    }

    /// Zero every counter (the event log is untouched).
    pub fn reset(&self) {
        trace::with_books(|books| books.counters.clear());
    }

    /// Freeze the current totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: trace::with_books(|books| {
                books
                    .counters
                    .iter()
                    .map(|(&k, &v)| (k.to_string(), v))
                    .collect()
            }),
        }
    }
}

/// The calling thread's books, read and bumped through the counter view.
pub fn global() -> &'static MetricsRegistry {
    &MetricsRegistry
}

/// A frozen, sorted view of a registry's counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// (name, value), sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Total simulated time in microseconds (from `sim_time_ns`).
    pub fn sim_time_us(&self) -> f64 {
        self.get("sim_time_ns") as f64 / 1e3
    }

    /// Serialize as one flat JSON object, stable key order. (The vendored
    /// serde stub cannot serialize, so this is written by hand; parse it
    /// back with [`crate::trace::parse_json`].)
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": {\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            out.push_str(&format!("    \"{name}\": {value}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests' launches land in their own threads' books, so this
    /// test's counts are exact.
    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = global();
        m.incr("metrics_test_launches", 1);
        m.incr("metrics_test_launches", 2);
        m.incr_many(&[("metrics_test_flops", 100), ("metrics_test_dram", 7)]);
        assert_eq!(m.get("metrics_test_launches"), 3);
        assert_eq!(m.get("metrics_test_flops"), 100);
        assert_eq!(m.get("metrics_test_missing"), 0);
        let snap = m.snapshot();
        assert_eq!(snap.get("metrics_test_dram"), 7);
        m.incr("metrics_test_launches", 1);
        // The snapshot is frozen.
        assert_eq!(snap.get("metrics_test_launches"), 3);
    }

    fn snapshot(counters: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn snapshot_json_round_trips() {
        let json = snapshot(&[("a_counter", 1), ("b_counter", 2)]).to_json();
        let doc = crate::trace::parse_json(&json).expect("snapshot JSON parses");
        let metrics = doc.get("metrics").expect("metrics object");
        assert_eq!(metrics.get("a_counter").and_then(|v| v.as_num()), Some(1.0));
        assert_eq!(metrics.get("b_counter").and_then(|v| v.as_num()), Some(2.0));
    }

    #[test]
    fn sim_ns_rounds_per_event() {
        assert_eq!(sim_ns(1.25), 1250);
        assert_eq!(sim_ns(0.0004), 0);
        assert_eq!(sim_ns(0.0006), 1);
        assert_eq!(sim_ns(-3.0), 0);
    }
}
