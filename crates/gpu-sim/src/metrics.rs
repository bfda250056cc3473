//! A registry of monotonic profiler counters, snapshot-able as JSON.
//!
//! Where [`crate::trace`] records *events* (and costs a lock per event while
//! enabled), this module keeps *running totals* that are always on: every
//! launch, cache lookup, eviction, fault, and sanitizer run bumps a counter
//! in the [`global`] registry. A [`MetricsSnapshot`] freezes the totals for
//! reports and for the `trace_model` CI regression gate.
//!
//! Counters are process-wide and monotonic (only [`MetricsRegistry::reset`]
//! zeroes them), so concurrent sweeps simply sum. Tests that need exact
//! counts use a local [`MetricsRegistry`] or single-process bins
//! (`trace_model`), not the global one — parallel tests share it.
//!
//! ## Counter vocabulary
//!
//! | counter | meaning |
//! |---|---|
//! | `launches` | launches recorded (simulated + cache replays) |
//! | `launches_replayed` | launches served from a [`crate::LaunchCache`] |
//! | `sim_time_ns` | total simulated time, nanoseconds |
//! | `flops` | useful scalar FLOPs across launches |
//! | `dram_bytes` | DRAM bytes moved across launches |
//! | `blocks` | thread blocks launched |
//! | `cache_hits` / `cache_misses` | launch-cache lookups |
//! | `cache_inserts` / `cache_evictions` | launch-cache population churn |
//! | `dedup_blocks_total` / `dedup_blocks_executed` | structural block dedup (ratio = executed/total) |
//! | `faults_injected` | faults delivered by a [`crate::FaultPlan`] |
//! | `sanitizer_runs` / `sanitizer_violations` | sanitized launches and findings |
//! | `static_audits` / `static_checks_proven` | launches audited by [`crate::Gpu::run`] (every cache miss) and classes proven |
//! | `sanitizer_skips` | whole sanitize runs skipped on a fingerprint-identical cache hit |
//! | `dispatch_static_refuted` | launches rejected by the static auditor, from every entry point (they all go through [`crate::Gpu::run`]) |
//! | `dispatch_degraded` / `dispatch_failed_attempts` | degradation-ladder traffic |
//! | `dispatch_rung_*` | dispatched calls served per ladder rung (`sputnik`, `heuristic`, `fallback`, `cpu_reference`), bumped by the ladder's serve point in `sputnik::dispatch` |
//! | `serve_offered` / `serve_served` / `serve_shed` / `serve_rejected` | front-door outcome totals |
//! | `serve_late` / `serve_batches` / `serve_degraded` | SLO misses, launch windows, degraded serves |
//! | `joint_tiles_total` / `joint_tiles_skipped` | pattern-LUT probes issued by joint-sparsity launches, and how many hit dead tiles (skip rate = skipped/total) |

use crate::launch::LaunchStats;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// A set of named monotonic `u64` counters behind one lock.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub const fn new() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<&'static str, u64>> {
        // Poisoning only means a panic elsewhere mid-increment; the totals
        // themselves are still coherent.
        match self.counters.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Add `delta` to a counter, creating it at zero first if needed.
    pub fn incr(&self, name: &'static str, delta: u64) {
        *self.lock().entry(name).or_insert(0) += delta;
    }

    /// Bump several counters under one lock acquisition.
    pub fn incr_many(&self, deltas: &[(&'static str, u64)]) {
        let mut map = self.lock();
        for &(name, delta) in deltas {
            *map.entry(name).or_insert(0) += delta;
        }
    }

    /// Record one launch's contribution to the standard counters.
    /// `replayed` marks launches served from a [`crate::LaunchCache`].
    pub fn record_launch(&self, stats: &LaunchStats, replayed: bool) {
        let ns = (stats.time_us * 1e3).round().max(0.0) as u64;
        self.incr_many(&[
            ("launches", 1),
            ("launches_replayed", u64::from(replayed)),
            ("sim_time_ns", ns),
            ("flops", stats.flops),
            ("dram_bytes", stats.dram_bytes),
            ("blocks", stats.blocks),
        ]);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.lock().get(name).copied().unwrap_or(0)
    }

    /// Zero every counter.
    pub fn reset(&self) {
        self.lock().clear();
    }

    /// Freeze the current totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .lock()
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// The process-wide registry every launch path reports into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry::new();
    &GLOBAL
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

    /// Fraction of blocks the dedup engine actually executed (1.0 when the
    /// dedup path never ran).
    pub fn dedup_ratio(&self) -> f64 {
        let total = self.get("dedup_blocks_total");
        if total == 0 {
            return 1.0;
        }
        self.get("dedup_blocks_executed") as f64 / total as f64
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

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = MetricsRegistry::new();
        m.incr("launches", 1);
        m.incr("launches", 2);
        m.incr_many(&[("flops", 100), ("dram_bytes", 7)]);
        assert_eq!(m.get("launches"), 3);
        assert_eq!(m.get("flops"), 100);
        assert_eq!(m.get("missing"), 0);
        let snap = m.snapshot();
        assert_eq!(snap.get("dram_bytes"), 7);
        m.reset();
        assert_eq!(m.get("launches"), 0);
        // The snapshot is unaffected by the reset.
        assert_eq!(snap.get("launches"), 3);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = MetricsRegistry::new();
        m.incr("b_counter", 2);
        m.incr("a_counter", 1);
        let json = m.snapshot().to_json();
        let doc = crate::trace::parse_json(&json).expect("snapshot JSON parses");
        let metrics = doc.get("metrics").expect("metrics object");
        assert_eq!(metrics.get("a_counter").and_then(|v| v.as_num()), Some(1.0));
        assert_eq!(metrics.get("b_counter").and_then(|v| v.as_num()), Some(2.0));
    }

    #[test]
    fn dedup_ratio_defaults_to_one() {
        let m = MetricsRegistry::new();
        assert_eq!(m.snapshot().dedup_ratio(), 1.0);
        m.incr("dedup_blocks_total", 10);
        m.incr("dedup_blocks_executed", 4);
        assert_eq!(m.snapshot().dedup_ratio(), 0.4);
    }
}
