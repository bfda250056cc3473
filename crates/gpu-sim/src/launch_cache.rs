//! Cross-launch memoization of simulated launch statistics.
//!
//! The evaluation sweeps (dataset benchmarks, autotuning grids, the dispatch
//! ladder) re-simulate the same kernel on the same operands over and over.
//! [`LaunchCache`] memoizes [`LaunchStats`] across launches, keyed by the
//! kernel name (which encodes the configuration tag), a caller-supplied
//! operand fingerprint, and the device name.
//!
//! ## What the key must cover
//!
//! Simulated statistics depend on the kernel's *cost trace*, which is a
//! function of the launch configuration and the operand **structure** —
//! shapes, sparsity topology, alignment — but not of the floating-point
//! values flowing through it. The kernel name covers the configuration; the
//! device name covers the hardware model; the `fingerprint` must cover
//! everything else the trace reads: the sparse topology (row offsets, column
//! indices) *and* any problem dimension not implied by it (e.g. SpMM's dense
//! column count `n`, which the kernel name does not encode).
//!
//! ## What a hit costs
//!
//! A profile-mode hit is O(1) host work: one hash-map lookup and a copy of
//! the stored stats (a functional hit also replays the math, see below).
//! The operand fingerprint does not spoil that: `sparse::CsrMatrix`
//! memoizes its O(nnz) topology hash on first use, and the memo is sound
//! because a matrix's topology is immutable after construction (only its
//! values are mutable). A new-values-same-topology operand built with
//! `with_values` carries the memo, so it hits without rehashing.
//!
//! ## Size
//!
//! The table is unbounded: it holds one entry per distinct key it has
//! seen, and the traffic it serves keeps that small. The largest sweep in
//! the repository, fig09 `--full`, inserts at most 1,800 keys (300 problems ×
//! 2 batch sizes × 3 cached launches), and a perfbench corpus run inserts
//! 192. A caller that sweeps an open-ended key space should hold one cache
//! per sweep and drop it, or [`LaunchCache::clear`] it between sweeps.
//!
//! ## Functional launches
//!
//! A cache hit on a functional launch still has to produce outputs. The
//! launcher re-executes every block with a cost-recording-disabled context
//! ([`BlockContext::replay`](crate::cost::BlockContext::replay)), skipping
//! the sector/conflict arithmetic while the kernel writes its results, and
//! returns the cached statistics.
//!
//! ## When the cache is bypassed
//!
//! Launches on a [`Gpu`](crate::Gpu) carrying a fault plan bypass the cache
//! entirely (no lookup, no insert): fault schedules consume per-launch
//! indices and may poison outputs, so serving them from a cache would both
//! skip scheduled faults and desynchronize the schedule.

use crate::launch::LaunchStats;
use crate::metrics;
use crate::sanitizer::SanitizerReport;
use crate::trace;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache key: (kernel name incl. config tag, operand fingerprint, device
/// name, device architecture).
///
/// The `arch` field is the structural hash of every architectural field of
/// the device config ([`crate::DeviceConfig::arch_fingerprint`]). The name
/// alone is not an identity: a heterogeneous fleet can legitimately hold two
/// devices with the same marketing name but different resources (a stock
/// V100 next to a cut-down one), and simulated statistics depend on the
/// resources, not the label. With `arch` in the key, replay can never
/// cross-pollinate between device profiles.
///
/// The fields are private: keys are built only by the launch funnel
/// ([`crate::Gpu::run`], [`crate::Gpu::cache_key`]), so the key policy
/// lives in one place.
#[derive(Debug, Clone)]
pub struct LaunchKey {
    kernel: String,
    fingerprint: u64,
    device: String,
    arch: u64,
}

impl LaunchKey {
    pub(crate) fn new(kernel: String, fingerprint: u64, device: String, arch: u64) -> Self {
        Self {
            kernel,
            fingerprint,
            device,
            arch,
        }
    }
}

/// A borrowed [`LaunchKey`]: the launch funnel looks the cache up by parts,
/// so a hit allocates no key. Hashing and equality go through this view for
/// owned keys too, which is what lets the map be probed with either.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct KeyRef<'a> {
    kernel: &'a str,
    fingerprint: u64,
    device: &'a str,
    arch: u64,
}

impl<'a> KeyRef<'a> {
    pub(crate) fn new(kernel: &'a str, fingerprint: u64, device: &'a str, arch: u64) -> Self {
        Self {
            kernel,
            fingerprint,
            device,
            arch,
        }
    }
}

/// The map's borrowed key form (the standard trick for probing a
/// `HashMap<K, V>` without building a `K`).
trait Parts {
    fn parts(&self) -> KeyRef<'_>;
}

impl Parts for LaunchKey {
    fn parts(&self) -> KeyRef<'_> {
        KeyRef::new(&self.kernel, self.fingerprint, &self.device, self.arch)
    }
}

impl Parts for KeyRef<'_> {
    fn parts(&self) -> KeyRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn Parts + 'a> for LaunchKey {
    fn borrow(&self) -> &(dyn Parts + 'a) {
        self
    }
}

impl Hash for dyn Parts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn Parts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn Parts + '_ {}

impl Hash for LaunchKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for LaunchKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for LaunchKey {}

#[derive(Debug)]
struct Entry {
    stats: LaunchStats,
    /// The sanitizer report from a prior sanitized run of this exact
    /// (kernel, fingerprint, device) launch, if one happened. The sanitizer
    /// checks the cost trace, which the key fully determines — so a
    /// fingerprint-identical launch needs no re-sanitizing.
    sanitized: Option<SanitizerReport>,
}

/// A thread-safe memo table of simulated launch statistics.
///
/// Shared by `&` reference (interior mutability), so one cache can serve an
/// entire benchmark sweep or a whole dispatch ladder without plumbing `&mut`
/// through every call site.
#[derive(Debug)]
pub struct LaunchCache {
    entries: Mutex<HashMap<LaunchKey, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for LaunchCache {
    fn default() -> Self {
        Self::new()
    }
}

impl LaunchCache {
    pub fn new() -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, HashMap<LaunchKey, Entry>> {
        // A poisoned mutex only means another thread panicked mid-insert;
        // the map itself is still a valid memo table.
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look up a key, counting the hit or miss.
    pub fn lookup(&self, key: &LaunchKey) -> Option<LaunchStats> {
        self.find(key.parts(), false).map(|(stats, _)| stats)
    }

    /// [`LaunchCache::lookup`] for the launch funnel. With `sanitized`, an
    /// entry hits only if it carries a sanitizer report (an entry that was
    /// never sanitized has no report to replay), and the report comes back
    /// with the stats.
    pub(crate) fn find(
        &self,
        key: KeyRef<'_>,
        sanitized: bool,
    ) -> Option<(LaunchStats, Option<SanitizerReport>)> {
        let found = self
            .entries()
            .get(&key as &dyn Parts)
            .filter(|e| !sanitized || e.sanitized.is_some())
            .map(|e| {
                let report = if sanitized { e.sanitized.clone() } else { None };
                (e.stats.clone(), report)
            });
        let (counter, outcome) = match found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                ("cache_hits", "hit")
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                ("cache_misses", "miss")
            }
        };
        trace::record(
            "cache",
            key.device,
            trace::Entry::Instant,
            &[(counter, 1)],
            || {
                let scope = if sanitized { "sanitized " } else { "" };
                format!("{scope}{outcome}: {}", key.kernel)
            },
        );
        found
    }

    /// Record freshly simulated statistics (plus the sanitizer report of a
    /// sanitized launch) under a key. A prior report stored under the same
    /// key survives a report-less overwrite (the key determines the trace,
    /// so the report stays valid).
    pub(crate) fn insert(
        &self,
        key: LaunchKey,
        stats: LaunchStats,
        sanitized: Option<SanitizerReport>,
    ) {
        let mut map = self.entries();
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                entry.stats = stats;
                if sanitized.is_some() {
                    entry.sanitized = sanitized;
                }
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Entry { stats, sanitized });
            }
        }
        metrics::global().incr("cache_inserts", 1);
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.entries().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Drop all entries and reset the counters.
    pub fn clear(&self) {
        self.entries().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::LaunchStats;

    fn dummy_stats(us: f64) -> LaunchStats {
        LaunchStats {
            kernel: "k".into(),
            time_us: us,
            makespan_cycles: 0.0,
            blocks: 1,
            waves: 1.0,
            balance: 1.0,
            occupancy: crate::occupancy::occupancy(
                &crate::device::DeviceConfig::v100(),
                &crate::occupancy::BlockRequirements {
                    threads: 32,
                    smem_bytes: 0,
                    regs_per_thread: 32,
                },
            ),
            instructions: 1,
            flops: 2,
            dram_bytes: 3,
            tflops: 0.0,
            frac_peak: 0.0,
            dram_gbps: 0.0,
            bound_by: "dram".into(),
            pipelines: Default::default(),
        }
    }

    fn key(fp: u64) -> LaunchKey {
        LaunchKey::new("k".into(), fp, "V100".into(), 0xA4C4)
    }

    #[test]
    fn hit_and_miss_counters() {
        let cache = LaunchCache::new();
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), dummy_stats(10.0), None);
        let hit = cache.lookup(&key(1)).expect("inserted");
        assert_eq!(hit.time_us, 10.0);
        assert!(cache.lookup(&key(2)).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_distinguish_all_components() {
        let cache = LaunchCache::new();
        cache.insert(key(1), dummy_stats(1.0), None);
        let mut other_kernel = key(1);
        other_kernel.kernel = "k2".into();
        let mut other_dev = key(1);
        other_dev.device = "A100".into();
        let mut other_arch = key(1);
        other_arch.arch = 0xBEEF;
        assert!(cache.lookup(&other_kernel).is_none());
        assert!(cache.lookup(&other_dev).is_none());
        assert!(cache.lookup(&other_arch).is_none());
        assert!(cache.lookup(&key(2)).is_none());
        assert!(cache.lookup(&key(1)).is_some());
    }

    /// Regression (heterogeneous-fleet cross-pollination): two device models
    /// sharing a marketing name but differing in resources must never serve
    /// each other's cached statistics. Before `arch` joined the key, the
    /// second device below would hit the first's entry.
    #[test]
    fn same_name_different_arch_never_cross_pollinates() {
        use crate::device::DeviceConfig;
        let stock = DeviceConfig::v100();
        let mut cut_down = DeviceConfig::v100();
        cut_down.num_sms = 40;
        assert_eq!(stock.name, cut_down.name);

        let cache = LaunchCache::new();
        let stock_key = LaunchKey::new("k".into(), 7, stock.name.clone(), stock.arch_fingerprint());
        let cut_key = LaunchKey::new(
            "k".into(),
            7,
            cut_down.name.clone(),
            cut_down.arch_fingerprint(),
        );
        cache.insert(stock_key.clone(), dummy_stats(10.0), None);
        assert!(
            cache.lookup(&cut_key).is_none(),
            "cut-down device must not see the stock device's entry"
        );
        cache.insert(cut_key.clone(), dummy_stats(20.0), None);
        let stock_hit = cache.lookup(&stock_key).expect("stock entry intact");
        let cut_hit = cache.lookup(&cut_key).expect("cut-down entry present");
        assert_eq!(stock_hit.time_us, 10.0);
        assert_eq!(cut_hit.time_us, 20.0);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = LaunchCache::new();
        cache.insert(key(1), dummy_stats(1.0), None);
        cache.insert(key(2), dummy_stats(1.0), None);
        let _ = cache.lookup(&key(2));
        let _ = cache.lookup(&key(3));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
    }
}
