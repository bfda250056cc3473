//! A trace-driven set-associative LRU cache simulator.
//!
//! The launcher's reuse estimation ([`crate::cache`]) is analytic — it never
//! sees individual addresses, which is what lets it scale to corpus-sized
//! sweeps. This module is the slow, exact counterpart: feed it a sector
//! trace and it reports true hit/miss counts under LRU replacement. It is
//! used by tests to validate the analytic model's behaviour on small
//! kernels, and is available to users who want to study a specific access
//! pattern precisely.

use crate::memory::SECTOR_BYTES;
use serde::{Deserialize, Serialize};

/// Configuration of a simulated cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes (GPU L2 tracks 32-byte sectors; 128-byte lines are
    /// typical for CPU-style analyses).
    pub line_bytes: u64,
    /// Associativity (ways per set). Use `usize::MAX`-like large values for
    /// fully associative behaviour; must divide the line count.
    pub ways: usize,
}

impl CacheConfig {
    /// The V100 L2 as sectors: 6 MiB, 32-byte sectors, 16-way.
    pub fn v100_l2() -> Self {
        Self {
            capacity_bytes: 6 * 1024 * 1024,
            line_bytes: SECTOR_BYTES,
            ways: 16,
        }
    }

    fn num_lines(&self) -> usize {
        (self.capacity_bytes / self.line_bytes) as usize
    }

    fn num_sets(&self) -> usize {
        (self.num_lines() / self.ways).max(1)
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses as f64
    }
}

/// A set-associative LRU cache over byte addresses.
///
/// LRU state is a per-line timestamp — O(ways) per access, which is fine for
/// the small associativities GPUs use.
pub struct CacheSim {
    cfg: CacheConfig,
    /// tags[set * ways + way]; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Last-use tick per line.
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl CacheSim {
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways >= 1);
        assert!(
            cfg.num_lines() >= cfg.ways,
            "capacity must hold at least one set"
        );
        let lines = cfg.num_sets() * cfg.ways;
        Self {
            cfg,
            tags: vec![u64::MAX; lines],
            stamps: vec![0; lines],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Access one byte address; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let line = addr / self.cfg.line_bytes;
        let set = (line % self.cfg.num_sets() as u64) as usize;
        let base = set * self.cfg.ways;
        let ways = &mut self.tags[base..base + self.cfg.ways];

        // Hit?
        for (w, &tag) in ways.iter().enumerate() {
            if tag == line {
                self.stamps[base + w] = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: evict LRU way.
        self.stats.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.cfg.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        false
    }

    /// Access a contiguous byte range (each touched line once).
    pub fn access_range(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let first = addr / self.cfg.line_bytes;
        let last = (addr + bytes - 1) / self.cfg.line_bytes;
        for line in first..=last {
            self.access(line * self.cfg.line_bytes);
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(capacity: u64, ways: usize) -> CacheSim {
        CacheSim::new(CacheConfig {
            capacity_bytes: capacity,
            line_bytes: 32,
            ways,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny(1024, 4);
        assert!(!c.access(0), "cold miss");
        assert!(c.access(0), "then hit");
        assert!(c.access(4), "same line hits");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn working_set_within_capacity_fully_hits_after_warmup() {
        let mut c = tiny(4096, 4); // 128 lines
        for pass in 0..3 {
            for line in 0..64u64 {
                let hit = c.access(line * 32);
                if pass > 0 {
                    assert!(hit, "pass {pass} line {line} must hit");
                }
            }
        }
        assert_eq!(c.stats().misses, 64, "only compulsory misses");
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_under_lru() {
        // Sequential sweep over 2x capacity with LRU: every access misses.
        let mut c = tiny(1024, 2); // 32 lines
        for _ in 0..4 {
            for line in 0..64u64 {
                c.access(line * 32);
            }
        }
        assert_eq!(
            c.stats().hits,
            0,
            "cyclic sweep > capacity never hits under LRU"
        );
    }

    #[test]
    fn associativity_conflicts() {
        // Direct-mapped: two lines mapping to the same set evict each other.
        let mut c = tiny(1024, 1); // 32 sets
        let stride = 32 * 32; // same set
        for _ in 0..4 {
            c.access(0);
            c.access(stride);
        }
        assert_eq!(
            c.stats().hits,
            0,
            "conflict misses in a direct-mapped cache"
        );
        // 2-way tolerates the pair.
        let mut c2 = tiny(1024, 2);
        for _ in 0..4 {
            c2.access(0);
            c2.access(1024); // 16 sets, stride 512B -> set 0 again? 1024/32=32 lines %16 = 0: same set.
        }
        assert_eq!(c2.stats().misses, 2, "2-way holds both lines");
    }

    #[test]
    fn access_range_touches_each_line_once() {
        let mut c = tiny(4096, 4);
        c.access_range(16, 96); // straddles lines 0..=3
        assert_eq!(c.stats().accesses, 4);
        c.access_range(0, 32);
        assert_eq!(c.stats().hits, 1);
    }

    /// The analytic model's miss estimate brackets the exact simulation on a
    /// synthetic SpMM-like B-row reuse trace.
    #[test]
    fn analytic_model_brackets_exact_simulation() {
        use crate::cache::{dram_traffic, AccessPattern, BufferSpec};
        use crate::cost::{BufferId, Traffic, MAX_BUFFERS};

        // Trace: 512 "rows" of B (256 bytes each = footprint 128 KiB), each
        // requested 20 times in a scattered order — comfortably inside a
        // 6 MiB L2.
        let mut sim = CacheSim::new(CacheConfig::v100_l2());
        let rows = 512u64;
        let row_bytes = 256u64;
        let repeats = 20u64;
        for rep in 0..repeats {
            for i in 0..rows {
                let row = (i * 769 + rep * 37) % rows; // scattered but complete
                sim.access_range(row * row_bytes, row_bytes);
            }
        }
        let exact_miss_rate = 1.0 - sim.stats().hit_rate();

        let dev = crate::device::DeviceConfig::v100();
        let buffers = [BufferSpec {
            id: BufferId(0),
            name: "b",
            footprint_bytes: rows * row_bytes,
            pattern: AccessPattern::SharedReuse,
        }];
        let mut req = [Traffic::default(); MAX_BUFFERS];
        req[0].ld_sectors = rows * row_bytes / 32 * repeats;
        let analytic = dram_traffic(&dev, &buffers, &req);
        let analytic_miss_rate = analytic.ld_miss_rate[0];

        // Exact: ~1/repeats (compulsory only). Analytic must land within a
        // small constant factor.
        assert!(exact_miss_rate < 0.1, "exact {exact_miss_rate}");
        assert!(
            analytic_miss_rate < 4.0 * exact_miss_rate + 0.1,
            "analytic {analytic_miss_rate} vs exact {exact_miss_rate}"
        );
    }
}
