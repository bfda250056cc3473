//! Kernel auto-tuning: a memoized oracle selector.
//!
//! The paper's heuristic (Section VII) picks well on most problems, but its
//! MobileNet experiment needed a hand oracle "for four 1x1 convolutions
//! where our heuristic was sub-optimal", and Section VII-B concludes that
//! "better kernel selection heuristics could greatly improve performance".
//! This module productizes the oracle: exhaustively profile a variant grid
//! once per *problem class* (bucketized shape + sparsity) and cache the
//! winner, the way production kernel libraries keep autotuning caches.

use crate::config::SpmmConfig;
use crate::spmm;
use gpu_sim::trace::{parse_json, Json};
use gpu_sim::{Gpu, LaunchCache};
use sparse::{CsrMatrix, IndexWidth, Scalar};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// A bucketized problem identity: problems in the same bucket share a tuned
/// configuration. Shapes are bucketed to the nearest power of two and
/// sparsity to 5% steps, so the cache stays small while staying relevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemClass {
    pub m_pow2: u32,
    pub k_pow2: u32,
    pub n_pow2: u32,
    /// Sparsity in 5% buckets (0..=20).
    pub sparsity_bucket: u8,
}

impl ProblemClass {
    pub fn of<T: Scalar>(a: &CsrMatrix<T>, n: usize) -> Self {
        Self {
            m_pow2: (a.rows().max(1) as u32)
                .next_power_of_two()
                .trailing_zeros(),
            k_pow2: (a.cols().max(1) as u32)
                .next_power_of_two()
                .trailing_zeros(),
            n_pow2: (n.max(1) as u32).next_power_of_two().trailing_zeros(),
            sparsity_bucket: (a.sparsity() * 20.0).round().clamp(0.0, 20.0) as u8,
        }
    }
}

/// Result of one tuning search.
#[derive(Debug, Clone, Copy)]
pub struct TuneResult {
    pub config: SpmmConfig,
    /// Simulated time of the winning variant on the probe problem.
    pub best_us: f64,
    /// Time of the heuristic's pick on the probe problem.
    pub heuristic_us: f64,
}

impl TuneResult {
    /// How much the search beat the heuristic (1.0 = tie).
    pub fn speedup_over_heuristic(&self) -> f64 {
        self.heuristic_us / self.best_us
    }
}

/// A memoized SpMM autotuner.
#[derive(Debug, Default)]
pub struct AutoTuner {
    cache: HashMap<ProblemClass, TuneResult>,
}

impl AutoTuner {
    pub fn new() -> Self {
        Self::default()
    }

    /// The variants the search profiles against the heuristic's pick for a
    /// given N: every legal tiling and vector width on the grid, with the
    /// heuristic's other fields. The heuristic itself is left out, since the
    /// search profiles it first.
    fn candidates<T: Scalar>(k: usize, n: usize) -> Vec<SpmmConfig> {
        let heuristic = SpmmConfig::heuristic::<T>(n);
        let mut out = Vec::new();
        for block_items_y in [1u32, 2, 4, 8] {
            for block_items_x in [16u32, 32, 64] {
                for vector_width in [1u32, 2, 4] {
                    let cfg = SpmmConfig {
                        block_items_y,
                        block_items_x,
                        vector_width,
                        roma: vector_width > 1,
                        ..heuristic
                    };
                    if cfg.validate(k).is_err() || cfg.threads_x() > 32 {
                        continue;
                    }
                    if vector_width > 1 && !n.is_multiple_of(vector_width as usize) {
                        continue;
                    }
                    if cfg != heuristic {
                        out.push(cfg);
                    }
                }
            }
        }
        out
    }

    /// The tuned configuration for this problem, searching at most once per
    /// problem class. The search keeps the first variant strictly faster
    /// than every one before it, starting from the heuristic's pick.
    ///
    /// With a `cache`, every probe launch goes through that cross-launch
    /// [`LaunchCache`]. The tuner's own memo works at problem-*class*
    /// granularity; the launch cache works at exact-(kernel, operand,
    /// device) granularity, so repeated tuning sessions over overlapping
    /// corpora skip re-simulating every variant they have seen before.
    pub fn tune<T: Scalar>(
        &mut self,
        gpu: &Gpu,
        cache: Option<&LaunchCache>,
        a: &CsrMatrix<T>,
        n: usize,
    ) -> TuneResult {
        let class = ProblemClass::of(a, n);
        if let Some(&hit) = self.cache.get(&class) {
            return hit;
        }
        gpu_sim::metrics::global().incr("tune_searches", 1);
        // The span lives on the device track, so its duration is the
        // simulated time of every probe launch the search runs.
        gpu_sim::trace::begin_span("tune", &gpu.device().name, || {
            format!(
                "tune m=2^{} k=2^{} n=2^{}",
                class.m_pow2, class.k_pow2, class.n_pow2
            )
        });
        let profile = |cfg| {
            spmm::profile_spmm::<T>(gpu, cache, a, a.cols(), n, cfg)
                .0
                .time_us
        };
        let heuristic = SpmmConfig::heuristic::<T>(n);
        let heuristic_us = profile(heuristic);
        let mut best = TuneResult {
            config: heuristic,
            best_us: heuristic_us,
            heuristic_us,
        };
        for cfg in Self::candidates::<T>(a.cols(), n) {
            let t = profile(cfg);
            if t < best.best_us {
                best.best_us = t;
                best.config = cfg;
            }
        }
        gpu_sim::trace::end_span(&gpu.device().name);
        self.cache.insert(class, best);
        best
    }

    /// Cached classes (for inspection/persistence).
    pub fn entries(&self) -> impl Iterator<Item = (&ProblemClass, &TuneResult)> {
        self.cache.iter()
    }

    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Format version of the on-disk cache. Bump on any change to the entry
    /// layout; [`Self::load_from`] rejects files written by other versions so
    /// stale tuning decisions can never leak across format changes.
    pub const CACHE_FORMAT_VERSION: u32 = 1;
    const CACHE_KIND: &'static str = "sputnik_autotune_cache";

    /// Persist the memo table as JSON lines: a versioned header object
    /// followed by one flat entry object per problem class, sorted for
    /// deterministic output. (Hand-rolled writer; [`Self::load_from`] reads
    /// it back with the simulator's JSON parser.)
    pub fn save_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut entries: Vec<_> = self.cache.iter().collect();
        entries.sort_by_key(|(c, _)| (c.m_pow2, c.k_pow2, c.n_pow2, c.sparsity_bucket));
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "{{\"version\":{},\"kind\":\"{}\"}}",
            Self::CACHE_FORMAT_VERSION,
            Self::CACHE_KIND
        )?;
        for (class, r) in entries {
            let c = &r.config;
            writeln!(
                f,
                concat!(
                    "{{\"m_pow2\":{},\"k_pow2\":{},\"n_pow2\":{},\"sparsity_bucket\":{},",
                    "\"block_items_y\":{},\"block_items_k\":{},\"block_items_x\":{},",
                    "\"vector_width\":{},\"row_swizzle\":{},\"roma\":{},",
                    "\"index_prescale\":{},\"residue_unroll\":{},\"index_bytes\":{},",
                    "\"fused_bias_relu\":{},\"assume_aligned\":{},",
                    "\"best_us\":{:?},\"heuristic_us\":{:?}}}"
                ),
                class.m_pow2,
                class.k_pow2,
                class.n_pow2,
                class.sparsity_bucket,
                c.block_items_y,
                c.block_items_k,
                c.block_items_x,
                c.vector_width,
                c.row_swizzle,
                c.roma,
                c.index_prescale,
                c.residue_unroll,
                c.index_width.bytes(),
                c.fused_bias_relu,
                c.assume_aligned,
                r.best_us,
                r.heuristic_us,
            )?;
        }
        f.flush()
    }

    /// Load a memo table written by [`Self::save_to`]. Fails with
    /// `InvalidData` on a missing/mismatched version header or a malformed
    /// entry — a corrupt cache must never silently tune kernels.
    pub fn load_from(path: impl AsRef<Path>) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let f = io::BufReader::new(std::fs::File::open(path)?);
        let mut lines = f.lines();
        let header = lines
            .next()
            .ok_or_else(|| bad("empty autotune cache file".into()))??;
        let fields = parse_json(&header).ok();
        let version = fields
            .as_ref()
            .and_then(|h| count::<u32>(h, "version"))
            .ok_or_else(|| bad("autotune cache header missing version".into()))?;
        let kind = fields.as_ref().and_then(|h| h.get("kind")?.as_str());
        if version != Self::CACHE_FORMAT_VERSION || kind != Some(Self::CACHE_KIND) {
            return Err(bad(format!(
                "autotune cache header {header:?} does not match version {} kind {}",
                Self::CACHE_FORMAT_VERSION,
                Self::CACHE_KIND
            )));
        }
        let mut tuner = Self::new();
        for (i, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let entry = parse_entry(&line)
                .ok_or_else(|| bad(format!("malformed autotune cache entry on line {}", i + 2)))?;
            tuner.cache.insert(entry.0, entry.1);
        }
        Ok(tuner)
    }
}

/// The non-negative integer at `key` of a parsed cache line, as `T`: a
/// missing key, a non-number, or a negative, fractional or out-of-range
/// count reads as `None`.
fn count<T: TryFrom<u64>>(line: &Json, key: &str) -> Option<T> {
    let v = line.get(key)?.as_num()?;
    if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
        return None;
    }
    T::try_from(v as u64).ok()
}

fn flag(line: &Json, key: &str) -> Option<bool> {
    match line.get(key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn parse_entry(text: &str) -> Option<(ProblemClass, TuneResult)> {
    let line = parse_json(text).ok()?;
    let class = ProblemClass {
        m_pow2: count(&line, "m_pow2")?,
        k_pow2: count(&line, "k_pow2")?,
        n_pow2: count(&line, "n_pow2")?,
        sparsity_bucket: count(&line, "sparsity_bucket")?,
    };
    let index_width = match count::<u64>(&line, "index_bytes")? {
        2 => IndexWidth::U16,
        4 => IndexWidth::U32,
        _ => return None,
    };
    let config = SpmmConfig {
        block_items_y: count(&line, "block_items_y")?,
        block_items_k: count(&line, "block_items_k")?,
        block_items_x: count(&line, "block_items_x")?,
        vector_width: count(&line, "vector_width")?,
        row_swizzle: flag(&line, "row_swizzle")?,
        roma: flag(&line, "roma")?,
        index_prescale: flag(&line, "index_prescale")?,
        residue_unroll: flag(&line, "residue_unroll")?,
        index_width,
        fused_bias_relu: flag(&line, "fused_bias_relu")?,
        assume_aligned: flag(&line, "assume_aligned")?,
    };
    Some((
        class,
        TuneResult {
            config,
            best_us: line.get("best_us")?.as_num()?,
            heuristic_us: line.get("heuristic_us")?.as_num()?,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    #[test]
    fn tuned_config_never_loses_to_heuristic() {
        let gpu = Gpu::v100();
        let mut tuner = AutoTuner::new();
        for (m, k, n, s) in [
            (256usize, 256usize, 64usize, 0.8),
            (1000, 1024, 4, 0.9),
            (512, 128, 52, 0.7),
        ] {
            let a = gen::uniform(m, k, s, (m + n) as u64);
            let result = tuner.tune(&gpu, None, &a, n);
            assert!(result.best_us <= result.heuristic_us + 1e-9, "{m}x{k}x{n}");
            assert!(result.speedup_over_heuristic() >= 1.0);
        }
    }

    #[test]
    fn search_runs_once_per_class() {
        let gpu = Gpu::v100();
        let mut tuner = AutoTuner::new();
        let a1 = gen::uniform(256, 256, 0.8, 1);
        let a2 = gen::uniform(250, 250, 0.81, 2); // same buckets
        let r1 = tuner.tune(&gpu, None, &a1, 64);
        assert_eq!(tuner.len(), 1);
        let r2 = tuner.tune(&gpu, None, &a2, 64);
        assert_eq!(tuner.len(), 1, "same class must hit the cache");
        assert_eq!(r1.config, r2.config);
        // A different N lands in a new class.
        tuner.tune(&gpu, None, &a1, 128);
        assert_eq!(tuner.len(), 2);
    }

    #[test]
    fn small_n_problems_benefit_from_tuning() {
        // The oracle finds real wins where the heuristic is weakest (the
        // classifier-like tiny-N shapes).
        let gpu = Gpu::v100();
        let mut tuner = AutoTuner::new();
        let a = gen::uniform(1000, 1024, 0.9, 3);
        let result = tuner.tune(&gpu, None, &a, 4);
        assert!(
            result.speedup_over_heuristic() > 1.05,
            "expected a tuning win on N=4, got {:.3}x",
            result.speedup_over_heuristic()
        );
    }

    #[test]
    fn cache_round_trips_through_disk() {
        let gpu = Gpu::v100();
        let mut tuner = AutoTuner::new();
        let a = gen::uniform(256, 256, 0.8, 5);
        let r1 = tuner.tune(&gpu, None, &a, 64);
        tuner.tune(&gpu, None, &a, 4);
        let dir = std::env::temp_dir().join("sputnik_tune_cache_test");
        let path = dir.join("autotune.json");
        tuner.save_to(&path).unwrap();
        let loaded = AutoTuner::load_from(&path).unwrap();
        assert_eq!(loaded.len(), tuner.len());
        // A reloaded tuner serves the persisted decision without searching.
        let mut loaded = loaded;
        let r2 = loaded.tune(&gpu, None, &a, 64);
        assert_eq!(r1.config, r2.config);
        assert_eq!(r1.best_us, r2.best_us);
        assert_eq!(r1.heuristic_us, r2.heuristic_us);

        // A fractional, negative, out-of-range or mistyped value, or a
        // missing key, makes the entry malformed.
        let text = std::fs::read_to_string(&path).unwrap();
        let set = |key: &str, value: &str| {
            let start = text.find(&format!("\"{key}\":")).unwrap();
            let end = start + text[start..].find(',').unwrap();
            format!("{}\"{key}\":{value}{}", &text[..start], &text[end..])
        };
        for corrupt in [
            set("block_items_y", "1.5"),
            set("sparsity_bucket", "-3"),
            set("m_pow2", "4294967296"),
            set("roma", "1"),
            text.replacen("\"roma\":", "\"romb\":", 1),
        ] {
            std::fs::write(&path, &corrupt).unwrap();
            let err = AutoTuner::load_from(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{corrupt}");
            assert!(err.to_string().contains("line 2"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_cache_versions_are_rejected() {
        let dir = std::env::temp_dir().join("sputnik_tune_cache_ver_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("autotune.json");
        std::fs::write(
            &path,
            "{\"version\":999,\"kind\":\"sputnik_autotune_cache\"}\n",
        )
        .unwrap();
        let err = AutoTuner::load_from(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::write(&path, "{\"version\":1,\"kind\":\"something_else\"}\n").unwrap();
        assert!(AutoTuner::load_from(&path).is_err());
        for version in ["1.5", "-1", "\"1\""] {
            let header = format!("{{\"version\":{version},\"kind\":\"sputnik_autotune_cache\"}}\n");
            std::fs::write(&path, header).unwrap();
            let err = AutoTuner::load_from(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{version}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_tune_reuses_probe_launches() {
        let gpu = Gpu::v100();
        let cache = gpu_sim::LaunchCache::new();
        let a = gen::uniform(256, 256, 0.8, 6);
        let cold = AutoTuner::new().tune(&gpu, Some(&cache), &a, 64);
        let cold_misses = cache.misses();
        assert!(cold_misses > 0, "first search simulates every variant");
        // One search profiles each variant once.
        assert_eq!(cache.hits(), 0);
        // A fresh tuner (empty class memo) re-probes the same variants; the
        // launch cache serves all of them.
        let warm = AutoTuner::new().tune(&gpu, Some(&cache), &a, 64);
        assert_eq!(cache.misses(), cold_misses, "no new simulations");
        assert_eq!(cache.hits(), cold_misses);
        assert_eq!(cold.config, warm.config);
        assert_eq!(cold.best_us, warm.best_us);
    }

    #[test]
    fn problem_class_bucketing() {
        let a = gen::uniform(1000, 2000, 0.82, 4);
        let c = ProblemClass::of(&a, 100);
        assert_eq!(c.m_pow2, 10); // 1024
        assert_eq!(c.k_pow2, 11); // 2048
        assert_eq!(c.n_pow2, 7); // 128
        assert_eq!(c.sparsity_bucket, 16); // 0.82 -> 16.4 -> 16
    }
}
