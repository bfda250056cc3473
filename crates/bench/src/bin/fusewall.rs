//! Fusion-wall benchmark: the fused sparse-attention pipeline vs the
//! three-launch reference, swept across sequence lengths.
//!
//! For each sequence length (1k/2k/4k, the paper's band-attention shape
//! family: dense band of 128 plus 5% random off-diagonal, d_head 64):
//!
//! - the **unfused** pipeline cost: SDDMM + scaled sparse softmax + SpMM,
//!   three launches with their intermediates streamed through DRAM;
//! - the **fused** pipeline cost once the audit admits fusion: one launch
//!   staging the scores row and index strips in shared memory, admitted
//!   through the full static-audit → sanitizer → LaunchCache funnel;
//! - a **bit-identity** check: the fused functional output must equal the
//!   three-launch reference exactly (`fusion_equivalence` pins this across
//!   grids; the bench re-verifies it at every swept point);
//! - a **replay** through the same LaunchCache: fused layers repeated
//!   across transformer layers/heads must be served from the cache.
//!
//! A traced replay is exported and validated as Chrome `trace_event` JSON
//! with the per-fusion span events.
//!
//! Everything is simulated time: deterministic and machine-independent.
//!
//! `--check <baseline.json>` gates:
//!
//! - `speedup_seq4096` >= 1.30 (absolute: the fusion must pay for itself
//!   at the paper's long-sequence regime) and >= 0.95x the committed
//!   baseline;
//! - `fused_seq<N>` == 1 at every point: the audit must prove and take
//!   the fused path on band masks;
//! - `bit_identical_all` == 1: fusion is bit-invisible at every point;
//! - `replay_cache_hits` nonzero: replayed fused layers hit the cache;
//! - `trace_ok` == 1: the traced run exports valid Chrome JSON with
//!   fusion span events.

use gpu_sim::{chrome_trace_json, trace, validate_chrome_trace, Gpu, LaunchCache};
use sparse::{gen, Matrix};
use sputnik::{
    attention_configs, sparse_attention_fused, sparse_attention_fused_profile,
    sparse_attention_unfused,
};
use sputnik_bench::gate::{BenchRecord, Gate};
use sputnik_bench::{has_flag, Table};

const SEED: u64 = 0xF05E;
const BAND: usize = 128;
const OFF_DIAG_SPARSITY: f64 = 0.95;
const D_HEAD: usize = 64;

struct Point {
    seq: usize,
    nnz: usize,
    staging_bytes: u64,
    fused: bool,
    unfused_us: f64,
    fused_us: f64,
    speedup: f64,
    bit_identical: bool,
    replay_hits: usize,
}

fn bench_point(gpu: &Gpu, cache: &LaunchCache, seq: usize) -> Point {
    let mask = gen::attention_mask(seq, BAND, OFF_DIAG_SPARSITY, SEED + seq as u64);
    let scale = 1.0 / (D_HEAD as f32).sqrt();

    // Unfused reference cost: three launches, heuristic configs (the same
    // configs the unfused fallback would pick).
    let configs = attention_configs(gpu, None, None, &mask, D_HEAD, D_HEAD);
    let unfused_us = sputnik::sddmm_profile::<f32>(gpu, &mask, D_HEAD, configs.sddmm).time_us
        + sputnik::sparse_softmax_scaled_profile::<f32>(gpu, &mask, scale).time_us
        + sputnik::spmm_profile::<f32>(gpu, &mask, mask.cols(), D_HEAD, configs.spmm).time_us;

    // Fused cost through the audit + cache funnel.
    let (time, decision, _) =
        sparse_attention_fused_profile(gpu, &mask, D_HEAD, D_HEAD, scale, Some(cache), None)
            .unwrap_or_else(|e| panic!("seq {seq}: fused profile failed: {e}"));

    // Replay: the same fused layer again — transformer layers and heads
    // share the topology, so this must be a cache hit.
    let (replayed, _, _) =
        sparse_attention_fused_profile(gpu, &mask, D_HEAD, D_HEAD, scale, Some(cache), None)
            .unwrap_or_else(|e| panic!("seq {seq}: fused replay failed: {e}"));

    // Bit identity at this exact point: fused functional vs the
    // three-launch reference.
    let q = Matrix::<f32>::random(seq, D_HEAD, SEED + 1);
    let k = Matrix::<f32>::random(seq, D_HEAD, SEED + 2);
    let v = Matrix::<f32>::random(seq, D_HEAD, SEED + 3);
    let run = sparse_attention_fused(gpu, &q, &k, &v, &mask, scale, None, None);
    let (reference, _) = sparse_attention_unfused(gpu, &q, &k, &v, &mask, scale, &run.configs)
        .unwrap_or_else(|e| panic!("seq {seq}: unfused reference failed: {e}"));
    let bit_identical = run
        .context
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());

    Point {
        seq,
        nnz: mask.nnz(),
        staging_bytes: gpu_sim::fused::staging_bytes(
            mask.max_row_len(),
            configs.sddmm.block_items_x as usize,
        ),
        fused: decision.fused && run.decision.fused,
        unfused_us,
        fused_us: time.fused_us,
        speedup: unfused_us / time.total_us(),
        bit_identical,
        replay_hits: replayed.cache_hits,
    }
}

fn main() {
    let seqs: &[usize] = if has_flag("--full") {
        &[1024, 2048, 4096, 8192]
    } else {
        &[1024, 2048, 4096]
    };
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();

    let mut table = Table::new(
        "fusewall — fused sparse attention vs three-launch pipeline (simulated)",
        &[
            "seq",
            "nnz",
            "staging KB",
            "fused",
            "unfused us",
            "fused us",
            "speedup",
            "identical",
            "replay hits",
        ],
    );
    let points: Vec<Point> = seqs.iter().map(|&s| bench_point(&gpu, &cache, s)).collect();
    for p in &points {
        table.row(&[
            format!("{}", p.seq),
            format!("{}", p.nnz),
            format!("{:.1}", p.staging_bytes as f64 / 1024.0),
            format!("{}", u64::from(p.fused)),
            format!("{:.1}", p.unfused_us),
            format!("{:.1}", p.fused_us),
            format!("{:.2}x", p.speedup),
            format!("{}", u64::from(p.bit_identical)),
            format!("{}", p.replay_hits),
        ]);
    }
    table.print();

    // Traced replay of the largest point: the fused launch must export a
    // fusion span and stay structurally valid Chrome JSON.
    trace::enable();
    let last_seq = *seqs.last().unwrap_or(&4096);
    let mask = gen::attention_mask(last_seq, BAND, OFF_DIAG_SPARSITY, SEED + last_seq as u64);
    let scale = 1.0 / (D_HEAD as f32).sqrt();
    sparse_attention_fused_profile(&gpu, &mask, D_HEAD, D_HEAD, scale, Some(&cache), None)
        .unwrap_or_else(|e| panic!("traced fused run failed: {e}"));
    let events = trace::disable();
    let has_fusion_span = events.iter().any(|e| e.cat == "fusion");
    let trace_json = chrome_trace_json(&events);
    let check = validate_chrome_trace(&trace_json)
        .unwrap_or_else(|e| panic!("fusion trace failed validation: {e}"));
    let trace_ok = u64::from(has_fusion_span && check.launches >= 1);
    println!(
        "trace: {} events ({} launches) fusion_span={has_fusion_span} — ok={trace_ok}",
        check.events, check.launches
    );

    let bit_identical_all = u64::from(points.iter().all(|p| p.bit_identical));
    let all_fused = u64::from(points.iter().all(|p| p.fused));
    let replay_hits: u64 = points.iter().map(|p| p.replay_hits as u64).sum();
    let mut rec = BenchRecord::new("fusewall");
    rec.int("band", BAND as u64)
        .plain("off_diag_sparsity", OFF_DIAG_SPARSITY)
        .int("d_head", D_HEAD as u64);
    for p in &points {
        let s = p.seq;
        rec.int(format!("nnz_seq{s}"), p.nnz as u64)
            .int(format!("staging_bytes_seq{s}"), p.staging_bytes)
            .int(format!("fused_seq{s}"), u64::from(p.fused))
            .float(format!("unfused_us_seq{s}"), p.unfused_us, 3)
            .float(format!("fused_us_seq{s}"), p.fused_us, 3)
            .float(format!("speedup_seq{s}"), p.speedup, 6)
            .int(format!("bit_identical_seq{s}"), u64::from(p.bit_identical))
            .int(format!("replay_hits_seq{s}"), p.replay_hits as u64);
    }
    rec.int("bit_identical_all", bit_identical_all)
        .int("all_fused", all_fused)
        .int("replay_cache_hits", replay_hits)
        .int("trace_events", check.events as u64)
        .int("trace_launches", check.launches as u64)
        .int("trace_ok", trace_ok)
        // The headline target: at the paper's long-sequence regime the fused
        // pipeline must beat three launches by >= 1.3x — an absolute floor, then
        // a 5%-slack drift check vs the committed baseline.
        .gate("speedup_seq4096", Gate::AtLeast(1.30))
        .gate("speedup_seq4096", Gate::AtLeastBaseline(0.95))
        // Fusion must be taken at every band-mask point.
        .gate("all_fused", Gate::Exact(1))
        // Fusion is bit-invisible, at every point, or it does not ship.
        .gate("bit_identical_all", Gate::Exact(1))
        // Replayed fused layers are served from the LaunchCache.
        .gate("replay_cache_hits", Gate::Nonzero)
        // The traced run exports fusion spans as valid Chrome JSON.
        .gate("trace_ok", Gate::Exact(1))
        .finish();
}
