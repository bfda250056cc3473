//! Joint-sparsity wall: the pattern-skipping SpMM family vs weight-only
//! Sputnik SpMM and dense GEMM, swept across activation zero fractions.
//!
//! One memory-bound problem — 512 x 4096 weights at 95% sparsity applied
//! to 4096 x 2048 activations, the regime where skipped B-operand traffic
//! actually buys DRAM time — with the activations regenerated by the
//! seeded generator at each target zero fraction. Every point launches
//! three contenders:
//!
//! - dense GEMM (cost model; ignores both kinds of sparsity);
//! - weight-only Sputnik SpMM (the paper's kernel, blind to activations);
//! - joint SpMM with the 8x32 pattern LUT;
//!
//! and records whether the joint output is bit-identical to the
//! weight-only output. On top of the sweep the bin statically audits the
//! joint launch at the gate point (zero refutations or the family does
//! not ship), reads the `joint_tiles_total` / `joint_tiles_skipped`
//! observability counters back from the metrics registry, and exports a
//! traced run whose Chrome JSON must carry the joint counter track.
//!
//! Everything is simulated time: deterministic and machine-independent.
//!
//! `--check <baseline.json>` gates:
//!
//! - `speedup_fine_zf80` >= 1.50 (absolute: with ~70% of fine tiles dead
//!   the joint kernel must beat weight-only SpMM by half again) and
//!   >= 0.95x the committed baseline;
//! - `fine_dead_zf80` >= 0.70: the gate point really is the ">=70% of
//!   8x32 tiles skipped" regime the headline claims;
//! - `bit_identical_all` == 1: pattern skipping is bit-invisible at every
//!   swept point;
//! - `statically_refuted` == 0: the auditor proves, never rejects, the
//!   joint launch descriptors;
//! - `gemm_us_*`, `spmm_us_*` and `fine_us_*` equal the
//!   baseline's text at every swept point, so a cost drift of any size in
//!   the SpMM body (which the joint kernel shares) fails the check until
//!   the file is re-recorded; run `--full` without `--check`, since the
//!   committed file holds only the default grid's points;
//! - `joint_tiles_total` / `joint_tiles_skipped` nonzero and equal to the
//!   baseline: the skip counters reached the metrics registry and count
//!   exactly the committed probes;
//! - `trace_ok` == 1: the traced run exports valid Chrome JSON including
//!   the joint counter samples.

use gpu_sim::{chrome_trace_json, trace, validate_chrome_trace, Gpu, Verdict};
use sparse::{gen, CsrMatrix, PatternGranularity, PatternLut, RowSwizzle};
use sputnik::{joint_heuristic, joint_spmm_profile, JointSpmmKernel};
use sputnik_bench::gate::{BenchRecord, Gate};
use sputnik_bench::{has_flag, Table};

const SEED: u64 = 0x1017;
const M: usize = 512;
const K: usize = 4096;
const N: usize = 2048;
const WEIGHT_SPARSITY: f64 = 0.95;
/// The gate point: target 80% activation zeros realizes ~72% dead fine
/// tiles — the ">=70% skipped" regime of the headline claim.
const GATE_ZF: f64 = 0.8;

/// `0.8 -> "zf80"`: the JSON key suffix for one swept zero fraction.
fn zf_key(zf: f64) -> String {
    format!("zf{:02.0}", zf * 100.0)
}

/// Statically audit one joint launch (cost-model construction: the
/// auditor only needs the descriptor) and return its refuted-check count.
fn audit_refutations(
    gpu: &Gpu,
    a: &CsrMatrix<f32>,
    lut: &PatternLut,
    refuted_details: &mut Vec<String>,
) -> u64 {
    let cfg = joint_heuristic::<f32>(N);
    let swizzle = RowSwizzle::identity(a.rows());
    let kernel = JointSpmmKernel::<f32>::for_profile(a, N, &swizzle, lut, cfg)
        .unwrap_or_else(|e| panic!("jointwall: audit construction: {e}"));
    let audit = gpu.audit(&kernel);
    let mut refuted = 0;
    for f in &audit.findings {
        if f.verdict == Verdict::Refuted {
            refuted += 1;
            refuted_details.push(format!("{}: {}", audit.kernel, f.detail));
        }
    }
    refuted
}

fn main() {
    let zero_fracs: &[f64] = if has_flag("--full") {
        &[0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95]
    } else {
        &[0.0, 0.5, 0.8, 0.9]
    };
    let gpu = Gpu::v100();

    let sweep = dnn::joint_crossover_sweep(&gpu, M, K, N, WEIGHT_SPARSITY, zero_fracs, SEED);

    let mut table = Table::new(
        "jointwall — joint activation x weight SpMM vs weight-only / dense (simulated)",
        &[
            "target zf",
            "fine dead",
            "gemm us",
            "spmm us",
            "fine us",
            "fine speedup",
            "identical",
        ],
    );
    for p in &sweep.points {
        table.row(&[
            format!("{:.2}", p.target_zero_frac),
            format!("{:.3}", p.fine_dead_frac),
            format!("{:.1}", p.dense_gemm_us),
            format!("{:.1}", p.weight_spmm_us),
            format!("{:.1}", p.joint_fine_us),
            format!("{:.2}x", p.fine_speedup_vs_spmm()),
            format!("{}", u64::from(p.bit_identical)),
        ]);
    }
    table.print();
    match sweep.crossover_zero_frac() {
        Some(zf) => println!("crossover: joint-fine beats dense GEMM from target zf {zf:.2}"),
        None => println!("crossover: dense GEMM won at every swept point"),
    }

    // The skip counters the sweep's launches pushed into the global
    // metrics registry — observability is part of the contract.
    let tiles_total = gpu_sim::metrics::global().get("joint_tiles_total");
    let tiles_skipped = gpu_sim::metrics::global().get("joint_tiles_skipped");
    println!("metrics: joint_tiles_skipped/total = {tiles_skipped}/{tiles_total}");

    // Static audit of the gate-point joint launch: the descriptor must be
    // proven or left dynamic, never refuted.
    let a: CsrMatrix<f32> = gen::uniform(M, K, WEIGHT_SPARSITY, SEED);
    let gate_idx = zero_fracs
        .iter()
        .position(|&zf| zf == GATE_ZF)
        .unwrap_or_else(|| panic!("jointwall: sweep must include the zf {GATE_ZF} gate point"));
    let acts = gen::activations(K, N, GATE_ZF, SEED.wrapping_add(1 + gate_idx as u64));
    let fine = PatternLut::build(&acts, PatternGranularity::Fine);
    let mut refuted_details = Vec::new();
    let statically_refuted = audit_refutations(&gpu, &a, &fine, &mut refuted_details);
    for d in &refuted_details {
        eprintln!("refuted: {d}");
    }
    println!("static audit: {statically_refuted} refuted checks");

    // Traced gate-point run: the Chrome export must validate and carry the
    // joint counter track alongside the launch.
    trace::enable();
    let cfg = joint_heuristic::<f32>(N);
    joint_spmm_profile::<f32>(&gpu, &a, K, N, &fine, cfg);
    let events = trace::disable();
    let has_joint_counters = events.iter().any(|e| {
        e.cat == "joint" && matches!(e.kind, trace::EventKind::Counter { value } if value > 0)
    });
    let trace_json = chrome_trace_json(&events);
    let check = validate_chrome_trace(&trace_json)
        .unwrap_or_else(|e| panic!("joint trace failed validation: {e}"));
    let trace_ok = u64::from(has_joint_counters && check.launches >= 1 && check.counters >= 2);
    println!(
        "trace: {} events ({} launches, {} counter samples) joint_counters={has_joint_counters} — ok={trace_ok}",
        check.events, check.launches, check.counters
    );

    let mut rec = BenchRecord::new("jointwall");
    rec.int("m", M as u64)
        .int("k", K as u64)
        .int("n", N as u64)
        .plain("weight_sparsity", WEIGHT_SPARSITY);
    for p in &sweep.points {
        let key = zf_key(p.target_zero_frac);
        rec.float(format!("realized_{key}"), p.realized_zero_frac, 6)
            .float(format!("fine_dead_{key}"), p.fine_dead_frac, 6)
            .float(format!("gemm_us_{key}"), p.dense_gemm_us, 3)
            .float(format!("spmm_us_{key}"), p.weight_spmm_us, 3)
            .float(format!("fine_us_{key}"), p.joint_fine_us, 3)
            .float(format!("speedup_fine_{key}"), p.fine_speedup_vs_spmm(), 6)
            .int(format!("bit_identical_{key}"), u64::from(p.bit_identical));
        // Simulated kernel times are deterministic: any cost-model drift,
        // however small, must show up as a re-recorded baseline.
        for contender in ["gemm", "spmm", "fine"] {
            rec.gate(format!("{contender}_us_{key}"), Gate::MatchBaseline);
        }
    }
    rec.int("bit_identical_all", u64::from(sweep.all_bit_identical()))
        .int("statically_refuted", statically_refuted)
        .int("joint_tiles_total", tiles_total)
        .int("joint_tiles_skipped", tiles_skipped)
        .int("trace_events", check.events as u64)
        .int("trace_launches", check.launches as u64)
        .int("trace_counters", check.counters as u64)
        .int("trace_ok", trace_ok)
        // The headline target: with >= 70% of fine tiles dead, the joint
        // kernel must beat weight-only SpMM by >= 1.5x — an absolute floor,
        // then a 5%-slack drift check vs the committed baseline.
        .gate("speedup_fine_zf80", Gate::AtLeast(1.50))
        .gate("speedup_fine_zf80", Gate::AtLeastBaseline(0.95))
        // The gate point really is the >= 70%-skipped regime.
        .gate("fine_dead_zf80", Gate::AtLeast(0.70))
        // Skipping is bit-invisible at every point, or it does not ship.
        .gate("bit_identical_all", Gate::Exact(1))
        // The static auditor never refutes a joint launch descriptor.
        .gate("statically_refuted", Gate::Exact(0))
        // The observability counters reached the metrics registry, and
        // count exactly the committed probes.
        .gate("joint_tiles_total", Gate::Nonzero)
        .gate("joint_tiles_skipped", Gate::Nonzero)
        .gate("joint_tiles_total", Gate::MatchBaseline)
        .gate("joint_tiles_skipped", Gate::MatchBaseline)
        // The traced run exports the joint counter track as valid Chrome
        // JSON.
        .gate("trace_ok", Gate::Exact(1))
        .finish();
}
