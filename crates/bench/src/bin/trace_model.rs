//! Trace a small model matrix and export a Chrome `trace_event` file.
//!
//! Runs a fixed, deterministic mix of workloads with the trace recorder on:
//!
//! 1. sparse MobileNetV1 inference (per-block layer spans),
//! 2. a scaled-down sparse Transformer forward pass (spans + replays),
//! 3. two functional LSTM cell steps,
//! 4. one Figure-10 RNN problem profile,
//! 5. a dispatch ladder forced to degrade by a name-matched fault plan,
//! 6. a warmed launch cache (hit/miss instants, replayed launches).
//!
//! Outputs:
//! - `results/trace_model.trace.json` — Chrome trace, loadable in
//!   chrome://tracing or Perfetto, structurally validated before writing;
//! - `BENCH_trace_model.json` — the profiler-counter snapshot (repo root).
//!
//! The counters are reset and tracing enabled together, so the final
//! counter snapshot is the delta over the traced window: the run checks
//! that the per-layer rows sum to the profile total and that the books
//! balance — folding the events reproduces `sim_time_ns`, `launches` and
//! `launches_replayed` exactly ([`gpu_sim::trace::books_mismatches`]). The
//! counter's `sim_time_us` and the unrounded `profile_total_us` may differ
//! only by per-event ns rounding (at most 0.5 ns per launch or replay); the
//! run prints that residual and fails if it is larger.
//!
//! `--check <baseline.json>` gates CI: the launch count, the dispatch
//! ladder's injected faults and degraded serves, and the trace event count
//! must match the committed baseline exactly (the workload is deterministic,
//! so any drift is an unreviewed behaviour change), `books_mismatch` must be
//! zero, and the cache must still produce hits.

use dnn::lstm::SparseLstmCell;
use dnn::rnn::{CellKind, RnnProblem};
use dnn::transformer::{AttentionMode, TransformerConfig};
use dnn::{mobilenet, rnn, transformer};
use gpu_sim::trace::EventKind;
use gpu_sim::{metrics, trace, FaultKind, FaultPlan, Gpu, LaunchCache};
use sparse::{gen, Matrix};
use sputnik::{DispatchPolicy, SpmmConfig};
use sputnik_bench::gate::{BenchRecord, Gate};

fn main() {
    metrics::global().reset();
    trace::enable();
    let gpu = Gpu::v100();

    // 1. Sparse MobileNetV1 at width 0.5: every block emits a layer span.
    let model = mobilenet::MobileNetV1::new(0.5);
    let mn = mobilenet::benchmark(&gpu, &model, Some(0.9), false);

    // 2. Scaled-down sparse Transformer: layer spans plus replay events for
    //    the multiplied per-head / per-layer costs.
    let cfg = TransformerConfig {
        layers: 2,
        heads: 4,
        d_model: 256,
        ff: 512,
        seq: 512,
        batch: 1,
    };
    let mode = AttentionMode::Sparse {
        band: 64,
        off_diag_sparsity: 0.95,
        seed: 0x5eed,
    };
    let tr = transformer::benchmark(&gpu, &cfg, &mode);

    // 3. Two functional LSTM steps (lstm_step spans).
    let cell = SparseLstmCell::random(128, 64, 0.9, 7);
    let x = Matrix::<f32>::random(128, 8, 8);
    let h0 = Matrix::<f32>::zeros(64, 8);
    let c0 = Matrix::<f32>::zeros(64, 8);
    let step1 = cell.step(&gpu, &x, &h0, &c0);
    let _step2 = cell.step(&gpu, &x, &step1.h, &step1.c);

    // 4. One Figure-10 RNN problem profile (problem-labelled span).
    let problem = RnnProblem {
        cell: CellKind::Lstm,
        hidden: 512,
        sparsity: 0.9,
        batch: 32,
    };
    rnn::profile_problem(&gpu, &problem, 11);

    // 5. Dispatch ladder under a name-matched fault plan: both Sputnik rungs
    //    fail, the fallback kernel serves — fault and dispatch instants.
    let faulty =
        Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError).matching("sputnik"));
    let a = gen::uniform(64, 64, 0.8, 3);
    let b = Matrix::<f32>::random(64, 32, 4);
    let (_, report) = match sputnik::dispatch::spmm(
        &faulty,
        None,
        &a,
        &b,
        SpmmConfig::default(),
        &DispatchPolicy::default(),
    ) {
        Ok(served) => served,
        Err(e) => {
            eprintln!("trace_model: dispatch ladder failed to bottom out: {e}");
            std::process::exit(1);
        }
    };
    assert_ne!(
        report.served_by,
        sputnik::Rung::Sputnik,
        "the fault plan must force a degraded serve"
    );

    // 6. Launch-cache reuse: repeated profiles replay from the cache
    //    (hit/miss instants + launches_replayed).
    let cache = LaunchCache::new();
    for _ in 0..4 {
        sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &a, 64, 32, SpmmConfig::default());
    }

    // ---- Export and validate.
    let events = trace::disable();
    let json = trace::chrome_trace_json(&events);
    let check = match trace::validate_chrome_trace(&json) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[trace failed schema validation: {e}]");
            std::process::exit(1);
        }
    };
    std::fs::create_dir_all("results").ok();
    let trace_path = "results/trace_model.trace.json";
    match std::fs::write(trace_path, &json) {
        Ok(()) => eprintln!("[trace written to {trace_path}]"),
        Err(e) => eprintln!("[failed to write {trace_path}: {e}]"),
    }

    let profile = trace::ProfileReport::from_events(&events);
    println!("{}", profile.render());
    if let Err(e) = profile.check() {
        eprintln!("[profile report failed its layer-sum check: {e}]");
        std::process::exit(1);
    }
    let snap = metrics::global().snapshot();
    let mismatches = trace::books_mismatches(&events, &snap);
    for m in &mismatches {
        eprintln!("[books do not balance: {m}]");
    }
    // `sim_time_ns` rounds each launch and replay to the ns; the profile
    // sums the exact durations. The two totals may differ by that rounding
    // alone: at most half a ns per event.
    let work_events = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Launch { .. } | EventKind::Replay { .. }))
        .count();
    let rounding_ns = snap.get("sim_time_ns") as f64 - profile.total_us * 1e3;
    let rounding_bound_ns = 0.5 * work_events as f64;
    println!(
        "books: sim_time_ns {} over {work_events} launch/replay events vs profile \
         {:.3} ns: rounding {rounding_ns:+.3} ns (bound ±{rounding_bound_ns:.1} ns)",
        snap.get("sim_time_ns"),
        profile.total_us * 1e3,
    );
    if rounding_ns.abs() > rounding_bound_ns + 1e-6 {
        eprintln!("[sim_time_ns differs from the profile total by more than rounding]");
        std::process::exit(1);
    }

    println!(
        "mobilenet 0.5x sparse: {:.1} us/frame   transformer fwd: {:.1} us   tokens/s: {:.0}",
        mn.inference_us, tr.forward_us, tr.tokens_per_second
    );
    println!(
        "trace: {} events, {} launches, {} counters, {} instants, {} tracks",
        check.events, check.launches, check.counters, check.instants, check.tracks
    );

    // ---- Counter snapshot and CI gate. The workload is fixed and the
    // simulator deterministic, so the launch count and step 5's ladder
    // counters must match the baseline exactly; the books must balance; the
    // cache must still hit and replay.
    BenchRecord::new("trace_model")
        .int("launches", snap.get("launches"))
        .int("launches_replayed", snap.get("launches_replayed"))
        .int("cache_hits", snap.get("cache_hits"))
        .int("cache_misses", snap.get("cache_misses"))
        .int("faults_injected", snap.get("faults_injected"))
        .int("dispatch_degraded", snap.get("dispatch_degraded"))
        .float("sim_time_us", snap.sim_time_us(), 3)
        .int("trace_events", check.events as u64)
        .int("trace_launches", check.launches as u64)
        .int("trace_tracks", check.tracks as u64)
        .int("profile_layers", profile.layers.len() as u64)
        .float("profile_total_us", profile.total_us, 3)
        .int("books_mismatch", mismatches.len() as u64)
        .gate("launches", Gate::MatchBaseline)
        .gate("faults_injected", Gate::MatchBaseline)
        .gate("dispatch_degraded", Gate::MatchBaseline)
        .gate("trace_events", Gate::MatchBaseline)
        .gate("books_mismatch", Gate::Exact(0))
        .gate("cache_hits", Gate::Nonzero)
        .gate("launches_replayed", Gate::Nonzero)
        .finish();
}
