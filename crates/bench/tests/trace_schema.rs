//! End-to-end trace gates: a traced model run must export Chrome
//! `trace_event` JSON that passes structural validation, and the profile
//! report built from the same events must account for every simulated
//! microsecond in its per-layer rows.
//!
//! The books and the trace switch are the calling thread's, so the tests in
//! this binary run side by side without a lock; each names its device so
//! its launches sit on one track of their own.

use dnn::lstm::SparseLstmCell;
use dnn::rnn::{CellKind, RnnProblem};
use dnn::{mobilenet, rnn};
use gpu_sim::{trace, DeviceConfig, Gpu};
use sparse::Matrix;

/// A V100 renamed so this test's launches land on a track of their own,
/// apart from the synthetic tracks (`dispatch`, `faults`, ...).
fn test_gpu(name: &str) -> Gpu {
    let mut dev = DeviceConfig::v100();
    dev.name = name.to_string();
    Gpu::new(dev)
}

#[test]
fn traced_model_run_exports_valid_chrome_trace() {
    trace::enable();
    let track = "trace-schema-mobilenet";
    let gpu = test_gpu(track);

    // Small models: this runs in debug builds under `cargo test`.
    let model = mobilenet::MobileNetV1::new(0.25);
    let bench = mobilenet::benchmark(&gpu, &model, Some(0.9), false);
    assert!(bench.inference_us > 0.0);

    let cell = SparseLstmCell::random(64, 32, 0.9, 5);
    let x = Matrix::<f32>::random(64, 4, 6);
    let h = Matrix::<f32>::zeros(32, 4);
    let c = Matrix::<f32>::zeros(32, 4);
    cell.step(&gpu, &x, &h, &c);

    let events = trace::disable();
    let mine: Vec<_> = events.into_iter().filter(|e| e.track == track).collect();
    let json = trace::chrome_trace_json(&mine);
    let check = trace::validate_chrome_trace(&json).expect("trace must pass schema validation");
    assert!(check.launches > 0, "model run must record launches");
    assert!(
        check.counters >= 4 * check.launches,
        "each launch synthesizes occupancy + bandwidth counter samples"
    );
    assert_eq!(check.tracks, 1, "all events filtered to one track");
}

#[test]
fn profile_report_accounts_for_every_simulated_microsecond() {
    trace::enable();
    let track = "trace-schema-report";
    let gpu = test_gpu(track);

    let model = mobilenet::MobileNetV1::new(0.25);
    mobilenet::benchmark(&gpu, &model, Some(0.9), false);
    // A launch outside any span: must surface as a synthetic layer row
    // rather than silently dropping from the per-layer accounting.
    let problem = RnnProblem {
        cell: CellKind::Rnn,
        hidden: 128,
        sparsity: 0.9,
        batch: 32,
    };
    let saved = trace::enabled();
    assert!(saved);
    rnn::profile_problem(&gpu, &problem, 9);

    let events = trace::disable();
    let mine: Vec<_> = events.into_iter().filter(|e| e.track == track).collect();
    let report = trace::ProfileReport::from_events(&mine);
    assert!(report.total_us > 0.0);
    // 15 MobileNet spans (stem + 13 blocks + classifier) plus the RNN
    // problem span.
    assert!(
        report.layers.len() >= 16,
        "got {} layers",
        report.layers.len()
    );
    let layer_sum: f64 = report.layers.iter().map(|l| l.dur_us).sum();
    assert!(
        (layer_sum - report.total_us).abs() <= 1e-6 * report.total_us,
        "layer durations ({layer_sum}) must sum to the total ({})",
        report.total_us
    );
    assert!(!report.kernels.is_empty());
    assert!(!report.bound_by.is_empty());
}
