//! Launch-attribution and profile-report invariants for the attention
//! stack.
//!
//! Two regressions are pinned here:
//!
//! 1. **Every device-data mutation and every simulated microsecond is
//!    attributed to a launch.** The attention pipelines used to scale the
//!    logits with a host-side loop over device data — zero simulated cost,
//!    invisible to the trace. The scale now rides inside the softmax
//!    kernels (or the fused kernel), so each `AttentionTime` component must
//!    equal the duration of a traced launch and the components must sum to
//!    the track's total.
//!
//! 2. **Per-layer report rows sum exactly to the trace total** once fusion
//!    changes launch counts ([`ProfileReport::check`]), across the
//!    transformer's span/replay accounting.
//!
//! The trace recorder is the calling thread's, so these tests run side by
//! side without a lock; each reads its launches off a uniquely-named device
//! track.

use dnn::attention;
use dnn::transformer::{benchmark, AttentionMode, TransformerConfig};
use gpu_sim::trace::{self, EventKind, TraceEvent};
use gpu_sim::{DeviceConfig, Gpu, ProfileReport};
use sparse::{gen, Matrix};

fn test_gpu(track: &str) -> Gpu {
    let mut dev = DeviceConfig::v100();
    dev.name = track.to_string();
    Gpu::new(dev)
}

fn traced<R>(track: &str, f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>) {
    trace::enable();
    let out = f();
    let events = trace::disable()
        .into_iter()
        .filter(|e| e.track == track)
        .collect();
    (out, events)
}

fn launches(events: &[TraceEvent]) -> Vec<(&str, f64)> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Launch { stats, .. } => Some((e.name.as_str(), stats.time_us)),
            _ => None,
        })
        .collect()
}

/// Dense attention: three launches, the scale inside the softmax kernel,
/// every timing component backed by exactly one launch.
#[test]
fn dense_attention_attributes_every_microsecond_to_a_launch() {
    let track = "attr-dense";
    let gpu = test_gpu(track);
    let q = Matrix::<f32>::random(48, 16, 1);
    let k = Matrix::<f32>::random(48, 16, 2);
    let v = Matrix::<f32>::random(48, 16, 3);
    let ((_, t), events) = traced(track, || attention::dense_attention(&gpu, &q, &k, &v));

    let l = launches(&events);
    assert_eq!(
        l.len(),
        3,
        "dense attention is exactly three launches: {l:?}"
    );
    assert_eq!(
        l[1].0, "dense_softmax_scaled",
        "the logit scale must ride inside the softmax kernel"
    );
    assert_eq!(t.scores_us, l[0].1);
    assert_eq!(t.softmax_us, l[1].1);
    assert_eq!(t.context_us, l[2].1);
    assert_eq!(t.fused_us, 0.0);
    let traced_us: f64 = l.iter().map(|&(_, us)| us).sum();
    assert!(
        (t.total_us() - traced_us).abs() <= 1e-9 * traced_us.max(1.0),
        "attention time {} must be fully launch-attributed ({} traced)",
        t.total_us(),
        traced_us
    );
}

/// Sparse attention, fused when legal: one fused launch wrapped in a
/// fusion span, and the same attribution invariant.
#[test]
fn fused_sparse_attention_is_one_attributed_launch() {
    let track = "attr-fused";
    let gpu = test_gpu(track);
    let q = Matrix::<f32>::random(64, 16, 4);
    let k = Matrix::<f32>::random(64, 16, 5);
    let v = Matrix::<f32>::random(64, 16, 6);
    let mask = gen::attention_mask(64, 8, 0.8, 7);
    let ((_, t), events) = traced(track, || {
        attention::sparse_attention(&gpu, &q, &k, &v, &mask)
    });

    let l = launches(&events);
    assert_eq!(l.len(), 1, "fused attention is one launch: {l:?}");
    assert!(
        l[0].0.starts_with("fused_sddmm_softmax_spmm"),
        "unexpected kernel {}",
        l[0].0
    );
    assert_eq!(t.fused_us, l[0].1);
    assert_eq!(t.total_us(), l[0].1);
    let fusion_span = events
        .iter()
        .find(|e| e.cat == "fusion" && matches!(e.kind, EventKind::Span { .. }));
    let span = fusion_span.expect("fused launch wrapped in a fusion span");
    assert!((span.dur_us() - t.fused_us).abs() <= 1e-9 * t.fused_us.max(1.0));
}

/// The unfused reference: three launches, the scale inside the sparse
/// softmax kernel (scaled variant), nothing host-side.
#[test]
fn unfused_sparse_attention_scale_rides_in_the_softmax_kernel() {
    let track = "attr-unfused";
    let gpu = test_gpu(track);
    let q = Matrix::<f32>::random(48, 16, 8);
    let k = Matrix::<f32>::random(48, 16, 9);
    let v = Matrix::<f32>::random(48, 16, 10);
    let mask = gen::attention_mask(48, 8, 0.8, 11);
    let configs = sputnik::attention_configs(&gpu, None, None, &mask, 16, 16);
    let scale = 1.0 / 4.0;
    let ((_, t), events) = traced(track, || {
        sputnik::sparse_attention_unfused(&gpu, &q, &k, &v, &mask, scale, &configs)
            .unwrap_or_else(|e| panic!("unfused attention failed: {e}"))
    });

    let l = launches(&events);
    assert_eq!(
        l.len(),
        3,
        "unfused sparse attention is three launches: {l:?}"
    );
    assert!(
        l[1].0.starts_with("sputnik_sparse_softmax_scaled"),
        "the scale must be fused into the sparse softmax: {}",
        l[1].0
    );
    assert_eq!(t.scores_us, l[0].1);
    assert_eq!(t.softmax_us, l[1].1);
    assert_eq!(t.context_us, l[2].1);
    assert_eq!(t.fused_us, 0.0);
}

/// The transformer's traced profile: per-layer rows must sum exactly to
/// the total ([`ProfileReport::check`]), with fused attention changing the
/// launch count inside each layer span.
#[test]
fn transformer_layer_rows_sum_to_total_with_fusion() {
    let track = "attr-transformer";
    let gpu = test_gpu(track);
    let cfg = TransformerConfig {
        layers: 3,
        heads: 2,
        d_model: 64,
        ff: 128,
        seq: 256,
        batch: 2,
    };
    let mode = AttentionMode::Sparse {
        band: 16,
        off_diag_sparsity: 0.9,
        seed: 12,
    };
    let (bench, events) = traced(track, || benchmark(&gpu, &cfg, &mode));
    assert!(!bench.out_of_memory);

    // The fused kernel ran inside the layer span.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Launch { .. })
                && e.name.starts_with("fused_sddmm_softmax_spmm")),
        "sparse transformer attention must route through the fused kernel"
    );
    assert!(
        events
            .iter()
            .any(|e| e.cat == "fusion" && matches!(e.kind, EventKind::Span { .. })),
        "per-fusion span events must be exported"
    );

    let report = ProfileReport::from_events(&events);
    report
        .check()
        .unwrap_or_else(|e| panic!("sum invariant violated: {e}"));
    assert_eq!(
        report.layers.len(),
        cfg.layers,
        "one row per layer, no synthetic leakage: {:?}",
        report
            .layers
            .iter()
            .map(|l| l.name.clone())
            .collect::<Vec<_>>()
    );
    assert!(
        (report.total_us - bench.forward_us).abs() <= 1e-6 * bench.forward_us,
        "trace total {} must match the benchmark's forward time {}",
        report.total_us,
        bench.forward_us
    );
    // Replayed layers repeat layer 0's cost exactly.
    let first = report.layers[0].dur_us;
    for row in &report.layers[1..] {
        assert!(
            (row.dur_us - first).abs() <= 1e-6 * first,
            "layer rows must be identical across replays: {} vs {first}",
            row.dur_us
        );
    }
}
