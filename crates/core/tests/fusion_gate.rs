//! Attention fusion is decided by the gate of the one launch funnel
//! (`Gpu::run`), and by nothing else: a refused fusion is audited once and
//! reaches the books like any other refused launch, and a cached fused
//! launch is not audited again.
//!
//! The counters are the calling thread's, so the deltas below are exact
//! while other tests run beside them.

use gpu_sim::trace::{self, EventKind};
use gpu_sim::{metrics, Gpu, LaunchCache};
use sparse::{gen, Matrix};
use sputnik::{sparse_attention_fused, sparse_attention_unfused};

/// `(static_audits, dispatch_static_refuted)` raised by `f`.
fn audits<R>(f: impl FnOnce() -> R) -> (R, [u64; 2]) {
    let read = || ["static_audits", "dispatch_static_refuted"].map(|c| metrics::global().get(c));
    let before = read();
    let out = f();
    let after = read();
    (out, [after[0] - before[0], after[1] - before[1]])
}

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn the_funnel_gate_is_the_only_fusion_check() {
    let gpu = Gpu::v100();

    // Oversized staging (rows of ~30k nonzeros stage ~120 KB, past the
    // V100's 96 KiB): the gate refutes the fused launch exactly once, the
    // refusal is booked and traced, and the three-launch chain's bits
    // come back.
    let mask = gen::uniform(4, 32 * 1024, 0.1, 902);
    let q = Matrix::<f32>::random(4, 8, 903);
    let k = Matrix::<f32>::random(32 * 1024, 8, 904);
    let v = Matrix::<f32>::random(32 * 1024, 8, 905);
    trace::enable();
    let (run, fused_delta) =
        audits(|| sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.5, None, None));
    let events = trace::disable();
    assert!(!run.decision.fused, "{}", run.decision.reason);
    assert!(
        run.decision
            .reason
            .starts_with("audit refuted shared_capacity: "),
        "{}",
        run.decision.reason
    );
    let ((chain, _), chain_delta) = audits(|| {
        sparse_attention_unfused(&gpu, &q, &k, &v, &mask, 0.5, &run.configs)
            .unwrap_or_else(|e| panic!("three-launch chain failed: {e}"))
    });
    assert_eq!(chain_delta, [3, 0], "the chain audits its three launches");
    assert_eq!(
        fused_delta,
        [chain_delta[0] + 1, 1],
        "a refused fusion is audited once, by the gate, and booked as refuted"
    );
    assert_eq!(bits(&run.context), bits(&chain));
    assert!(
        events.iter().any(|e| matches!(e.kind, EventKind::Instant)
            && e.name
                .starts_with("statically refuted: fused_sddmm_softmax_spmm")),
        "the refusal must leave the gate's trace instant"
    );

    // A fitting band mask: audited once on the cold call, not at all on
    // the cached one.
    let mask = gen::attention_mask(64, 8, 0.8, 906);
    let (q, k, v) = (
        Matrix::<f32>::random(64, 16, 907),
        Matrix::<f32>::random(64, 16, 908),
        Matrix::<f32>::random(64, 16, 909),
    );
    let cache = LaunchCache::default();
    for (call, want) in [("cold", [1, 0]), ("warm", [0, 0])] {
        let (run, delta) =
            audits(|| sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.25, Some(&cache), None));
        assert!(run.decision.fused, "{call}: {}", run.decision.reason);
        assert_eq!(run.time.cache_hits, usize::from(call == "warm"), "{call}");
        assert_eq!(delta, want, "{call} fused call");
    }
}
