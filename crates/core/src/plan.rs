//! Attention fusion: the sparse-attention forward pass, fused when legal.
//!
//! The paper's sparse attention (Section VII-C) is one fixed chain over one
//! shared CSR topology: SDDMM scores, the scaled sparse softmax, and the
//! context SpMM. When the merge is legal the chain runs as one
//! [`SddmmSoftmaxSpmmKernel`] launch; otherwise it runs as the bit-identical
//! three-launch pipeline, with the logit scale folded into the softmax.
//!
//! **Legality is the funnel's gate.** Both entry points build the fused
//! kernel and send it through [`Gpu::run`]; there is no separate probe. The
//! gate's static audit is the one legality check: the kernel's declared
//! [`StaticFacts`](gpu_sim::StaticFacts) must survive it on the target
//! device, in particular the per-row staging footprint
//! ([`gpu_sim::fused::staging_bytes`]: the scores row plus one index strip)
//! must fit the device's shared memory. A
//! [`SputnikError::StaticallyRefuted`] result selects the three-launch
//! chain and becomes [`FusionDecision::reason`]; the refusal reaches the
//! books like any other (`dispatch_static_refuted` and the gate's trace
//! instant). The gate rejects before validation and before the fault plan
//! is consulted, so a refused fusion consumes no fault-schedule index, and
//! a [`LaunchCache`] hit skips it because only admitted launches are
//! cached.
//!
//! **Bit-exactness.** The fused kernel's functional body replays the exact
//! per-element `mul_add` chains of the three separate kernels (see
//! `gpu_sim::fused`), so the decision is invisible to the numbers:
//! `fusion_equivalence` pins bitwise equality either way.
//!
//! The stage tiles are baked into the kernel name, and the cache
//! fingerprint mixes the mask topology with the problem shape, the scale
//! bits, and the plan tag.

use crate::config::{SddmmConfig, SpmmConfig};
use crate::error::SputnikError;
use crate::sddmm::{mask_fingerprint, profile_sddmm, try_sddmm};
use crate::softmax::{sparse_softmax_scaled, sparse_softmax_scaled_profile};
use crate::spmm::{profile_spmm, require_finite, try_spmm};
use crate::tune::AutoTuner;
use gpu_sim::{trace, Gpu, Kernel, LaunchCache, LaunchRequest, Mode, SddmmSoftmaxSpmmKernel};
use sparse::{CsrMatrix, Matrix};

/// Configs shared by the functional and profile attention paths — the one
/// place both consult, so they can never diverge (previously the profile
/// path rebuilt heuristics while the functional path could hit the
/// [`AutoTuner`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionConfigs {
    pub sddmm: SddmmConfig,
    pub spmm: SpmmConfig,
}

/// Select the attention pipeline's kernel configs. With a tuner, the SpMM
/// config comes from the [`AutoTuner`] (through its persistence/memo path,
/// and through the [`LaunchCache`] when one is supplied); otherwise the
/// shape heuristics. Both `sparse_attention_fused` and its profile twin
/// call this — pinned by `profile_and_functional_pick_same_configs`.
pub fn attention_configs(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    tuner: Option<&mut AutoTuner>,
    mask: &CsrMatrix<f32>,
    k: usize,
    n: usize,
) -> AttentionConfigs {
    let sddmm = SddmmConfig::heuristic::<f32>(k);
    let spmm = match tuner {
        Some(t) => t.tune(gpu, cache, mask, n).config,
        None => SpmmConfig::heuristic::<f32>(n),
    };
    AttentionConfigs { sddmm, spmm }
}

/// Whether the attention chain fused on one device, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionDecision {
    /// Whether the chain collapsed to the fused kernel.
    pub fused: bool,
    /// Why the decision came out this way (the gate's refutation on
    /// refusal).
    pub reason: String,
    /// Plan-shape tag baked into the fused launch name: the two stage tiles.
    pub plan_tag: String,
}

/// The plan-shape tag for `configs`: the two stage tiles.
fn plan_tag(configs: &AttentionConfigs) -> String {
    format!(
        "s{}x{}",
        configs.sddmm.block_items_x, configs.spmm.block_items_x
    )
}

/// Cache-key fingerprint for a fused attention launch: mask topology,
/// problem shape, scale bits, and the plan shape. (The plan tag is also in
/// the kernel name; folding it here keeps the key honest even if two plan
/// shapes ever shared a name.)
fn plan_fingerprint(mask: &CsrMatrix<f32>, k: usize, n: usize, scale: f32, tag: &str) -> u64 {
    let mut fp = gpu_sim::Fingerprint::new();
    fp.write_u64(mask_fingerprint(mask, k));
    fp.write_u64(n as u64);
    fp.write_u64(scale.to_bits() as u64);
    for b in tag.as_bytes() {
        fp.write_u64(*b as u64);
    }
    fp.finish()
}

/// Timing of one attention run: either one fused launch (`fused_us`) or
/// the three-launch breakdown. `total_us` sums whichever side is populated.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttentionTime {
    pub scores_us: f64,
    pub softmax_us: f64,
    pub context_us: f64,
    pub fused_us: f64,
    /// Simulated launches issued (1 fused, 3 unfused).
    pub launches: usize,
    /// Launches served from the [`LaunchCache`].
    pub cache_hits: usize,
}

impl AttentionTime {
    pub fn total_us(&self) -> f64 {
        self.scores_us + self.softmax_us + self.context_us + self.fused_us
    }
}

/// The result of a fused-when-legal attention run.
#[derive(Debug)]
pub struct FusedAttention {
    /// The `rows x n` context, bit-identical fused or unfused.
    pub context: Matrix<f32>,
    pub time: AttentionTime,
    pub decision: FusionDecision,
    pub configs: AttentionConfigs,
}

/// The one planner body of both entry points: launch the fused `kernel`
/// through [`Gpu::run`] inside a `fusion` trace span, under `cached`. A
/// static refutation from the funnel's gate runs the three-launch `chain`
/// instead, whose output comes back as `Some`; any other error propagates.
fn fuse_or_chain<C>(
    gpu: &Gpu,
    mode: Mode,
    kernel: SddmmSoftmaxSpmmKernel<'_, f32>,
    cached: Option<(&LaunchCache, u64)>,
    plan_tag: String,
    chain: impl FnOnce() -> Result<(C, AttentionTime), SputnikError>,
) -> Result<(Option<C>, AttentionTime, FusionDecision), SputnikError> {
    let track = &gpu.device().name;
    trace::begin_span("fusion", track, || kernel.name());
    let result = gpu.run(&LaunchRequest::new(mode, &kernel).cached(cached));
    trace::end_span(track);
    let (chained, time, reason) = match result.map_err(SputnikError::from) {
        Ok(launched) => {
            let time = AttentionTime {
                fused_us: launched.stats.time_us,
                launches: 1,
                cache_hits: usize::from(launched.hit),
                ..Default::default()
            };
            let (staging, capacity) = (kernel.shared_mem_bytes(), gpu.device().smem_per_block_max);
            (
                None,
                time,
                format!("staging {staging} B fits {capacity} B shared memory"),
            )
        }
        Err(SputnikError::StaticallyRefuted { class, detail, .. }) => {
            let (out, time) = chain()?;
            (Some(out), time, format!("audit refuted {class}: {detail}"))
        }
        Err(e) => return Err(e),
    };
    let decision = FusionDecision {
        fused: chained.is_none(),
        reason,
        plan_tag,
    };
    Ok((chained, time, decision))
}

/// Sparse attention, fused when legal: launch the fused kernel through the
/// audited [`Gpu::run`] funnel (memoized in the [`LaunchCache`]) and fall
/// back to the three-launch pipeline (scale folded into the softmax
/// kernel) when the funnel's gate refutes it. `q` is `rows x k`, `kmat` is
/// `cols x k` (the SDDMM's transposed-RHS form), `v` is `cols x n`.
#[allow(clippy::too_many_arguments)]
pub fn try_sparse_attention_fused(
    gpu: &Gpu,
    q: &Matrix<f32>,
    kmat: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
    scale: f32,
    cache: Option<&LaunchCache>,
    tuner: Option<&mut AutoTuner>,
) -> Result<FusedAttention, SputnikError> {
    check_shapes(q, kmat, v, mask)?;
    require_finite("q", q.as_slice())?;
    require_finite("k", kmat.as_slice())?;
    require_finite("v", v.as_slice())?;
    let (d, n) = (q.cols(), v.cols());
    let configs = attention_configs(gpu, cache, tuner, mask, d, n);
    let tag = plan_tag(&configs);
    let mut context = Matrix::<f32>::zeros(mask.rows(), n);
    let kernel = SddmmSoftmaxSpmmKernel::new(
        q,
        kmat,
        v,
        mask,
        context.as_mut_slice(),
        scale,
        configs.sddmm.block_items_x as usize,
        configs.spmm.block_items_x as usize,
        tag.clone(),
    );
    let cached = cache.map(|c| (c, plan_fingerprint(mask, d, n, scale, &tag)));
    let (chained, time, decision) =
        fuse_or_chain(gpu, Mode::Functional, kernel, cached, tag, || {
            sparse_attention_unfused(gpu, q, kmat, v, mask, scale, &configs)
        })?;
    Ok(FusedAttention {
        context: chained.unwrap_or(context),
        time,
        decision,
        configs,
    })
}

/// Panicking wrapper over [`try_sparse_attention_fused`].
#[allow(clippy::too_many_arguments)]
pub fn sparse_attention_fused(
    gpu: &Gpu,
    q: &Matrix<f32>,
    kmat: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
    scale: f32,
    cache: Option<&LaunchCache>,
    tuner: Option<&mut AutoTuner>,
) -> FusedAttention {
    try_sparse_attention_fused(gpu, q, kmat, v, mask, scale, cache, tuner)
        .unwrap_or_else(|e| panic!("sparse_attention_fused: {e}"))
}

/// The three-launch reference pipeline with the scale folded into the
/// softmax kernel: SDDMM → scaled softmax → SpMM. This is both the
/// fallback of [`try_sparse_attention_fused`] and the bit-exactness
/// reference the fused kernel is pinned against.
pub fn sparse_attention_unfused(
    gpu: &Gpu,
    q: &Matrix<f32>,
    kmat: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
    scale: f32,
    configs: &AttentionConfigs,
) -> Result<(Matrix<f32>, AttentionTime), SputnikError> {
    check_shapes(q, kmat, v, mask)?;
    let (scores, s1) = try_sddmm(gpu, q, kmat, mask, configs.sddmm)?;
    let (probs, s2) = sparse_softmax_scaled(gpu, &scores, scale);
    let (context, s3) = try_spmm(gpu, &probs, v, configs.spmm)?;
    Ok((
        context,
        AttentionTime {
            scores_us: s1.time_us,
            softmax_us: s2.time_us,
            context_us: s3.time_us,
            launches: 3,
            ..Default::default()
        },
    ))
}

/// Cost-only twin of [`try_sparse_attention_fused`]: the same config
/// selection and planner body over the `for_profile` kernel, no
/// functional work.
pub fn sparse_attention_fused_profile(
    gpu: &Gpu,
    mask: &CsrMatrix<f32>,
    k: usize,
    n: usize,
    scale: f32,
    cache: Option<&LaunchCache>,
    tuner: Option<&mut AutoTuner>,
) -> Result<(AttentionTime, FusionDecision, AttentionConfigs), SputnikError> {
    let configs = attention_configs(gpu, cache, tuner, mask, k, n);
    let tag = plan_tag(&configs);
    let kernel = SddmmSoftmaxSpmmKernel::for_profile(
        mask,
        k,
        n,
        scale,
        configs.sddmm.block_items_x as usize,
        configs.spmm.block_items_x as usize,
        tag.clone(),
    );
    let cached = cache.map(|c| (c, plan_fingerprint(mask, k, n, scale, &tag)));
    let (_, time, decision) = fuse_or_chain(gpu, Mode::Profile, kernel, cached, tag, || {
        let (s1, h1) = profile_sddmm(gpu, cache, mask, k, configs.sddmm);
        let s2 = sparse_softmax_scaled_profile(gpu, mask, scale);
        let (s3, h3) = profile_spmm(gpu, cache, mask, mask.cols(), n, configs.spmm);
        let time = AttentionTime {
            scores_us: s1.time_us,
            softmax_us: s2.time_us,
            context_us: s3.time_us,
            launches: 3,
            cache_hits: usize::from(h1) + usize::from(h3),
            ..Default::default()
        };
        Ok(((), time))
    })?;
    Ok((time, decision, configs))
}

fn check_shapes(
    q: &Matrix<f32>,
    kmat: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
) -> Result<(), SputnikError> {
    let ok = q.rows() == mask.rows()
        && kmat.rows() == mask.cols()
        && q.cols() == kmat.cols()
        && v.rows() == mask.cols();
    if ok {
        Ok(())
    } else {
        Err(SputnikError::ShapeMismatch {
            context: "sparse_attention_fused",
            expected: format!(
                "q {}x{{k}}, k {}x{{k}}, v {}x{{n}} for mask {}x{}",
                mask.rows(),
                mask.cols(),
                mask.cols(),
                mask.rows(),
                mask.cols()
            ),
            found: format!(
                "q {}x{}, k {}x{}, v {}x{}",
                q.rows(),
                q.cols(),
                kmat.rows(),
                kmat.cols(),
                v.rows(),
                v.cols()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    fn qkv(seq: usize, ctx: usize, d: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        (
            Matrix::<f32>::random(seq, d, seed),
            Matrix::<f32>::random(ctx, d, seed + 1),
            Matrix::<f32>::random(ctx, d, seed + 2),
        )
    }

    #[test]
    fn planner_fuses_small_topology_and_matches_unfused_bitwise() {
        let mask = gen::attention_mask(96, 8, 0.85, 900);
        let (q, k, v) = qkv(96, 96, 16, 901);
        let scale = 1.0 / (16f32).sqrt();
        let gpu = Gpu::v100();
        let run = sparse_attention_fused(&gpu, &q, &k, &v, &mask, scale, None, None);
        assert!(
            run.decision.fused,
            "small mask must fuse: {}",
            run.decision.reason
        );
        assert_eq!(run.time.launches, 1);
        let (want, _) =
            sparse_attention_unfused(&gpu, &q, &k, &v, &mask, scale, &run.configs).unwrap();
        assert_eq!(
            run.context.as_slice(),
            want.as_slice(),
            "fusion changed bits"
        );
    }

    #[test]
    fn oversized_staging_takes_unfused_path() {
        // One row with ~30k nonzeros: staging ~120 KB exceeds the V100's
        // 96 KiB shared memory, so the audit must refuse the merge.
        let mask = gen::uniform(4, 32 * 1024, 0.1, 902);
        assert!(
            gpu_sim::fused::staging_bytes(mask.max_row_len(), 32)
                > Gpu::v100().device().smem_per_block_max as u64,
            "probe topology must actually be oversized"
        );
        let (q, k, v) = qkv(4, 32 * 1024, 8, 903);
        let gpu = Gpu::v100();
        let run = sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.5, None, None);
        assert!(!run.decision.fused);
        assert!(
            run.decision.reason.contains("shared_capacity"),
            "{}",
            run.decision.reason
        );
        assert_eq!(run.time.launches, 3);
        let (want, _) =
            sparse_attention_unfused(&gpu, &q, &k, &v, &mask, 0.5, &run.configs).unwrap();
        assert_eq!(run.context.as_slice(), want.as_slice());
    }

    #[test]
    fn profile_and_functional_pick_same_configs() {
        // A problem class where the tuner's winner may differ from the
        // heuristic: both paths must consult the same tuner and agree.
        let mask = gen::uniform(128, 128, 0.9, 904);
        let (q, k, v) = qkv(128, 128, 32, 905);
        let gpu = Gpu::v100();
        let cache = LaunchCache::default();
        let mut tuner = AutoTuner::default();
        let run = sparse_attention_fused(
            &gpu,
            &q,
            &k,
            &v,
            &mask,
            0.25,
            Some(&cache),
            Some(&mut tuner),
        );
        let (_, _, profile_cfgs) = sparse_attention_fused_profile(
            &gpu,
            &mask,
            32,
            32,
            0.25,
            Some(&cache),
            Some(&mut tuner),
        )
        .unwrap();
        assert_eq!(
            run.configs, profile_cfgs,
            "functional and profile configs diverged"
        );
        // And the no-tuner heuristic path agrees with itself too.
        let heuristic = attention_configs(&gpu, None, None, &mask, 32, 32);
        let (_, _, heuristic_profile) =
            sparse_attention_fused_profile(&gpu, &mask, 32, 32, 0.25, None, None).unwrap();
        assert_eq!(heuristic, heuristic_profile);
    }

    #[test]
    fn fused_replay_hits_cache() {
        let mask = gen::attention_mask(64, 8, 0.8, 906);
        let (q, k, v) = qkv(64, 64, 16, 907);
        let gpu = Gpu::v100();
        let cache = LaunchCache::default();
        let first = sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.25, Some(&cache), None);
        assert_eq!(first.time.cache_hits, 0);
        let second = sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.25, Some(&cache), None);
        assert_eq!(
            second.time.cache_hits, 1,
            "replay must be served from the cache"
        );
        assert_eq!(first.context.as_slice(), second.context.as_slice());
        // A different plan shape (different scale) must not alias the key.
        let third = sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.5, Some(&cache), None);
        assert_eq!(third.time.cache_hits, 0, "scale is part of the cache key");
    }

    /// Both paths take the same audited decision: on a fusing mask and on
    /// `oversized_staging_takes_unfused_path`'s mask alike.
    #[test]
    fn profile_and_functional_share_the_decision() {
        let gpu = Gpu::v100();
        for (mask, d, scale) in [
            (gen::attention_mask(96, 8, 0.85, 900), 16, 0.25),
            (gen::uniform(4, 32 * 1024, 0.1, 902), 8, 0.5),
        ] {
            let (q, k, v) = qkv(mask.rows(), mask.cols(), d, 909);
            let run = sparse_attention_fused(&gpu, &q, &k, &v, &mask, scale, None, None);
            let (_, profiled, _) =
                sparse_attention_fused_profile(&gpu, &mask, d, d, scale, None, None).unwrap();
            assert_eq!(
                run.decision, profiled,
                "functional and profile decisions diverged"
            );
        }
    }
}
