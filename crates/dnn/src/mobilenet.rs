//! Sparse MobileNetV1 (Section VII-D, Table IV, Figure 12).
//!
//! MobileNetV1 alternates depthwise and 1x1 ("pointwise") convolutions; the
//! pointwise convolutions carry the large majority of the FLOPs and, in CHW
//! layout, are plain matrix multiplications. The paper prunes them to 90%
//! with magnitude pruning, leaves the first full convolution dense, fuses
//! batch-norm + bias + ReLU everywhere, and benchmarks single-image
//! inference on a V100 — with an oracle kernel selector for the handful of
//! layers where the heuristic picks a sub-optimal variant.

use gpu_sim::Gpu;
use sparse::{gen, IndexWidth};
use sputnik::SpmmConfig;

/// One depthwise-separable block of the architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub in_channels: usize,
    pub out_channels: usize,
    /// Stride of the depthwise stage.
    pub stride: usize,
    /// Input spatial size (square).
    pub spatial: usize,
}

/// The MobileNetV1 architecture at a given width multiplier.
#[derive(Debug, Clone)]
pub struct MobileNetV1 {
    pub width: f64,
    /// First full 3x3 convolution: 3 -> c(32), stride 2, on 224x224 input.
    pub stem_out: usize,
    pub blocks: Vec<Block>,
    pub classifier_in: usize,
    pub num_classes: usize,
}

/// Round channels to the hardware-friendly multiple of 8, as the MobileNet
/// family does.
fn scale_channels(base: usize, width: f64) -> usize {
    (((base as f64 * width) / 8.0).round() as usize * 8).max(8)
}

impl MobileNetV1 {
    /// Build the 13-block architecture at width multiplier `width`.
    pub fn new(width: f64) -> Self {
        let c = |base: usize| scale_channels(base, width);
        // (in, out, stride, spatial) per depthwise-separable block.
        let raw: [(usize, usize, usize, usize); 13] = [
            (32, 64, 1, 112),
            (64, 128, 2, 112),
            (128, 128, 1, 56),
            (128, 256, 2, 56),
            (256, 256, 1, 28),
            (256, 512, 2, 28),
            (512, 512, 1, 14),
            (512, 512, 1, 14),
            (512, 512, 1, 14),
            (512, 512, 1, 14),
            (512, 512, 1, 14),
            (512, 1024, 2, 14),
            (1024, 1024, 1, 7),
        ];
        let blocks = raw
            .iter()
            .map(|&(i, o, s, sp)| Block {
                in_channels: c(i),
                out_channels: c(o),
                stride: s,
                spatial: sp,
            })
            .collect();
        Self {
            width,
            stem_out: c(32),
            blocks,
            classifier_in: c(1024),
            num_classes: 1000,
        }
    }

    /// Total multiply-accumulate count for one image (diagnostic).
    pub fn macs(&self) -> u64 {
        let mut macs = 112u64 * 112 * 27 * self.stem_out as u64;
        for b in &self.blocks {
            let out_sp = (b.spatial / b.stride) as u64;
            macs += out_sp * out_sp * 9 * b.in_channels as u64; // depthwise
            macs += out_sp * out_sp * (b.in_channels * b.out_channels) as u64; // pointwise
        }
        macs + (self.classifier_in * self.num_classes) as u64
    }
}

/// Per-layer timing of one inference pass.
#[derive(Debug, Clone, Default)]
pub struct MobileNetBench {
    pub width: f64,
    pub sparse: bool,
    pub inference_us: f64,
    pub frames_per_second: f64,
    pub stem_us: f64,
    pub depthwise_us: f64,
    pub pointwise_us: f64,
    pub classifier_us: f64,
    pub weight_bytes: u64,
    /// Layers where the oracle selector overrode the heuristic.
    pub oracle_overrides: usize,
}

/// Candidate SpMM configurations the oracle selector tries (the heuristic's
/// pick plus neighbouring tile shapes).
fn oracle_candidates(n: usize) -> Vec<SpmmConfig> {
    let base = SpmmConfig::heuristic::<f32>(n);
    let mut cands = vec![base];
    for biy in [1u32, 2, 8] {
        cands.push(SpmmConfig {
            block_items_y: biy,
            ..base
        });
    }
    if base.vector_width > 1 {
        cands.push(SpmmConfig {
            vector_width: base.vector_width / 2,
            ..base
        });
    }
    for bix in [32u32, 64] {
        if bix != base.block_items_x && bix % base.vector_width == 0 {
            let cand = SpmmConfig {
                block_items_x: bix,
                ..base
            };
            if cand.threads_x() <= 32 {
                cands.push(cand);
            }
        }
    }
    cands
}

/// Benchmark one inference (batch 1, 224x224, cost model). `sparsity` of
/// `None` benchmarks the dense baseline (cuBLAS GEMM + separate fused
/// bias/ReLU kernel); `Some(s)` prunes every pointwise convolution to `s`
/// and uses the Sputnik SpMM with fused epilogue.
pub fn benchmark(
    gpu: &Gpu,
    model: &MobileNetV1,
    sparsity: Option<f64>,
    oracle: bool,
) -> MobileNetBench {
    let mut bench = MobileNetBench {
        width: model.width,
        sparse: sparsity.is_some(),
        ..Default::default()
    };
    // Layer spans live on the device track so a profile report can break the
    // run down per layer.
    let track = &gpu.device().name;

    // Stem: dense 3x3 conv via im2col GEMM (27 input features), 112x112
    // output, plus its fused bias/ReLU pass. Kept dense in the sparse models
    // ("we leave the first layer dense, as we found it to be bandwidth bound
    // by the activation matrix").
    gpu_sim::trace::begin_span("layer", track, || "stem".into());
    let stem_n = 112 * 112;
    bench.stem_us = baselines::gemm_profile(gpu, model.stem_out, 27, pad4(stem_n)).time_us
        + crate::layers::bias_relu_profile(gpu, model.stem_out, stem_n).time_us;
    bench.weight_bytes += (model.stem_out * 27 * 4) as u64;
    gpu_sim::trace::end_span(track);

    for (li, b) in model.blocks.iter().enumerate() {
        gpu_sim::trace::begin_span("layer", track, || {
            format!("block{li} ({}->{})", b.in_channels, b.out_channels)
        });
        let out_sp = b.spatial / b.stride;
        let n = out_sp * out_sp;
        // Depthwise 3x3 with fused bias + ReLU.
        bench.depthwise_us += crate::layers::depthwise_conv_profile(
            gpu,
            b.in_channels,
            b.spatial,
            b.spatial,
            b.stride,
        )
        .time_us;
        bench.weight_bytes += (b.in_channels * 9 * 4) as u64;

        // Pointwise 1x1: the sparse/dense fork.
        match sparsity {
            None => {
                bench.pointwise_us +=
                    baselines::gemm_profile(gpu, b.out_channels, b.in_channels, pad4(n)).time_us
                        + crate::layers::bias_relu_profile(gpu, b.out_channels, n).time_us;
                bench.weight_bytes += (b.out_channels * b.in_channels * 4) as u64;
            }
            Some(s) => {
                let w = gen::uniform(b.out_channels, b.in_channels, s, 0xb10c + li as u64);
                let n_padded = pad4(n);
                let mut cfg = SpmmConfig::heuristic::<f32>(n_padded);
                cfg.fused_bias_relu = true;
                let mut t =
                    sputnik::spmm_profile::<f32>(gpu, &w, b.in_channels, n_padded, cfg).time_us;
                if oracle {
                    let mut best = t;
                    for mut cand in oracle_candidates(n_padded) {
                        cand.fused_bias_relu = true;
                        let ct =
                            sputnik::spmm_profile::<f32>(gpu, &w, b.in_channels, n_padded, cand)
                                .time_us;
                        if ct < best {
                            best = ct;
                        }
                    }
                    if best < t {
                        bench.oracle_overrides += 1;
                        t = best;
                    }
                }
                bench.pointwise_us += t;
                bench.weight_bytes += w.bytes(IndexWidth::U32);
            }
        }
        gpu_sim::trace::end_span(track);
    }

    // Global average pool is negligible; classifier stays dense.
    gpu_sim::trace::begin_span("layer", track, || "classifier".into());
    bench.classifier_us =
        baselines::gemm_profile(gpu, model.num_classes, model.classifier_in, 4).time_us;
    bench.weight_bytes += (model.num_classes * model.classifier_in * 4) as u64;
    gpu_sim::trace::end_span(track);

    bench.inference_us =
        bench.stem_us + bench.depthwise_us + bench.pointwise_us + bench.classifier_us;
    bench.frames_per_second = 1e6 / bench.inference_us;
    bench
}

/// Pad the N dimension to a multiple of 4 ("for ResNet-50 benchmarks with
/// inference batch size, we pad the batch dimension to the nearest multiple
/// of four to enable vector memory instructions" — same trick here).
fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_scaling_rounds_to_eight() {
        let m = MobileNetV1::new(1.4);
        assert_eq!(m.stem_out, 48); // 32 * 1.4 = 44.8 -> 48
        assert_eq!(m.blocks[0].out_channels % 8, 0);
        let m13 = MobileNetV1::new(1.3);
        assert!(m13.blocks.iter().all(|b| b.in_channels % 8 == 0));
    }

    #[test]
    fn macs_match_published_scale() {
        // MobileNetV1 1.0 is ~569M MACs.
        let m = MobileNetV1::new(1.0);
        let macs = m.macs() as f64 / 1e6;
        assert!((450.0..700.0).contains(&macs), "got {macs}M MACs");
    }

    #[test]
    fn sparse_inference_is_faster_at_matched_width() {
        let gpu = Gpu::v100();
        let model = MobileNetV1::new(1.0);
        let dense = benchmark(&gpu, &model, None, false);
        let sparse = benchmark(&gpu, &model, Some(0.9), false);
        assert!(
            sparse.pointwise_us < dense.pointwise_us,
            "90% sparse pointwise should beat dense: {} vs {}",
            sparse.pointwise_us,
            dense.pointwise_us
        );
        assert!(sparse.frames_per_second > dense.frames_per_second);
    }

    #[test]
    fn depthwise_become_bottleneck_after_pruning() {
        // Paper: "the depthwise convolutions become a significant bottleneck
        // after the 1x1 convolutions are pruned."
        let gpu = Gpu::v100();
        let model = MobileNetV1::new(1.0);
        let sparse = benchmark(&gpu, &model, Some(0.9), false);
        let dense = benchmark(&gpu, &model, None, false);
        let sparse_dw_share = sparse.depthwise_us / sparse.inference_us;
        let dense_dw_share = dense.depthwise_us / dense.inference_us;
        assert!(sparse_dw_share > dense_dw_share);
    }

    #[test]
    fn oracle_never_hurts() {
        let gpu = Gpu::v100();
        let model = MobileNetV1::new(1.4);
        let plain = benchmark(&gpu, &model, Some(0.9), false);
        let oracle = benchmark(&gpu, &model, Some(0.9), true);
        assert!(oracle.pointwise_us <= plain.pointwise_us + 1e-9);
    }

    #[test]
    fn wider_models_are_slower() {
        let gpu = Gpu::v100();
        let narrow = benchmark(&gpu, &MobileNetV1::new(1.0), Some(0.9), false);
        let wide = benchmark(&gpu, &MobileNetV1::new(1.8), Some(0.9), false);
        assert!(wide.inference_us > narrow.inference_us);
    }

    #[test]
    fn sparse_weights_are_smaller() {
        let gpu = Gpu::v100();
        let model = MobileNetV1::new(1.0);
        let dense = benchmark(&gpu, &model, None, false);
        let sparse = benchmark(&gpu, &model, Some(0.9), false);
        assert!(sparse.weight_bytes < dense.weight_bytes / 2);
    }
}
