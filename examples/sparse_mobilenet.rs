//! Sparse MobileNetV1 inference walkthrough: prune a pointwise convolution
//! with magnitude pruning, run it functionally through the fused
//! SpMM+bias+ReLU kernel on a real CHW activation tensor, then benchmark the
//! full network dense vs 90% sparse — the Table IV experiment in miniature.
//!
//! ```bash
//! cargo run --release --example sparse_mobilenet
//! ```

use dnn::layers::{self, Chw, Linear};
use dnn::{magnitude_prune, mobilenet, MobileNetV1};
use gpu_sim::Gpu;
use sparse::Matrix;

fn main() {
    let gpu = Gpu::v100();

    // --- One depthwise-separable block, functionally -------------------------
    // A small 14x14 stage with 64 channels (batch 1, CHW layout).
    let (c_in, c_out, hw) = (64usize, 128usize, 14usize);
    let input = Chw::random(c_in, hw, hw, 11);

    // Depthwise 3x3 with fused bias + ReLU.
    let dw_filters: Vec<f32> = (0..c_in * 9)
        .map(|i| ((i % 9) as f32 - 4.0) / 10.0)
        .collect();
    let dw_bias = vec![0.05f32; c_in];
    let (dw_out, dw_stats) = layers::depthwise_conv(&gpu, &input, &dw_filters, &dw_bias, 1);
    println!(
        "depthwise 3x3 ({c_in}ch, {hw}x{hw}): {:.1} us simulated",
        dw_stats.time_us
    );

    // Pointwise 1x1 = matrix multiply over the CHW activation matrix.
    let dense_w = Matrix::<f32>::random(c_out, c_in, 12);
    let sparse_w = magnitude_prune(&dense_w, 0.9);
    println!(
        "pointwise 1x1 weights: {}x{}, pruned to {} nonzeros ({:.0}% sparse)",
        c_out,
        c_in,
        sparse_w.nnz(),
        sparse_w.sparsity() * 100.0
    );

    let bias: Vec<f32> = (0..c_out).map(|i| (i as f32 - 64.0) / 256.0).collect();
    let act = dw_out.as_matrix();
    let dense_layer = Linear::dense(dense_w, Some(bias.clone()));
    let sparse_layer = Linear::sparse(sparse_w.clone(), Some(bias));
    let (dense_out, dense_us) = dense_layer.forward(&gpu, &act);
    let (sparse_out, sparse_us) = sparse_layer.forward(&gpu, &act);
    println!("dense pointwise:  {dense_us:.1} us");
    println!(
        "sparse pointwise: {sparse_us:.1} us ({:.2}x)",
        dense_us / sparse_us
    );

    // The sparse output uses pruned weights, so it differs from dense — but
    // at identical topology the kernels agree; verify against the reference.
    let expect = sputnik::reference::bias_relu(
        &sputnik::reference::spmm(&sparse_w, &act),
        &(0..c_out)
            .map(|i| (i as f32 - 64.0) / 256.0)
            .collect::<Vec<_>>(),
    );
    println!(
        "sparse kernel max |err| vs reference: {:.2e}",
        sparse_out.max_abs_diff(&expect)
    );
    let _ = dense_out;

    // --- Whole-network benchmark (cost model) --------------------------------
    println!("\nMobileNetV1 batch-1 inference on the simulated V100:");
    println!(
        "{:>6} {:>8} {:>11} {:>11} {:>11}",
        "width", "variant", "frames/s", "pointwise", "depthwise"
    );
    for &(width, sparse) in &[(1.0, false), (1.4, false), (1.4, true), (1.8, true)] {
        let model = MobileNetV1::new(width);
        let b = mobilenet::benchmark(&gpu, &model, if sparse { Some(0.9) } else { None }, sparse);
        println!(
            "{:>6.1} {:>8} {:>11.0} {:>10.0}us {:>10.0}us",
            width,
            if sparse { "sparse" } else { "dense" },
            b.frames_per_second,
            b.pointwise_us,
            b.depthwise_us
        );
    }
    println!("\nNote how the depthwise time is unchanged by pruning — it becomes the");
    println!("bottleneck of the sparse models, exactly as Section VII-D observes.");
}
