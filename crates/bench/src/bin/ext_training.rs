//! Extension: training-step cost on the compressed representation.
//!
//! The paper's introduction motivates its kernels by sparse *training*: "all
//! computation during training needs to operate directly on the compressed
//! sparse representation". This study times one full training step of a
//! weight-sparse layer — forward SpMM, SDDMM weight gradient, transposed
//! SpMM input gradient, value update, transpose-cache refresh — against the
//! dense equivalent (three GEMMs + elementwise update), across sparsities.

use gpu_sim::Gpu;
use sparse::gen;
use sputnik::{CachedTranspose, SddmmConfig, SpmmConfig};
use sputnik_bench::{has_flag, Table};

struct Point {
    sparsity: f64,
    speedup: f64,
}

fn main() {
    let gpu = Gpu::v100();
    let (m, k, n) = if has_flag("--quick") {
        (2048, 1024, 128)
    } else {
        (4096, 2048, 256)
    };

    // Dense training step: Y = WX (fwd), dW = dY X^T, dX = W^T dY, update.
    let dense_total_us = baselines::gemm_profile(&gpu, m, k, n).time_us
        + baselines::gemm_profile(&gpu, m, n, k).time_us
        + baselines::gemm_profile(&gpu, k, m, n).time_us
        + dnn::layers::bias_relu_profile(&gpu, m, k).time_us; // elementwise update proxy

    let mut table = Table::new(
        "Extension — training step on the compressed representation (us)",
        &[
            "sparsity",
            "fwd SpMM",
            "dW SDDMM",
            "dX W^T-SpMM",
            "update",
            "sparse total",
            "dense total",
            "speedup",
        ],
    );
    let mut points = Vec::new();
    for &s in &[0.5, 0.7, 0.8, 0.9, 0.95, 0.98] {
        let w = gen::uniform(m, k, s, 0x7a11 + (s * 100.0) as u64);
        let fwd =
            sputnik::spmm_profile::<f32>(&gpu, &w, k, n, SpmmConfig::heuristic::<f32>(n)).time_us;
        let dw =
            sputnik::sddmm_profile::<f32>(&gpu, &w, n, SddmmConfig::heuristic::<f32>(n)).time_us;
        let mut cache = CachedTranspose::new(&w);
        let dx = cache
            .spmm_profile(&gpu, n, SpmmConfig::heuristic::<f32>(n))
            .time_us;
        let update = cache.update_values(&gpu, w.values()).time_us;
        let sparse_total = fwd + dw + dx + update;
        let speedup = dense_total_us / sparse_total;
        table.row(&[
            format!("{s:.2}"),
            format!("{fwd:.0}"),
            format!("{dw:.0}"),
            format!("{dx:.0}"),
            format!("{update:.0}"),
            format!("{sparse_total:.0}"),
            format!("{dense_total_us:.0}"),
            format!("{speedup:.2}x"),
        ]);
        points.push(Point {
            sparsity: s,
            speedup,
        });
    }
    table.print();

    let crossover = points.iter().find(|p| p.speedup > 1.0).map(|p| p.sparsity);
    println!(
        "training crossover: sparse step beats dense at sparsity {}",
        crossover.map_or("beyond 0.98".into(), |s| format!("{s:.2}"))
    );
    println!("(Higher than the inference crossover of Figure 1 — the backward pass adds");
    println!(" an SDDMM and a transposed SpMM, both harder than the forward SpMM.)");
}
