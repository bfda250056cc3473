//! Extension study: structured (block) vs unstructured sparsity.
//!
//! The paper's introduction motivates unstructured kernels: enforcing block
//! structure "is able to recover much of the performance achieved by dense
//! computation, \[but\] the constraint on the location of nonzeros can
//! significantly degrade model quality". This study quantifies both sides on
//! the simulator: kernel throughput (block-sparse SpMM in the style of the
//! OpenAI kernels vs Sputnik vs dense) and a training-free quality proxy
//! (the fraction of weight magnitude a block-pruned matrix retains relative
//! to unstructured pruning at the same parameter budget).

use gpu_sim::Gpu;
use sparse::{block, Matrix};
use sputnik::SpmmConfig;
use sputnik_bench::{has_flag, Table};

struct Point {
    block_size: usize,
    sparsity: f64,
    time_us: f64,
    magnitude_retention: f64,
}

fn main() {
    let gpu = Gpu::v100();
    let (m, k, n) = if has_flag("--quick") {
        (1024, 1024, 128)
    } else {
        (4096, 2048, 128)
    };
    let weights = Matrix::<f32>::random(m, k, 0xb10c);

    let sparsities: &[f64] = &[0.7, 0.8, 0.9];
    let block_sizes: &[usize] = &[4, 8, 16, 32];

    let dense_us = baselines::gemm_profile(&gpu, m, k, n).time_us;
    println!("dense GEMM reference: {dense_us:.1} us  (M={m}, K={k}, N={n})\n");

    let mut table = Table::new(
        "Extension — structured vs unstructured sparsity",
        &[
            "sparsity",
            "variant",
            "time (us)",
            "TFLOP/s",
            "retention",
            "quality-weighted TF/s",
        ],
    );
    let mut points = Vec::new();

    for &s in sparsities {
        // Unstructured: Sputnik on magnitude-pruned weights.
        let unstructured = dnn::magnitude_prune(&weights, s);
        let stats = sputnik::spmm_profile::<f32>(
            &gpu,
            &unstructured,
            k,
            n,
            SpmmConfig::heuristic::<f32>(n),
        );
        table.row(&[
            format!("{s:.1}"),
            "unstructured (Sputnik)".into(),
            format!("{:.1}", stats.time_us),
            format!("{:.2}", stats.tflops),
            "1.000".into(),
            format!("{:.2}", stats.tflops),
        ]);
        points.push(Point {
            block_size: 1,
            sparsity: s,
            time_us: stats.time_us,
            magnitude_retention: 1.0,
        });

        for &bs in block_sizes {
            let blocked = block::block_prune(&weights, bs, s);
            let bstats = baselines::block_spmm_profile(&gpu, &blocked, n);
            let retention = block::block_magnitude_retention(&weights, bs, s);
            let qw = bstats.tflops * retention;
            table.row(&[
                format!("{s:.1}"),
                format!("{bs}x{bs} blocks"),
                format!("{:.1}", bstats.time_us),
                format!("{:.2}", bstats.tflops),
                format!("{retention:.3}"),
                format!("{qw:.2}"),
            ]);
            points.push(Point {
                block_size: bs,
                sparsity: s,
                time_us: bstats.time_us,
                magnitude_retention: retention,
            });
        }
    }
    table.print();

    // Headline: at 90% sparsity, where do block kernels overtake Sputnik on
    // raw speed, and what does it cost in retention?
    let at90: Vec<&Point> = points
        .iter()
        .filter(|p| (p.sparsity - 0.9).abs() < 1e-9)
        .collect();
    if let Some(unstr) = at90.iter().find(|p| p.block_size == 1) {
        for p in at90.iter().filter(|p| p.block_size > 1) {
            println!(
                "{0}x{0} blocks @90%: {1:.2}x the speed of unstructured, {2:.1}% magnitude retention",
                p.block_size,
                unstr.time_us / p.time_us,
                p.magnitude_retention * 100.0
            );
        }
    }
    println!("\nThe paper's tradeoff, quantified: structure buys speed and sells model quality.");
}
