//! Table IV + Figure 12: sparse MobileNetV1 — batch-1 ImageNet inference
//! throughput across width multipliers, dense vs 90% sparse, forming the
//! accuracy–runtime tradeoff curves. Accuracy values are carried from the
//! paper (ImageNet training is out of scope here); throughput is measured
//! on the simulator with the oracle kernel selector the paper uses for its
//! sparse models.
//!
//! Paper anchors: dense 1.0/1.2/1.4 at 2518/2046/1729 f/s; sparse 1.3-1.8 at
//! 2874/2706/2537/2366/2226/2095 f/s; "speedups of 21-24% for a given
//! accuracy, or ~1.1% higher accuracy for the same throughput".

use dnn::accuracy;
use dnn::mobilenet::{benchmark, MobileNetV1};
use gpu_sim::Gpu;
use sputnik_bench::Table;

struct RowOut {
    model: String,
    width: f64,
    top1: f64,
    frames_per_second: f64,
    weight_mb: f64,
    oracle_overrides: usize,
}

fn main() {
    let gpu = Gpu::v100();
    let mut rows: Vec<RowOut> = Vec::new();

    for &w in &[1.0, 1.2, 1.4] {
        let bench = benchmark(&gpu, &MobileNetV1::new(w), None, false);
        rows.push(RowOut {
            model: "Dense".into(),
            width: w,
            top1: accuracy::dense_mobilenet_top1(w),
            frames_per_second: bench.frames_per_second,
            weight_mb: bench.weight_bytes as f64 / 1e6,
            oracle_overrides: 0,
        });
    }
    for &w in &[1.3, 1.4, 1.5, 1.6, 1.7, 1.8] {
        let bench = benchmark(&gpu, &MobileNetV1::new(w), Some(0.9), true);
        rows.push(RowOut {
            model: "Sparse".into(),
            width: w,
            top1: accuracy::sparse_mobilenet_top1(w),
            frames_per_second: bench.frames_per_second,
            weight_mb: bench.weight_bytes as f64 / 1e6,
            oracle_overrides: bench.oracle_overrides,
        });
    }

    let mut t = Table::new(
        "Table IV — sparse MobileNetV1 results (batch 1, V100)",
        &[
            "model",
            "width",
            "top-1*",
            "frames/s",
            "weights (MB)",
            "oracle overrides",
        ],
    );
    for r in &rows {
        t.row(&[
            r.model.clone(),
            format!("{:.1}", r.width),
            format!("{:.1}%", r.top1),
            format!("{:.0}", r.frames_per_second),
            format!("{:.1}", r.weight_mb),
            r.oracle_overrides.to_string(),
        ]);
    }
    t.print();
    println!("* accuracy reproduced from the paper's ImageNet runs; see EXPERIMENTS.md");
    println!("paper frames/s: dense 2518/2046/1729; sparse 2874/2706/2537/2366/2226/2095\n");

    // Figure 12's headline: speedup at matched accuracy. Interpolate the
    // dense curve's throughput at each sparse model's accuracy.
    println!("== Figure 12 — speedup at matched accuracy ==");
    for r in rows.iter().filter(|r| r.model == "Sparse") {
        // Find the dense width with the same accuracy, then its throughput.
        let dense_width = {
            // Invert the dense accuracy curve by bisection on [0.8, 2.2].
            let (mut lo, mut hi) = (0.8f64, 2.2f64);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if accuracy::dense_mobilenet_top1(mid) < r.top1 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let dense_bench = benchmark(&gpu, &MobileNetV1::new(dense_width), None, false);
        let speedup = r.frames_per_second / dense_bench.frames_per_second;
        println!(
            "sparse {:.1} ({:.1}%) vs dense {:.2}: {:+.1}% throughput (paper: +21-24%)",
            r.width,
            r.top1,
            dense_width,
            100.0 * (speedup - 1.0)
        );
    }
}
