//! Extension: end-to-end sparse ResNet-50 inference (batch 1, V100).
//!
//! The paper benchmarks ResNet-50's convolutions individually (they are the
//! corpus of Figure 9); this extension assembles them into the full
//! network, the same way Table IV does for MobileNetV1, and sweeps the
//! pruning sparsity.

use dnn::resnet;
use gpu_sim::Gpu;
use sputnik_bench::Table;

fn main() {
    let gpu = Gpu::v100();
    let mut table = Table::new(
        "Extension — sparse ResNet-50 inference (batch 1, V100)",
        &[
            "variant",
            "frames/s",
            "inference (us)",
            "sparse convs (us)",
            "dense layers (us)",
            "weights (MB)",
        ],
    );
    let mut results = Vec::new();

    let dense = resnet::benchmark(&gpu, None);
    table.row(&[
        "dense".into(),
        format!("{:.0}", dense.frames_per_second),
        format!("{:.0}", dense.inference_us),
        "-".into(),
        format!("{:.0}", dense.dense_layer_us),
        format!("{:.1}", dense.weight_bytes as f64 / 1e6),
    ]);
    results.push(dense);

    for &s in &[0.7, 0.8, 0.9, 0.95] {
        let b = resnet::benchmark(&gpu, Some(s));
        table.row(&[
            format!("sparse {:.0}%", s * 100.0),
            format!("{:.0}", b.frames_per_second),
            format!("{:.0}", b.inference_us),
            format!("{:.0}", b.sparse_layer_us),
            format!("{:.0}", b.dense_layer_us),
            format!("{:.1}", b.weight_bytes as f64 / 1e6),
        ]);
        results.push(b);
    }
    table.print();

    let d = &results[0];
    let s90 = &results[3];
    println!(
        "90% sparse: {:.2}x end-to-end speedup, {:.1}x smaller weights",
        d.inference_us / s90.inference_us,
        d.weight_bytes as f64 / s90.weight_bytes as f64
    );
    println!("(Amdahl: the dense stem/shortcuts/classifier bound the end-to-end gain.)");
}
