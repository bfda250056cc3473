//! Table III: sparse Transformer results — model quality (bits/dim, carried
//! from the paper), forward throughput in tokens/s, and memory usage, on the
//! V100 and the GTX 1080 (where the dense model runs out of memory).
//!
//! Paper anchors: dense V100 32,477 tok/s at 9.88 GB; sparse V100 67,857
//! tok/s at 0.77 GB (2.09x speedup, 12.8x memory saving); on the 1080 the
//! dense model OOMs while the sparse one runs 32,039 tok/s at 0.88 GB.

use dnn::transformer::{benchmark, bits_per_dimension, AttentionMode, TransformerConfig};
use gpu_sim::Gpu;
use sputnik_bench::{has_flag, Table};

fn main() {
    let cfg = if has_flag("--quick") {
        TransformerConfig {
            seq: 4096,
            ..TransformerConfig::paper()
        }
    } else {
        TransformerConfig::paper()
    };
    let sparse_mode = AttentionMode::paper_sparse();

    let v100 = Gpu::v100();
    let gtx = Gpu::gtx1080();

    let rows = [
        benchmark(&v100, &cfg, &AttentionMode::Dense),
        benchmark(&v100, &cfg, &sparse_mode),
        benchmark(&gtx, &cfg, &AttentionMode::Dense),
        benchmark(&gtx, &cfg, &sparse_mode),
    ];

    let mut t = Table::new(
        "Table III — sparse Transformer results",
        &["model", "device", "bits/dim*", "tokens/s", "memory (GB)"],
    );
    for r in &rows {
        let bpd = if r.model.contains("Sparse") {
            bits_per_dimension(&sparse_mode)
        } else {
            bits_per_dimension(&AttentionMode::Dense)
        };
        t.row(&[
            r.model.clone(),
            r.device.clone(),
            format!("{bpd:.2}"),
            if r.out_of_memory {
                "out-of-memory".into()
            } else {
                format!("{:.0}", r.tokens_per_second)
            },
            format!("{:.2}", r.memory_gb),
        ]);
    }
    t.print();
    println!("* bits/dim reproduced from the paper's training runs (cannot train here); see EXPERIMENTS.md");

    let dense = &rows[0];
    let sparse = &rows[1];
    if !dense.out_of_memory && !sparse.out_of_memory {
        println!(
            "V100 speedup {:.2}x (paper: 2.09x), memory saving {:.1}x (paper: 12.8x)",
            sparse.tokens_per_second / dense.tokens_per_second,
            dense.memory_gb / sparse.memory_gb,
        );
        println!(
            "attention share of forward pass: dense {:.0}%, sparse {:.0}%",
            100.0 * dense.attention_us / dense.forward_us,
            100.0 * sparse.attention_us / sparse.forward_us,
        );
    }
}
