//! Figure 1: SpMM runtime vs sparsity for the weight-sparse LSTM problem
//! (input 8192, hidden 2048, batch 128, FP32, V100), showing the sparsity
//! level at which Sputnik's sparse computation overtakes dense cuBLAS and
//! the (far higher) level cuSPARSE needs.
//!
//! Paper anchors: Sputnik beats dense at ~71% sparsity; cuSPARSE requires
//! ~14x fewer nonzeros for the same performance.

use gpu_sim::Gpu;
use sparse::gen;
use sputnik_bench::{has_flag, Table};

fn main() {
    let gpu = Gpu::v100();
    let (m, k, n) = (8192usize, 2048usize, 128usize);

    let dense_us = baselines::gemm_profile(&gpu, m, k, n).time_us;

    let sparsities: Vec<f64> = if has_flag("--quick") {
        vec![0.5, 0.7, 0.8, 0.9, 0.95, 0.98]
    } else {
        vec![
            0.5, 0.6, 0.65, 0.7, 0.71, 0.75, 0.8, 0.85, 0.9, 0.95, 0.98, 0.99,
        ]
    };

    let mut table = Table::new(
        "Figure 1 — SpMM runtime vs sparsity (LSTM 8192/2048/128, FP32, V100)",
        &[
            "sparsity",
            "sputnik_us",
            "cusparse_us",
            "dense_us",
            "sputnik_vs_dense",
        ],
    );
    let mut sputnik_crossover: Option<f64> = None;
    let mut cusparse_crossover: Option<f64> = None;

    for &s in &sparsities {
        let a = gen::uniform(m, k, s, 0xf16_001 + (s * 1000.0) as u64);
        let cfg = sputnik::SpmmConfig::heuristic::<f32>(n);
        let ours = sputnik::spmm_profile::<f32>(&gpu, &a, k, n, cfg).time_us;
        let cusp = baselines::cusparse_spmm_profile::<f32>(&gpu, &a, n).time_us;
        if ours < dense_us && sputnik_crossover.is_none() {
            sputnik_crossover = Some(s);
        }
        if cusp < dense_us && cusparse_crossover.is_none() {
            cusparse_crossover = Some(s);
        }
        table.row(&[
            format!("{:.2}", s),
            format!("{:.1}", ours),
            format!("{:.1}", cusp),
            format!("{:.1}", dense_us),
            format!("{:.2}x", dense_us / ours),
        ]);
    }

    table.print();
    println!(
        "Sputnik overtakes dense at sparsity {} (paper: ~0.71)",
        sputnik_crossover.map_or("never".into(), |s| format!("{s:.2}"))
    );
    println!(
        "cuSPARSE overtakes dense at sparsity {} (paper: needs ~14x fewer nonzeros)",
        cusparse_crossover.map_or(">0.99 (never in range)".into(), |s| format!("{s:.2}"))
    );
}
