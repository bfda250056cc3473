//! Run every experiment of the paper in sequence (the full reproduction).
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin reproduce_all            # default scale
//! cargo run -p sputnik-bench --release --bin reproduce_all -- --quick # smoke test
//! ```
//!
//! Each experiment binary can also be run individually; this driver simply
//! executes them in paper order, forwarding `--quick`/`--full`.

use std::process::Command;

fn main() {
    let forward: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a == "--quick" || a == "--full")
        .collect();
    let experiments = [
        (
            "fig01_lstm_crossover",
            "Figure 1: LSTM sparse/dense crossover",
        ),
        (
            "fig02_matrix_stats",
            "Figure 2: DL vs scientific matrix statistics",
        ),
        ("fig07_load_balance", "Figure 7: row-swizzle load balancing"),
        (
            "fig09_dataset_benchmark",
            "Figure 9 + Table I: corpus benchmark",
        ),
        (
            "fig10_rnn_comparison",
            "Figure 10: RNN suite vs MergeSpmm/ASpT/cuSPARSE",
        ),
        ("table02_ablation", "Table II: optimization ablations"),
        (
            "fig11_attention_mask",
            "Figure 11: sparse attention connectivity",
        ),
        ("table03_transformer", "Table III: sparse Transformer"),
        (
            "table04_mobilenet",
            "Table IV + Figure 12: sparse MobileNetV1",
        ),
        (
            "ext_block_sparse",
            "Extension: structured vs unstructured sparsity",
        ),
        (
            "ext_heuristic_study",
            "Extension: kernel-selection heuristic quality",
        ),
        ("ext_roma_study", "Extension: ROMA vs explicit padding"),
        ("ext_resnet", "Extension: end-to-end sparse ResNet-50"),
        (
            "ext_devices",
            "Extension: device transport (1080/V100/A100)",
        ),
        (
            "ext_load_balancing",
            "Extension: load-balancing approaches head to head",
        ),
        (
            "ext_training",
            "Extension: training-step cost on compressed weights",
        ),
    ];

    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_else(|| panic!("cannot resolve the benchmark executable directory"));

    let mut failures = Vec::new();
    for (bin, title) in experiments {
        println!("\n############################################################");
        println!("## {title}");
        println!("############################################################");
        let status = Command::new(exe_dir.join(bin))
            .args(&forward)
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        if !status.success() {
            eprintln!("!! {bin} exited with {status}");
            failures.push(bin);
        }
    }

    println!("\n############################################################");
    if failures.is_empty() {
        println!("## All {} experiments completed", experiments.len());
    } else {
        println!("## FAILED: {failures:?}");
        std::process::exit(1);
    }
}
