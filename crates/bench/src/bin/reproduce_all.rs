//! Run every experiment of the paper in paper order and record their
//! headline fields, each beside the paper's value, in `BENCH_paper.json`.
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin reproduce_all            # default scale
//! cargo run -p sputnik-bench --release --bin reproduce_all -- --quick # smoke test
//! cargo run -p sputnik-bench --release --bin reproduce_all -- --check BENCH_paper.json
//! ```
//!
//! The committed record is the default grid's, and the record carries the
//! grid it ran on, so `--check` fails on any other grid. `--check` reads the
//! baseline before overwriting it and fails on any gate: a simulated field
//! that no longer matches the baseline, or a paper shape claim out of its
//! bounds (see `sputnik_bench::paper`).

use sputnik_bench::gate::{BenchRecord, Gate};
use sputnik_bench::{grid_label, paper};

fn main() {
    let experiments: [(&str, paper::Experiment); 14] = [
        (
            "Figure 1: LSTM sparse/dense crossover",
            paper::fig01_lstm_crossover,
        ),
        (
            "Figure 2: DL vs scientific matrix statistics",
            paper::fig02_matrix_stats,
        ),
        (
            "Figure 7: row-swizzle load balancing",
            paper::fig07_load_balance,
        ),
        (
            "Figure 9 + Table I: corpus benchmark",
            paper::fig09_dataset_benchmark,
        ),
        (
            "Figure 10: RNN suite vs MergeSpmm/ASpT/cuSPARSE",
            paper::fig10_rnn_comparison,
        ),
        ("Table II: optimization ablations", paper::table02_ablation),
        (
            "Figure 11: sparse attention connectivity",
            paper::fig11_attention_mask,
        ),
        ("Table III: sparse Transformer", paper::table03_transformer),
        (
            "Table IV + Figure 12: sparse MobileNetV1",
            paper::table04_mobilenet,
        ),
        (
            "Extension: structured vs unstructured sparsity",
            paper::ext_block_sparse,
        ),
        (
            "Extension: kernel-selection heuristic quality",
            paper::ext_heuristic_study,
        ),
        ("Extension: ROMA vs explicit padding", paper::ext_roma_study),
        (
            "Extension: load-balancing approaches head to head",
            paper::ext_load_balancing,
        ),
        (
            "Extension: training-step cost on compressed weights",
            paper::ext_training,
        ),
    ];

    let mut record = BenchRecord::new("paper");
    record
        .text("grid", grid_label())
        .gate("grid", Gate::MatchBaseline);
    for (title, run) in experiments {
        println!("\n############################################################");
        println!("## {title}");
        println!("############################################################");
        run(&mut record);
    }
    println!("\n############################################################");
    println!("## All {} experiments completed", experiments.len());
    record.finish();
}
