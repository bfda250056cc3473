//! The paper's experiments, one function each.
//!
//! Every function prints the tables of its figure or table and pushes that
//! experiment's headline fields into a [`BenchRecord`], each with the
//! paper's value beside it as `<key>.paper` where the paper states one.
//! `reproduce_all` runs them all in paper order into `BENCH_paper.json` and
//! gates it with `--check`; the `fig*`, `table*` and `ext_*` bins each run
//! one function and write nothing.
//!
//! Gates come in two kinds. The simulator is deterministic, so every
//! simulated headline is gated [`Gate::MatchBaseline`]: a drift is a model
//! change and must be re-recorded on purpose. The paper's shape claims (who
//! wins, where a crossover falls) are also gated with absolute bounds, so a
//! re-recording cannot flip one unnoticed.
//!
//! Each experiment picks its problem grid with [`grid_label`]; the record
//! is committed at the default grid.
//!
//! [`grid_label`]: crate::grid_label

use crate::gate::{BenchRecord, Gate};

mod extensions;
mod kernels;
mod models;

pub use extensions::{
    ext_block_sparse, ext_heuristic_study, ext_load_balancing, ext_roma_study, ext_training,
};
pub use kernels::{
    fig01_lstm_crossover, fig02_matrix_stats, fig07_load_balance, fig09_dataset_benchmark,
    fig10_rnn_comparison, fig11_attention_mask, table02_ablation,
};
pub use models::{table03_transformer, table04_mobilenet};

/// One experiment: prints its tables and records its headline fields.
pub type Experiment = fn(&mut BenchRecord);

/// Record `key` at `decimals`, gated to match the committed baseline.
fn matched(rec: &mut BenchRecord, key: &str, measured: f64, decimals: usize) {
    rec.float(key, measured, decimals)
        .gate(key, Gate::MatchBaseline);
}

/// Record a count, gated to match the committed baseline.
fn matched_count(rec: &mut BenchRecord, key: &str, measured: usize) {
    rec.int(key, measured as u64).gate(key, Gate::MatchBaseline);
}

/// [`matched`], followed by the paper's value as `<key>.paper`.
fn vs_paper(rec: &mut BenchRecord, key: &str, measured: f64, decimals: usize, paper: f64) {
    matched(rec, key, measured, decimals);
    rec.plain(format!("{key}.paper"), paper);
}

/// Gate a recorded key inside `[lo, hi]`.
fn within(rec: &mut BenchRecord, key: &str, lo: f64, hi: f64) {
    rec.gate(key, Gate::AtLeast(lo)).gate(key, Gate::AtMost(hi));
}
