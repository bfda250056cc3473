//! Figure 1: the LSTM SpMM sparse/dense crossover.
//!
//! Prints the experiment's tables and writes nothing; `reproduce_all`
//! records and gates its headline fields in `BENCH_paper.json`.
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin fig01_lstm_crossover [-- --quick|--full]
//! ```

use sputnik_bench::{gate::BenchRecord, paper};

fn main() {
    paper::fig01_lstm_crossover(&mut BenchRecord::new("paper"));
}
