//! Figure 2: deep-learning vs scientific matrix statistics.
//!
//! Prints the experiment's tables and writes nothing; `reproduce_all`
//! records and gates its headline fields in `BENCH_paper.json`.
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin fig02_matrix_stats [-- --quick|--full]
//! ```

use sputnik_bench::{gate::BenchRecord, paper};

fn main() {
    paper::fig02_matrix_stats(&mut BenchRecord::new("paper"));
}
