//! Figure 9 + Table I: the deep-learning corpus benchmark.
//!
//! Prints the experiment's tables and writes nothing; `reproduce_all`
//! records and gates its headline fields in `BENCH_paper.json`.
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin fig09_dataset_benchmark [-- --quick|--full]
//! ```

use sputnik_bench::{gate::BenchRecord, paper};

fn main() {
    paper::fig09_dataset_benchmark(&mut BenchRecord::new("paper"));
}
