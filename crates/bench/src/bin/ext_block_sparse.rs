//! Extension: structured vs unstructured sparsity.
//!
//! Prints the experiment's tables and writes nothing; `reproduce_all`
//! records and gates its headline fields in `BENCH_paper.json`.
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin ext_block_sparse [-- --quick|--full]
//! ```

use sputnik_bench::{gate::BenchRecord, paper};

fn main() {
    paper::ext_block_sparse(&mut BenchRecord::new("paper"));
}
