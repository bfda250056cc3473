//! Extension: kernel-selection heuristic vs oracle.
//!
//! Prints the experiment's tables and writes nothing; `reproduce_all`
//! records and gates its headline fields in `BENCH_paper.json`.
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin ext_heuristic_study [-- --quick|--full]
//! ```

use sputnik_bench::{gate::BenchRecord, paper};

fn main() {
    paper::ext_heuristic_study(&mut BenchRecord::new("paper"));
}
