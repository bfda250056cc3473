//! Extension: load-balancing approaches head to head.
//!
//! Prints the experiment's tables and writes nothing; `reproduce_all`
//! records and gates its headline fields in `BENCH_paper.json`.
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin ext_load_balancing [-- --quick|--full]
//! ```

use sputnik_bench::{gate::BenchRecord, paper};

fn main() {
    paper::ext_load_balancing(&mut BenchRecord::new("paper"));
}
