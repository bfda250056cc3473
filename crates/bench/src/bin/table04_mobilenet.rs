//! Table IV + Figure 12: sparse MobileNetV1.
//!
//! Prints the experiment's tables and writes nothing; `reproduce_all`
//! records and gates its headline fields in `BENCH_paper.json`.
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin table04_mobilenet [-- --quick|--full]
//! ```

use sputnik_bench::{gate::BenchRecord, paper};

fn main() {
    paper::table04_mobilenet(&mut BenchRecord::new("paper"));
}
