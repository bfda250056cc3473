//! Figure 10: the RNN suite vs MergeSpmm, ASpT and cuSPARSE.
//!
//! Prints the experiment's tables and writes nothing; `reproduce_all`
//! records and gates its headline fields in `BENCH_paper.json`.
//!
//! ```bash
//! cargo run -p sputnik-bench --release --bin fig10_rnn_comparison [-- --quick|--full]
//! ```

use sputnik_bench::{gate::BenchRecord, paper};

fn main() {
    paper::fig10_rnn_comparison(&mut BenchRecord::new("paper"));
}
