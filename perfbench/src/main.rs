//! Two-clock end-to-end benchmark of the simulator.
//!
//! One invocation runs one workload in its own process:
//!
//! ```text
//! perfbench --workload <corpus|serve|attention> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` re-runs the workload with in-memory layer spans and
//! reports the per-layer metrics instead. See `perfbench/README.md`.

// Host wall time is what this program measures.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod attention;
mod corpus;
mod harness;
mod layers;
mod serving;
mod spans;
mod stats;

use harness::{Args, Outcome};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <corpus|serve|attention> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "corpus" => corpus::run(&args),
        "serve" => serving::run(&args),
        "attention" => attention::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        if let Some(path) = outcome.spans_path.as_deref() {
            eprintln!("[spans written to {path}]");
        }
    }
    let (line, failed) = outcome.to_json(args.trace);
    println!("{line}");
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
