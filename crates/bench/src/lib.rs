//! # sputnik-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's per-experiment
//! index), plus shared reporting helpers. Each binary prints the same rows
//! or series the paper reports and tries to write a JSON record under
//! `results/`; with the offline serde stub that write fails, and the binary
//! says so on stderr. The bench-gate bins write `BENCH_*.json` through
//! [`gate::BenchRecord`] instead, which needs no serializer.

pub mod gate;
pub mod registry;
pub mod report;

pub use report::{geo_mean, grid_label, has_flag, write_json, Row, Table};
