//! # sputnik-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's per-experiment
//! index), plus shared reporting helpers. Each binary prints the same rows
//! or series the paper reports. The bench-gate bins also write
//! `BENCH_*.json` through [`gate::BenchRecord`], which needs no serializer.

pub mod gate;
pub mod registry;
pub mod report;

pub use report::{geo_mean, grid_label, has_flag, Row, Table};
