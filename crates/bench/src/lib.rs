//! # sputnik-bench — the experiment harness
//!
//! One function per table/figure of the paper in [`paper`] (see DESIGN.md's
//! per-experiment index), each with a thin binary, plus shared reporting
//! helpers. Each experiment prints the same rows or series the paper
//! reports; `reproduce_all` records their headlines in `BENCH_paper.json`.
//! The bench-gate bins write their `BENCH_*.json` through the same
//! [`gate::BenchRecord`], which needs no serializer.

pub mod gate;
pub mod paper;
pub mod registry;
pub mod report;

pub use report::{geo_mean, grid_label, has_flag, Row, Table};
