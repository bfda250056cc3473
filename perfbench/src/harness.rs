//! Command line, timing loop and result line shared by the workloads.

use crate::layers;
use crate::spans::Recorder;
use crate::stats::median;
use sparse::{CsrMatrix, RowSwizzle};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds {seconds}: expected (0, 120]"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// A per-purpose seed derived from the run's seed: the splitmix64
/// finalizer of `seed + salt`, so nearby seeds give unrelated streams.
pub fn seed_for(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Write the traced run's spans to `perfbench/spans/<workload>-seed<n>.json`.
pub fn write_spans(workload: &str, seed: u64, rec: &Recorder) -> Option<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/spans");
    std::fs::create_dir_all(dir).ok()?;
    let path = format!("{dir}/{workload}-seed{seed}.json");
    std::fs::write(&path, rec.to_json()).ok()?;
    Some(path)
}

/// The row order Sputnik's launch paths use for `a` under a config's
/// `row_swizzle` flag.
pub fn swizzle(a: &CsrMatrix<f32>, row_swizzle: bool) -> RowSwizzle {
    if row_swizzle {
        RowSwizzle::by_length_desc(a)
    } else {
        RowSwizzle::identity(a.rows())
    }
}

/// Bitwise equality of two outputs.
pub fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run `f` and return its result with its host wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Call `pass` until `seconds` have elapsed and at least `min` passes ran,
/// or `max` passes ran. The argument is the pass index.
pub fn repeat(seconds: f64, min: usize, max: usize, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < max && (i < min || start.elapsed().as_secs_f64() < seconds) {
        pass(i);
        i += 1;
    }
}

/// Correctness tally: every checked operation is one attempt.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[check failed] {}", what());
        }
    }
}

/// Host time of the timed passes of one run.
#[derive(Default)]
pub struct HostTimes {
    pub setup: Vec<f64>,
    pub cold: Vec<f64>,
    pub warm: Vec<f64>,
}

/// The smallest value; `NaN` when there is none.
fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// What one invocation reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics in `BENCHMARK.json` order: name, value, unit
    /// and clock.
    pub e2e: Vec<(&'static str, f64, &'static str, &'static str)>,
    /// Per-layer values by name; names absent here report 0.
    pub layer: BTreeMap<String, f64>,
    pub spans_path: Option<String>,
}

impl Outcome {
    /// Assemble the end-to-end metrics every workload reports. Host times
    /// are the fastest of the run's passes: other tenants of the machine
    /// slow single passes by up to 40% in bursts, and only ever add time,
    /// while the fastest pass stays within a few percent between runs. The
    /// medians go to standard error.
    pub fn new(checks: &Checks, sim_us: f64, host: &HostTimes) -> Self {
        eprintln!(
            "median over passes: cold {:.6} s, warm {:.6} s, setup {:.6} s ({} passes)",
            median(&host.cold),
            median(&host.warm),
            median(&host.setup),
            host.cold.len()
        );
        Self {
            attempted: checks.attempted,
            failed: checks.failed,
            e2e: vec![
                ("sim_us", sim_us, "us", "sim"),
                ("host_cold_s", fastest(&host.cold), "s", "host"),
                ("host_warm_s", fastest(&host.warm), "s", "host"),
                ("setup_s", fastest(&host.setup), "s", "host"),
                ("peak_heap_mb", crate::alloc::peak_mb(), "MB", "host"),
            ],
            layer: BTreeMap::new(),
            spans_path: None,
        }
    }

    /// Set one per-layer metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }

    /// The result line and the failure count it reports. A metric that is
    /// not a finite number fails the run. End-to-end metrics are also
    /// listed on standard error with their clock.
    pub fn to_json(&self, trace: bool) -> (String, u64) {
        let mut failed = self.failed;
        let metrics: Vec<(&str, f64, &str)> = if trace {
            for name in self.layer.keys() {
                if !layers::PER_LAYER.iter().any(|(n, _)| n == name) {
                    eprintln!("[metric {name} is not a per-layer metric]");
                    failed += 1;
                }
            }
            layers::PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.layer.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            for &(name, value, unit, clock) in &self.e2e {
                eprintln!("{name:<12} {value:>16.6} {unit:<3} {clock} clock");
            }
            self.e2e.iter().map(|&(n, v, u, _)| (n, v, u)).collect()
        };
        let mut entries = Vec::new();
        for (name, value, unit) in metrics {
            let value = if value.is_finite() {
                value
            } else {
                eprintln!("[metric {name} is not finite: {value}]");
                failed += 1;
                0.0
            };
            entries.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.attempted.max(1),
            entries.join(", ")
        );
        (line, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 7, 12.0, true)
        );
        assert!(args(&["--seed", "7"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "-1"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "1", "--trace", "2"]).is_err());
    }

    #[test]
    fn non_finite_metric_fails_the_run() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let host = HostTimes {
            setup: vec![1.0],
            cold: vec![2.0],
            warm: vec![3.0],
        };
        let (ok, failed) = Outcome::new(&checks, 5.0, &host).to_json(false);
        assert!(ok.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(failed, 0);
        let (bad, failed) = Outcome::new(&checks, f64::INFINITY, &host).to_json(false);
        assert!(bad.contains("\"correct\": false"));
        assert_eq!(failed, 1);
    }
}
