//! One bench record: the `BENCH_<name>.json` file a bench bin writes and the
//! `--check` CI gates that protect it.
//!
//! Every bench bin with a committed baseline (`simwall`, `funcwall`,
//! `servewall`, `fleetwall`, `fusewall`, `jointwall`, `static_audit` and
//! `trace_model`) builds a [`BenchRecord`]: an ordered list of `(key, value)`
//! fields plus [`Gate`]s declared against those same keys, so the written
//! list and the gated list cannot drift apart. [`BenchRecord::finish`] reads
//! the `--check` baseline *before* overwriting the record, so
//! `--check BENCH_<name>.json` compares against the committed file, not
//! against the run itself. A failure always names the offending metric, the
//! baseline value, the observed value, and the percent delta — a bare
//! "regressed" error forces a local repro before anyone knows what moved.
//!
//! The vendored serde stub can neither serialize nor deserialize, so the
//! record renders one flat JSON object itself and baselines are read back
//! with a flat-JSON scanner.

use std::fmt;

/// One recorded value.
enum Value {
    Int(u64),
    /// A float at a stated number of decimals, or plain `Display` (`None`).
    Float(f64, Option<usize>),
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v, Some(decimals)) => write!(f, "{v:.decimals$}"),
            Value::Float(v, None) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "\"{s}\""),
        }
    }
}

/// A `--check` requirement on one recorded key. Gates compare the run's
/// full-precision value, not its rounded JSON rendering, except
/// [`Gate::MatchBaseline`], which compares the rendering.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// The value must be this integer exactly.
    Exact(u64),
    /// The rendered value must equal the baseline's raw text exactly:
    /// deterministic counters, and floats at a fixed number of decimals.
    MatchBaseline,
    /// Must stay at or above this absolute floor.
    AtLeast(f64),
    /// Must stay at or below this absolute ceiling.
    AtMost(f64),
    /// Must stay at or above this fraction of the baseline.
    AtLeastBaseline(f64),
    /// `(headroom, baseline_floor)`: must stay at or below `headroom` times
    /// the baseline, with the baseline first raised to `baseline_floor` (so
    /// a committed near-zero rate still leaves room for one more event).
    AtMostBaseline(f64, f64),
    /// Must be nonzero (liveness counters, e.g. cache hits).
    Nonzero,
}

/// An ordered bench record plus the gates declared against its keys.
pub struct BenchRecord {
    name: String,
    fields: Vec<(String, Value)>,
    gates: Vec<(String, Gate)>,
}

impl BenchRecord {
    /// A record for `BENCH_<name>.json`; its first field is `"bench": name`.
    pub fn new(name: &str) -> Self {
        let mut record = Self {
            name: name.to_string(),
            fields: Vec::new(),
            gates: Vec::new(),
        };
        record.text("bench", name);
        record
    }

    fn push(&mut self, key: impl Into<String>, value: Value) -> &mut Self {
        self.fields.push((key.into(), value));
        self
    }

    /// Record an integer.
    pub fn int(&mut self, key: impl Into<String>, v: u64) -> &mut Self {
        self.push(key, Value::Int(v))
    }

    /// Record a float written with `decimals` digits after the point.
    pub fn float(&mut self, key: impl Into<String>, v: f64, decimals: usize) -> &mut Self {
        self.push(key, Value::Float(v, Some(decimals)))
    }

    /// Record a float written with plain `Display` (shortest round-trip).
    pub fn plain(&mut self, key: impl Into<String>, v: f64) -> &mut Self {
        self.push(key, Value::Float(v, None))
    }

    /// Record a text label.
    pub fn text(&mut self, key: impl Into<String>, v: &str) -> &mut Self {
        self.push(key, Value::Text(v.to_string()))
    }

    /// Declare a `--check` gate on a recorded key.
    pub fn gate(&mut self, key: impl Into<String>, gate: Gate) -> &mut Self {
        self.gates.push((key.into(), gate));
        self
    }

    /// The record as one flat JSON object, fields in insertion order.
    fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| format!("  \"{key}\": {value}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Write `BENCH_<name>.json` and, under `--check <baseline>`, gate the
    /// run against that baseline. Exits 1 on any failure.
    pub fn finish(&self) {
        let out = format!("BENCH_{}.json", self.name);
        let baseline = std::env::args().skip_while(|a| a != "--check").nth(1);
        match self.write_and_check(&out, baseline.as_deref()) {
            Ok(()) => {
                if let Some(path) = baseline {
                    println!("[--check passed vs {path}]");
                }
            }
            Err(e) => {
                for line in e.lines() {
                    eprintln!("[{line}]");
                }
                std::process::exit(1);
            }
        }
    }

    /// Read `baseline` (if any) first, then write the record to `out`, then
    /// evaluate every gate against the pre-run baseline. `out` may equal
    /// `baseline`. Every failure is one line of the error.
    pub fn write_and_check(&self, out: &str, baseline: Option<&str>) -> Result<(), String> {
        let base = baseline.map(|path| read_baseline(path).map(|text| (text, path)));
        std::fs::write(out, self.render()).map_err(|e| format!("failed to write {out}: {e}"))?;
        eprintln!("[results written to {out}]");
        let Some(base) = base else {
            return Ok(());
        };
        let (text, path) = base.map_err(|e| format!("--check FAILED: {e}"))?;
        let failures: Vec<String> = self
            .gates
            .iter()
            .filter_map(|(key, gate)| self.evaluate(key, *gate, &text, path).err())
            .map(|e| format!("--check FAILED: {e}"))
            .collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }

    fn value(&self, key: &str) -> Result<&Value, String> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("gate on {key}, which the record does not hold"))
    }

    fn num_value(&self, key: &str) -> Result<f64, String> {
        match self.value(key)? {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(v, _) => Ok(*v),
            Value::Text(_) => Err(format!("gate on {key} needs a numeric field")),
        }
    }

    fn evaluate(&self, key: &str, gate: Gate, base: &str, path: &str) -> Result<(), String> {
        match gate {
            Gate::Exact(want) => require_exact(
                key,
                ("required", &want.to_string()),
                self.value(key)?,
                "must equal the value the bench fixes in code",
            ),
            Gate::MatchBaseline => match json_raw(base, key) {
                Some(raw) => require_exact(
                    key,
                    ("baseline", raw),
                    self.value(key)?,
                    "must match the committed baseline exactly (regenerate it if this change \
                     is intended)",
                ),
                None => Err(format!("no {key} in baseline {path}")),
            },
            Gate::AtLeast(floor) => {
                require_not_below(key, ("floor", floor), self.num_value(key)?, 1.0)
            }
            Gate::AtMost(ceiling) => {
                require_not_above(key, ("ceiling", ceiling), self.num_value(key)?, 1.0)
            }
            Gate::AtLeastBaseline(frac) => require_not_below(
                key,
                ("baseline", metric_f64(base, key, path)?),
                self.num_value(key)?,
                frac,
            ),
            Gate::AtMostBaseline(headroom, baseline_floor) => require_not_above(
                key,
                ("baseline", metric_f64(base, key, path)?.max(baseline_floor)),
                self.num_value(key)?,
                headroom,
            ),
            Gate::Nonzero => require_nonzero(key, self.num_value(key)?),
        }
    }
}

/// Read a baseline JSON file into memory.
fn read_baseline(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))
}

/// Extract the raw text of `"key": <value>` from a flat JSON object.
fn json_raw<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = text[start..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A named metric parsed from the baseline, or an error naming the file.
fn metric_f64(text: &str, key: &str, path: &str) -> Result<f64, String> {
    json_raw(text, key)
        .and_then(|raw| raw.parse().ok())
        .ok_or_else(|| format!("no {key} in baseline {path}"))
}

/// Render the standard failure line: metric, the named reference value
/// (the baseline, or a floor or ceiling fixed in code), observed, delta.
fn describe(
    metric: &str,
    (label, reference): (&str, f64),
    observed: f64,
    requirement: &str,
) -> String {
    let delta = if reference != 0.0 {
        format!("{:+.1}%", (observed - reference) / reference * 100.0)
    } else if observed == 0.0 {
        "+0.0%".to_string()
    } else {
        "+inf%".to_string()
    };
    format!(
        "metric {metric}: {label} {reference:.4}, observed {observed:.4}, \
         delta {delta} — {requirement}"
    )
}

/// Gate: `observed` may not exceed `headroom` times the reference.
fn require_not_above(
    metric: &str,
    reference: (&str, f64),
    observed: f64,
    headroom: f64,
) -> Result<(), String> {
    if observed > reference.1 * headroom {
        let requirement = format!("must stay <= {headroom:.1}x the {}", reference.0);
        return Err(describe(metric, reference, observed, &requirement));
    }
    Ok(())
}

/// Gate: `observed` may not fall below `floor_frac` times the reference.
fn require_not_below(
    metric: &str,
    reference: (&str, f64),
    observed: f64,
    floor_frac: f64,
) -> Result<(), String> {
    if observed < reference.1 * floor_frac {
        let requirement = format!("must stay >= {floor_frac:.2}x the {}", reference.0);
        return Err(describe(metric, reference, observed, &requirement));
    }
    Ok(())
}

/// Gate: the run's rendered value must equal the reference's text as
/// written (deterministic counters, fixed-decimal floats).
fn require_exact(
    metric: &str,
    (label, want): (&str, &str),
    observed: &Value,
    requirement: &str,
) -> Result<(), String> {
    let observed = observed.to_string();
    if observed == want {
        return Ok(());
    }
    let delta = match (want.parse::<f64>(), observed.parse::<f64>()) {
        (Ok(b), Ok(o)) if b != 0.0 => format!(", delta {:+.1}%", (o - b) / b * 100.0),
        _ => String::new(),
    };
    Err(format!(
        "metric {metric}: {label} {want}, observed {observed}{delta} — {requirement}"
    ))
}

/// Gate: `observed` must be nonzero (liveness counters, e.g. cache hits).
fn require_nonzero(metric: &str, observed: f64) -> Result<(), String> {
    if observed == 0.0 {
        return Err(format!(
            "metric {metric}: observed 0 — must stay nonzero (the mechanism it counts \
             stopped firing)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_names_metric_and_delta() {
        let err =
            require_not_above("allocs_per_launch", ("baseline", 10.0), 26.0, 1.25).unwrap_err();
        assert!(err.contains("allocs_per_launch"), "{err}");
        assert!(err.contains("10.0000"), "{err}");
        assert!(err.contains("26.0000"), "{err}");
        assert!(err.contains("+160.0%"), "{err}");
    }

    #[test]
    fn gates_pass_within_headroom() {
        assert!(require_not_above("m", ("baseline", 10.0), 12.0, 1.25).is_ok());
        assert!(require_not_below("m", ("baseline", 10.0), 6.0, 0.5).is_ok());
        assert!(require_exact("m", ("baseline", "5"), &Value::Int(5), "").is_ok());
        assert!(require_nonzero("m", 1.0).is_ok());
    }

    #[test]
    fn exact_gate_reports_drift() {
        let err = require_exact(
            "launches",
            ("baseline", "100"),
            &Value::Int(101),
            "must match",
        )
        .unwrap_err();
        assert!(err.contains("launches"), "{err}");
        assert!(
            err.contains("baseline 100, observed 101, delta +1.0%"),
            "{err}"
        );
    }

    /// Each gate's failure text names what it compares against, and only
    /// `MatchBaseline`, whose reference is the committed file, advises
    /// regenerating that file.
    #[test]
    fn each_gate_names_its_reference() {
        let base = "{\n  \"m\": 10\n}\n";
        let mut r = BenchRecord::new("t");
        r.int("m", 4);
        let text = |gate| r.evaluate("m", gate, base, "p").unwrap_err();
        assert_eq!(
            text(Gate::Exact(5)),
            "metric m: required 5, observed 4, delta -20.0% — must equal the value the bench \
             fixes in code"
        );
        assert_eq!(
            text(Gate::MatchBaseline),
            "metric m: baseline 10, observed 4, delta -60.0% — must match the committed \
             baseline exactly (regenerate it if this change is intended)"
        );
        assert_eq!(
            text(Gate::AtLeast(5.0)),
            "metric m: floor 5.0000, observed 4.0000, delta -20.0% — must stay >= 1.00x the floor"
        );
        assert_eq!(
            text(Gate::AtMost(2.0)),
            "metric m: ceiling 2.0000, observed 4.0000, delta +100.0% — must stay <= 1.0x the \
             ceiling"
        );
        assert_eq!(
            text(Gate::AtLeastBaseline(0.5)),
            "metric m: baseline 10.0000, observed 4.0000, delta -60.0% — must stay >= 0.50x the \
             baseline"
        );
        assert_eq!(
            text(Gate::AtMostBaseline(0.2, 15.0)),
            "metric m: baseline 15.0000, observed 4.0000, delta -73.3% — must stay <= 0.2x the \
             baseline"
        );
        let mut zero = BenchRecord::new("t");
        zero.int("m", 0);
        assert_eq!(
            zero.evaluate("m", Gate::Nonzero, base, "p").unwrap_err(),
            "metric m: observed 0 — must stay nonzero (the mechanism it counts stopped firing)"
        );
    }

    #[test]
    fn json_scanner_reads_flat_objects() {
        let text = "{\n  \"a\": 1.5,\n  \"b\": 7\n}\n";
        assert_eq!(metric_f64(text, "a", "p").ok(), Some(1.5));
        assert_eq!(json_raw(text, "b"), Some("7"));
        assert!(metric_f64(text, "missing", "p").is_err());
    }

    /// `<fresh temp dir>/<rel>`: a path no other test uses.
    fn scratch(name: &str, rel: &str) -> String {
        let dir = std::env::temp_dir().join(format!("gate-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(rel).to_str().unwrap().to_string()
    }

    #[test]
    fn every_value_kind_round_trips_at_its_precision() {
        let mut r = BenchRecord::new("t");
        r.int("n", 30_666_496)
            .float("ms", 91.20649, 3)
            .float("rate", 20_000.4, 0)
            .plain("sparsity", 0.95)
            .text("grid", "quick");
        let text = r.render();
        assert!(text.starts_with("{\n  \"bench\": \"t\",\n"), "{text}");
        assert!(text.ends_with("  \"grid\": \"quick\"\n}\n"), "{text}");
        assert_eq!(json_raw(&text, "n"), Some("30666496"));
        assert_eq!(metric_f64(&text, "ms", "p").ok(), Some(91.206));
        assert_eq!(json_raw(&text, "rate"), Some("20000"));
        assert_eq!(metric_f64(&text, "sparsity", "p").ok(), Some(0.95));
        assert_eq!(json_raw(&text, "grid"), Some("\"quick\""));
    }

    #[test]
    fn match_baseline_compares_the_rendering() {
        let out = scratch("match", "BENCH_t.json");
        let mut base = BenchRecord::new("t");
        base.int("launches", 46).float("us", 301.338, 3);
        std::fs::write(&out, base.render()).unwrap();

        let mut same = BenchRecord::new("t");
        same.int("launches", 46)
            .float("us", 301.3384, 3)
            .gate("launches", Gate::MatchBaseline)
            .gate("us", Gate::MatchBaseline);
        assert!(same.write_and_check(&out, Some(&out)).is_ok());

        std::fs::write(&out, base.render()).unwrap();
        let mut drifted = BenchRecord::new("t");
        drifted
            .int("launches", 47)
            .float("us", 301.339, 3)
            .gate("launches", Gate::MatchBaseline)
            .gate("us", Gate::MatchBaseline);
        let err = drifted.write_and_check(&out, Some(&out)).unwrap_err();
        assert!(
            err.contains("metric launches: baseline 46, observed 47"),
            "{err}"
        );
        assert!(
            err.contains("metric us: baseline 301.338, observed 301.339"),
            "{err}"
        );
    }

    #[test]
    fn gating_an_unrecorded_key_names_it() {
        let out = scratch("unrecorded", "BENCH_t.json");
        let mut r = BenchRecord::new("t");
        r.int("hits", 3).gate("misses", Gate::Nonzero);
        std::fs::write(&out, r.render()).unwrap();
        let err = r.write_and_check(&out, Some(&out)).unwrap_err();
        assert!(err.contains("misses"), "{err}");
    }

    #[test]
    fn baseline_is_read_before_the_record_overwrites_it() {
        let out = scratch("same-path", "BENCH_t.json");
        let mut base = BenchRecord::new("t");
        base.float("speedup", 1000.0, 3);
        std::fs::write(&out, base.render()).unwrap();

        let mut run = BenchRecord::new("t");
        run.float("speedup", 7.9, 3)
            .gate("speedup", Gate::AtLeastBaseline(0.5));
        let err = run.write_and_check(&out, Some(&out)).unwrap_err();
        assert!(err.contains("metric speedup: baseline 1000.0000"), "{err}");
        // The run's record still landed, and now passes against itself.
        assert_eq!(std::fs::read_to_string(&out).unwrap(), run.render());
        assert!(run.write_and_check(&out, Some(&out)).is_ok());
    }

    #[test]
    fn unwritable_output_is_an_error() {
        let out = scratch("unwritable", "missing/BENCH_t.json");
        let err = BenchRecord::new("t")
            .write_and_check(&out, None)
            .unwrap_err();
        assert!(err.contains("failed to write"), "{err}");
    }
}
