//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer: name, start, end
//! and parent, kept in memory and written out once the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover. A disabled recorder records nothing and never reads
//! the clock, so the end-to-end runs pay for one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `end` calls that named another span than the innermost open one,
    /// or found none open.
    mismatches: usize,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            mismatches: 0,
        }
    }

    /// Turn recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Unbalanced `begin`/`end` pairs seen so far, plus spans still open.
    pub fn mismatches(&self) -> usize {
        self.mismatches + self.open.len()
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span, which must be called `name`. A
    /// mismatch is counted (see [`Recorder::mismatches`]) and leaves the
    /// open spans untouched, so child spans never move to the wrong parent.
    pub fn end(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_secs_f64();
        match self.open.last() {
            Some(&i) if self.spans[i].name == name => {
                self.open.pop();
                self.spans[i].end = now;
            }
            _ => {
                self.mismatches += 1;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end(name);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Mean share of each span called `name` that its children cover.
    pub fn coverage(&self, name: &str) -> f64 {
        let covers = covered_all(&self.spans);
        let shares: Vec<f64> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| covers[i] / self.spans[i].duration().max(f64::MIN_POSITIVE))
            .collect();
        shares.iter().sum::<f64>() / shares.len().max(1) as f64
    }

    /// The spans as a JSON array (`name`, `start`, `end`, `parent`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                    s.name, s.start, s.end
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_within(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// For every span, the time inside it that its direct children cover.
pub fn covered_all(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    children
        .into_iter()
        .zip(spans)
        .map(|(c, s)| union_within(c, s.start, s.end))
        .collect()
}

/// Self time of every span: its duration minus the time its children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .zip(covered_all(spans))
        .map(|(s, c)| s.duration() - c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            // Overlaps `a`: the union counts [1, 5] once.
            span("b", 2.0, 5.0, Some(0)),
            // Runs past the parent's end: clipped to [8, 10].
            span("c", 8.0, 12.0, Some(0)),
            // A grandchild counts against `b`, not against `pass`.
            span("d", 2.5, 4.0, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 10.0 - 6.0);
        assert_eq!(selfs[1], 2.0);
        assert_eq!(selfs[2], 3.0 - 1.5);
        assert_eq!(selfs[3], 4.0);
        assert_eq!(selfs[4], 1.5);
        assert_eq!(covered_all(&spans)[0], 6.0);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("x", 1.0, 4.5, None)];
        assert_eq!(self_times(&spans), vec![3.5]);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        let mut rec = Recorder::new(true);
        rec.begin("pass");
        rec.span("layer", || std::hint::black_box(1 + 1));
        rec.span("layer", || ());
        rec.end("pass");
        assert_eq!(rec.mismatches(), 0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(rec.self_time_by_name()["layer"] >= 0.0);
        let cov = rec.coverage("pass");
        assert!((0.0..=1.0).contains(&cov));
        assert!(rec.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn mismatched_end_is_counted_not_applied() {
        let mut rec = Recorder::new(true);
        rec.begin("pass");
        rec.begin("layer");
        rec.end("pass");
        assert_eq!(rec.mismatches(), 3);
        rec.end("layer");
        rec.end("pass");
        assert_eq!(rec.mismatches(), 1);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", || 7), 7);
        assert!(rec.spans().is_empty());
        assert!(rec.self_time_by_name().is_empty());
    }
}
