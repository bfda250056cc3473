//! One set of books: the recorder behind both the [`crate::metrics`]
//! counters and the launch trace, plus a Chrome `trace_event` exporter and
//! a profile report.
//!
//! The simulator's value over hardware counters is visibility (cf. Lew et
//! al., "Analyzing Machine Learning Workloads Using a Detailed GPU
//! Simulator"): every launch already computes instruction counts, DRAM
//! traffic, occupancy, and a pipeline breakdown — this module records *where
//! in a model run* each launch happened so sweeps can be compared across
//! PRs and opened in a timeline viewer.
//!
//! ## One funnel
//!
//! Every event goes through one call, [`record`]. It always bumps the
//! event's counters; only while tracing is on does it build the event's
//! name (through a closure) and append the event to the log. Counters and
//! log are one `Books` value, so the two views are two readings of the same
//! books:
//!
//! * [`Entry::Launch`] — a kernel launch, carrying the full [`LaunchStats`].
//!   Bumps `launches`, `launches_replayed` (cache hits), `sim_time_ns`,
//!   `flops`, `dram_bytes` and `blocks`, and advances the track clock by
//!   `stats.time_us`.
//! * [`Entry::Replay`] — replicated work (e.g. the remaining attention heads
//!   of a transformer layer, costed once and multiplied): bumps
//!   `sim_time_ns` and advances the clock without re-simulating.
//! * [`Entry::Transfer`] — an interconnect transfer occupying the source
//!   track; advances its clock but is not device work.
//! * [`Entry::Instant`] / [`Entry::Counter`] — point events (cache hit/miss,
//!   dispatch-ladder step, fault, sanitizer run) and counter-track samples.
//!
//! So `sim_time_ns` is exactly the sum [`ProfileReport::total_us`] takes, at
//! the counter's own per-event rounding ([`crate::metrics::sim_ns`]), and
//! [`books_mismatches`] checks it. [`begin_span`] / [`end_span`] bracket a
//! named region (a model layer, a tuning search) whose duration is the
//! simulated time that elapsed on its track while it was open.
//!
//! Events land on **tracks** (one per device/stream, keyed by name). Each
//! track carries a simulated clock, in microseconds, starting at zero when
//! tracing is enabled.
//!
//! ## One thread, one run
//!
//! The simulator runs every launch, every [`crate::Fleet`] device and every
//! serve window on its caller's thread, so a run is its thread: the books
//! and the trace switch are thread-locals, reached through one
//! `#[inline]` borrow (`with_books`). A launch's counters and events land in
//! the books of the thread that ran it, and two threads never see each
//! other's. A test therefore gets exact deltas with no lock and no binary
//! of its own.
//!
//! ## Cost when tracing is off
//!
//! Tracing is **off by default**. Then [`record`] borrows the books, bumps
//! its counters and returns: it never runs the name closure, allocates, or
//! clones the [`LaunchStats`] — the same cost as the counters alone, so the
//! launch fast path (`simwall`) pays nothing measurable for the trace.
//! Callers need no [`enabled`] guard.
//!
//! ## Export
//!
//! [`chrome_trace_json`] serializes a drained event list to Chrome
//! `trace_event` JSON (the vendored serde stub cannot serialize, so the
//! writer is by hand). Load the file in `chrome://tracing` or
//! <https://ui.perfetto.dev>: each track is a named thread row, launches and
//! spans are duration slices, and synthesized counter tracks show occupancy
//! and DRAM bandwidth per launch. [`validate_chrome_trace`] re-parses the
//! output and checks the structural schema; CI runs it on every
//! `trace_model` artifact.

use crate::launch::LaunchStats;
use crate::metrics::{sim_ns, MetricsSnapshot};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A kernel launch (simulated or replayed from a cache), with its full
    /// statistics. `cached` is `Some(true)` for cache hits, `Some(false)`
    /// for recorded misses, `None` when no cache was consulted.
    Launch {
        stats: Box<LaunchStats>,
        cached: Option<bool>,
    },
    /// A closed span: `dur_us` of simulated time elapsed while it was open.
    Span { dur_us: f64 },
    /// Replicated work advancing the clock without simulation: `count`
    /// repetitions totalling `dur_us`.
    Replay { dur_us: f64, count: u64 },
    /// A point event (cache hit/miss, dispatch rung, fault, sanitizer run).
    Instant,
    /// A named counter sample at the track's current clock — a step on a
    /// Chrome counter (`"ph":"C"`) track. Used for workload-level gauges the
    /// launcher cannot synthesize itself, e.g. the joint-sparsity kernels'
    /// `joint_tiles_skipped` / `joint_tiles_total` skip-rate tracks.
    Counter { value: u64 },
    /// A cross-device interconnect transfer occupying the source device's
    /// track for `dur_us`: `bytes` moved toward `dst`. The exporter
    /// synthesizes an `interconnect_bytes` counter track from these
    /// (bytes in flight at the start, back to zero at the end).
    Transfer {
        dur_us: f64,
        bytes: u64,
        dst: String,
    },
}

/// One recorded event. Timestamps are simulated microseconds on the track's
/// clock, which starts at zero when tracing is enabled.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: String,
    /// Category: "launch", "replay", "layer", "tune", "cache", "dispatch",
    /// "fault", "sanitizer", ...
    pub cat: &'static str,
    /// Track (thread row in the viewer): usually the device name.
    pub track: String,
    pub ts_us: f64,
    pub kind: EventKind,
}

impl TraceEvent {
    /// The simulated duration this event occupies on its track.
    pub fn dur_us(&self) -> f64 {
        match &self.kind {
            EventKind::Launch { stats, .. } => stats.time_us,
            EventKind::Span { dur_us }
            | EventKind::Replay { dur_us, .. }
            | EventKind::Transfer { dur_us, .. } => *dur_us,
            EventKind::Instant | EventKind::Counter { .. } => 0.0,
        }
    }
}

/// One event as [`record`] takes it: borrowed, so an untraced call
/// allocates nothing. Each variant becomes the [`EventKind`] of the same
/// name when tracing is on.
#[derive(Debug, Clone, Copy)]
pub enum Entry<'a> {
    Launch {
        stats: &'a LaunchStats,
        cached: Option<bool>,
    },
    Replay {
        dur_us: f64,
        count: u64,
    },
    Instant,
    Counter(u64),
    Transfer {
        dur_us: f64,
        bytes: u64,
        dst: &'a str,
    },
}

impl Entry<'_> {
    fn into_kind(self) -> EventKind {
        match self {
            Entry::Launch { stats, cached } => EventKind::Launch {
                stats: Box::new(stats.clone()),
                cached,
            },
            Entry::Replay { dur_us, count } => EventKind::Replay { dur_us, count },
            Entry::Instant => EventKind::Instant,
            Entry::Counter(value) => EventKind::Counter { value },
            Entry::Transfer { dur_us, bytes, dst } => EventKind::Transfer {
                dur_us,
                bytes,
                dst: dst.to_string(),
            },
        }
    }
}

struct OpenSpan {
    name: String,
    cat: &'static str,
    track: String,
    start_us: f64,
}

/// The books: the always-on counters and, while tracing is on, the event
/// log with its per-track clocks and open spans.
pub(crate) struct Books {
    pub(crate) counters: BTreeMap<&'static str, u64>,
    events: Vec<TraceEvent>,
    /// Per-track simulated clocks. Tracks are few; linear scan is fine and
    /// keeps the constructor `const`.
    clocks: Vec<(String, f64)>,
    open: Vec<OpenSpan>,
}

impl Books {
    pub(crate) fn bump(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn clock(&self, track: &str) -> f64 {
        self.clocks
            .iter()
            .find(|(t, _)| t == track)
            .map_or(0.0, |&(_, c)| c)
    }

    fn advance(&mut self, track: &str, us: f64) {
        if let Some(entry) = self.clocks.iter_mut().find(|(t, _)| t == track) {
            entry.1 += us;
        } else {
            self.clocks.push((track.to_string(), us));
        }
    }

    fn clear_log(&mut self) {
        self.events.clear();
        self.clocks.clear();
        self.open.clear();
    }
}

thread_local! {
    /// The trace switch of the calling thread's run.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// The calling thread's books.
    static BOOKS: RefCell<Books> = const {
        RefCell::new(Books {
            counters: BTreeMap::new(),
            events: Vec::new(),
            clocks: Vec::new(),
            open: Vec::new(),
        })
    };
}

/// Run `f` on the calling thread's books.
#[inline]
pub(crate) fn with_books<R>(f: impl FnOnce(&mut Books) -> R) -> R {
    BOOKS.with_borrow_mut(f)
}

/// Is this thread's event log on? One thread-local read.
#[inline]
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Turn this thread's event log on, clearing any previous events, clocks,
/// and open spans. Track clocks restart at zero; the counters keep running.
pub fn enable() {
    with_books(Books::clear_log);
    ENABLED.set(true);
}

/// Turn this thread's event log off and return everything it captured.
pub fn disable() -> Vec<TraceEvent> {
    ENABLED.set(false);
    with_books(|books| {
        let events = std::mem::take(&mut books.events);
        books.clear_log();
        events
    })
}

/// Take the captured events without disabling (clocks keep running).
pub fn drain() -> Vec<TraceEvent> {
    with_books(|books| std::mem::take(&mut books.events))
}

/// Current simulated clock of a track, in microseconds.
pub fn clock(track: &str) -> f64 {
    with_books(|books| books.clock(track))
}

/// Record one event: the one call every counter-bearing event goes through.
///
/// Always bumps `counters`, plus the work counters a launch or replay
/// implies (see the module docs). Only while tracing is on does it run
/// `name` (before borrowing the books) and append the event to `track` at
/// the track's clock, advancing the clock by the event's duration.
pub fn record(
    cat: &'static str,
    track: &str,
    entry: Entry<'_>,
    counters: &[(&'static str, u64)],
    name: impl FnOnce() -> String,
) {
    // Build the name before borrowing the books, so a closure that reads
    // them does not find them already borrowed.
    let name = enabled().then(name);
    with_books(|books| {
        match entry {
            Entry::Launch { stats, cached } => {
                books.bump("launches", 1);
                books.bump("launches_replayed", u64::from(cached == Some(true)));
                books.bump("sim_time_ns", sim_ns(stats.time_us));
                books.bump("flops", stats.flops);
                books.bump("dram_bytes", stats.dram_bytes);
                books.bump("blocks", stats.blocks);
            }
            Entry::Replay { dur_us, .. } => books.bump("sim_time_ns", sim_ns(dur_us)),
            Entry::Instant | Entry::Counter(_) | Entry::Transfer { .. } => {}
        }
        for &(counter, delta) in counters {
            books.bump(counter, delta);
        }
        let Some(name) = name else {
            return;
        };
        let event = TraceEvent {
            name,
            cat,
            track: track.to_string(),
            ts_us: books.clock(track),
            kind: entry.into_kind(),
        };
        books.advance(track, event.dur_us());
        books.events.push(event);
    });
}

/// Open a named region on `track`. Close it with [`end_span`]; its duration
/// is whatever simulated time launches/replays add while it is open. Spans
/// on different tracks nest independently. `name` runs only while tracing
/// is on.
pub fn begin_span(cat: &'static str, track: &str, name: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let name = name();
    with_books(|books| {
        let start_us = books.clock(track);
        books.open.push(OpenSpan {
            name,
            cat,
            track: track.to_string(),
            start_us,
        });
    });
}

/// Close the most recently opened span on `track`, recording it as a
/// duration event. Returns the span's simulated duration (0.0 when tracing
/// is disabled or no span is open on the track).
pub fn end_span(track: &str) -> f64 {
    if !enabled() {
        return 0.0;
    }
    with_books(|books| {
        let Some(pos) = books.open.iter().rposition(|s| s.track == track) else {
            return 0.0;
        };
        let span = books.open.remove(pos);
        let dur_us = books.clock(track) - span.start_us;
        books.events.push(TraceEvent {
            name: span.name,
            cat: span.cat,
            track: span.track,
            ts_us: span.start_us,
            kind: EventKind::Span { dur_us },
        });
        dur_us
    })
}

/// The counters a drained event list re-derives, in the order
/// [`books_mismatches`] compares them.
const RECONCILED: [&str; 3] = ["sim_time_ns", "launches", "launches_replayed"];

/// Fold events into the [`RECONCILED`] counters, with the recorder's own
/// per-event rounding: `sim_time_ns` sums every launch and replay,
/// `launches` counts launch events and `launches_replayed` their cache hits.
fn fold(events: &[TraceEvent]) -> [u64; 3] {
    let mut totals = [0u64; 3];
    for ev in events {
        match &ev.kind {
            EventKind::Launch { stats, cached } => {
                totals[0] += sim_ns(stats.time_us);
                totals[1] += 1;
                totals[2] += u64::from(*cached == Some(true));
            }
            EventKind::Replay { dur_us, .. } => totals[0] += sim_ns(*dur_us),
            _ => {}
        }
    }
    totals
}

/// Reconcile a traced window's events against the counter delta over the
/// same window: one message per [`RECONCILED`] counter that disagrees
/// (empty when the books balance). Exact, not approximate — both sides sum
/// the same integers.
pub fn books_mismatches(events: &[TraceEvent], delta: &MetricsSnapshot) -> Vec<String> {
    RECONCILED
        .iter()
        .zip(fold(events))
        .filter(|&(name, traced)| delta.get(name) != traced)
        .map(|(name, traced)| {
            format!(
                "{name}: counters say {} but the trace folds to {traced}",
                delta.get(name)
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

/// Escape a string for a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a non-negative f64 for JSON (finite; NaN/inf clamp to 0).
/// Six decimals: timestamps are microseconds, and the validator re-derives
/// per-track clocks from the rounded values — coarser rounding would make
/// back-to-back launches appear to overlap by up to half an LSB.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_string()
    }
}

/// Serialize events to Chrome `trace_event` JSON (the "JSON Object Format":
/// a `traceEvents` array plus `displayTimeUnit`). Tracks become named
/// threads of one `gpu-sim` process; launches/spans/replays are complete
/// (`"ph":"X"`) events, instants are `"ph":"i"`, and per-launch occupancy
/// and DRAM-bandwidth samples are synthesized as counter (`"ph":"C"`)
/// events. Open the result in `chrome://tracing` or Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // Stable tid assignment by first appearance.
    let mut tids: Vec<&str> = Vec::new();
    for ev in events {
        if !tids.iter().any(|t| *t == ev.track) {
            tids.push(&ev.track);
        }
    }
    let tid_of = |track: &str| tids.iter().position(|t| *t == track).unwrap_or(0);

    let mut out = String::with_capacity(events.len() * 160 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"gpu-sim\"}}",
    );
    for (i, track) in tids.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{i},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(track)
        ));
    }

    for ev in events {
        let tid = tid_of(&ev.track);
        let name = escape_json(&ev.name);
        let ts = json_num(ev.ts_us);
        match &ev.kind {
            EventKind::Launch { stats, cached } => {
                let cached = match cached {
                    Some(true) => "\"hit\"",
                    Some(false) => "\"miss\"",
                    None => "\"none\"",
                };
                out.push_str(&format!(
                    ",\n{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\
                     \"dur\":{dur},\"pid\":0,\"tid\":{tid},\"args\":{{\
                     \"blocks\":{},\"waves\":{},\"occupancy\":{},\"balance\":{},\
                     \"instructions\":{},\"flops\":{},\"dram_bytes\":{},\
                     \"tflops\":{},\"dram_gbps\":{},\"bound_by\":\"{}\",\
                     \"cache\":{cached}}}}}",
                    ev.cat,
                    stats.blocks,
                    json_num(stats.waves),
                    json_num(stats.occupancy.fraction),
                    json_num(stats.balance),
                    stats.instructions,
                    stats.flops,
                    stats.dram_bytes,
                    json_num(stats.tflops),
                    json_num(stats.dram_gbps),
                    escape_json(&stats.bound_by),
                    dur = json_num(stats.time_us),
                ));
                // Counter tracks: sample at launch start, return to zero at
                // launch end so the timeline shows per-launch steps.
                let end = json_num(ev.ts_us + stats.time_us);
                out.push_str(&format!(
                    ",\n{{\"name\":\"occupancy\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"tid\":{tid},\"args\":{{\"fraction\":{}}}}}",
                    json_num(stats.occupancy.fraction)
                ));
                out.push_str(&format!(
                    ",\n{{\"name\":\"dram_gbps\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"tid\":{tid},\"args\":{{\"gbps\":{}}}}}",
                    json_num(stats.dram_gbps)
                ));
                out.push_str(&format!(
                    ",\n{{\"name\":\"occupancy\",\"ph\":\"C\",\"ts\":{end},\"pid\":0,\
                     \"tid\":{tid},\"args\":{{\"fraction\":0}}}}",
                ));
                out.push_str(&format!(
                    ",\n{{\"name\":\"dram_gbps\",\"ph\":\"C\",\"ts\":{end},\"pid\":0,\
                     \"tid\":{tid},\"args\":{{\"gbps\":0}}}}",
                ));
            }
            EventKind::Span { dur_us } => {
                out.push_str(&format!(
                    ",\n{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\
                     \"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{}}}}",
                    ev.cat,
                    json_num(*dur_us),
                ));
            }
            EventKind::Replay { dur_us, count } => {
                out.push_str(&format!(
                    ",\n{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\
                     \"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{\"count\":{count}}}}}",
                    ev.cat,
                    json_num(*dur_us),
                ));
            }
            EventKind::Instant => {
                out.push_str(&format!(
                    ",\n{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{tid},\"s\":\"t\"}}",
                    ev.cat,
                ));
            }
            EventKind::Counter { value } => {
                out.push_str(&format!(
                    ",\n{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"C\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{tid},\"args\":{{\"value\":{value}}}}}",
                    ev.cat,
                ));
            }
            EventKind::Transfer { dur_us, bytes, dst } => {
                out.push_str(&format!(
                    ",\n{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\
                     \"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{\
                     \"bytes\":{bytes},\"dst\":\"{}\"}}}}",
                    ev.cat,
                    json_num(*dur_us),
                    escape_json(dst),
                ));
                // Counter track: bytes in flight step up for the duration of
                // the transfer and drop back to zero when it completes.
                let end = json_num(ev.ts_us + dur_us);
                out.push_str(&format!(
                    ",\n{{\"name\":\"interconnect_bytes\",\"ph\":\"C\",\"ts\":{ts},\
                     \"pid\":0,\"tid\":{tid},\"args\":{{\"bytes\":{bytes}}}}}",
                ));
                out.push_str(&format!(
                    ",\n{{\"name\":\"interconnect_bytes\",\"ph\":\"C\",\"ts\":{end},\
                     \"pid\":0,\"tid\":{tid},\"args\":{{\"bytes\":0}}}}",
                ));
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// Structural validation (used by tests and the trace_model CI gate)
// ---------------------------------------------------------------------------

/// A minimal JSON value, parsed by [`parse_json`]. The vendored serde_json
/// stub cannot deserialize, so schema validation carries its own parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input came from a
                    // Rust string, so boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8"))?;
                    if let Some(c) = rest.chars().next() {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a JSON document (full grammar, no serde).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

/// Summary of a validated trace, returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCheck {
    pub events: usize,
    pub launches: usize,
    pub counters: usize,
    pub instants: usize,
    pub tracks: usize,
}

/// Structurally validate Chrome `trace_event` JSON: well-formed, non-empty,
/// every event carries the phase-appropriate fields, durations are
/// non-negative, and launch/replay timestamps are monotonically
/// non-decreasing per track (spans are recorded at close and may precede
/// earlier-timestamped events in the array; Chrome sorts on load).
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut check = TraceCheck {
        events: events.len(),
        ..Default::default()
    };
    let mut track_clock: HashMap<i64, f64> = HashMap::new();
    let mut tracks: Vec<i64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or(format!("event {i}: missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or(format!("event {i}: missing tid"))? as i64;
        if !tracks.contains(&tid) {
            tracks.push(tid);
        }
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or(format!("event {i}: X without dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: bad dur {dur}"));
                }
                let cat = ev.get("cat").and_then(Json::as_str).unwrap_or("");
                if cat == "launch" || cat == "replay" {
                    // Tolerance: ts and dur are serialized at 1e-6 precision,
                    // so the re-derived clock can disagree by ~1.5 LSB.
                    let clock = track_clock.entry(tid).or_insert(0.0);
                    if ts + 5e-6 < *clock {
                        return Err(format!(
                            "event {i}: non-monotonic ts {ts} < track clock {clock} on tid {tid}"
                        ));
                    }
                    *clock = ts + dur;
                    if cat == "launch" {
                        check.launches += 1;
                    }
                }
            }
            "C" => check.counters += 1,
            "i" => {
                check.instants += 1;
                if ev.get("s").and_then(Json::as_str).is_none() {
                    return Err(format!("event {i}: instant without scope"));
                }
            }
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
    }
    check.tracks = tracks.len();
    if check.launches == 0 {
        return Err("trace contains no launch events".into());
    }
    Ok(check)
}

// ---------------------------------------------------------------------------
// Profile report
// ---------------------------------------------------------------------------

/// One top-level span (model layer) with the launch work it covers.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: String,
    pub track: String,
    pub start_us: f64,
    pub dur_us: f64,
    /// Launches inside the layer, counting each replay repetition.
    pub launches: u64,
    pub flops: u64,
    pub dram_bytes: u64,
}

/// Aggregate of all launches (or replays) sharing a kernel name.
#[derive(Debug, Clone)]
pub struct KernelRow {
    pub name: String,
    pub launches: u64,
    pub time_us: f64,
    pub flops: u64,
    pub dram_bytes: u64,
    /// The most common binding pipeline across these launches.
    pub bound_by: String,
}

/// Aggregated view of a traced model run: per-layer rows (from top-level
/// spans, with synthetic rows for work outside any span, so the layer
/// column always sums to [`ProfileReport::total_us`]), a per-kernel table,
/// roofline attribution, and the slowest individual launches.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Total simulated time: every launch plus every replay, all tracks.
    pub total_us: f64,
    pub layers: Vec<LayerRow>,
    pub kernels: Vec<KernelRow>,
    /// (kernel, time_us) of the slowest individual launches, descending.
    pub top: Vec<(String, f64)>,
    /// Simulated time attributed to each binding pipeline, descending.
    pub bound_by: Vec<(String, f64)>,
}

impl ProfileReport {
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut report = ProfileReport::default();

        // Work items: launches and replays, with (track, ts, dur, ...).
        struct Work<'a> {
            ev: &'a TraceEvent,
            count: u64,
            flops: u64,
            dram_bytes: u64,
        }
        let work: Vec<Work<'_>> = events
            .iter()
            .filter_map(|ev| match &ev.kind {
                EventKind::Launch { stats, .. } => Some(Work {
                    ev,
                    count: 1,
                    flops: stats.flops,
                    dram_bytes: stats.dram_bytes,
                }),
                EventKind::Replay { count, .. } => Some(Work {
                    ev,
                    count: *count,
                    flops: 0,
                    dram_bytes: 0,
                }),
                _ => None,
            })
            .collect();
        report.total_us = work.iter().map(|w| w.ev.dur_us()).sum();

        // Top-level spans: not contained in a larger span on the same track.
        let spans: Vec<&TraceEvent> = events
            .iter()
            .filter(|ev| matches!(ev.kind, EventKind::Span { .. }))
            .collect();
        let contains = |outer: &TraceEvent, inner: &TraceEvent| {
            outer.track == inner.track
                && outer.ts_us <= inner.ts_us + 1e-9
                && outer.ts_us + outer.dur_us() + 1e-9 >= inner.ts_us + inner.dur_us()
                && outer.dur_us() > inner.dur_us() + 1e-9
        };
        let top_level: Vec<&TraceEvent> = spans
            .iter()
            .filter(|s| !spans.iter().any(|o| contains(o, s)))
            .copied()
            .collect();

        let covered = |w: &Work<'_>, span: &TraceEvent| {
            span.track == w.ev.track
                && w.ev.ts_us + 1e-9 >= span.ts_us
                && w.ev.ts_us + 1e-9 < span.ts_us + span.dur_us()
        };
        for span in &top_level {
            let mut row = LayerRow {
                name: span.name.clone(),
                track: span.track.clone(),
                start_us: span.ts_us,
                dur_us: span.dur_us(),
                launches: 0,
                flops: 0,
                dram_bytes: 0,
            };
            for w in work.iter().filter(|w| covered(w, span)) {
                row.launches += w.count;
                row.flops += w.flops;
                row.dram_bytes += w.dram_bytes;
            }
            report.layers.push(row);
        }
        // Work outside every top-level span becomes its own synthetic row,
        // so Σ layer durations == total_us by construction.
        for w in &work {
            if !top_level.iter().any(|s| covered(w, s)) {
                report.layers.push(LayerRow {
                    name: format!("({})", w.ev.name),
                    track: w.ev.track.clone(),
                    start_us: w.ev.ts_us,
                    dur_us: w.ev.dur_us(),
                    launches: w.count,
                    flops: w.flops,
                    dram_bytes: w.dram_bytes,
                });
            }
        }
        report.layers.sort_by(|a, b| {
            a.track.cmp(&b.track).then(
                a.start_us
                    .partial_cmp(&b.start_us)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });

        // Per-kernel aggregation (replays keyed by their event name).
        let mut kernel_index: HashMap<&str, usize> = HashMap::new();
        let mut bound_votes: Vec<HashMap<String, f64>> = Vec::new();
        for w in &work {
            let name = w.ev.name.as_str();
            let next = report.kernels.len();
            let slot = *kernel_index.entry(name).or_insert(next);
            if slot == next {
                report.kernels.push(KernelRow {
                    name: name.to_string(),
                    launches: 0,
                    time_us: 0.0,
                    flops: 0,
                    dram_bytes: 0,
                    bound_by: String::new(),
                });
                bound_votes.push(HashMap::new());
            }
            let row = &mut report.kernels[slot];
            row.launches += w.count;
            row.time_us += w.ev.dur_us();
            row.flops += w.flops;
            row.dram_bytes += w.dram_bytes;
            if let EventKind::Launch { stats, .. } = &w.ev.kind {
                *bound_votes[slot]
                    .entry(stats.bound_by.clone())
                    .or_insert(0.0) += stats.time_us;
                match report
                    .bound_by
                    .iter_mut()
                    .find(|(b, _)| *b == stats.bound_by)
                {
                    Some((_, t)) => *t += stats.time_us,
                    None => report
                        .bound_by
                        .push((stats.bound_by.clone(), stats.time_us)),
                }
            }
        }
        for (row, votes) in report.kernels.iter_mut().zip(&bound_votes) {
            row.bound_by = votes
                .iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(b, _)| b.clone())
                .unwrap_or_default();
        }
        report.kernels.sort_by(|a, b| {
            b.time_us
                .partial_cmp(&a.time_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        report
            .bound_by
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        // Slowest individual launches.
        let mut top: Vec<(String, f64)> = events
            .iter()
            .filter_map(|ev| match &ev.kind {
                EventKind::Launch { stats, .. } => Some((stats.kernel.clone(), stats.time_us)),
                _ => None,
            })
            .collect();
        top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        top.truncate(5);
        report.top = top;
        report
    }

    /// Signed drift between the per-layer rows and [`ProfileReport::total_us`]:
    /// `Σ layers[i].dur_us - total_us`. Zero (up to rounding) whenever the
    /// report is internally consistent — every simulated microsecond either
    /// falls inside a top-level span or gets a synthetic row.
    pub fn layer_sum_drift_us(&self) -> f64 {
        self.layers.iter().map(|l| l.dur_us).sum::<f64>() - self.total_us
    }

    /// The layer-sum invariant as a checked result, for gates alongside
    /// [`validate_chrome_trace`]: the per-layer breakdown must account for
    /// every simulated microsecond of launch and replay work. A model that
    /// opens a span and attributes work to it by multiplication (instead of
    /// tracing the launches/replays inside it) shows up here as drift.
    pub fn check(&self) -> Result<(), String> {
        let drift = self.layer_sum_drift_us();
        let tol = 1e-6 * self.total_us.max(1.0);
        if drift.abs() > tol {
            return Err(format!(
                "per-layer rows sum to {:.6} us but the trace total is {:.6} us \
                 (drift {drift:+.6} us)",
                self.total_us + drift,
                self.total_us
            ));
        }
        Ok(())
    }

    /// Render the report as a plain-text table block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile report — {:.1} us simulated total\n",
            self.total_us
        ));
        out.push_str("\n  per-layer (top-level spans):\n");
        for l in &self.layers {
            out.push_str(&format!(
                "    {:<32} {:>12.1} us  {:>6} launches  {:>9.2} GFLOP  {:>8.1} MB\n",
                l.name,
                l.dur_us,
                l.launches,
                l.flops as f64 / 1e9,
                l.dram_bytes as f64 / 1e6,
            ));
        }
        out.push_str("\n  per-kernel:\n");
        for k in &self.kernels {
            out.push_str(&format!(
                "    {:<44} {:>12.1} us  {:>6} launches  bound by {}\n",
                k.name, k.time_us, k.launches, k.bound_by,
            ));
        }
        out.push_str("\n  roofline attribution:\n");
        for (b, t) in &self.bound_by {
            let pct = if self.total_us > 0.0 {
                100.0 * t / self.total_us
            } else {
                0.0
            };
            out.push_str(&format!("    {b:<10} {t:>12.1} us  ({pct:.1}%)\n"));
        }
        out.push_str("\n  slowest launches:\n");
        for (name, us) in &self.top {
            out.push_str(&format!("    {name:<44} {us:>12.1} us\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessPattern, BufferSpec};
    use crate::cost::{BlockContext, BufferId};
    use crate::device::DeviceConfig;
    use crate::dim::Dim3;
    use crate::kernel::Kernel;
    use crate::launch::Gpu;

    struct Tiny;

    impl Kernel for Tiny {
        fn name(&self) -> String {
            "trace_tiny".into()
        }
        fn grid(&self) -> Dim3 {
            Dim3::x(4)
        }
        fn block_dim(&self) -> Dim3 {
            Dim3::x(128)
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            vec![BufferSpec {
                id: BufferId(0),
                name: "x",
                footprint_bytes: 4096,
                pattern: AccessPattern::Streaming,
            }]
        }
        fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
            ctx.fma(64, 32 * 64);
            ctx.ld_global(BufferId(0), 0, 32, 1, 4);
        }
    }

    fn test_gpu(name: &str) -> Gpu {
        let mut dev = DeviceConfig::v100();
        dev.name = name.to_string();
        Gpu::new(dev)
    }

    #[test]
    fn records_launches_and_spans_with_advancing_clock() {
        enable();
        let track = "trace-test-clock";
        let gpu = test_gpu(track);
        begin_span("layer", track, || "layer0".into());
        let a = gpu.profile(&Tiny);
        let b = gpu.profile(&Tiny);
        let span_dur = end_span(track);
        record(
            "replay",
            track,
            Entry::Replay {
                dur_us: 3.0 * (a.time_us + b.time_us),
                count: 3,
            },
            &[],
            || "layer0 xN".into(),
        );
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();

        let launches: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Launch { .. }))
            .collect();
        assert_eq!(launches.len(), 2);
        assert_eq!(launches[0].ts_us, 0.0, "track clock starts at zero");
        assert!(
            (launches[1].ts_us - a.time_us).abs() < 1e-12,
            "second launch starts when the first ends"
        );
        assert!(
            (span_dur - (a.time_us + b.time_us)).abs() < 1e-9,
            "span duration is the simulated time elapsed while open"
        );
        let replay_ev = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Replay { .. }))
            .expect("replay recorded");
        assert!((replay_ev.ts_us - (a.time_us + b.time_us)).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _ = disable();
        assert!(!enabled());
        let track = "trace-test-disabled";
        let gpu = test_gpu(track);
        gpu.profile(&Tiny);
        begin_span("layer", track, || "ignored".into());
        assert_eq!(end_span(track), 0.0);
        enable();
        let events = disable();
        assert!(
            !events.iter().any(|e| e.track == track),
            "nothing recorded while disabled"
        );
    }

    /// Names are built before the books are borrowed, so a name closure may
    /// read the books (here, the track clock).
    #[test]
    fn name_closures_may_read_the_books() {
        enable();
        let track = "trace-test-reentrant";
        record("test", track, Entry::Instant, &[], || {
            format!("instant at {}", clock(track))
        });
        begin_span("layer", track, || format!("span at {}", clock(track)));
        end_span(track);
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["instant at 0", "span at 0"]);
    }

    #[test]
    fn chrome_export_is_schema_valid_and_monotonic() {
        enable();
        let track = "trace-test-chrome";
        let gpu = test_gpu(track);
        begin_span("layer", track, || "l\"ayer\n0".into()); // escaping exercised
        gpu.profile(&Tiny);
        gpu.profile(&Tiny);
        end_span(track);
        record("cache", track, Entry::Instant, &[], || {
            "miss: trace_tiny".into()
        });
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();
        let json = chrome_trace_json(&events);
        let check = validate_chrome_trace(&json).expect("structurally valid trace");
        assert_eq!(check.launches, 2);
        assert_eq!(check.instants, 1);
        assert_eq!(check.tracks, 1);
        assert!(check.counters >= 4, "occupancy + dram counters synthesized");
    }

    #[test]
    fn transfer_events_advance_clock_and_export_counters() {
        enable();
        let track = "trace-test-xfer";
        let gpu = test_gpu(track);
        gpu.profile(&Tiny);
        let before = clock(track);
        record(
            "transfer",
            track,
            Entry::Transfer {
                dur_us: 12.5,
                bytes: 1 << 20,
                dst: "dev1",
            },
            &[],
            || "shard -> dev1".into(),
        );
        assert!(
            (clock(track) - (before + 12.5)).abs() < 1e-9,
            "transfer occupies the source track"
        );
        gpu.profile(&Tiny);
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();
        let xfer = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Transfer { .. }))
            .expect("transfer recorded");
        assert!((xfer.ts_us - before).abs() < 1e-9);
        assert!((xfer.dur_us() - 12.5).abs() < 1e-12);

        let json = chrome_trace_json(&events);
        let check = validate_chrome_trace(&json).expect("transfer traces stay schema-valid");
        assert_eq!(check.launches, 2);
        assert!(
            json.contains("interconnect_bytes"),
            "bytes-in-flight counter track synthesized"
        );
        assert!(
            check.counters >= 2 * 4 + 2,
            "launch + interconnect counters"
        );
    }

    #[test]
    fn counter_events_export_as_counter_phase() {
        enable();
        let track = "trace-test-counter";
        let gpu = test_gpu(track);
        gpu.profile(&Tiny);
        for (name, value) in [("joint_tiles_skipped", 42), ("joint_tiles_total", 64)] {
            record("joint", track, Entry::Counter(value), &[], || name.into());
        }
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();
        let skipped = events
            .iter()
            .find(|e| e.name == "joint_tiles_skipped")
            .expect("counter recorded");
        assert!(matches!(skipped.kind, EventKind::Counter { value: 42 }));
        assert_eq!(skipped.dur_us(), 0.0, "counters do not occupy the track");
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"name\":\"joint_tiles_total\",\"cat\":\"joint\",\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":64}"));
        let check = validate_chrome_trace(&json).expect("counter traces stay schema-valid");
        // 4 synthesized launch counters + the 2 explicit ones.
        assert!(check.counters >= 6);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // Well-formed JSON, but an X event without a duration.
        let bad = "{\"traceEvents\":[{\"name\":\"k\",\"ph\":\"X\",\"ts\":0,\
                    \"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Launch events running backwards on one track.
        let backwards = "{\"traceEvents\":[\
            {\"name\":\"a\",\"cat\":\"launch\",\"ph\":\"X\",\"ts\":100,\"dur\":50,\"pid\":0,\"tid\":0},\
            {\"name\":\"b\",\"cat\":\"launch\",\"ph\":\"X\",\"ts\":10,\"dur\":5,\"pid\":0,\"tid\":0}\
        ]}";
        assert!(validate_chrome_trace(backwards)
            .expect_err("must reject")
            .contains("non-monotonic"));
    }

    #[test]
    fn parse_json_handles_the_grammar() {
        let doc = parse_json("{\"a\": [1, -2.5e1, \"s\\u0041\", true, false, null], \"b\": {}}")
            .expect("parses");
        let arr = doc.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("sA"));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[5], Json::Null);
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    /// Per-layer rows must sum to the total, with uncovered work surfaced
    /// as synthetic rows — the invariant the dnn profile report rides on.
    #[test]
    fn profile_report_layers_sum_to_total() {
        enable();
        let track = "trace-test-report";
        let gpu = test_gpu(track);
        begin_span("layer", track, || "stem".into());
        gpu.profile(&Tiny);
        end_span(track);
        begin_span("layer", track, || "body".into());
        gpu.profile(&Tiny);
        gpu.profile(&Tiny);
        end_span(track);
        gpu.profile(&Tiny); // outside any span
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();
        let report = ProfileReport::from_events(&events);
        assert_eq!(report.layers.len(), 3, "stem, body, one synthetic row");
        let layer_sum: f64 = report.layers.iter().map(|l| l.dur_us).sum();
        assert!(
            (layer_sum - report.total_us).abs() <= 1e-9 * report.total_us.max(1.0),
            "layer durations {layer_sum} must sum to total {}",
            report.total_us
        );
        report.check().expect("sum invariant holds");
        assert!(report.layer_sum_drift_us().abs() <= 1e-9 * report.total_us.max(1.0));
        let body = report
            .layers
            .iter()
            .find(|l| l.name == "body")
            .expect("body layer");
        assert_eq!(body.launches, 2);
        assert!(report.kernels.iter().any(|k| k.name == "trace_tiny"));
        assert!(!report.top.is_empty());
        assert!(!report.render().is_empty());
    }

    /// The books balance exactly when the counters equal the trace fold
    /// (per-event ns rounding), and each disagreeing counter is named.
    #[test]
    fn books_mismatches_name_each_disagreeing_counter() {
        let stats = test_gpu("trace-test-books").profile(&Tiny);
        let event = |kind| TraceEvent {
            name: "e".into(),
            cat: "launch",
            track: "t".into(),
            ts_us: 0.0,
            kind,
        };
        let events = [
            event(EventKind::Launch {
                stats: Box::new(stats.clone()),
                cached: Some(true),
            }),
            event(EventKind::Replay {
                dur_us: 1.25,
                count: 3,
            }),
            event(EventKind::Instant),
        ];
        let snapshot = |ns| MetricsSnapshot {
            counters: vec![
                ("launches".into(), 1),
                ("launches_replayed".into(), 1),
                ("sim_time_ns".into(), ns),
            ],
        };
        let balanced = sim_ns(stats.time_us) + 1250;
        assert!(books_mismatches(&events, &snapshot(balanced)).is_empty());
        let off = books_mismatches(&events, &snapshot(balanced - 1250));
        assert_eq!(off.len(), 1, "{off:?}");
        assert!(off[0].starts_with("sim_time_ns"), "{off:?}");
    }

    /// A doctored report whose layer rows no longer cover the total must
    /// fail the sum-invariant check.
    #[test]
    fn report_check_rejects_drift() {
        let mut report = ProfileReport {
            total_us: 100.0,
            ..Default::default()
        };
        report.layers.push(LayerRow {
            name: "layer0".into(),
            track: "t".into(),
            start_us: 0.0,
            dur_us: 60.0,
            launches: 1,
            flops: 0,
            dram_bytes: 0,
        });
        let err = report.check().expect_err("40 us unaccounted");
        assert!(err.contains("drift"), "{err}");
        assert!((report.layer_sum_drift_us() - (-40.0)).abs() < 1e-9);
    }
}
