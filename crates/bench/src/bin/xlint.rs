//! Workspace lint for the simulator's structural invariants — the rules
//! `cargo clippy` cannot express because they span files and crates.
//!
//! No `syn` in the vendored dependency set, so this is a lexical pass: each
//! source file is stripped of comments, string literals, and char literals
//! by a small state machine, then scanned line by line. Seven rules:
//!
//! * `sim-clock` — the simulated-clock crates (`gpu-sim`, `serve`) and
//!   the fleet-facing modules that schedule against the simulated stream
//!   clock (`core/src/shard.rs`, `dnn/src/fleet.rs`) must not touch
//!   `std::time`. Simulated time comes from the cost model and the event
//!   queue; a wall-clock read there is a nondeterminism bug by
//!   construction. (Bench bins, which measure real wall time on purpose,
//!   live in their own crate and are exempt.)
//! * `raw-ptr-write` — no raw-pointer writes outside the bench crate:
//!   kernels write through the safe `OutputSlice` (`gpu-sim/src/util.rs`),
//!   so the sanitizer's shadow map observes every store. Bench bins are
//!   exempt (the counting allocator in `funcwall` implements
//!   `GlobalAlloc`).
//! * `kernel-registry` — every type with a non-test `impl Kernel for T`
//!   under `crates/*/src` must be constructed in the shared kernel
//!   registry (`crates/bench/src/registry.rs`), so it is swept by both
//!   `sanitize_all` and `static_audit`. A kernel missing from the registry
//!   ships without any CI sanitizer or audit coverage — exactly the gap
//!   this lint closes. "Constructed" means a `TypeName::` path token or a
//!   `TypeName {` struct literal in the registry's *code* (comments and
//!   strings are stripped first): a doc-comment mention or an import
//!   alone does not count as coverage.
//! * `global-state` — no interior-mutable `static` (`Atomic*`, `Mutex`,
//!   `RwLock`, `OnceLock`, `LazyLock`) or `static mut` outside test code
//!   under `crates/*/src`, with no exceptions. A run is the thread that
//!   launches it, so its state (the books, the trace switch, the lane
//!   selector, the sanitizer session) is a `thread_local!`, which stays
//!   allowed. Process-global state would couple every launch in the
//!   process and force tests that need exact deltas into locks or binaries
//!   of their own.
//! * `experiment-record` — every experiment bin
//!   (`crates/bench/src/bin/{fig,table,ext}*.rs`) must call the
//!   `sputnik_bench::paper` function of its own name, and `reproduce_all`
//!   must list that function. An experiment that bypasses either prints
//!   numbers no gate in `BENCH_paper.json` protects.
//! * `launch-gate` — non-test code under `crates/{core,baselines,dnn,serve}/src`
//!   must not call `.audit(`. The gate of the one launch funnel
//!   (`Gpu::run`) is the legality check: a planner sends its kernel
//!   through it and reads a `StaticallyRefuted` result, rather than
//!   auditing a probe of its own that could drift from the gate.
//! * `no-unsafe` — no `unsafe` token in non-test code under
//!   `crates/{core,baselines,dnn,serve,sparse,gpu-sim}/src`, with no
//!   exceptions. Kernel bodies store through `OutputSlice`'s safe methods
//!   and the sanitizer tags a block through thread-locals; an `unsafe`
//!   block there would bring back a contract the sequential launcher does
//!   not need.
//!
//! Exit status 1 with one line per finding; 0 on a clean tree. Run from
//! the repo root (CI does).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Strip comments, string literals, and char literals, preserving
/// newlines so findings keep their line numbers. Raw strings (any `#`
/// depth) and nested block comments are handled; escapes inside strings
/// are skipped without interpretation.
fn strip(source: &str) -> String {
    let b: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"..." / r#"..."# (also br-prefixed).
        if (c == 'r' || (c == 'b' && b.get(i + 1) == Some(&'r'))) && !prev_is_ident(&b, i) {
            let start = if c == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0;
            while b.get(start + hashes) == Some(&'#') {
                hashes += 1;
            }
            if b.get(start + hashes) == Some(&'"') {
                let mut j = start + hashes + 1;
                'raw: while j < b.len() {
                    if b[j] == '"' {
                        let mut k = 0;
                        while k < hashes && b.get(j + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    if b[j] == '\n' {
                        out.push('\n');
                    }
                    j += 1;
                }
                out.push_str("\"\"");
                i = j;
                continue;
            }
        }
        // Ordinary string (also b"...").
        if c == '"' {
            i += 1;
            while i < b.len() {
                if b[i] == '\\' {
                    // A `\` line continuation still ends a source line.
                    if b.get(i + 1) == Some(&'\n') {
                        out.push('\n');
                    }
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    i += 1;
                    break;
                }
                if b[i] == '\n' {
                    out.push('\n');
                }
                i += 1;
            }
            out.push_str("\"\"");
            continue;
        }
        // Char literal — only when it cannot be a lifetime: 'a' has a
        // closing quote one or two (escape) chars ahead.
        if c == '\'' {
            let close = if b.get(i + 1) == Some(&'\\') {
                // '\n', '\'', '\\', '\u{..}': scan for the closing quote.
                let mut j = i + 2;
                while j < b.len() && b[j] != '\'' && b[j] != '\n' && j < i + 12 {
                    j += 1;
                }
                (b.get(j) == Some(&'\'')).then_some(j)
            } else if b.get(i + 2) == Some(&'\'') {
                Some(i + 2)
            } else {
                None
            };
            if let Some(j) = close {
                out.push_str("' '");
                i = j + 1;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

/// Recursively collect `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Line spans covered by `#[cfg(test)]`-gated items (test modules): the
/// registry lint must not demand registration for probe kernels that only
/// exist inside unit tests.
fn test_spans(stripped: &str) -> Vec<(usize, usize)> {
    item_spans(stripped, "#[cfg(test)]")
}

/// Line spans of the brace-delimited items whose first line starts with
/// `marker`, from that line through the matching close brace.
fn item_spans(stripped: &str, marker: &str) -> Vec<(usize, usize)> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with(marker) {
            // Find the gated item's opening brace, then its matching close.
            let mut depth = 0i64;
            let mut opened = false;
            let start = i;
            let mut j = i;
            'span: while j < lines.len() {
                for ch in lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break 'span;
                }
                j += 1;
            }
            spans.push((start, j));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

struct Findings(Vec<String>);

impl Findings {
    fn push(&mut self, path: &Path, line: usize, rule: &str, msg: &str) {
        self.0
            .push(format!("{}:{}: [{rule}] {msg}", path.display(), line + 1));
    }
}

/// Rule `sim-clock`: no `std::time` in the simulated-clock crates.
fn lint_sim_clock(path: &Path, stripped: &str, findings: &mut Findings) {
    for (n, line) in stripped.lines().enumerate() {
        for needle in ["std::time", "Instant::now", "SystemTime::now"] {
            if line.contains(needle) {
                findings.push(
                    path,
                    n,
                    "sim-clock",
                    &format!(
                        "`{needle}` in a simulated-clock crate: time must come \
                         from the cost model, not the host wall clock"
                    ),
                );
            }
        }
    }
}

/// Rule `raw-ptr-write`: raw-pointer machinery.
fn lint_raw_ptr(path: &Path, stripped: &str, findings: &mut Findings) {
    for (n, line) in stripped.lines().enumerate() {
        for needle in ["*mut ", "ptr::write", "write_volatile"] {
            if line.contains(needle) {
                findings.push(
                    path,
                    n,
                    "raw-ptr-write",
                    &format!(
                        "`{needle}` outside the bench crate: kernel stores \
                         must go through OutputSlice so the sanitizer's \
                         shadow map observes them"
                    ),
                );
            }
        }
    }
}

/// Rule `launch-gate`: no `.audit(` call outside test modules.
fn lint_launch_gate(path: &Path, stripped: &str, findings: &mut Findings) {
    let tests = test_spans(stripped);
    for (n, line) in stripped.lines().enumerate() {
        if line.contains(".audit(") && !in_spans(&tests, n) {
            findings.push(
                path,
                n,
                "launch-gate",
                "`.audit(` in library code: legality is decided by the gate \
                 of `Gpu::run`; launch the kernel and match `StaticallyRefuted`",
            );
        }
    }
}

/// Rule `no-unsafe`: an `unsafe` token outside test modules.
fn lint_no_unsafe(path: &Path, stripped: &str, findings: &mut Findings) {
    let tests = test_spans(stripped);
    for (n, line) in stripped.lines().enumerate() {
        let mut words = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        if words.any(|w| w == "unsafe") && !in_spans(&tests, n) {
            findings.push(
                path,
                n,
                "no-unsafe",
                "`unsafe` in a kernel or simulator crate: kernel outputs are \
                 `OutputSlice`s, whose stores are safe",
            );
        }
    }
}

/// The name a `static` item declares on this (stripped) line, if it
/// declares one.
fn static_name(line: &str) -> Option<&str> {
    let t = line.trim_start();
    let t = if t.starts_with("pub") {
        t.split_once(' ')?.1
    } else {
        t
    };
    let rest = t.strip_prefix("static ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end]).filter(|name| !name.is_empty())
}

/// Rule `global-state`: interior-mutable statics outside test modules and
/// `thread_local!` blocks.
fn lint_global_state(path: &Path, stripped: &str, findings: &mut Findings) {
    let mut exempt = test_spans(stripped);
    exempt.extend(item_spans(stripped, "thread_local!"));
    for (n, line) in stripped.lines().enumerate() {
        let Some(name) = static_name(line) else {
            continue;
        };
        let mutable = line.contains("static mut ")
            || ["Atomic", "Mutex", "RwLock", "OnceLock", "LazyLock"]
                .iter()
                .any(|ty| line.contains(ty));
        if !mutable || in_spans(&exempt, n) {
            continue;
        }
        findings.push(
            path,
            n,
            "global-state",
            &format!(
                "`static {name}` is process-global mutable state: scope it to \
                 the launch or run that owns it"
            ),
        );
    }
}

/// Rule `kernel-registry`: the types this file implements `Kernel` for,
/// outside test modules.
fn kernel_impl_types(stripped: &str) -> Vec<String> {
    let spans = test_spans(stripped);
    let mut types = Vec::new();
    for (n, line) in stripped.lines().enumerate() {
        let t = line.trim_start();
        if !(t.starts_with("impl ") || t.starts_with("impl<")) || in_spans(&spans, n) {
            continue;
        }
        let Some(pos) = t.find(" for ") else {
            continue;
        };
        let head = &t[..pos];
        if !(head.ends_with(" Kernel") || head.ends_with("::Kernel")) {
            continue;
        }
        let name: String = t[pos + 5..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            types.push(name);
        }
    }
    types
}

/// Whether the (stripped) registry source actually *constructs* `ty`: a
/// `Type::` path token (`Type::new(..)`, `Type::try_new(..)`) or a
/// `Type {` struct literal in code, not as the tail of a longer name.
/// A plain `contains(ty)` would be fooled by doc comments, error strings,
/// or a `use` import of a type that is never instantiated.
fn is_constructed(ty: &str, stripped_registry: &str) -> bool {
    [format!("{ty}::"), format!("{ty} {{")].iter().any(|token| {
        stripped_registry
            .match_indices(token.as_str())
            .any(|(i, _)| {
                !stripped_registry[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_')
            })
    })
}

/// The `Kernel` implementors in one (stripped) file that the registry
/// never constructs.
fn unregistered_kernels(stripped: &str, stripped_registry: &str) -> Vec<String> {
    kernel_impl_types(stripped)
        .into_iter()
        .filter(|ty| !is_constructed(ty, stripped_registry))
        .collect()
}

/// Rule `experiment-record`: whether the (stripped) source names
/// `paper::<name>` as a whole token, so `paper::fig01` does not count as
/// `paper::fig01_lstm_crossover` nor the reverse.
fn names_paper_fn(stripped: &str, name: &str) -> bool {
    let token = format!("paper::{name}");
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    stripped.match_indices(token.as_str()).any(|(i, _)| {
        !stripped[..i].ends_with(is_ident) && !stripped[i + token.len()..].starts_with(is_ident)
    })
}

/// Rule `experiment-record`: the findings for the experiment bin `stem`,
/// given its (stripped) source and `reproduce_all`'s.
fn experiment_record_gaps(stem: &str, stripped_bin: &str, stripped_listing: &str) -> Vec<String> {
    let mut gaps = Vec::new();
    if !names_paper_fn(stripped_bin, stem) {
        gaps.push(format!(
            "does not call `sputnik_bench::paper::{stem}`: the experiment bypasses \
             the library function reproduce_all records and gates"
        ));
    }
    if !names_paper_fn(stripped_listing, stem) {
        gaps.push(format!(
            "`paper::{stem}` is not in reproduce_all's list: its headline fields \
             never reach BENCH_paper.json"
        ));
    }
    gaps
}

fn main() {
    let root = Path::new(".");
    if !root.join("crates").is_dir() {
        eprintln!("xlint: run from the repo root (no ./crates directory here)");
        std::process::exit(2);
    }
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    files.sort();

    let registry_path = root.join("crates/bench/src/registry.rs");
    let registry_text = std::fs::read_to_string(&registry_path)
        .unwrap_or_else(|e| panic!("xlint: cannot read {}: {e}", registry_path.display()));
    let registry_stripped = strip(&registry_text);
    let listing_path = root.join("crates/bench/src/bin/reproduce_all.rs");
    let listing_text = std::fs::read_to_string(&listing_path)
        .unwrap_or_else(|e| panic!("xlint: cannot read {}: {e}", listing_path.display()));
    let listing_stripped = strip(&listing_text);

    let mut findings = Findings(Vec::new());
    let mut unregistered: Vec<(PathBuf, String)> = Vec::new();
    let mut checked = 0u64;

    for path in &files {
        let Ok(source) = std::fs::read_to_string(path) else {
            continue;
        };
        checked += 1;
        let stripped = strip(&source);
        let rel = path.to_string_lossy().replace('\\', "/");

        let in_gpu_sim = rel.contains("crates/gpu-sim/src/");
        let in_serve = rel.contains("crates/serve/src/");
        // Fleet-facing modules schedule against the simulated clock
        // and get the same wall-clock ban as the sim crates themselves.
        let in_fleet =
            rel.ends_with("crates/core/src/shard.rs") || rel.ends_with("crates/dnn/src/fleet.rs");
        if in_gpu_sim || in_serve || in_fleet {
            lint_sim_clock(path, &stripped, &mut findings);
        }
        if rel.contains("/src/") {
            lint_global_state(path, &stripped, &mut findings);
        }

        if ["core", "baselines", "dnn", "serve"]
            .iter()
            .any(|c| rel.contains(&format!("crates/{c}/src/")))
        {
            lint_launch_gate(path, &stripped, &mut findings);
        }
        if ["core", "baselines", "dnn", "serve", "sparse", "gpu-sim"]
            .iter()
            .any(|c| rel.contains(&format!("crates/{c}/src/")))
        {
            lint_no_unsafe(path, &stripped, &mut findings);
        }

        if !rel.contains("crates/bench/") {
            lint_raw_ptr(path, &stripped, &mut findings);
        }

        if rel.contains("crates/bench/src/bin/") {
            let stem = path.file_stem().and_then(|f| f.to_str()).unwrap_or("");
            if ["fig", "table", "ext"].iter().any(|p| stem.starts_with(p)) {
                for gap in experiment_record_gaps(stem, &stripped, &listing_stripped) {
                    findings.push(path, 0, "experiment-record", &gap);
                }
            }
        }

        if rel.contains("/src/") {
            for ty in unregistered_kernels(&stripped, &registry_stripped) {
                unregistered.push((path.clone(), ty));
            }
        }
    }

    for (path, ty) in &unregistered {
        let mut msg = String::new();
        let _ = write!(
            msg,
            "{}: [kernel-registry] `{ty}` implements Kernel but is never \
             constructed in crates/bench/src/registry.rs — it ships without \
             sanitize_all or static_audit coverage",
            path.display()
        );
        findings.0.push(msg);
    }

    if findings.0.is_empty() {
        println!(
            "xlint: {checked} files clean (sim-clock, raw-ptr-write, kernel-registry, \
             global-state, experiment-record, launch-gate, no-unsafe)"
        );
        return;
    }
    for f in &findings.0 {
        println!("{f}");
    }
    eprintln!("xlint: {} finding(s) in {checked} files", findings.0.len());
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_comments_and_strings() {
        let src = "let a = \"std::time\"; // std::time\n/* std::time */ let b = \"x\\\n y\";\n";
        let s = strip(src);
        assert!(!s.contains("std::time"), "{s}");
        assert_eq!(s.lines().count(), 3, "newlines preserved: {s}");
    }

    #[test]
    fn strip_handles_raw_strings_and_chars() {
        let src = "let a = r#\"Instant::now\"#; let c = '\\n'; let lt: &'static str = \"\";\n";
        let s = strip(src);
        assert!(!s.contains("Instant::now"), "{s}");
        assert!(s.contains("'static"), "lifetimes survive: {s}");
    }

    #[test]
    fn sim_clock_fires_on_wall_clock_reads() {
        let mut f = Findings(Vec::new());
        lint_sim_clock(
            Path::new("x.rs"),
            "use std::time::Instant;\nlet t = Instant::now();\n",
            &mut f,
        );
        assert_eq!(f.0.len(), 2, "{:?}", f.0);
    }

    #[test]
    fn sim_clock_ignores_commented_and_quoted_mentions() {
        let mut f = Findings(Vec::new());
        lint_sim_clock(
            Path::new("x.rs"),
            &strip("// Instant::now is banned here\nlet k = \"std::time\";\n"),
            &mut f,
        );
        assert!(f.0.is_empty(), "{:?}", f.0);
    }

    #[test]
    fn raw_ptr_fires_on_pointer_writes() {
        let mut f = Findings(Vec::new());
        lint_raw_ptr(
            Path::new("x.rs"),
            "unsafe { ptr::write(p, v) }\nlet q: *mut f32 = p;\n",
            &mut f,
        );
        assert_eq!(f.0.len(), 2, "{:?}", f.0);
    }

    #[test]
    fn launch_gate_fires_on_library_audits_only() {
        let src = strip(
            "let refuted = gpu.audit(&probe).refutation();\n\
             // gpu.audit(&probe) in a comment\n\
             let s = \"gpu.audit(&k)\";\n\
             #[cfg(test)]\nmod tests {\n    fn t() { let a = gpu.audit(&k); }\n}\n",
        );
        let mut f = Findings(Vec::new());
        lint_launch_gate(Path::new("crates/core/src/plan.rs"), &src, &mut f);
        assert_eq!(f.0.len(), 1, "{:?}", f.0);
        assert!(
            f.0[0].starts_with("crates/core/src/plan.rs:1:"),
            "{:?}",
            f.0
        );
    }

    #[test]
    fn no_unsafe_fires_in_every_kernel_crate_file() {
        let src = strip(
            "fn store(out: &OutputSlice<'_, f32>) {\n    unsafe { out.write(0, 1.0) };\n}\n\
             unsafe impl Sync for Shared {}\n\
             // an unsafe block in a comment\n\
             fn quoted() { let s = \"unsafe\"; let unsafe_count = 0; }\n\
             fn with_block() {\n    Some(f(unsafe { session.as_ref() }, lin))\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { unsafe { f() } }\n}\n",
        );
        let lines = |path: &str| {
            let mut f = Findings(Vec::new());
            lint_no_unsafe(Path::new(path), &src, &mut f);
            f.0.iter()
                .filter_map(|m| m.split(':').nth(1).map(str::to_owned))
                .collect::<Vec<_>>()
        };
        // No file is exempt.
        assert_eq!(lines("crates/gpu-sim/src/sanitizer.rs"), ["2", "4", "8"]);
        assert_eq!(lines("crates/core/src/spmm.rs"), ["2", "4", "8"]);
        assert_eq!(lines("crates/gpu-sim/src/util.rs"), ["2", "4", "8"]);
    }

    #[test]
    fn global_state_fires_on_mutable_statics() {
        let src = strip(
            "static HITS: AtomicU64 = AtomicU64::new(0);\n\
             pub(crate) static CACHE: OnceLock<Vec<u8>> = OnceLock::new();\n\
             static mut SCRATCH: u32 = 0;\n\
             static NAME: &str = \"Mutex\";\n\
             const LOCK: Mutex<()> = Mutex::new(());\n\
             thread_local! {\n    static SLOT: Cell<u64> = const { Cell::new(0) };\n    static M: RefCell<Mutex<()>> = RefCell::new(Mutex::new(()));\n}\n\
             #[cfg(test)]\nmod tests {\n    static TEST_LOCK: Mutex<()> = Mutex::new(());\n}\n",
        );
        let mut f = Findings(Vec::new());
        lint_global_state(Path::new("crates/gpu-sim/src/x.rs"), &src, &mut f);
        assert_eq!(f.0.len(), 3, "{:?}", f.0);
        for name in ["HITS", "CACHE", "SCRATCH"] {
            assert!(
                f.0.iter().any(|m| m.contains(&format!("`static {name}`"))),
                "{:?}",
                f.0
            );
        }
    }

    #[test]
    fn global_state_fires_in_every_file() {
        let src = strip("static ENABLED: AtomicBool = AtomicBool::new(false);\n");
        let mut f = Findings(Vec::new());
        for file in ["trace.rs", "lanes.rs", "sanitizer.rs"] {
            lint_global_state(
                Path::new(&format!("crates/gpu-sim/src/{file}")),
                &src,
                &mut f,
            );
        }
        assert_eq!(f.0.len(), 3, "{:?}", f.0);
    }

    #[test]
    fn kernel_types_resolve_through_impl_headers() {
        let src = "impl<T: Scalar> Kernel for MyKernel<'_, T> {\n    fn block_signature(&self, b: Dim3) -> Option<u64> { None }\n}\n\
                   impl gpu_sim::Kernel for Plain {\n}\n\
                   impl<T: Scalar> MyKernel<'_, T> {\n}\n\
                   impl Default for NotAKernel {\n}\n";
        assert_eq!(kernel_impl_types(&strip(src)), vec!["MyKernel", "Plain"]);
    }

    #[test]
    fn unregistered_kernel_without_signature_is_flagged() {
        // A kernel that never overrides `block_signature` still needs a
        // registry entry.
        let src = strip(
            "impl Kernel for Orphan {\n    fn name(&self) -> String { String::new() }\n}\n\
             impl Kernel for Listed {\n}\n",
        );
        let registry = strip("visit(&Listed { n: 4 });\n");
        assert_eq!(unregistered_kernels(&src, &registry), vec!["Orphan"]);
    }

    #[test]
    fn registry_coverage_requires_a_construction_token() {
        // A doc-comment mention, an error string, or a bare `use` import of
        // the type is not construction; only a `Type::` path token or a
        // `Type {` literal in code counts.
        let registry = strip(
            "use sputnik::{GhostKernel, RealKernel};\n\
             // GhostKernel is documented here but never built.\n\
             let msg = \"GhostKernel\";\n\
             let k = RealKernel::try_new().unwrap();\n",
        );
        assert!(!is_constructed("GhostKernel", &registry));
        assert!(is_constructed("RealKernel", &registry));
        // Building `JointRealKernel` does not cover `RealKernel`.
        let registry =
            strip("let k = JointRealKernel::new();\nlet s = JointRealKernel { n: 1 };\n");
        assert!(!is_constructed("RealKernel", &registry));
        assert!(is_constructed("JointRealKernel", &registry));
    }

    #[test]
    fn kernel_types_skip_trait_definition_and_test_modules() {
        let src = "pub trait Kernel {\n    fn block_signature(&self, _b: Dim3) -> Option<u64> { None }\n}\n\
                   #[cfg(test)]\nmod tests {\n    impl Kernel for Probe {\n        fn block_signature(&self, b: Dim3) -> Option<u64> { None }\n    }\n}\n";
        assert!(kernel_impl_types(&strip(src)).is_empty());
    }

    #[test]
    fn experiment_bins_must_call_the_library_and_be_listed() {
        let listing = strip(
            "let experiments = [(\"Figure 1\", paper::fig01_lstm_crossover)];\n\
             // paper::ext_unlisted is only mentioned in a comment.\n",
        );
        let listed = strip(
            "use sputnik_bench::{gate::BenchRecord, paper};\n\
             fn main() { paper::fig01_lstm_crossover(&mut BenchRecord::new(\"paper\")); }\n",
        );
        assert!(experiment_record_gaps("fig01_lstm_crossover", &listed, &listing).is_empty());

        // An unlisted bin: it calls its function, but reproduce_all names it
        // only in a comment.
        let unlisted = strip("fn main() { paper::ext_unlisted(&mut record()); }\n");
        let gaps = experiment_record_gaps("ext_unlisted", &unlisted, &listing);
        assert_eq!(gaps.len(), 1, "{gaps:?}");
        assert!(gaps[0].contains("not in reproduce_all's list"), "{gaps:?}");

        // A bin that bypasses the library: it prints its own numbers, and a
        // longer function name sharing the prefix does not count.
        let bypass = strip(
            "fn main() { println!(\"paper::fig01_lstm_crossover\"); \
             paper::fig01_lstm_crossover_v2(&mut record()); }\n",
        );
        let gaps = experiment_record_gaps("fig01_lstm_crossover", &bypass, &listing);
        assert_eq!(gaps.len(), 1, "{gaps:?}");
        assert!(gaps[0].contains("bypasses"), "{gaps:?}");
    }
}
