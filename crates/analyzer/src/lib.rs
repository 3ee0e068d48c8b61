//! `analyzer` — a self-contained static-analysis pass for this workspace.
//!
//! The build environment is fully offline, so this is a from-scratch source
//! scanner (no syn, no rustc plumbing): a comment/string-aware lexer
//! ([`lexer`]), a lightweight item scanner ([`parse`]), and a rule engine
//! ([`rules`]) enforcing the invariants PR 1 introduced by convention:
//!
//! * decode paths must not panic (`no-panic`),
//! * unsafe must be documented and unsafe-free crates must say so
//!   (`undocumented-unsafe`),
//! * wire-format tag constants must be kept in sync between serialize and
//!   deserialize paths (`wire-tag-sync`),
//! * every `ColumnCodec` value (a unit-struct impl, or an instance of a
//!   shared adapter type) appears exactly once in the codec registry's
//!   literal `ENTRIES` list, and every entry names a live value
//!   (`registry-sync`),
//! * `catch_unwind` is only legal inside the parallel scheduler's panic
//!   containment seam (`contained-unwind`).
//!
//! Run it as `cargo run -p analyzer` or `alp analyze`; findings are reported
//! as `file:line: [rule] message`, or as JSON with `--format json`, and the
//! process exits non-zero when anything is found. Individual findings are
//! suppressed with `// ANALYZER-ALLOW(rule): reason` annotations (see
//! DESIGN.md §8 for the grammar and scoping).

#![forbid(unsafe_code)]

mod concurrency;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (see [`rules::RULE_IDS`] plus `allow-syntax`).
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(rule: &str, file: &str, line: usize, message: &str) -> Self {
        Self { rule: rule.to_string(), file: file.to_string(), line, message: message.to_string() }
    }
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Scope configuration for the rules. [`Config::default`] encodes this
/// workspace's layout; tests construct narrower ones.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose decode-shaped functions fall under `no-panic`.
    pub decode_crates: Vec<String>,
    /// Files whose *every* function falls under `no-panic`.
    pub decode_files: Vec<String>,
    /// Function-name patterns (prefix or `_`-separated) marking decode paths.
    pub decode_name_patterns: Vec<String>,
    /// Files holding wire-format tag constants, checked by `wire-tag-sync`.
    pub wire_files: Vec<String>,
    /// Function-name patterns classifying a function as a serializer.
    pub writer_fn_patterns: Vec<String>,
    /// Function-name patterns classifying a function as a deserializer.
    pub reader_fn_patterns: Vec<String>,
    /// Crates exempt from the `#![forbid(unsafe_code)]` requirement.
    pub unsafe_allowed_crates: Vec<String>,
    /// The only files allowed to `catch_unwind` (the scheduler's panic
    /// containment seam), checked by `contained-unwind`.
    pub unwind_allowed_files: Vec<String>,
    /// The file holding the codec registry's `static ENTRIES` block, checked
    /// by `registry-sync`.
    pub registry_file: String,
    /// The trait whose implementing values must each appear in `ENTRIES`.
    pub codec_trait: String,
    /// Atomic field names that gate *data visibility* across threads (a flag
    /// whose observation implies some payload was written). `Relaxed` on them
    /// is an `atomic-ordering` finding; counters stay Relaxed by not being
    /// listed.
    pub ordering_gate_fields: Vec<String>,
    /// Call-name prefixes too expensive to run while holding a lock guard
    /// (`guard-across-call`): page decompression and summing, the parallel
    /// scheduler, retrying I/O.
    pub guard_expensive_patterns: Vec<String>,
    /// Squeezed-text patterns that count as consulting cancellation inside a
    /// morsel-claim loop (`cancel-poll`).
    pub cancel_poll_patterns: Vec<String>,
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

impl Default for Config {
    fn default() -> Self {
        Self {
            decode_crates: strings(&["alp", "codecs", "fastlanes", "bitstream", "gpzip"]),
            decode_files: strings(&[
                "crates/alp/src/decode.rs",
                "crates/alp/src/wire.rs",
                "crates/bitstream/src/reader.rs",
            ]),
            decode_name_patterns: strings(&[
                "decompress",
                "decode",
                "unpack",
                "from_bytes",
                "read",
                "salvage",
                "next_",
                "get_u",
                "get_i",
                "refill",
                "advance",
                "untranspose",
                // Self-healing paths (DESIGN.md §16): parity reconstruction
                // and the scrubber run on damaged or quarantined input, the
                // least trustworthy bytes in the system.
                "repair",
                "scrub",
            ]),
            wire_files: strings(&[
                "crates/alp/src/format.rs",
                "crates/alp/src/stream.rs",
                "crates/alp/src/frame.rs",
            ]),
            writer_fn_patterns: strings(&[
                "to_bytes",
                "write",
                "finish",
                "ensure_header",
                "flush",
                "push",
                "serialize",
            ]),
            reader_fn_patterns: strings(&[
                "from_bytes",
                "read",
                "open",
                "parse",
                "next",
                "salvage",
                "deserialize",
                "new",
            ]),
            // `bench` reads the x86 time-stamp counter directly.
            unsafe_allowed_crates: strings(&["bench"]),
            // `alp::par` hosts the one containment module (DESIGN.md §11).
            unwind_allowed_files: strings(&["crates/alp/src/par.rs"]),
            registry_file: "crates/core/src/registry.rs".to_string(),
            codec_trait: "ColumnCodec".to_string(),
            // `quarantined` publishes a page verdict whose `LossReason` must
            // be visible to whoever observes the flag (DESIGN.md §13).
            ordering_gate_fields: strings(&["quarantined"]),
            guard_expensive_patterns: strings(&[
                "try_decompress",
                "try_compress",
                // The service's page decode and compressed-domain page sum:
                // no resident-set slot guard may live across either.
                "try_walk",
                "try_sum_where",
                "par_compress",
                "par_decompress",
                "run_morsels",
                "map_morsels",
                "fold_morsels",
                "read_full_retry",
                "write_all_retry",
                "flush_retry",
            ]),
            cancel_poll_patterns: strings(&[
                "is_cancelled(",
                "cancelled.load(",
                "stop.load(",
                "stop_flag.load(",
            ]),
        }
    }
}

/// Analyzes in-memory sources. `files` pairs a workspace-relative path (used
/// for scoping decisions) with the file's contents.
pub fn analyze_sources(files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let scanned: BTreeMap<String, parse::FileInfo> =
        files.iter().map(|(p, src)| (p.clone(), parse::scan_source(src))).collect();
    rules::run_all(&scanned, cfg)
}

/// Walks a workspace root, reads every eligible `.rs` file, and runs all
/// rules with the default [`Config`].
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let files = collect_workspace_sources(root)?;
    Ok(analyze_sources(&files, &Config::default()))
}

/// Directory names never descended into. Integration tests, benches, and
/// examples exercise APIs from the outside and may panic freely; `fixtures`
/// holds the analyzer's own known-bad inputs.
const SKIP_DIRS: &[&str] =
    &["target", ".git", "tests", "benches", "examples", "fixtures", ".github"];

/// Collects the workspace's lintable sources as (relative path, contents).
pub fn collect_workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for top in ["src", "crates", "shims"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().to_string())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` looking for a
/// `Cargo.toml` containing a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
