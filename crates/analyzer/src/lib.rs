//! `analyzer` — the workspace's three concurrency rules that no stock rustc or
//! clippy lint expresses (DESIGN.md §13).
//!
//! The build environment is fully offline, so this is a from-scratch source
//! scanner (no syn, no rustc plumbing): a comment/string-aware lexer
//! ([`lexer`]), a lightweight item scanner ([`parse`]), brace-scoped
//! statement and binding facts per function ([`flow`]), and the rules
//! ([`rules`]):
//!
//! * `atomic-rmw` — a `.load(..)` whose result feeds a `.store(..)` on the
//!   same atomic is a lost-update race;
//! * `atomic-ordering` — `Relaxed` on a data-visibility gate field
//!   ([`GATE_FIELDS`]);
//! * `guard-across-call` — a lock guard held across a call in
//!   [`EXPENSIVE_CALLS`].
//!
//! Everything else the workspace promises about panics, `unsafe` and unwinding
//! is enforced by rustc and clippy (`[workspace.lints]`, `clippy.toml`).
//!
//! Run it as `cargo run -p analyzer`; findings are reported as
//! `file:line: [rule] message`, and the process exits non-zero when anything
//! is found. There is no suppression syntax: a finding is fixed, not argued
//! away.

pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Atomic field names that gate *data visibility* across threads (a flag
/// whose observation implies some payload was written). `Relaxed` on them is
/// an `atomic-ordering` finding; counters stay Relaxed by not being listed.
/// `quarantined` publishes a page verdict whose `LossReason` must be visible
/// to whoever observes the flag.
pub const GATE_FIELDS: &[&str] = &["quarantined"];

/// Call-name prefixes too expensive to run while holding a lock guard
/// (`guard-across-call`): page decompression and summing — no resident-set
/// slot guard may live across `try_walk` or `try_sum_where*` — the parallel
/// scheduler, and retrying I/O.
pub const EXPENSIVE_CALLS: &[&str] = &[
    "try_decompress",
    "try_compress",
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
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: `atomic-rmw`, `atomic-ordering` or `guard-across-call`.
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Analyzes in-memory sources. `files` pairs a workspace-relative path with
/// the file's contents. Findings come back sorted by location.
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (path, src) in files {
        rules::run(path, &parse::scan_source(src), &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    // Several identical hits on one line read as noise; one finding per
    // (location, message) is enough to fail the build.
    findings.dedup();
    findings
}

/// Walks a workspace root, reads every eligible `.rs` file, and runs the
/// rules.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(analyze_sources(&collect_workspace_sources(root)?))
}

/// Directory names never descended into. Integration tests, benches, and
/// examples drive the APIs from the outside; `fixtures` holds the analyzer's
/// own known-bad inputs.
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
