//! The four project-specific rules, plus the `ANALYZER-ALLOW` annotation
//! machinery that suppresses individual findings with a recorded reason.
//!
//! Rule ids (used in reports and in `ANALYZER-ALLOW(<rule>)` annotations):
//!
//! * `no-panic` — panicking idioms (`unwrap`, `expect`, `panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!`), slice indexing, and
//!   narrowing `as` casts are forbidden in decode-path functions.
//! * `undocumented-unsafe` — every `unsafe` needs a `// SAFETY:` comment, and
//!   unsafe-free crates must declare `#![forbid(unsafe_code)]`.
//! * `wire-tag-sync` — magic/tag constants in the wire-format files must be
//!   used by both a serialize and a deserialize function, with no orphan or
//!   duplicate tags.
//! * `registry-sync` — every `ColumnCodec` value (a unit-struct impl, or
//!   each `static`/`const` instance of an implementing type) must appear
//!   exactly once in the codec registry's literal `ENTRIES` list, and every
//!   entry must name a live value.
//! * `contained-unwind` — `catch_unwind` is only legal inside the parallel
//!   scheduler's containment seam (`alp::par`); swallowing panics anywhere
//!   else hides poisoned state instead of quarantining it.
//! * `atomic-rmw` — a `.load(..)` whose result feeds a `.store(..)` on the
//!   same atomic is a lost-update race; use `fetch_*`/`fetch_update`.
//! * `atomic-ordering` — `Ordering::Relaxed` on configured data-visibility
//!   gate fields (e.g. `quarantined`) needs Acquire/Release instead.
//! * `condvar-discipline` — `Condvar::wait` must sit in a re-checking loop
//!   and must not unwrap the poison result.
//! * `guard-across-call` — a lock guard's live range may not span a call
//!   into the configured expensive-function list.
//! * `cancel-poll` — loops claiming scheduler morsels must consult a
//!   `CancelToken`/stop flag each iteration.
//! * `allow-syntax` — malformed or unknown-rule `ANALYZER-ALLOW` annotations
//!   (a typo in an annotation must not silently disable a lint).
//!
//! `no-panic` additionally runs in *reachability* mode: the workspace call
//! graph ([`crate::graph`]) is walked from every `try_*` entry point, and
//! explicit panics in any reached function are findings even outside the
//! textual decode scope.

use std::collections::BTreeMap;

use crate::parse::{FileInfo, FnItem};
use crate::{Config, Finding};

/// All valid rule ids, as used in `ANALYZER-ALLOW(<rule>)`.
pub const RULE_IDS: &[&str] = &[
    "no-panic",
    "undocumented-unsafe",
    "wire-tag-sync",
    "registry-sync",
    "contained-unwind",
    "atomic-rmw",
    "atomic-ordering",
    "condvar-discipline",
    "guard-across-call",
    "cancel-poll",
];

/// A parsed `ANALYZER-ALLOW(rule): reason` annotation and the lines it covers.
#[derive(Debug)]
struct Allow {
    rule: String,
    /// Inclusive 1-based line range the annotation suppresses.
    span: (usize, usize),
}

/// Runs every rule over the scanned files. `files` maps workspace-relative
/// paths (forward slashes) to their scanned contents.
pub fn run_all(files: &BTreeMap<String, FileInfo>, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut allows: BTreeMap<&str, Vec<Allow>> = BTreeMap::new();
    for (path, info) in files {
        let (file_allows, mut bad) = collect_allows(path, info);
        findings.append(&mut bad);
        allows.insert(path, file_allows);
    }

    for (path, info) in files {
        no_panic(path, info, cfg, &mut findings);
        undocumented_unsafe(path, info, &mut findings);
        contained_unwind(path, info, cfg, &mut findings);
    }
    forbid_unsafe_crates(files, cfg, &mut findings);
    wire_tag_sync(files, cfg, &mut findings);
    registry_sync(files, cfg, &mut findings);
    crate::concurrency::run(files, cfg, &mut findings);
    no_panic_reachable(files, cfg, &mut findings);

    findings.retain(|f| {
        !allows
            .get(f.file.as_str())
            .map(|a| {
                a.iter().any(|al| al.rule == f.rule && al.span.0 <= f.line && f.line <= al.span.1)
            })
            .unwrap_or(false)
    });
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    // Several identical hits on one line (e.g. `out[i] = x[i]`) read as noise;
    // one finding per (location, message) is enough to fail the build.
    findings.dedup();
    findings
}

/// Parses the `ANALYZER-ALLOW` annotations in one file.
///
/// Scope: a trailing annotation covers its own line; an annotation on its own
/// comment line covers the next code line — or, when that line opens a `fn`
/// item, the whole item (for hot kernels whose every line would otherwise
/// need one). Malformed annotations are findings, never silent.
fn collect_allows(path: &str, info: &FileInfo) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (idx, l) in info.lines.iter().enumerate() {
        let line = idx + 1;
        // An annotation must *start* its comment (after the `//`/`/*` markers)
        // so that prose merely mentioning the grammar, like this sentence's
        // `ANALYZER-ALLOW(rule): reason`, is not parsed as one.
        let stripped = l.comment.trim_start_matches(['/', '!', '*', ' ', '\t']);
        let mut first = true;
        let mut rest = stripped;
        while let Some(pos) = rest.find("ANALYZER-ALLOW") {
            if first && pos != 0 {
                break;
            }
            first = false;
            rest = &rest[pos + "ANALYZER-ALLOW".len()..];
            let (rule, reason) = match parse_allow_tail(rest) {
                Some(rr) => rr,
                None => {
                    bad.push(Finding::new(
                        "allow-syntax",
                        path,
                        line,
                        "malformed ANALYZER-ALLOW: expected `ANALYZER-ALLOW(rule): reason`",
                    ));
                    continue;
                }
            };
            if !RULE_IDS.contains(&rule.as_str()) {
                bad.push(Finding::new(
                    "allow-syntax",
                    path,
                    line,
                    &format!("ANALYZER-ALLOW names unknown rule `{rule}`"),
                ));
                continue;
            }
            if reason.trim().is_empty() {
                bad.push(Finding::new(
                    "allow-syntax",
                    path,
                    line,
                    &format!("ANALYZER-ALLOW({rule}) has no reason"),
                ));
                continue;
            }
            let span = allow_span(info, line, !l.code.trim().is_empty());
            allows.push(Allow { rule, span });
        }
    }
    (allows, bad)
}

/// Parses `(rule): reason` from the text following `ANALYZER-ALLOW`.
fn parse_allow_tail(rest: &str) -> Option<(String, String)> {
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let after = rest[close + 1..].strip_prefix(':')?;
    Some((rule, after.to_string()))
}

/// Computes which lines an annotation at `line` covers.
fn allow_span(info: &FileInfo, line: usize, trailing: bool) -> (usize, usize) {
    if trailing {
        return (line, line);
    }
    // Own-line annotation: find the next line with real code, skipping blank,
    // comment-only, and attribute-only lines.
    let mut target = line + 1;
    while target <= info.lines.len() {
        let code = info.lines[target - 1].code.trim();
        if code.is_empty() || code.starts_with('#') {
            target += 1;
            continue;
        }
        break;
    }
    // Covering a whole `fn` item when the annotation sits on its header.
    for f in &info.fns {
        if f.start_line == target {
            return (f.start_line, f.end_line);
        }
    }
    (target, target)
}

// ---------------------------------------------------------------------------
// Rule: no-panic
// ---------------------------------------------------------------------------

/// True when `name` matches a decode-path name pattern (`unpack`,
/// `ffor_unpack`, … — prefix or `_`-separated occurrence).
fn matches_decode_name(name: &str, patterns: &[String]) -> bool {
    patterns.iter().any(|p| name.starts_with(p.as_str()) || name.contains(&format!("_{p}")))
}

/// Decides whether a function is in the no-panic scope.
fn in_no_panic_scope(path: &str, f: &FnItem, cfg: &Config) -> bool {
    if f.in_test {
        return false;
    }
    if f.name.starts_with("try_") {
        return true;
    }
    if cfg.decode_files.iter().any(|df| df == path) {
        return true;
    }
    let crate_name = crate_of(path);
    cfg.decode_crates.iter().any(|c| c == &crate_name)
        && matches_decode_name(&f.name, &cfg.decode_name_patterns)
}

fn no_panic(path: &str, info: &FileInfo, cfg: &Config, findings: &mut Vec<Finding>) {
    for f in &info.fns {
        if !in_no_panic_scope(path, f, cfg) {
            continue;
        }
        for line_no in f.start_line..=f.end_line {
            let code = &info.lines[line_no - 1].code;
            for (what, msg) in scan_panic_patterns(code) {
                findings.push(Finding::new(
                    "no-panic",
                    path,
                    line_no,
                    &format!("{msg} in decode-path fn `{}` ({what})", f.name),
                ));
            }
        }
    }
}

/// Scans one code line for panicking idioms. Returns (pattern, description).
fn scan_panic_patterns(code: &str) -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    let chars: Vec<char> = code.chars().collect();

    for (method, label) in [(".unwrap(", "`.unwrap()`"), (".expect(", "`.expect()`")] {
        let bare = &method[1..method.len() - 1]; // method name without . and (
        let mut from = 0;
        while let Some(pos) = code[from..].find(bare) {
            let at = from + pos;
            let before_ok = code[..at].trim_end().ends_with('.');
            let word_start = at == 0
                || !code.as_bytes()[at - 1].is_ascii_alphanumeric()
                    && code.as_bytes()[at - 1] != b'_';
            let after = code[at + bare.len()..].trim_start();
            if before_ok && word_start && after.starts_with('(') {
                out.push((label, "may panic"));
            }
            from = at + bare.len();
        }
    }

    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(mac) {
            let at = from + pos;
            let before = if at == 0 { None } else { code.as_bytes().get(at - 1) };
            let boundary = before.map(|b| !b.is_ascii_alphanumeric() && *b != b'_').unwrap_or(true);
            let after = &code[at + mac.len()..];
            if boundary && after.trim_start().starts_with('!') {
                out.push(("macro", "panicking macro"));
            }
            from = at + mac.len();
        }
    }

    // Slice/array indexing: `[` immediately preceded (modulo spaces) by an
    // identifier, `)`, or `]` — but not when the "identifier" is a keyword or
    // a lifetime, which makes the bracket a slice *type* (`&mut [F]`,
    // `&'a [u8]`), not an index expression.
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let mut j = i;
        while j > 0 && chars[j - 1].is_whitespace() {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let p = chars[j - 1];
        if p == ')' || p == ']' {
            out.push(("indexing", "unguarded slice indexing"));
            continue;
        }
        if p.is_alphanumeric() || p == '_' {
            let mut start = j;
            while start > 0 && (chars[start - 1].is_alphanumeric() || chars[start - 1] == '_') {
                start -= 1;
            }
            let ident: String = chars[start..j].iter().collect();
            let keyword = matches!(
                ident.as_str(),
                "mut" | "dyn" | "in" | "return" | "break" | "else" | "match" | "const" | "static"
            );
            let lifetime = start > 0 && chars[start - 1] == '\'';
            if !keyword && !lifetime {
                out.push(("indexing", "unguarded slice indexing"));
            }
        }
    }

    // Narrowing `as` casts.
    let toks: Vec<&str> = code
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect();
    for w in toks.windows(2) {
        if w[0] == "as" && matches!(w[1], "u8" | "u16" | "u32" | "i8" | "i16" | "i32") {
            out.push(("as-cast", "narrowing `as` cast"));
        }
    }
    out
}

/// Reachability upgrade of `no-panic`: no *explicit* panic may be reachable
/// from any non-test `try_*` entry point through the workspace call graph.
///
/// The textual scope ([`in_no_panic_scope`]) stays the strict tier — panic
/// idioms, unguarded indexing, narrowing casts — because those functions
/// parse untrusted bytes. Functions pulled in only by reachability are
/// internal helpers running on trusted data: for them, unguarded indexing
/// against a fixed kernel geometry is fine, but an `unwrap`/`expect`/`panic!`
/// is a promise that a `try_` caller can be made to break, so only the
/// explicit-panic idioms are findings. The graph over-approximates (methods
/// resolve by name workspace-wide), so every finding names its witness path
/// for a human to judge — and an `ANALYZER-ALLOW(no-panic)` at the panic site
/// covers all paths to it.
fn no_panic_reachable(
    files: &BTreeMap<String, FileInfo>,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    let g = crate::graph::build(files);
    let roots: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.in_test && n.name.starts_with("try_"))
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }
    let parent = g.reachable(&roots);
    for (&id, _) in parent.iter() {
        let node = &g.nodes[id];
        if node.in_test {
            continue;
        }
        let info = &files[&node.file];
        let Some(item) =
            info.fns.iter().find(|f| f.name == node.name && f.start_line == node.start_line)
        else {
            continue;
        };
        // The strict textual tier already scans these (including indexing and
        // casts); re-reporting the explicit subset would double up.
        if in_no_panic_scope(&node.file, item, cfg) {
            continue;
        }
        let witness = g.witness(&parent, id);
        let via = if witness.len() > 1 {
            format!(" (via {})", witness.join(" → "))
        } else {
            String::new() // the root itself (a try_ fn outside the textual scope)
        };
        for line_no in item.start_line..=item.end_line.min(info.lines.len()) {
            let code = &info.lines[line_no - 1].code;
            for (what, msg) in scan_panic_patterns(code) {
                if !matches!(what, "`.unwrap()`" | "`.expect()`" | "macro") {
                    continue;
                }
                findings.push(Finding::new(
                    "no-panic",
                    &node.file,
                    line_no,
                    &format!(
                        "{msg} in `{}`, reachable from a `try_` entry point{via} ({what})",
                        node.name
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: undocumented-unsafe
// ---------------------------------------------------------------------------

fn undocumented_unsafe(path: &str, info: &FileInfo, findings: &mut Vec<Finding>) {
    for site in &info.unsafe_sites {
        if site.in_test {
            continue;
        }
        if !has_safety_comment(info, site.line) {
            findings.push(Finding::new(
                "undocumented-unsafe",
                path,
                site.line,
                "`unsafe` without a `// SAFETY:` comment",
            ));
        }
    }
}

/// Looks for `SAFETY:` on the unsafe line itself or in the contiguous
/// comment/attribute block above it.
fn has_safety_comment(info: &FileInfo, line: usize) -> bool {
    if info.lines[line - 1].comment.contains("SAFETY:") {
        return true;
    }
    let mut up = line - 1;
    while up >= 1 {
        let l = &info.lines[up - 1];
        let code = l.code.trim();
        if code.is_empty() || code.starts_with('#') {
            if l.comment.contains("SAFETY:") {
                return true;
            }
            up -= 1;
            continue;
        }
        break;
    }
    false
}

/// Crates with zero `unsafe` anywhere must say so with `#![forbid(unsafe_code)]`.
fn forbid_unsafe_crates(
    files: &BTreeMap<String, FileInfo>,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    let mut crates: BTreeMap<String, (bool, Option<&str>, bool)> = BTreeMap::new();
    for (path, info) in files {
        let name = crate_of(path);
        let entry = crates.entry(name).or_insert((false, None, false));
        entry.0 |= !info.unsafe_sites.is_empty();
        if path.ends_with("src/lib.rs") || path.ends_with("src/main.rs") {
            entry.1 = Some(path);
            entry.2 = info.has_forbid_unsafe;
        }
    }
    for (name, (has_unsafe, root, has_forbid)) in crates {
        if cfg.unsafe_allowed_crates.iter().any(|c| c == &name) {
            continue;
        }
        if let Some(root) = root {
            if !has_unsafe && !has_forbid {
                findings.push(Finding::new(
                    "undocumented-unsafe",
                    root,
                    1,
                    &format!("crate `{name}` has no unsafe code but does not declare #![forbid(unsafe_code)]"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: wire-tag-sync
// ---------------------------------------------------------------------------

fn wire_tag_sync(files: &BTreeMap<String, FileInfo>, cfg: &Config, findings: &mut Vec<Finding>) {
    // Collect tag constants from the wire files.
    struct Tag<'a> {
        name: &'a str,
        file: &'a str,
        line: usize,
        raw_value: String,
    }
    let mut tags: Vec<Tag> = Vec::new();
    for wf in &cfg.wire_files {
        let Some(info) = files.get(wf) else { continue };
        for c in &info.consts {
            if c.in_test {
                continue;
            }
            let named_tag = ["MAGIC", "TAG", "SCHEME"].iter().any(|k| c.name.contains(k));
            let byte_string = c.value.contains("b \"");
            if named_tag || byte_string {
                // Literal value from the raw source (the lexer blanks string
                // contents), for duplicate detection.
                let raw = info
                    .raw_lines
                    .get(c.line - 1)
                    .and_then(|l| l.split('=').nth(1))
                    .map(|v| v.trim().trim_end_matches(';').trim().to_string())
                    .unwrap_or_default();
                tags.push(Tag { name: &c.name, file: wf, line: c.line, raw_value: raw });
            }
        }
    }

    // Duplicate values.
    for (i, t) in tags.iter().enumerate() {
        if !t.raw_value.is_empty() {
            if let Some(prev) = tags[..i].iter().find(|p| p.raw_value == t.raw_value) {
                findings.push(Finding::new(
                    "wire-tag-sync",
                    t.file,
                    t.line,
                    &format!(
                        "tag `{}` duplicates the value of `{}` ({})",
                        t.name, prev.name, t.raw_value
                    ),
                ));
            }
        }
    }

    // Reference sites: which functions (across all wire files) mention each tag.
    for t in &tags {
        let mut written = false;
        let mut read = false;
        let mut referenced = false;
        for wf in &cfg.wire_files {
            let Some(info) = files.get(wf) else { continue };
            for f in &info.fns {
                if f.in_test {
                    continue;
                }
                let mentions = (f.start_line..=f.end_line)
                    .any(|ln| ln != t.line && word_in(&info.lines[ln - 1].code, t.name));
                if !mentions {
                    continue;
                }
                referenced = true;
                if cfg.writer_fn_patterns.iter().any(|p| f.name.contains(p.as_str())) {
                    written = true;
                }
                if cfg.reader_fn_patterns.iter().any(|p| f.name.contains(p.as_str())) {
                    read = true;
                }
            }
        }
        if !referenced {
            findings.push(Finding::new(
                "wire-tag-sync",
                t.file,
                t.line,
                &format!("tag `{}` is defined but never used (orphan)", t.name),
            ));
        } else {
            if !written {
                findings.push(Finding::new(
                    "wire-tag-sync",
                    t.file,
                    t.line,
                    &format!("tag `{}` is never emitted by a serialize function", t.name),
                ));
            }
            if !read {
                findings.push(Finding::new(
                    "wire-tag-sync",
                    t.file,
                    t.line,
                    &format!("tag `{}` is never checked by a deserialize function", t.name),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: contained-unwind
// ---------------------------------------------------------------------------

/// `catch_unwind` is only legal in the scheduler's containment seam
/// ([`Config::unwind_allowed_files`]): that module re-initializes worker
/// scratch after a caught panic and either re-raises with context or reports
/// a quarantined morsel. A `catch_unwind` anywhere else swallows a panic
/// while leaving possibly-torn state live. Test functions are exempt — they
/// catch panics to assert on them.
fn contained_unwind(path: &str, info: &FileInfo, cfg: &Config, findings: &mut Vec<Finding>) {
    if cfg.unwind_allowed_files.iter().any(|f| f == path) {
        return;
    }
    for (idx, l) in info.lines.iter().enumerate() {
        let line = idx + 1;
        if !word_in(&l.code, "catch_unwind") {
            continue;
        }
        let in_test =
            info.fns.iter().any(|f| f.in_test && f.start_line <= line && line <= f.end_line);
        if in_test {
            continue;
        }
        findings.push(Finding::new(
            "contained-unwind",
            path,
            line,
            "`catch_unwind` outside the scheduler's containment module — \
             route panic containment through `alp::par` (run_morsels_contained)",
        ));
    }
}

// ---------------------------------------------------------------------------
// Rule: registry-sync
// ---------------------------------------------------------------------------

/// Parses `[pub[(..)]] static|const NAME: Type …` from one code line into
/// `(NAME, Type)`; `None` for anything else (including reference- or
/// slice-typed items such as `ENTRIES` itself).
fn parse_instance(code: &str) -> Option<(String, String)> {
    let mut rest = code.trim();
    if let Some(after_pub) = rest.strip_prefix("pub") {
        rest = after_pub.trim_start();
        if rest.starts_with('(') {
            rest = rest.split_once(')')?.1.trim_start();
        }
    }
    let rest = rest.strip_prefix("static").or_else(|| rest.strip_prefix("const"))?;
    let (name, rest) = rest.strip_prefix(char::is_whitespace)?.split_once(':')?;
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let ty: String = rest.trim_start().chars().take_while(|c| ident(*c)).collect();
    let name = name.trim();
    (!name.is_empty() && name.chars().all(ident) && !ty.is_empty()).then(|| (name.to_string(), ty))
}

/// Every codec *value* in the workspace must appear exactly once as a
/// `&path::NAME,` entry inside the registry's `static ENTRIES` block, and
/// every entry must name a live value. A value is a type `X` with an
/// `impl ColumnCodec for X` (a unit struct) — or, when the workspace declares
/// `static`/`const` items of type `X` (one adapter shared by several codecs),
/// each of those items in its place. The check is purely textual by design:
/// it is what forces the registry to stay a literal one-entry-per-line list
/// (no macros, no computed entries) that a reviewer can read at a glance.
fn registry_sync(files: &BTreeMap<String, FileInfo>, cfg: &Config, findings: &mut Vec<Finding>) {
    let Some(reg) = files.get(&cfg.registry_file) else {
        return; // narrow test configs that do not include the registry
    };

    // Entries: the identifiers listed inside the `static ENTRIES` block,
    // one `&path::Name,` literal per line.
    let mut entries: Vec<(String, usize)> = Vec::new();
    let mut inside = false;
    for (idx, l) in reg.lines.iter().enumerate() {
        let code = l.code.trim();
        if !inside {
            inside = code.contains("static ENTRIES");
            continue;
        }
        if code.contains("];") {
            break;
        }
        let Some(entry) = code.strip_prefix('&') else { continue };
        let entry = entry.trim_end_matches(',').trim();
        let name = entry.rsplit("::").next().unwrap_or(entry).trim();
        if !name.is_empty() {
            entries.push((name.to_string(), idx + 1));
        }
    }

    // Impls: `impl <Trait> for X` anywhere in the scanned workspace.
    let mut impls: Vec<(String, &str, usize)> = Vec::new();
    for (path, info) in files {
        for (idx, l) in info.lines.iter().enumerate() {
            let name = (|| {
                let rest = l.code.trim().strip_prefix("impl")?.trim_start();
                let rest = rest.strip_prefix(cfg.codec_trait.as_str())?.trim_start();
                let rest = rest.strip_prefix("for")?.trim_start();
                let name: String =
                    rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                (!name.is_empty()).then_some(name)
            })();
            if let Some(name) = name {
                impls.push((name, path, idx + 1));
            }
        }
    }

    // Values: for each implementing type, its `static`/`const` instances if
    // it has any, else the (unit-struct) type itself.
    let mut values: Vec<(String, &str, usize, String)> = Vec::new();
    for (ty, path, line) in &impls {
        let before = values.len();
        for (ipath, info) in files {
            for (idx, l) in info.lines.iter().enumerate() {
                if let Some((name, _)) = parse_instance(&l.code).filter(|(_, t)| t == ty) {
                    values.push((name, ipath, idx + 1, format!("is an instance of `{ty}`")));
                }
            }
        }
        if values.len() == before {
            values.push((ty.clone(), path, *line, format!("implements {}", cfg.codec_trait)));
        }
    }
    for (name, path, line, what) in &values {
        if !entries.iter().any(|(e, _)| e == name) {
            findings.push(Finding::new(
                "registry-sync",
                path,
                *line,
                &format!("`{name}` {what} but is not listed in the registry's ENTRIES"),
            ));
        }
    }
    for (i, (name, line)) in entries.iter().enumerate() {
        if entries[..i].iter().any(|(prev, _)| prev == name) {
            findings.push(Finding::new(
                "registry-sync",
                &cfg.registry_file,
                *line,
                &format!("`{name}` is registered more than once in ENTRIES"),
            ));
        }
    }
    for (name, line) in &entries {
        if !values.iter().any(|(n, _, _, _)| n == name) {
            findings.push(Finding::new(
                "registry-sync",
                &cfg.registry_file,
                *line,
                &format!(
                    "ENTRIES lists `{name}` but no `impl {} for {name}`, nor an instance \
                     of an implementing type named `{name}`, exists",
                    cfg.codec_trait
                ),
            ));
        }
    }
}

/// Whole-word occurrence of `word` in a code line.
pub(crate) fn word_in(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0
            || !{
                let b = code.as_bytes()[at - 1];
                b.is_ascii_alphanumeric() || b == b'_'
            };
        let end = at + word.len();
        let after_ok = end >= code.len()
            || !{
                let b = code.as_bytes()[end];
                b.is_ascii_alphanumeric() || b == b'_'
            };
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Extracts the crate name from a workspace-relative path.
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") | Some("shims") => parts.next().unwrap_or("").to_string(),
        Some("src") | Some("examples") | Some("tests") => "alp-repro".to_string(),
        other => other.unwrap_or("").to_string(),
    }
}
