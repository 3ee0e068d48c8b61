//! The three concurrency rules (`atomic-rmw`, `atomic-ordering`,
//! `guard-across-call`).
//!
//! All three work on the per-function facts from [`crate::flow`] —
//! statements and binding live ranges — rather than raw lines, so a
//! multi-line iterator chain is one statement and a guard's lifetime is a
//! real range. They are deliberately narrow: each encodes one discipline this
//! workspace already follows by hand (DESIGN.md §13), and anything the
//! textual model cannot prove safe must be rewritten.

use std::collections::{BTreeMap, BTreeSet};

use crate::flow::{self, FnFlow};
use crate::parse::{FileInfo, FnItem};
use crate::{Finding, EXPENSIVE_CALLS, GATE_FIELDS};

/// Runs the rules over every non-test function of one file.
pub fn run(path: &str, info: &FileInfo, findings: &mut Vec<Finding>) {
    for f in info.fns.iter().filter(|f| !f.in_test) {
        let fl = flow::scan_fn(&info.lines, f);
        let mut report = |rule: &'static str, line: usize, message: String| {
            findings.push(Finding { rule, file: path.to_string(), line, message })
        };
        atomic_rmw(f, &fl, &mut report);
        atomic_ordering(f, &fl, &mut report);
        guard_across_call(f, &fl, &mut report);
    }
}

/// Strips all whitespace (statement text is space-collapsed; receiver and
/// call-pattern matching wants exact adjacency).
fn squeeze(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

/// The receiver chain ending just before byte offset `at` in squeezed text:
/// the maximal run of identifier chars, `.`, `::`, and index brackets —
/// `self.ewma_nanos`, `q`, `flags[i]`.
fn receiver_before(text: &str, at: usize) -> &str {
    let bytes = text.as_bytes();
    let mut start = at;
    while start > 0 {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'[' | b']') {
            start -= 1;
        } else {
            break;
        }
    }
    &text[start..at]
}

/// Occurrences of `.op(` in squeezed text, yielding (receiver, args-offset).
fn atomic_ops<'a>(text: &'a str, op: &str) -> Vec<(&'a str, usize)> {
    let needle = format!(".{op}(");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let at = from + pos;
        out.push((receiver_before(text, at), at + needle.len()));
        from = at + needle.len();
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: atomic-rmw
// ---------------------------------------------------------------------------

/// A `.load(…)` whose result flows (through bindings, statement-level) into a
/// `.store(…)` on the *same* receiver is a lost-update race: another thread
/// can update the atomic between the two halves and have its write silently
/// overwritten. Use `fetch_add`/`fetch_update`/`compare_exchange`.
fn atomic_rmw(f: &FnItem, fl: &FnFlow, report: &mut impl FnMut(&'static str, usize, String)) {
    // Binding name → receivers whose loaded value tainted it.
    let mut taint: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for stmt in &fl.stmts {
        let sq = squeeze(&stmt.text);
        // New taint: `let name = … recv.load(…) …` or propagation from an
        // already-tainted binding mentioned in the initializer.
        if let Some((name, init)) = as_let(&stmt.text) {
            let mut sources: BTreeSet<String> = BTreeSet::new();
            for (recv, _) in atomic_ops(&squeeze(init), "load") {
                if !recv.is_empty() {
                    sources.insert(recv.to_string());
                }
            }
            for (var, recvs) in &taint {
                if word_in(init, var) {
                    sources.extend(recvs.iter().cloned());
                }
            }
            if !sources.is_empty() {
                taint.insert(name.to_string(), sources);
            }
        }
        // Sink: `recv.store(args…)` whose args mention a binding tainted by a
        // load of the same receiver, or an inline `recv.load(` in the args.
        for (recv, args_at) in atomic_ops(&sq, "store") {
            if recv.is_empty() {
                continue;
            }
            let args = &sq[args_at..];
            let inline = args.contains(&format!("{recv}.load("));
            let via_binding =
                taint.iter().any(|(var, recvs)| recvs.contains(recv) && word_in(args, var));
            if inline || via_binding {
                report(
                    "atomic-rmw",
                    stmt.line,
                    format!(
                        "lost-update race in `{}`: `{recv}.store(…)` writes a value derived \
                         from `{recv}.load(…)` — use `fetch_*`/`fetch_update` so the \
                         read-modify-write is one atomic step",
                        f.name
                    ),
                );
            }
        }
    }
}

/// Splits a squeezed-ish statement `let [mut] name = init`; `None` for
/// destructuring patterns (the flow module already skips those too).
fn as_let(text: &str) -> Option<(&str, &str)> {
    let rest = text.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name_len = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').count();
    if name_len == 0 {
        return None;
    }
    let (name, tail) = rest.split_at(name_len);
    if name.chars().next().is_some_and(|c| c.is_uppercase()) {
        return None;
    }
    let eq = tail.find('=')?;
    let ascription_ok = |c: char| {
        c.is_whitespace() || c.is_alphanumeric() || matches!(c, ':' | '_' | '<' | '>' | '&' | '\'')
    };
    if tail[..eq].contains(|c: char| !ascription_ok(c)) {
        // Type ascriptions pass; anything structural (commas, parens) is a
        // pattern we do not track.
        return None;
    }
    Some((name, tail[eq + 1..].trim_start()))
}

// ---------------------------------------------------------------------------
// Rule: atomic-ordering
// ---------------------------------------------------------------------------

/// `Ordering::Relaxed` on a data-visibility gate field ([`GATE_FIELDS`]). A
/// gate flag publishes *other* data (a quarantine verdict, a loss reason):
/// the writer must `store(…, Release)` after the payload write and readers
/// must `load(Acquire)`, or the payload may not be visible when the flag is.
fn atomic_ordering(f: &FnItem, fl: &FnFlow, report: &mut impl FnMut(&'static str, usize, String)) {
    for gate in GATE_FIELDS {
        // Bindings/closure params that alias the gate field in this fn.
        let mut aliases: BTreeSet<String> = BTreeSet::new();
        for stmt in &fl.stmts {
            let mentions_gate =
                word_in(&stmt.text, gate) || aliases.iter().any(|a| word_in(&stmt.text, a));
            if mentions_gate {
                aliases.extend(bound_idents(&stmt.text));
            }
            if !stmt.text.contains("Relaxed") {
                continue;
            }
            let sq = squeeze(&stmt.text);
            for op in ["load", "store", "swap", "fetch_or", "fetch_and", "fetch_xor"] {
                for (recv, args_at) in atomic_ops(&sq, op) {
                    let relaxed_args = sq[args_at..].contains("Relaxed");
                    let gated = word_in(recv, gate)
                        || aliases.iter().any(|a| receiver_tail(recv) == a.as_str());
                    if relaxed_args && gated {
                        report(
                            "atomic-ordering",
                            stmt.line,
                            format!(
                                "Relaxed `{op}` on data-visibility gate `{gate}` in `{}` — \
                                 publication needs `Release` stores paired with `Acquire` loads",
                                f.name
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Final identifier segment of a receiver chain (`self.a.b` → `b`).
fn receiver_tail(recv: &str) -> &str {
    recv.rsplit(|c: char| !(c.is_alphanumeric() || c == '_')).next().unwrap_or(recv)
}

/// Identifiers bound by a statement's `let` pattern or closure parameter
/// lists — the things through which a gate field can be accessed later.
fn bound_idents(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut grab_pattern_idents = |pat: &str| {
        for tok in pat.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if !tok.is_empty()
                && tok.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                && !matches!(tok, "let" | "mut" | "ref" | "_")
            {
                out.push(tok.to_string());
            }
        }
    };
    if let Some(rest) = text.trim_start().strip_prefix("let ") {
        if let Some(eq) = rest.find('=') {
            grab_pattern_idents(&rest[..eq]);
        }
    }
    // `if let PAT = …` / `while let PAT = …`
    for kw in ["if let ", "while let "] {
        if let Some(pos) = text.find(kw) {
            let rest = &text[pos + kw.len()..];
            if let Some(eq) = rest.find('=') {
                grab_pattern_idents(&rest[..eq]);
            }
        }
    }
    // Closure parameter lists: the text between the first `|…|` pair after a
    // call-ish char. Cheap scan: any `|…|` span without `|` inside.
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'|' && (i == 0 || !matches!(bytes[i - 1], b'|' | b'&')) {
            if let Some(end) = text[i + 1..].find('|') {
                let inner = &text[i + 1..i + 1 + end];
                if inner.len() < 64 && !inner.contains("||") {
                    grab_pattern_idents(inner);
                }
                i += end + 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: guard-across-call
// ---------------------------------------------------------------------------

/// A `MutexGuard` live range must not span a call into [`EXPENSIVE_CALLS`]
/// (page decompression and summing, the parallel scheduler, retrying I/O):
/// every query on the service would serialize behind that lock. The range
/// runs from the `let g = ….lock(…)` to `drop(g)` or the end of the
/// enclosing scope.
fn guard_across_call(
    f: &FnItem,
    fl: &FnFlow,
    report: &mut impl FnMut(&'static str, usize, String),
) {
    for b in &fl.bindings {
        if b.name == "_" || !squeeze(&b.init).contains(".lock(") {
            continue;
        }
        let end = b.live_end();
        for stmt in fl.stmts.iter().filter(|s| s.line > b.line && s.line <= end) {
            let sq = squeeze(&stmt.text);
            for pat in EXPENSIVE_CALLS {
                if let Some(called) = called_pattern(&sq, pat) {
                    report(
                        "guard-across-call",
                        stmt.line,
                        format!(
                            "lock guard `{}` (taken at line {}) in `{}` is still held across \
                             call to `{called}` — drop the guard first or move the call out \
                             of the critical section",
                            b.name, b.line, f.name
                        ),
                    );
                }
            }
        }
    }
}

/// If squeezed `text` calls a function whose name starts with `pat`
/// (word-start match, e.g. `try_decompress` matches
/// `try_decompress_vector_at(…)`), returns the full called name.
fn called_pattern<'a>(text: &'a str, pat: &str) -> Option<&'a str> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(pat) {
        let at = from + pos;
        let word_start = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let mut end = at + pat.len();
        while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
            end += 1;
        }
        if word_start && bytes.get(end) == Some(&b'(') {
            return Some(&text[at..end]);
        }
        from = at + pat.len();
    }
    None
}

/// Whole-word occurrence of `word` in a code line.
fn word_in(code: &str, word: &str) -> bool {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let end = at + word.len();
        let before_ok = at == 0 || !is_ident(code.as_bytes()[at - 1]);
        let after_ok = end >= code.len() || !is_ident(code.as_bytes()[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}
