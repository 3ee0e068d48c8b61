//! Brace-scoped data-flow facts for one function body.
//!
//! The concurrency rules need more than per-line token matches: a
//! `MutexGuard`'s *live range* spans from its `let` to the end of the
//! enclosing brace scope (or an explicit `drop`), and an atomic load's result
//! *feeds* a store three statements later through intermediate bindings.
//! This module rebuilds exactly that much structure from the lexed code lines
//! of a single [`FnItem`]:
//!
//! * **statements** — code joined across physical lines, split at top-level
//!   `;` and at `{`/`}` boundaries (a block header like `while cond` or
//!   `let x = if c` becomes its own statement, which is all the rules need);
//! * **bindings** — `let name = init` with the binding's scope-end line and
//!   any explicit `drop(name)` line; destructuring patterns (`let Some(x)`,
//!   `let (a, b)`) are conservatively skipped.
//!
//! Like the item scanner this is not a parser: it tracks depth over
//! comment-free, literal-blanked code and is kept honest by fixtures.

use crate::lexer::Line;
use crate::parse::FnItem;

/// One statement: its normalized code text and the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement code with runs of whitespace collapsed to single spaces.
    pub text: String,
    /// 1-based line of the statement's first code token.
    pub line: usize,
}

/// A `let` binding and its live range.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound name (simple identifier patterns only).
    pub name: String,
    /// Initializer text (the statement after `=`), whitespace-collapsed.
    pub init: String,
    /// 1-based line of the `let`.
    pub line: usize,
    /// 1-based line where the enclosing brace scope closes.
    pub scope_end: usize,
    /// 1-based line of an explicit `drop(name)` in the same function, if any.
    pub dropped_at: Option<usize>,
}

impl Binding {
    /// Last line on which the binding is considered live: its explicit
    /// `drop`, or the end of its scope.
    pub fn live_end(&self) -> usize {
        self.dropped_at.unwrap_or(self.scope_end)
    }
}

/// Everything the rules need to know about one function body.
#[derive(Debug, Default)]
pub struct FnFlow {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// `let` bindings with live ranges.
    pub bindings: Vec<Binding>,
}

/// Is `c` part of an identifier?
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Collapses whitespace runs to single spaces and trims.
fn squeeze(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_ws = true;
    for c in s.chars() {
        if c.is_whitespace() {
            if !in_ws {
                out.push(' ');
            }
            in_ws = true;
        } else {
            out.push(c);
            in_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Scans the body of `f` (using the whole file's lexed `lines`) into
/// statements and bindings.
pub fn scan_fn(lines: &[Line], f: &FnItem) -> FnFlow {
    let mut flow = FnFlow::default();
    // Open brace scopes, each with the indices of the bindings declared
    // inside it.
    let mut scopes: Vec<Vec<usize>> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    let mut group_depth = 0usize; // () and [] nesting

    let finish_stmt = |flow: &mut FnFlow, scopes: &mut [Vec<usize>], text: &str, line: usize| {
        let text = squeeze(text);
        if text.is_empty() {
            return;
        }
        if let Some(b) = parse_let(&text, line) {
            if let Some(scope) = scopes.last_mut() {
                scope.push(flow.bindings.len());
            }
            flow.bindings.push(b);
        }
        flow.stmts.push(Stmt { text, line });
    };

    let start = f.start_line.max(1);
    let end = f.end_line.min(lines.len());
    // Depth of scopes *outside* the function: braces before `body_start`'s
    // opening one belong to enclosing items and are not tracked.
    let mut entered = false;
    for line_no in start..=end {
        let code: &str = &lines[line_no - 1].code;
        for c in code.chars() {
            match c {
                '(' | '[' => {
                    group_depth += 1;
                    pending.push(c);
                }
                ')' | ']' => {
                    group_depth = group_depth.saturating_sub(1);
                    pending.push(c);
                }
                ';' if group_depth == 0 => {
                    finish_stmt(&mut flow, &mut scopes, &pending, pending_line);
                    pending.clear();
                }
                '{' => {
                    // The text before the first `{` is the fn signature, not
                    // a statement.
                    if entered {
                        finish_stmt(&mut flow, &mut scopes, &pending, pending_line);
                    }
                    pending.clear();
                    group_depth = 0;
                    scopes.push(Vec::new());
                    entered = true;
                }
                '}' => {
                    finish_stmt(&mut flow, &mut scopes, &pending, pending_line);
                    pending.clear();
                    group_depth = 0;
                    for bi in scopes.pop().unwrap_or_default() {
                        flow.bindings[bi].scope_end = line_no;
                    }
                }
                _ => {
                    if pending.trim().is_empty() && !c.is_whitespace() {
                        pending_line = line_no;
                    }
                    pending.push(c);
                }
            }
        }
        pending.push('\n');
    }
    // Unclosed scopes (the fn's own end brace was consumed above, so this
    // only happens on truncated input): close them at the last line.
    for bi in scopes.into_iter().flatten() {
        flow.bindings[bi].scope_end = end;
    }

    // Explicit drops: `drop ( name )`.
    for stmt in &flow.stmts {
        let sq: String = stmt.text.chars().filter(|c| !c.is_whitespace()).collect();
        if let Some(rest) = sq.strip_prefix("drop(") {
            if let Some(name) = rest.strip_suffix(')') {
                for b in flow.bindings.iter_mut() {
                    if b.name == name && b.line <= stmt.line && b.dropped_at.is_none() {
                        b.dropped_at = Some(stmt.line);
                    }
                }
            }
        }
    }
    flow
}

/// Parses `let [mut] name = init` from a squeezed statement. Destructuring
/// patterns and `let`s without initializers produce no binding.
fn parse_let(text: &str, line: usize) -> Option<Binding> {
    let rest = text.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_uppercase()) {
        return None; // `let Some(x)` / `let (a, b)` — pattern, not a binding
    }
    let after = rest[name.len()..].trim_start();
    // Skip a type ascription conservatively: find the first top-level `=`
    // (not `==`, `=>`, `<=`, `>=`, `!=`).
    let bytes = after.as_bytes();
    let mut i = 0;
    let mut eq = None;
    while i < bytes.len() {
        if bytes[i] == b'='
            && bytes.get(i + 1) != Some(&b'=')
            && bytes.get(i + 1) != Some(&b'>')
            && (i == 0 || !matches!(bytes[i - 1], b'=' | b'<' | b'>' | b'!'))
        {
            eq = Some(i);
            break;
        }
        i += 1;
    }
    let init = match eq {
        Some(i) => after[i + 1..].trim().to_string(),
        None => return None, // `let x;` — no initializer to track
    };
    Some(Binding { name, init, line, scope_end: line, dropped_at: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::scan_source;

    fn flow_of(src: &str) -> FnFlow {
        let info = scan_source(src);
        assert!(!info.fns.is_empty(), "no fn found in test source");
        scan_fn(&info.lines, &info.fns[0])
    }

    #[test]
    fn bindings_get_scope_ends_and_drops() {
        let src = "fn f() {\n    let a = x.lock();\n    {\n        let b = y();\n    }\n    drop(a);\n    other();\n}\n";
        let flow = flow_of(src);
        let a = flow.bindings.iter().find(|b| b.name == "a").unwrap();
        let b = flow.bindings.iter().find(|b| b.name == "b").unwrap();
        assert_eq!(a.scope_end, 8);
        assert_eq!(a.dropped_at, Some(6));
        assert_eq!(a.live_end(), 6);
        assert_eq!(b.scope_end, 5);
        assert_eq!(b.dropped_at, None);
    }

    #[test]
    fn destructuring_lets_are_skipped() {
        let src = "fn f() {\n    let Some(m) = q.claim() else { return };\n    let (a, b) = pair();\n    let real = 1;\n}\n";
        let flow = flow_of(src);
        let names: Vec<&str> = flow.bindings.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn statements_split_on_semicolons_not_array_types() {
        let src = "fn f() {\n    let a: [u8; 4] = g();\n    h(a,\n      b);\n}\n";
        let flow = flow_of(src);
        let texts: Vec<&str> = flow.stmts.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(texts.len(), 2, "{texts:?}");
        assert!(texts[0].starts_with("let a"));
        assert!(texts[1].contains("h(a, b)"));
        assert_eq!(flow.stmts[1].line, 3);
    }

    #[test]
    fn block_headers_become_statements() {
        let src = "fn f(&self) {\n    let old = self.a.load(O);\n    let next = if old == 0 {\n        n\n    } else {\n        old / 8\n    };\n    self.a.store(next, O);\n}\n";
        let flow = flow_of(src);
        let next = flow.bindings.iter().find(|b| b.name == "next").unwrap();
        assert!(next.init.contains("if old == 0"), "{:?}", next.init);
        assert!(flow.stmts.iter().any(|s| s.text.contains("self.a.store(next")));
    }
}
