//! A lightweight item scanner over lexed code lines.
//!
//! Builds just enough structure for the rules: function items with spans,
//! and module nesting (so `#[cfg(test)] mod tests` bodies can be skipped).
//! It is not a parser — it tracks brace depth over comment-free code and
//! pattern-matches item headers, which is exact enough for this workspace's
//! style and is kept honest by the fixture tests.

use crate::lexer::Line;

/// A `fn` item (free function, method, or function generated in a macro body).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the matching close brace.
    pub end_line: usize,
    /// True when any enclosing block is a `#[cfg(test)]` / `mod tests` body.
    pub in_test: bool,
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileInfo {
    /// Lexed per-line code/comment views.
    pub lines: Vec<Line>,
    /// All function items, in source order.
    pub fns: Vec<FnItem>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockKind {
    Fn { item: usize },
    Mod { is_test: bool },
    Other,
}

#[derive(Debug, Clone)]
struct Token {
    text: String,
    line: usize, // 1-based
}

fn tokenize(lines: &[Line]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        let line = idx + 1;
        let chars: Vec<char> = l.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token { text: chars[start..i].iter().collect(), line });
            } else {
                out.push(Token { text: c.to_string(), line });
                i += 1;
            }
        }
    }
    out
}

/// Lexes and scans a source file into items.
pub fn scan_source(src: &str) -> FileInfo {
    let lines = crate::lexer::split_lines(src);
    let tokens = tokenize(&lines);

    let mut fns: Vec<FnItem> = Vec::new();
    let mut stack: Vec<BlockKind> = Vec::new();
    // Tokens accumulated since the last statement/block boundary — the
    // would-be item header for the next `{`.
    let mut pending: Vec<Token> = Vec::new();
    let mut group_depth = 0usize; // () and [] nesting inside the pending run

    let in_test =
        |stack: &[BlockKind]| stack.iter().any(|b| matches!(b, BlockKind::Mod { is_test: true }));

    for t in &tokens {
        match t.text.as_str() {
            "(" | "[" => {
                group_depth += 1;
                pending.push(t.clone());
            }
            ")" | "]" => {
                group_depth = group_depth.saturating_sub(1);
                pending.push(t.clone());
            }
            ";" if group_depth == 0 => pending.clear(),
            "{" => {
                match classify_block(&pending) {
                    PendingKind::Fn { name } => {
                        fns.push(FnItem {
                            name,
                            start_line: pending
                                .iter()
                                .find(|p| p.text == "fn")
                                .map(|p| p.line)
                                .unwrap_or(t.line),
                            end_line: t.line,
                            in_test: in_test(&stack),
                        });
                        stack.push(BlockKind::Fn { item: fns.len() - 1 });
                    }
                    PendingKind::Mod { is_test } => stack.push(BlockKind::Mod { is_test }),
                    PendingKind::Other => stack.push(BlockKind::Other),
                }
                pending.clear();
                group_depth = 0;
            }
            "}" => {
                if let Some(BlockKind::Fn { item }) = stack.pop() {
                    fns[item].end_line = t.line;
                }
                pending.clear();
                group_depth = 0;
            }
            _ => pending.push(t.clone()),
        }
    }

    FileInfo { lines, fns }
}

enum PendingKind {
    Fn { name: String },
    Mod { is_test: bool },
    Other,
}

/// Decides what kind of block an opening brace begins, from the tokens
/// accumulated since the previous boundary.
fn classify_block(pending: &[Token]) -> PendingKind {
    // `fn name(...)` — a `fn` token followed directly by an identifier. This
    // also skips `fn(...)` pointer types, whose next token is `(`.
    for (k, t) in pending.iter().enumerate() {
        if t.text == "fn" {
            if let Some(name_tok) = pending.get(k + 1) {
                if name_tok.text.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
                    return PendingKind::Fn { name: name_tok.text.clone() };
                }
            }
        }
    }
    // `mod name` at the start (possibly after `pub` / attributes).
    let words: Vec<&str> = pending.iter().map(|t| t.text.as_str()).collect();
    for (k, w) in words.iter().enumerate() {
        if *w == "mod" {
            let is_test_name = words.get(k + 1).is_some_and(|n| *n == "tests");
            let has_cfg_test =
                words.windows(3).any(|w3| w3[0] == "cfg" && w3[1] == "(" && w3[2] == "test");
            return PendingKind::Mod { is_test: is_test_name || has_cfg_test };
        }
        // Attribute / visibility tokens may precede `mod`; anything else
        // (match, impl, struct, unsafe, …) makes this a non-mod block.
        if !matches!(*w, "#" | "[" | "]" | "(" | ")" | "pub" | "crate" | "super" | "cfg" | "test") {
            break;
        }
    }
    PendingKind::Other
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_with_spans() {
        let src = "pub fn outer(x: u8) -> Result<u8, ()> {\n    inner();\n}\nfn inner() {\n}\npub(crate) fn hidden() {}\n";
        let info = scan_source(src);
        let names: Vec<&str> = info.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "hidden"]);
        assert_eq!((info.fns[0].start_line, info.fns[0].end_line), (1, 3));
    }

    #[test]
    fn test_modules_are_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}\n";
        let info = scan_source(src);
        assert!(!info.fns[0].in_test);
        assert!(info.fns[1].in_test);
        assert!(info.fns[2].in_test);
    }

    #[test]
    fn array_type_semicolons_do_not_split_items() {
        let src = "pub const M: &[u8; 4] = b\"ALPT\";\nfn f(x: [u64; 16]) -> [u64; 2] {\n}\nconst fn g() -> u8 { 1 }\n";
        let info = scan_source(src);
        let names: Vec<&str> = info.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f", "g"]);
    }
}
