//! A lightweight `fn` item parser over the lexed token stream.
//!
//! `dvicl-lint` stays dependency-free (no `syn`), so this recognizes
//! exactly what `budget-reachability` reads: `fn` items, with
//! code-token spans for the signature and the body. It is *not* a
//! grammar: bodies are brace-matched token ranges and expressions are
//! never interpreted. Two deliberate blind spots keep it honest on real
//! code:
//!
//! - Function *signatures* are skipped after the item is recorded, so
//!   `impl Iterator` in a return position or `fn(usize) -> bool`
//!   pointer types can never be mistaken for items. Every other token
//!   is walked, so fns in modules, impls, trait bodies and other fn
//!   bodies are all found.
//! - `macro_rules!` bodies are skipped wholesale — macro fragments are
//!   pseudo-code no item parser should believe.
//!
//! The engine hands each file's items to the rules through
//! `FileCtx::items`, and finds the end of a test item with the same
//! `body_open` and `matching_brace` the parser uses.

use crate::lexer::{Tok, TokKind};

/// One recognized `fn` item. Spans are *code positions*: indices into
/// the `code` vector of non-comment token indices, matching how the
/// rules iterate token streams.
#[derive(Clone, Debug)]
pub struct Item {
    pub name: String,
    /// Code position of the name token.
    pub name_cp: usize,
    /// Code positions of the body interior — first token after the
    /// opening `{` (inclusive) to the closing `}` (the close position
    /// itself, exclusive as a slice bound). `None` for bodyless trait
    /// methods.
    pub body: Option<(usize, usize)>,
    /// Code positions of the header: `fn` (inclusive) to the body `{`
    /// or terminating `;` (exclusive).
    pub sig: (usize, usize),
    /// The `fn` keyword falls inside a `#[cfg(test)]`/`#[test]` span.
    pub is_test: bool,
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Tok],
    code: &'a [usize],
    test_spans: &'a [(usize, usize)],
}

impl<'a> Parser<'a> {
    fn tok(&self, cp: usize) -> Option<&'a Tok> {
        self.code.get(cp).map(|&i| &self.toks[i])
    }

    fn text(&self, cp: usize) -> &'a str {
        self.tok(cp).map(|t| t.text(self.src)).unwrap_or("")
    }

    fn is_punct(&self, cp: usize, b: u8) -> bool {
        matches!(self.tok(cp), Some(t) if t.kind == TokKind::Punct(b))
    }

    fn is_ident(&self, cp: usize) -> bool {
        matches!(self.tok(cp), Some(t) if t.kind == TokKind::Ident)
    }

    fn in_test(&self, cp: usize) -> bool {
        let Some(t) = self.tok(cp) else { return false };
        self.test_spans
            .iter()
            .any(|&(s, e)| t.start >= s && t.start < e)
    }
}

/// The kind of the code token at code position `cp`.
fn kind_at(toks: &[Tok], code: &[usize], cp: usize) -> Option<TokKind> {
    code.get(cp).map(|&i| toks[i].kind)
}

/// Matching `}` for the `{` at code position `open_cp`.
pub(crate) fn matching_brace(toks: &[Tok], code: &[usize], open_cp: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut cp = open_cp;
    loop {
        match kind_at(toks, code, cp)? {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(cp);
                }
            }
            _ => {}
        }
        cp += 1;
    }
}

/// From code position `cp`, the first `{` or `;` at zero paren/bracket
/// depth, so attributes (`#[...]`) and argument lists are stepped over.
/// Returns `(cp, true)` for a brace, `(cp, false)` for a semi.
pub(crate) fn body_open(toks: &[Tok], code: &[usize], mut cp: usize) -> Option<(usize, bool)> {
    let mut depth = 0i32;
    loop {
        match kind_at(toks, code, cp)? {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'{') if depth == 0 => return Some((cp, true)),
            TokKind::Punct(b';') if depth == 0 => return Some((cp, false)),
            _ => {}
        }
        cp += 1;
    }
}

/// Parses all `fn` items of one lexed file. `code` is the non-comment
/// token index vector, `test_spans` the `#[cfg(test)]` byte spans (both
/// as produced by the engine).
pub fn items(src: &str, toks: &[Tok], code: &[usize], test_spans: &[(usize, usize)]) -> Vec<Item> {
    let p = Parser {
        src,
        toks,
        code,
        test_spans,
    };
    let mut out = Vec::new();
    let mut cp = 0usize;
    while cp < code.len() {
        cp = match p.is_ident(cp).then(|| p.text(cp)) {
            Some("fn") => parse_fn(&p, cp, &mut out),
            Some("macro_rules") => skip_macro_rules(&p, cp),
            _ => cp + 1,
        };
    }
    out
}

fn parse_fn(p: &Parser, cp: usize, out: &mut Vec<Item>) -> usize {
    if !p.is_ident(cp + 1) {
        // `fn` in a type position (`fn(usize) -> bool` pointers).
        return cp + 1;
    }
    let Some((open, is_brace)) = body_open(p.toks, p.code, cp + 2) else {
        return cp + 1;
    };
    // A bodyless trait method ends at its `;`.
    let body = if is_brace {
        let Some(close) = matching_brace(p.toks, p.code, open) else {
            return cp + 1;
        };
        Some((open + 1, close))
    } else {
        None
    };
    out.push(Item {
        name: p.text(cp + 1).to_string(),
        name_cp: cp + 1,
        body,
        sig: (cp, open),
        is_test: p.in_test(cp),
    });
    // Skip the signature (it may contain `impl`/`fn` in type positions)
    // but walk the body so nested fns are found.
    open + 1
}

fn skip_macro_rules(p: &Parser, cp: usize) -> usize {
    if p.is_punct(cp + 1, b'!') && p.is_ident(cp + 2) && p.is_punct(cp + 3, b'{') {
        if let Some(close) = matching_brace(p.toks, p.code, cp + 3) {
            return close + 1;
        }
    }
    cp + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> Vec<Item> {
        let toks = lexer::lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        items(src, &toks, &code, &[])
    }

    fn names(items: &[Item]) -> Vec<&str> {
        items.iter().map(|i| i.name.as_str()).collect()
    }

    #[test]
    fn fns_in_modules_impls_and_trait_bodies() {
        let src = r#"
            pub fn top() { helper(); }
            mod inner {
                pub struct S { pub n: usize }
                impl S {
                    pub fn method(&self) -> usize { self.n }
                }
                impl std::fmt::Display for S {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        write!(f, "{}", self.n)
                    }
                }
            }
            pub trait Visit {
                type Out;
                fn visit(&self) -> Self::Out;
                fn noop(&self) {}
            }
        "#;
        let items = parse(src);
        assert_eq!(names(&items), ["top", "method", "fmt", "visit", "noop"]);
        let bodyless: Vec<&str> = items
            .iter()
            .filter(|i| i.body.is_none())
            .map(|i| i.name.as_str())
            .collect();
        assert_eq!(bodyless, ["visit"], "only the trait method has no body");
    }

    #[test]
    fn fn_and_impl_types_in_signatures_and_fields_are_not_items() {
        let src = r#"
            fn gen(xs: &[u8]) -> impl Iterator<Item = u8> + '_ { xs.iter().copied() }
            fn ptr(f: fn(usize) -> bool) -> bool { f(0) }
            pub struct Table<K> {
                pick: fn(usize) -> bool,
                each: Box<dyn Fn(K) -> usize>,
            }
            struct Pair(fn(u8), u8);
            static HOOK: fn() = after;
            fn after() {}
        "#;
        assert_eq!(names(&parse(src)), ["gen", "ptr", "after"]);
    }

    #[test]
    fn nested_fns_are_found() {
        let src = r#"
            fn outer() {
                fn nested(x: usize) -> usize { x }
                struct Local;
                impl Local { fn m(&self) {} }
                nested(1);
            }
        "#;
        assert_eq!(names(&parse(src)), ["outer", "nested", "m"]);
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = r#"
            macro_rules! weird { () => { fn not_an_item() {} }; }
            fn real() {}
        "#;
        assert_eq!(names(&parse(src)), ["real"]);
    }
}
