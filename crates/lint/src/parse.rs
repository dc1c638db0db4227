//! A lightweight Rust *item* parser over the lexed token stream.
//!
//! `dvicl-lint` stays dependency-free (no `syn`), so this recognizes
//! exactly the item granularity the rules need — `fn`/`impl`/`struct`/
//! `enum`/`static`/`const`/`use`/`mod`/`trait`/`type` — with code-token
//! spans, in-file module paths and enclosing `impl` types. It is *not*
//! a grammar: bodies are brace-matched token ranges and expressions are
//! never interpreted. Two deliberate blind spots keep it honest on real
//! code:
//!
//! - Function *signatures* are skipped after the item is recorded, so
//!   `impl Iterator` in a return position or `fn(usize) -> bool`
//!   pointer types can never be mistaken for items. Function *bodies*
//!   are walked, so nested items (including `impl` blocks in bodies)
//!   are found.
//! - `macro_rules!` bodies are skipped wholesale — macro fragments are
//!   pseudo-code no item parser should believe.
//!
//! Downstream consumers: `symbols` builds the workspace symbol table
//! from these items, and `callgraph` resolves call edges between the
//! `Fn` items.

use crate::lexer::{Tok, TokKind};

/// What kind of item was recognized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Enum,
    Static,
    Const,
    Use,
    Mod,
    Impl,
    Trait,
    TypeAlias,
}

/// One recognized item. Spans are *code positions*: indices into the
/// `code` vector of non-comment token indices, matching how the rules
/// iterate token streams.
#[derive(Clone, Debug)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name (type name for `impl` blocks; `""` for unnamed
    /// targets such as `impl Trait for (A, B)` or grouped `use`).
    pub name: String,
    /// Code position of the introducing keyword.
    pub kw_cp: usize,
    /// Code position of the name token (== `kw_cp` when unnamed).
    pub name_cp: usize,
    /// `Fn` only: code positions of the body interior — first token
    /// after the opening `{` (inclusive) to the closing `}` (the close
    /// position itself, exclusive as a slice bound). `None` for
    /// bodyless trait methods.
    pub body: Option<(usize, usize)>,
    /// Code positions of the header: keyword (inclusive) to the body
    /// `{` or terminating `;` (exclusive).
    pub sig: (usize, usize),
    /// `::`-joined in-file module path (`""` at file top level; test
    /// modules included — pair with [`Item::is_test`]).
    pub module: String,
    /// For items inside an `impl` block: the target type name.
    pub impl_type: Option<String>,
    /// The keyword falls inside a `#[cfg(test)]`/`#[test]` span.
    pub is_test: bool,
}

/// Lexical scopes the walker tracks while scanning.
enum ScopeKind {
    Module(String),
    Impl(String),
}

struct Scope {
    /// Code position of the scope's closing `}`.
    close_cp: usize,
    kind: ScopeKind,
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
        self.test_spans.iter().any(|&(s, e)| t.start >= s && t.start < e)
    }

    /// Matching `}` for the `{` at `open_cp`.
    fn matching_brace(&self, open_cp: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut cp = open_cp;
        loop {
            match self.tok(cp)?.kind {
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

    /// From `cp`, the first `{` or `;` at zero paren/bracket depth.
    /// Returns `(cp, true)` for a brace, `(cp, false)` for a semi.
    fn body_open(&self, mut cp: usize) -> Option<(usize, bool)> {
        let mut depth = 0i32;
        loop {
            match self.tok(cp)?.kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                TokKind::Punct(b'{') if depth == 0 => return Some((cp, true)),
                TokKind::Punct(b';') if depth == 0 => return Some((cp, false)),
                _ => {}
            }
            cp += 1;
        }
    }

    /// From `cp`, the first position whose token is one of `stops` at
    /// zero paren/bracket/brace/angle depth. `->` does not close an
    /// angle bracket. Used to find the end of type positions and
    /// initializers, where `<`/`>` are always generics.
    fn scan_to(&self, mut cp: usize, stops: &[u8]) -> Option<usize> {
        let mut depth = 0i32;
        let mut angle = 0i32;
        loop {
            let t = self.tok(cp)?;
            match t.kind {
                TokKind::Punct(b) if depth == 0 && angle == 0 && stops.contains(&b) => {
                    return Some(cp)
                }
                TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => depth -= 1,
                TokKind::Punct(b'<') if depth == 0 => angle += 1,
                // `->` is an arrow, not a generic close.
                TokKind::Punct(b'>')
                    if depth == 0 && angle > 0 && !(cp > 0 && self.is_punct(cp - 1, b'-')) =>
                {
                    angle -= 1;
                }
                _ => {}
            }
            cp += 1;
        }
    }

    fn module_path(&self, scopes: &[Scope]) -> String {
        let names: Vec<&str> = scopes
            .iter()
            .filter_map(|s| match &s.kind {
                ScopeKind::Module(m) => Some(m.as_str()),
                _ => None,
            })
            .collect();
        names.join("::")
    }

    fn impl_type(&self, scopes: &[Scope]) -> Option<String> {
        scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Impl(t) if !t.is_empty() => Some(t.clone()),
            _ => None,
        })
    }

    fn item(&self, kind: ItemKind, kw_cp: usize, name_cp: usize, scopes: &[Scope]) -> Item {
        Item {
            kind,
            name: if self.is_ident(name_cp) && name_cp != kw_cp {
                self.text(name_cp).to_string()
            } else {
                String::new()
            },
            kw_cp,
            name_cp,
            body: None,
            sig: (kw_cp, kw_cp),
            module: self.module_path(scopes),
            impl_type: self.impl_type(scopes),
            is_test: self.in_test(kw_cp),
        }
    }
}

/// Parses all items of one lexed file. `code` is the non-comment token
/// index vector, `test_spans` the `#[cfg(test)]` byte spans (both as
/// produced by the engine).
pub fn items(src: &str, toks: &[Tok], code: &[usize], test_spans: &[(usize, usize)]) -> Vec<Item> {
    let p = Parser {
        src,
        toks,
        code,
        test_spans,
    };
    let mut out = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut cp = 0usize;
    while cp < code.len() {
        while scopes.last().is_some_and(|s| s.close_cp <= cp) {
            scopes.pop();
        }
        if !p.is_ident(cp) {
            cp += 1;
            continue;
        }
        cp = match p.text(cp) {
            "mod" => parse_mod(&p, cp, &mut scopes, &mut out),
            "impl" => parse_impl(&p, cp, &mut scopes, &mut out),
            "fn" => parse_fn(&p, cp, &scopes, &mut out),
            "struct" => parse_struct(&p, cp, &scopes, &mut out),
            "enum" => parse_enum(&p, cp, &scopes, &mut out),
            "static" => parse_static(&p, cp, ItemKind::Static, &scopes, &mut out),
            "const" => parse_const(&p, cp, &scopes, &mut out),
            "use" => parse_use(&p, cp, &scopes, &mut out),
            "trait" => parse_trait(&p, cp, &scopes, &mut out),
            "type" => parse_type_alias(&p, cp, &scopes, &mut out),
            "macro_rules" => skip_macro_rules(&p, cp),
            _ => cp + 1,
        };
    }
    out
}

fn parse_mod(p: &Parser, cp: usize, scopes: &mut Vec<Scope>, out: &mut Vec<Item>) -> usize {
    if !p.is_ident(cp + 1) {
        return cp + 1;
    }
    let mut item = p.item(ItemKind::Mod, cp, cp + 1, scopes);
    if p.is_punct(cp + 2, b'{') {
        let Some(close) = p.matching_brace(cp + 2) else { return cp + 1 };
        item.sig = (cp, cp + 2);
        scopes.push(Scope {
            close_cp: close,
            kind: ScopeKind::Module(item.name.clone()),
        });
        out.push(item);
        cp + 3
    } else {
        // `mod name;` — an out-of-line module; nothing to descend into.
        item.sig = (cp, cp + 2);
        out.push(item);
        cp + 2
    }
}

fn parse_impl(p: &Parser, cp: usize, scopes: &mut Vec<Scope>, out: &mut Vec<Item>) -> usize {
    let Some((open, is_brace)) = p.body_open(cp + 1) else { return cp + 1 };
    if !is_brace {
        return open + 1;
    }
    let Some(close) = p.matching_brace(open) else { return cp + 1 };
    // Header: skip leading generics, then the target type is the path
    // after `for` (trait impls) or right after the generics (inherent).
    let mut k = cp + 1;
    if p.is_punct(k, b'<') {
        let mut angle = 0i32;
        while k < open {
            if p.is_punct(k, b'<') {
                angle += 1;
            } else if p.is_punct(k, b'>') && !(k > 0 && p.is_punct(k - 1, b'-')) {
                angle -= 1;
                if angle == 0 {
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
    }
    // A `for` at angle depth 0 inside the header switches to the
    // trait-impl form; the target follows it.
    let mut angle = 0i32;
    let mut for_cp = None;
    for j in k..open {
        if p.is_punct(j, b'<') {
            angle += 1;
        } else if p.is_punct(j, b'>') && !(j > 0 && p.is_punct(j - 1, b'-')) {
            angle = (angle - 1).max(0);
        } else if angle == 0 && p.is_ident(j) && p.text(j) == "for" {
            for_cp = Some(j);
            break;
        }
    }
    let mut t = for_cp.map_or(k, |f| f + 1);
    // Skip reference/pointer/dyn prefixes, then take the last segment
    // of the leading path.
    while t < open {
        match p.tok(t).map(|x| x.kind) {
            Some(TokKind::Punct(b'&')) | Some(TokKind::Punct(b'*')) | Some(TokKind::Lifetime) => {
                t += 1
            }
            Some(TokKind::Ident) if matches!(p.text(t), "dyn" | "mut" | "const") => t += 1,
            _ => break,
        }
    }
    let mut name_cp = cp;
    while t < open && p.is_ident(t) {
        name_cp = t;
        if p.is_punct(t + 1, b':') && p.is_punct(t + 2, b':') && p.is_ident(t + 3) {
            t += 3;
        } else {
            break;
        }
    }
    let mut item = p.item(ItemKind::Impl, cp, name_cp, scopes);
    item.sig = (cp, open);
    scopes.push(Scope {
        close_cp: close,
        kind: ScopeKind::Impl(item.name.clone()),
    });
    out.push(item);
    open + 1
}

fn parse_fn(p: &Parser, cp: usize, scopes: &[Scope], out: &mut Vec<Item>) -> usize {
    if !p.is_ident(cp + 1) {
        // `fn` in a type position (`fn(usize) -> bool` pointers).
        return cp + 1;
    }
    let Some((open, is_brace)) = p.body_open(cp + 2) else { return cp + 1 };
    let mut item = p.item(ItemKind::Fn, cp, cp + 1, scopes);
    item.sig = (cp, open);
    if !is_brace {
        // Bodyless trait method.
        out.push(item);
        return open + 1;
    }
    let Some(close) = p.matching_brace(open) else { return cp + 1 };
    item.body = Some((open + 1, close));
    out.push(item);
    // Skip the signature (it may contain `impl`/`fn` in type positions)
    // but walk the body so nested items are found.
    open + 1
}

fn parse_struct(p: &Parser, cp: usize, scopes: &[Scope], out: &mut Vec<Item>) -> usize {
    if !p.is_ident(cp + 1) {
        return cp + 1;
    }
    let mut item = p.item(ItemKind::Struct, cp, cp + 1, scopes);
    let Some(start) = p.scan_to(cp + 2, b"{(;") else { return cp + 1 };
    item.sig = (cp, start);
    out.push(item);
    if p.is_punct(start, b';') {
        return start + 1;
    }
    if p.is_punct(start, b'(') {
        // Tuple struct: skip the field types and the closing `;`.
        let Some(close) = p.scan_to(start + 1, b")") else { return cp + 1 };
        let Some(semi) = p.scan_to(close + 1, b";") else { return close + 1 };
        return semi + 1;
    }
    // Named fields hold no items: skip the whole body.
    p.matching_brace(start).map_or(cp + 1, |close| close + 1)
}

fn parse_enum(p: &Parser, cp: usize, scopes: &[Scope], out: &mut Vec<Item>) -> usize {
    if !p.is_ident(cp + 1) {
        return cp + 1;
    }
    let mut item = p.item(ItemKind::Enum, cp, cp + 1, scopes);
    let Some(open) = p.scan_to(cp + 2, b"{;") else { return cp + 1 };
    item.sig = (cp, open);
    out.push(item);
    if p.is_punct(open, b';') {
        return open + 1;
    }
    // Variants hold no items: skip the whole body.
    p.matching_brace(open).map_or(cp + 1, |close| close + 1)
}

fn parse_static(
    p: &Parser,
    cp: usize,
    kind: ItemKind,
    scopes: &[Scope],
    out: &mut Vec<Item>,
) -> usize {
    let mut k = cp + 1;
    if p.is_ident(k) && p.text(k) == "mut" {
        k += 1;
    }
    if !p.is_ident(k) || !p.is_punct(k + 1, b':') {
        return cp + 1;
    }
    let mut item = p.item(kind, cp, k, scopes);
    let end = p.scan_to(k + 2, b"=;").unwrap_or(k + 2);
    item.sig = (cp, end);
    out.push(item);
    // Skip the initializer (it may contain braces).
    p.scan_to(end, b";").map_or(end + 1, |s| s + 1)
}

fn parse_const(p: &Parser, cp: usize, scopes: &[Scope], out: &mut Vec<Item>) -> usize {
    // `const fn` is handled by the `fn` keyword; `const { … }` blocks
    // and `*const` pointers are not items.
    if p.is_ident(cp + 1) && p.is_punct(cp + 2, b':') {
        return parse_static(p, cp, ItemKind::Const, scopes, out);
    }
    cp + 1
}

fn parse_use(p: &Parser, cp: usize, scopes: &[Scope], out: &mut Vec<Item>) -> usize {
    let Some(semi) = p.scan_to(cp + 1, b";") else { return cp + 1 };
    let mut name_cp = cp;
    for j in (cp + 1..semi).rev() {
        if p.is_ident(j) {
            name_cp = j;
            break;
        }
    }
    let mut item = p.item(ItemKind::Use, cp, name_cp, scopes);
    item.sig = (cp, semi);
    out.push(item);
    semi + 1
}

fn parse_trait(p: &Parser, cp: usize, scopes: &[Scope], out: &mut Vec<Item>) -> usize {
    if !p.is_ident(cp + 1) {
        return cp + 1;
    }
    let mut item = p.item(ItemKind::Trait, cp, cp + 1, scopes);
    let Some(open) = p.scan_to(cp + 2, b"{;") else { return cp + 1 };
    item.sig = (cp, open);
    out.push(item);
    // Walk the body (default methods are real fns); no scope change.
    open + 1
}

fn parse_type_alias(p: &Parser, cp: usize, scopes: &[Scope], out: &mut Vec<Item>) -> usize {
    if !p.is_ident(cp + 1) {
        return cp + 1;
    }
    let mut item = p.item(ItemKind::TypeAlias, cp, cp + 1, scopes);
    let Some(semi) = p.scan_to(cp + 2, b";") else { return cp + 1 };
    item.sig = (cp, semi);
    out.push(item);
    semi + 1
}

fn skip_macro_rules(p: &Parser, cp: usize) -> usize {
    if p.is_punct(cp + 1, b'!') && p.is_ident(cp + 2) && p.is_punct(cp + 3, b'{') {
        if let Some(close) = p.matching_brace(cp + 3) {
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

    fn find<'a>(items: &'a [Item], kind: ItemKind, name: &str) -> &'a Item {
        items
            .iter()
            .find(|i| i.kind == kind && i.name == name)
            .unwrap_or_else(|| panic!("no {kind:?} named {name} in {items:?}"))
    }

    #[test]
    fn fns_with_modules_and_impls() {
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
        "#;
        let items = parse(src);
        let top = find(&items, ItemKind::Fn, "top");
        assert_eq!(top.module, "");
        assert!(top.impl_type.is_none());
        assert!(top.body.is_some());
        let method = find(&items, ItemKind::Fn, "method");
        assert_eq!(method.module, "inner");
        assert_eq!(method.impl_type.as_deref(), Some("S"));
        let fmt = find(&items, ItemKind::Fn, "fmt");
        assert_eq!(fmt.impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn impl_in_signature_position_is_not_a_scope() {
        let src = r#"
            fn gen(xs: &[u8]) -> impl Iterator<Item = u8> + '_ { xs.iter().copied() }
            fn ptr(f: fn(usize) -> bool) -> bool { f(0) }
            fn after() {}
        "#;
        let items = parse(src);
        assert_eq!(items.iter().filter(|i| i.kind == ItemKind::Impl).count(), 0);
        let after = find(&items, ItemKind::Fn, "after");
        assert!(after.impl_type.is_none());
        assert_eq!(items.iter().filter(|i| i.kind == ItemKind::Fn).count(), 3);
    }

    #[test]
    fn nested_fns_and_body_impls_are_found() {
        let src = r#"
            fn outer() {
                fn nested(x: usize) -> usize { x }
                struct Local;
                impl Local { fn m(&self) {} }
                nested(1);
            }
        "#;
        let items = parse(src);
        assert!(items.iter().any(|i| i.kind == ItemKind::Fn && i.name == "nested"));
        let m = find(&items, ItemKind::Fn, "m");
        assert_eq!(m.impl_type.as_deref(), Some("Local"));
    }

    #[test]
    fn struct_and_enum_bodies_hold_no_items() {
        let src = r#"
            pub struct Table<K, V> {
                pub map: HashMap<K, Vec<(V, usize)>>,
                pick: fn(usize) -> bool,
            }
            struct Pair(pub u32, Vec<u8>);
            struct Unit;
            pub enum Counter {
                RefineRounds,
                Custom(String, usize),
                Rich { a: u8 },
            }
            fn after() {}
        "#;
        let items = parse(src);
        let kinds: Vec<(ItemKind, &str)> = items.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(
            kinds,
            [
                (ItemKind::Struct, "Table"),
                (ItemKind::Struct, "Pair"),
                (ItemKind::Struct, "Unit"),
                (ItemKind::Enum, "Counter"),
                (ItemKind::Fn, "after"),
            ]
        );
    }

    #[test]
    fn statics_and_consts() {
        let src = r#"
            static mut GLOBAL: usize = 0;
            pub const LIMIT: u32 = 10;
            thread_local! {
                static STACK: RefCell<Vec<u8>> = RefCell::new(Vec::new());
            }
            static PLAIN: AtomicU64 = AtomicU64::new(0);
        "#;
        let items = parse(src);
        for name in ["GLOBAL", "STACK", "PLAIN"] {
            find(&items, ItemKind::Static, name);
        }
        find(&items, ItemKind::Const, "LIMIT");
    }

    #[test]
    fn traits_aliases_uses_and_macro_rules() {
        let src = r#"
            use std::collections::HashMap;
            pub trait Visit {
                type Out;
                fn visit(&self) -> Self::Out;
                fn noop(&self) {}
            }
            type Alias = HashMap<u8, u8>;
            macro_rules! weird { () => { fn not_an_item() {} }; }
            fn real() {}
        "#;
        let items = parse(src);
        assert!(items.iter().any(|i| i.kind == ItemKind::Use));
        find(&items, ItemKind::Trait, "Visit");
        let fns: Vec<&str> = items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| i.name.as_str())
            .collect();
        assert_eq!(fns, ["visit", "noop", "real"], "macro body must be skipped");
        assert!(find(&items, ItemKind::Fn, "visit").body.is_none());
        assert!(find(&items, ItemKind::Fn, "noop").body.is_some());
        find(&items, ItemKind::TypeAlias, "Alias");
    }

    #[test]
    fn impl_header_forms() {
        let src = r#"
            struct A; struct B<T>(T);
            impl A { fn a(&self) {} }
            impl<T: Clone> B<T> { fn b(&self) {} }
            impl<T> Default for B<T> where T: Default {
                fn default() -> Self { B(T::default()) }
            }
            impl Iterator for A {
                type Item = u8;
                fn next(&mut self) -> Option<u8> { None }
            }
        "#;
        let items = parse(src);
        assert_eq!(find(&items, ItemKind::Fn, "a").impl_type.as_deref(), Some("A"));
        assert_eq!(find(&items, ItemKind::Fn, "b").impl_type.as_deref(), Some("B"));
        assert_eq!(find(&items, ItemKind::Fn, "default").impl_type.as_deref(), Some("B"));
        assert_eq!(find(&items, ItemKind::Fn, "next").impl_type.as_deref(), Some("A"));
    }
}
