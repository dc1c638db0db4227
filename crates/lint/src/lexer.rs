//! A hand-rolled Rust lexer, just deep enough for static invariant
//! checking.
//!
//! The workspace must keep building offline, so this deliberately does
//! not use `syn` or any other parser crate. The lexer's one job is to
//! classify every byte of a `.rs` source file so that rule matchers can
//! operate on *code* tokens and never be fooled by text inside:
//!
//! - line comments (`// ...`) and **nested** block comments
//!   (`/* /* */ */`),
//! - string literals, including raw strings `r#"…"#` with any number of
//!   hashes, byte strings `b"…"`/`br#"…"#`, and escape sequences,
//! - char literals vs lifetimes (`'a'` is a char, `'a` in `&'a T` is a
//!   lifetime),
//! - raw identifiers (`r#fn`).
//!
//! Comments are kept as tokens (not discarded) because the suppression
//! machinery parses `// dvicl-lint: allow(...)` pragmas out of them.
//!
//! Everything is byte-oriented; multi-byte UTF-8 only ever appears
//! inside comments, strings, and char literals, all of which are
//! consumed as opaque runs. Columns are therefore 1-based *byte*
//! offsets within the line, which is what editors and CI annotations
//! expect for ASCII-dominated source.

/// What a token is. `Ident` covers keywords too — the lexer does not
/// maintain a keyword table; rules match on the identifier text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers like `r#fn`).
    Ident,
    /// A lifetime such as `'a` or `'static` (tick included in the span).
    Lifetime,
    /// A char or byte-char literal: `'x'`, `'\n'`, `b'0'`.
    CharLit,
    /// A string literal of any flavor: `"…"`, `r"…"`, `r#"…"#`, `b"…"`.
    StrLit,
    /// A numeric literal (integers, floats, hex/octal/binary, suffixes).
    NumLit,
    /// A single punctuation byte (`{`, `>`, `!`, ...). Multi-byte
    /// operators arrive as consecutive `Punct` tokens.
    Punct(u8),
    /// A `// ...` comment, newline excluded.
    LineComment,
    /// A `/* ... */` comment, nesting handled, delimiters included.
    BlockComment,
}

/// One lexed token: kind plus byte span plus 1-based line/column of its
/// first byte.
#[derive(Clone, Copy, Debug)]
pub struct Tok {
    pub kind: TokKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte, exclusive.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte within its line.
    pub col: u32,
}

impl Tok {
    /// The token's text within `src` (the source it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

struct Cursor<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.i + ahead).copied()
    }

    /// Advances one byte, maintaining line/column counters.
    fn bump(&mut self) {
        if let Some(&b) = self.src.get(self.i) {
            self.i += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consumes bytes while `pred` holds.
    fn eat_while(&mut self, pred: impl Fn(u8) -> bool) {
        while let Some(b) = self.peek(0) {
            if pred(b) {
                self.bump();
            } else {
                break;
            }
        }
    }
}

/// Lexes `src` into a token stream. Never fails: unterminated literals
/// and comments are consumed to end-of-file, which is the useful
/// behavior for a linter (the compiler will report the real error).
pub fn lex(src: &str) -> Vec<Tok> {
    let mut c = Cursor {
        src: src.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(b) = c.peek(0) {
        let (start, line, col) = (c.i, c.line, c.col);
        let kind = match b {
            b if b.is_ascii_whitespace() => {
                c.bump();
                continue;
            }
            b'/' if c.peek(1) == Some(b'/') => {
                c.eat_while(|b| b != b'\n');
                TokKind::LineComment
            }
            b'/' if c.peek(1) == Some(b'*') => {
                lex_block_comment(&mut c);
                TokKind::BlockComment
            }
            b'"' => {
                lex_string(&mut c);
                TokKind::StrLit
            }
            b'\'' => lex_tick(&mut c),
            b'r' | b'b' => match lex_prefixed(&mut c) {
                Some(kind) => kind,
                None => {
                    c.eat_while(is_ident_continue);
                    TokKind::Ident
                }
            },
            b if is_ident_start(b) => {
                c.eat_while(is_ident_continue);
                TokKind::Ident
            }
            b if b.is_ascii_digit() => {
                lex_number(&mut c);
                TokKind::NumLit
            }
            b => {
                c.bump();
                TokKind::Punct(b)
            }
        };
        out.push(Tok {
            kind,
            start,
            end: c.i,
            line,
            col,
        });
    }
    out
}

/// Consumes a possibly-nested `/* ... */` comment (cursor on the `/`).
fn lex_block_comment(c: &mut Cursor) {
    c.bump_n(2); // "/*"
    let mut depth = 1usize;
    while depth > 0 {
        match (c.peek(0), c.peek(1)) {
            (Some(b'/'), Some(b'*')) => {
                depth += 1;
                c.bump_n(2);
            }
            (Some(b'*'), Some(b'/')) => {
                depth -= 1;
                c.bump_n(2);
            }
            (Some(_), _) => c.bump(),
            (None, _) => break, // unterminated: swallow to EOF
        }
    }
}

/// Consumes a `"..."` string with escapes (cursor on the opening quote).
fn lex_string(c: &mut Cursor) {
    c.bump(); // opening quote
    while let Some(b) = c.peek(0) {
        match b {
            b'\\' => c.bump_n(2),
            b'"' => {
                c.bump();
                return;
            }
            _ => c.bump(),
        }
    }
}

/// Disambiguates `'` — char literal vs lifetime (cursor on the tick).
///
/// `'a'` and `'\n'` are chars; `'a` followed by anything but a closing
/// tick is a lifetime (`'static`, `'_`). The decisive look-ahead: after
/// `'x` where `x` starts an identifier, it is a char literal iff the
/// next byte is `'`.
fn lex_tick(c: &mut Cursor) -> TokKind {
    match c.peek(1) {
        Some(b'\\') => {
            // Escaped char literal: consume tick, backslash-escape, then
            // scan to the closing tick (covers '\u{1F600}' too).
            c.bump_n(3);
            c.eat_while(|b| b != b'\'');
            c.bump();
            TokKind::CharLit
        }
        Some(b) if is_ident_start(b) && c.peek(2) != Some(b'\'') => {
            // Lifetime: tick + identifier, no closing tick.
            c.bump();
            c.eat_while(is_ident_continue);
            TokKind::Lifetime
        }
        _ => {
            // Char literal, possibly multi-byte UTF-8: scan to the tick.
            c.bump();
            c.eat_while(|b| b != b'\'');
            c.bump();
            TokKind::CharLit
        }
    }
}

/// Handles `r`/`b` prefixes: raw strings `r"…"`/`r#"…"#`, byte strings
/// `b"…"`/`br#"…"#`, byte chars `b'…'`, and raw identifiers `r#fn`.
/// Returns `None` when the token is a plain identifier starting with
/// `r`/`b` (cursor untouched in that case).
fn lex_prefixed(c: &mut Cursor) -> Option<TokKind> {
    let first = c.peek(0)?;
    // Length of the alphabetic prefix to inspect past: `r`, `b`, `br`.
    let plen = if first == b'b' && c.peek(1) == Some(b'r') {
        2
    } else {
        1
    };
    // Count hashes after the prefix.
    let mut hashes = 0usize;
    while c.peek(plen + hashes) == Some(b'#') {
        hashes += 1;
    }
    match c.peek(plen + hashes) {
        Some(b'"') if first == b'r' || plen == 2 || hashes == 0 => {
            // r"…" r#"…"# b"…" br#"…"# — raw iff prefix has `r`.
            let raw = first == b'r' || plen == 2;
            c.bump_n(plen + hashes + 1);
            if raw {
                lex_raw_string_tail(c, hashes);
            } else {
                // b"…": ordinary escapes apply. Rewind is impossible, so
                // scan from here exactly like lex_string's loop.
                while let Some(b) = c.peek(0) {
                    match b {
                        b'\\' => c.bump_n(2),
                        b'"' => {
                            c.bump();
                            break;
                        }
                        _ => c.bump(),
                    }
                }
            }
            Some(TokKind::StrLit)
        }
        Some(b'\'') if first == b'b' && plen == 1 && hashes == 0 => {
            // b'…' byte char.
            c.bump();
            lex_tick(c);
            Some(TokKind::CharLit)
        }
        Some(b) if first == b'r' && plen == 1 && hashes == 1 && is_ident_start(b) => {
            // Raw identifier r#fn.
            c.bump_n(2);
            c.eat_while(is_ident_continue);
            Some(TokKind::Ident)
        }
        _ => None,
    }
}

/// Consumes the body of a raw string after the opening quote: scans for
/// `"` followed by `hashes` `#` bytes.
fn lex_raw_string_tail(c: &mut Cursor, hashes: usize) {
    while let Some(b) = c.peek(0) {
        if b == b'"' {
            let mut ok = true;
            for k in 0..hashes {
                if c.peek(1 + k) != Some(b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                c.bump_n(1 + hashes);
                return;
            }
        }
        c.bump();
    }
}

/// Consumes a numeric literal (cursor on the first digit). Handles
/// `0x…`/`0b…`/`0o…`, `_` separators, type suffixes, floats, and signed
/// exponents with or without a fractional part (`1e-9`, `2.5E+3`) —
/// while refusing to swallow the `..` of a range like `0..n`.
fn lex_number(c: &mut Cursor) {
    let start = c.i;
    c.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
    // Hex/binary/octal literals have no exponent: `0xAE-1` is a
    // subtraction, not a signed exponent.
    let radix_prefixed =
        c.src.get(start) == Some(&b'0') && matches!(c.src.get(start + 1), Some(b'x' | b'b' | b'o'));
    if !radix_prefixed {
        eat_exponent_sign(c);
    }
    // A fractional part only if `.` is followed by a digit ( `1.max()`
    // and `0..n` must not consume the dot).
    if c.peek(0) == Some(b'.') {
        if let Some(b) = c.peek(1) {
            if b.is_ascii_digit() {
                c.bump();
                c.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
                eat_exponent_sign(c);
            }
        }
    }
}

/// After an alphanumeric run ending in `e`/`E`, a `+`/`-` followed by a
/// digit is a signed exponent (`1e-9`, `1.5E+3`), not an operator.
fn eat_exponent_sign(c: &mut Cursor) {
    if matches!(c.peek(0), Some(b'+') | Some(b'-'))
        && matches!(c.src.get(c.i.wrapping_sub(1)), Some(b'e') | Some(b'E'))
        && c.peek(1).is_some_and(|b| b.is_ascii_digit())
    {
        c.bump();
        c.eat_while(|b| b.is_ascii_alphanumeric() || b == b'_');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn code_texts(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("fn main() {}");
        assert_eq!(ks[0], (TokKind::Ident, "fn".into()));
        assert_eq!(ks[1], (TokKind::Ident, "main".into()));
        assert_eq!(ks[2], (TokKind::Punct(b'('), "(".into()));
    }

    #[test]
    fn line_and_block_comments_are_tokens() {
        let src = "a // panic!(\n/* unwrap() */ b";
        let ks = kinds(src);
        assert_eq!(ks[1].0, TokKind::LineComment);
        assert_eq!(ks[2].0, TokKind::BlockComment);
        assert_eq!(code_texts(src), vec!["a", "b"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "x /* outer /* inner unwrap() */ still comment */ y";
        assert_eq!(code_texts(src), vec!["x", "y"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = r#"let s = "contains .unwrap() and panic!";"#;
        let toks = lex(src);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::StrLit).collect();
        assert_eq!(strs.len(), 1);
        assert!(!code_texts(src).iter().any(|t| t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"a "quoted" panic!( body"# ; let t = 1;"###;
        let toks = lex(src);
        let s = toks
            .iter()
            .find(|t| t.kind == TokKind::StrLit)
            .map(|t| t.text(src))
            .unwrap_or_default();
        assert!(s.starts_with("r#\"") && s.ends_with("\"#"), "got {s:?}");
        assert!(code_texts(src).iter().any(|t| t == "t"));
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "let c = 'a'; fn f<'a>(x: &'a str, y: char) { let z = '\\''; let w = '✓'; }";
        let toks = lex(src);
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::CharLit)
            .map(|t| t.text(src))
            .collect();
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(chars, vec!["'a'", "'\\''", "'✓'"]);
        assert_eq!(lifetimes, vec!["'a", "'a"]);
    }

    #[test]
    fn static_lifetime_and_underscore() {
        let src = "&'static str; &'_ T";
        let toks = lex(src);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'static", "'_"]);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"bytes\"; let b = b'0'; let c = br#\"raw\"#;";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::StrLit).count(), 2);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::CharLit).count(),
            1
        );
    }

    #[test]
    fn raw_identifiers() {
        let src = "let r#fn = 1;";
        let toks = lex(src);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text(src) == "r#fn"));
    }

    #[test]
    fn raw_strings_multi_hash_with_embedded_terminators() {
        // A two-hash raw string whose body contains the one-hash
        // terminator `"#` must not close early.
        let src = r####"let s = r##"has "# inside and a \ backslash"## ; tail"####;
        let toks = lex(src);
        let s = toks
            .iter()
            .find(|t| t.kind == TokKind::StrLit)
            .map(|t| t.text(src))
            .unwrap_or_default();
        assert!(s.starts_with("r##\"") && s.ends_with("\"##"), "got {s:?}");
        assert!(code_texts(src).iter().any(|t| t == "tail"));
    }

    #[test]
    fn raw_byte_strings_and_unterminated_raw_string() {
        let src = "let a = br##\"raw \"# bytes\"##; let b = 1;";
        let toks = lex(src);
        let strs: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::StrLit)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(strs, vec!["br##\"raw \"# bytes\"##"]);
        // Unterminated raw string: swallowed to EOF as one literal, no
        // panic, nothing after it leaks out as an identifier.
        let src2 = "x r#\"never closed\" y";
        let toks2 = lex(src2);
        assert_eq!(toks2.len(), 2);
        assert_eq!(toks2[1].kind, TokKind::StrLit);
        assert_eq!(toks2[1].text(src2), "r#\"never closed\" y");
    }

    #[test]
    fn deeply_nested_and_unterminated_block_comments() {
        let src = "a /* 1 /* 2 /* 3 unwrap() */ 2 */ 1 */ b";
        assert_eq!(code_texts(src), vec!["a", "b"]);
        // Unterminated at depth 2: swallowed to EOF.
        let src2 = "a /* outer /* inner */ still open b";
        assert_eq!(code_texts(src2), vec!["a"]);
        // `/*/` does not self-close (the `/` is shared).
        let src3 = "a /*/ still comment */ b";
        assert_eq!(code_texts(src3), vec!["a", "b"]);
    }

    #[test]
    fn lifetimes_vs_chars_in_braces_labels_and_bounds() {
        // Char literals holding brace/quote bytes must stay opaque, or
        // downstream brace matching would desynchronize.
        let src = "match c { '{' => 1, '}' => 2, '\\'' => 3, _ => 4 }";
        let toks = lex(src);
        let braces = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Punct(b'{') | TokKind::Punct(b'}')))
            .count();
        assert_eq!(braces, 2, "only the match braces are punctuation");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::CharLit).count(),
            3
        );
        // Loop labels and `?Sized` bounds.
        let src2 = "'outer: loop { break 'outer; } fn f<T: ?Sized>() {}";
        let toks2 = lex(src2);
        let lifetimes: Vec<_> = toks2
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src2))
            .collect();
        assert_eq!(lifetimes, vec!["'outer", "'outer"]);
    }

    #[test]
    fn exponents_without_fraction_and_hex_subtraction() {
        let src = "let a = 1e-9; let b = 2E+10; let c = 0xAE-1; let d = 5e3;";
        let toks = lex(src);
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::NumLit)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(nums, vec!["1e-9", "2E+10", "0xAE", "1", "5e3"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let src = "for i in 0..n { let x = 1.5e-3; let h = 0xff_u32; }";
        let toks = lex(src);
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::NumLit)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(nums, vec!["0", "1.5e-3", "0xff_u32"]);
    }

    #[test]
    fn line_and_col_are_one_based() {
        let src = "a\n  bb";
        let toks = lex(src);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
