//! error-taxonomy: library crates speak `DviclError`, nothing else.
//!
//! Three stringly-typed escape hatches are banned in library code:
//!
//! 1. `Box<dyn Error>` (any path spelling) — erases the failure class
//!    the CLI exit codes and retry logic match on,
//! 2. `Result<_, String>` — same, minus even the trait,
//! 3. `Err(format!(...))` / `Err(x.to_string())` / `.map_err(|e|
//!    e.to_string())` — manufacturing a stringly error at the source.
//!
//! The `cli` binary and the `bench`/`lint` tooling crates are exempt
//! (see `applies_to_library_crates` in the catalog).

use super::{code_tok, is_ident, is_punct, FileCtx, Finding};
use crate::lexer::TokKind;

pub const ID: &str = "error-taxonomy";

pub fn check(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for pos in 0..ctx.code.len() {
        let Some(tok) = code_tok(ctx, pos, 0) else {
            continue;
        };
        if tok.kind != TokKind::Ident {
            continue;
        }
        match ctx.text(tok) {
            // `Box < dyn ... Error ... >`
            "Box"
                if is_punct(ctx, pos, 1, b'<')
                    && is_ident(ctx, pos, 2, "dyn")
                    && generic_args_mention(ctx, pos + 1, "Error") =>
            {
                out.push(ctx.finding(
                    ID,
                    tok,
                    "`Box<dyn Error>` erases the error class; use `DviclError`".to_string(),
                ));
            }
            // `Result < ..., String >`
            "Result" if is_punct(ctx, pos, 1, b'<') => {
                if let Some(err_pos) = error_type_position(ctx, pos + 1) {
                    if is_ident(ctx, err_pos, 0, "String") && is_punct(ctx, err_pos, 1, b'>') {
                        out.push(ctx.finding(
                            ID,
                            tok,
                            "`Result<_, String>` is a stringly error; use `DviclError`".to_string(),
                        ));
                    }
                }
            }
            // `Err ( ... format! | ... .to_string() ... )`
            "Err" if is_punct(ctx, pos, 1, b'(') => {
                if let Some(bad) = stringly_call_inside(ctx, pos + 1) {
                    out.push(ctx.finding(
                        ID,
                        tok,
                        format!("`Err({bad})` manufactures a stringly error; construct a `DviclError` variant"),
                    ));
                }
            }
            // `.map_err ( ... to_string | format! ... )`
            "map_err"
                if pos > 0 && is_punct(ctx, pos - 1, 0, b'.') && is_punct(ctx, pos, 1, b'(') =>
            {
                if let Some(bad) = stringly_call_inside(ctx, pos + 1) {
                    out.push(ctx.finding(
                        ID,
                        tok,
                        format!("`.map_err({bad})` converts the error to a string; map into a `DviclError` variant"),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// From the code position of an opening `<`, scans the generic argument
/// list and reports whether any identifier equals `needle`. Angle depth
/// is tracked; a `>` that is part of `->` does not close the list.
fn generic_args_mention(ctx: &FileCtx, open_pos: usize, needle: &str) -> bool {
    let mut depth = 0i32;
    let mut pos = open_pos;
    while let Some(tok) = code_tok(ctx, pos, 0) {
        match tok.kind {
            TokKind::Punct(b'<') => depth += 1,
            TokKind::Punct(b'>') => {
                if pos > 0 && is_punct(ctx, pos - 1, 0, b'-') {
                    // `->` return arrow inside an fn type, not a close.
                } else {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
            }
            TokKind::Ident if ctx.text(tok) == needle => return true,
            TokKind::Punct(b';') => return false, // runaway: bail at stmt end
            _ => {}
        }
        pos += 1;
    }
    false
}

/// From the code position of `Result`'s opening `<`, returns the code
/// position just after the comma separating Ok and Err types (angle
/// depth 1, paren/bracket depth 0).
fn error_type_position(ctx: &FileCtx, open_pos: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut grouping = 0i32;
    let mut pos = open_pos;
    while let Some(tok) = code_tok(ctx, pos, 0) {
        match tok.kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') if !(pos > 0 && is_punct(ctx, pos - 1, 0, b'-')) => {
                angle -= 1;
                if angle == 0 {
                    return None; // single-argument Result alias
                }
            }
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => grouping += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => grouping -= 1,
            TokKind::Punct(b',') if angle == 1 && grouping == 0 => return Some(pos + 1),
            TokKind::Punct(b';') => return None,
            _ => {}
        }
        pos += 1;
    }
    None
}

/// Decides whether the argument of an `Err(...)` / `.map_err(...)`
/// call *is itself* a string: it starts with `format!` (after an
/// optional `|..|` closure header) or ends with `.to_string()`.
///
/// A `format!` nested inside a typed constructor —
/// `Err(DviclError::invalid(format!(...)))` — is the sanctioned way to
/// carry detail text and is deliberately not flagged.
fn stringly_call_inside(ctx: &FileCtx, open_pos: usize) -> Option<&'static str> {
    // The value starts after the `(` plus an optional `move |…|` or
    // `|…|` closure header.
    let mut start = open_pos + 1;
    if is_ident(ctx, start, 0, "move") {
        start += 1;
    }
    if is_punct(ctx, start, 0, b'|') {
        start += 1;
        // `||` (no params) lexes as two pipes; a param list ends at the
        // next pipe.
        while let Some(tok) = code_tok(ctx, start, 0) {
            let done = tok.kind == TokKind::Punct(b'|');
            start += 1;
            if done {
                break;
            }
        }
    }
    if is_ident(ctx, start, 0, "format") && is_punct(ctx, start, 1, b'!') {
        return Some("format!(..)");
    }
    // Find the matching `)` of the call, then look at what precedes it.
    let mut depth = 0i32;
    let mut pos = open_pos;
    let close = loop {
        let tok = code_tok(ctx, pos, 0)?;
        match tok.kind {
            TokKind::Punct(b'(') => depth += 1,
            TokKind::Punct(b')') => {
                depth -= 1;
                if depth == 0 {
                    break pos;
                }
            }
            _ => {}
        }
        pos += 1;
    };
    if close >= 4
        && is_punct(ctx, close - 4, 0, b'.')
        && is_ident(ctx, close - 3, 0, "to_string")
        && is_punct(ctx, close - 2, 0, b'(')
        && is_punct(ctx, close - 1, 0, b')')
    {
        return Some("..to_string()");
    }
    None
}
