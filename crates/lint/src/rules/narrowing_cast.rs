//! narrowing-cast: `as u8` / `as u16` / `as u32` silently truncate.
//!
//! Vertex counts, color offsets, and limb values flow through these
//! casts; a truncation on a large graph corrupts the canonical form
//! instead of failing. Every narrowing cast must either carry a pragma
//! proving its range, or live in an allowlisted file whose whole point
//! is fixed-width arithmetic.
//!
//! Widening casts (`as u64`, `as usize`, `as f64`) are not flagged.

use super::{code_tok, is_punct, FileCtx, Finding};
use crate::lexer::TokKind;

pub const ID: &str = "narrowing-cast";

/// Files whose entire purpose is fixed-width arithmetic; flagging every
/// masked limb extraction there would drown the signal. The reason is
/// part of the allowlist so the audit trail survives refactors.
pub const FILE_ALLOWLIST: [(&str, &str); 1] = [(
    "crates/group/src/biguint.rs",
    "u32-limb big integer: every cast extracts a masked limb or carry",
)];

const NARROW_TARGETS: [&str; 3] = ["u8", "u16", "u32"];

pub fn check(ctx: &FileCtx) -> Vec<Finding> {
    if FILE_ALLOWLIST.iter().any(|(f, _)| *f == ctx.rel) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pos in 0..ctx.code.len() {
        let Some(tok) = code_tok(ctx, pos, 0) else {
            continue;
        };
        if tok.kind != TokKind::Ident || ctx.text(tok) != "as" {
            continue;
        }
        let Some(target) = code_tok(ctx, pos, 1) else {
            continue;
        };
        if target.kind != TokKind::Ident {
            continue;
        }
        let ty = ctx.text(target);
        // `use x as y` renames also lex as `as` + ident; only the three
        // narrowing primitive names are flagged, so renames never trip
        // unless someone shadows a primitive, which deserves the flag.
        if !NARROW_TARGETS.contains(&ty) {
            continue;
        }
        // `as u32` followed by `::` is a path cast-alias, not a cast —
        // does not occur in practice, but cheap to exclude.
        if is_punct(ctx, pos, 2, b':') {
            continue;
        }
        out.push(ctx.finding(
            ID,
            tok,
            format!(
                "narrowing `as {ty}` can truncate; prove the range in a pragma or \
                 use a checked conversion"
            ),
        ));
    }
    out
}
