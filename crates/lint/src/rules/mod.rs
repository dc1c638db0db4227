//! The rule framework: every rule sees one lexed file at a time and
//! emits findings with a rule id and a `file:line:col` span.
//!
//! Applicability is decided here, not inside each rule: a rule declares
//! which crates it covers via [`RuleMeta::applies`], and the engine
//! (in `lib.rs`) strips `#[cfg(test)]` regions and suppressed lines
//! after the rules run. Rules therefore only contain matching logic.

use crate::lexer::{Tok, TokKind};
use crate::parse::Item;

pub mod budget_reachability;
pub mod error_taxonomy;
pub mod nested_vec_adjacency;

/// One reported violation. Every finding fails the run.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable rule id (kebab-case), also the pragma key.
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Byte offset of the anchoring token — used by the engine to drop
    /// findings inside `#[cfg(test)]` items; not part of the report.
    pub byte: usize,
    /// Human explanation of this specific violation.
    pub message: String,
}

/// Static description of a rule, used by `--list-rules`, the docs, and
/// pragma validation.
pub struct RuleMeta {
    pub id: &'static str,
    /// One-line summary for the catalog.
    pub summary: &'static str,
    /// Whether the rule runs on a file belonging to `crate_name`
    /// (`"cli"`, `"core"`, ... — `"dvicl"` for the root crate).
    pub applies: fn(crate_name: &str) -> bool,
    /// The matcher itself.
    pub check: fn(&FileCtx) -> Vec<Finding>,
}

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated (also used by path-scoped
    /// rules such as nested-vec-adjacency).
    pub rel: &'a str,
    pub src: &'a str,
    /// The full token stream, comments included.
    pub toks: &'a [Tok],
    /// Indices into `toks` of the non-comment tokens, in order. Rules
    /// that match token sequences iterate this so interleaved comments
    /// cannot break a pattern.
    pub code: &'a [usize],
    /// The file's parsed `fn` items (see [`crate::parse::items`]).
    pub items: &'a [Item],
}

impl FileCtx<'_> {
    /// The text of a token.
    pub fn text(&self, tok: &Tok) -> &str {
        tok.text(self.src)
    }

    /// Builds a finding anchored at `tok`.
    pub fn finding(&self, meta_id: &'static str, tok: &Tok, message: String) -> Finding {
        Finding {
            rule: meta_id,
            file: self.rel.to_string(),
            line: tok.line,
            col: tok.col,
            byte: tok.start,
            message,
        }
    }
}

fn applies_everywhere(_crate_name: &str) -> bool {
    true
}

/// Library crates only: the `cli` binary and the `bench`/`lint` tooling
/// crates keep their own error types; everything else must speak
/// `DviclError`.
fn applies_to_library_crates(crate_name: &str) -> bool {
    !matches!(crate_name, "cli" | "bench" | "lint")
}

/// The rule catalog, in reporting order.
pub fn catalog() -> &'static [RuleMeta] {
    &[
        RuleMeta {
            id: error_taxonomy::ID,
            summary: "library crates must use DviclError: no Box<dyn Error>, Result<_, String>, or stringly Err values",
            applies: applies_to_library_crates,
            check: error_taxonomy::check,
        },
        RuleMeta {
            id: nested_vec_adjacency::ID,
            summary: "no `Vec<Vec<_>>` adjacency on the build/refine hot path — CSR/arena storage only",
            applies: applies_everywhere, // path-scoped inside the rule
            check: nested_vec_adjacency::check,
        },
        RuleMeta {
            id: budget_reachability::ID,
            summary: "looping/recursive functions in refine/canon/core must name the Budget machinery themselves",
            applies: budget_reachability::applies,
            check: budget_reachability::check,
        },
    ]
}

/// Rule ids that pragmas may name. The pragma meta-rules cannot be
/// suppressed, so a pragma naming one is unknown.
pub fn known_rule_ids() -> Vec<&'static str> {
    catalog().iter().map(|m| m.id).collect()
}

/// Helper shared by sequence-matching rules: the code token at code
/// position `pos + ahead`, if any.
pub fn code_tok<'a>(ctx: &'a FileCtx, pos: usize, ahead: usize) -> Option<&'a Tok> {
    ctx.code.get(pos + ahead).map(|&i| &ctx.toks[i])
}

/// True when the code token at `pos + ahead` is the punct byte `b`.
pub fn is_punct(ctx: &FileCtx, pos: usize, ahead: usize, b: u8) -> bool {
    matches!(code_tok(ctx, pos, ahead), Some(t) if t.kind == TokKind::Punct(b))
}

/// True when the code token at `pos + ahead` is an identifier with
/// exactly this text.
pub fn is_ident(ctx: &FileCtx, pos: usize, ahead: usize, text: &str) -> bool {
    matches!(code_tok(ctx, pos, ahead), Some(t) if t.kind == TokKind::Ident && ctx.text(t) == text)
}
