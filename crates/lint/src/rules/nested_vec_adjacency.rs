//! nested-vec-adjacency: the build/refine hot path must stay flat.
//!
//! The arena refactor (DESIGN.md §10) replaced the per-subgraph
//! `Vec<Vec<u32>>` adjacency with CSR segments carved out of
//! `SubArena`'s pooled buffers — that is where the peak-heap win of
//! the AutoTree recursion comes from, and a single convenience
//! `Vec<Vec<_>>` reintroduced on the hot path silently gives it back
//! (one heap allocation per *row*, pointer-chasing per neighbor scan).
//!
//! This rule bans the *type* `Vec<Vec<...>>` in the hot-path modules:
//! any `Vec < Vec <` token sequence outside `#[cfg(test)]` items.
//! Cold-path containers (orbit cells in `aut.rs`, result sets in the
//! query API) live in modules this rule does not cover; a genuinely
//! justified nested vector on a covered file takes a suppression
//! pragma naming why it is not per-vertex adjacency. The one such
//! pragma is on `Coloring::from_cells`, whose cells callers build and
//! the coloring stores flat.
//!
//! The match is on tokens, not types: a nested layout behind a named
//! element type gets past it. `SubArena::cells` returned a
//! `Vec<SubCell>` with one `members: Vec` per cell, the same per-cell
//! allocation the rule exists to stop, and was never flagged; it is
//! deleted, and the node projection that replaced it is flat
//! (DESIGN.md §10.1).

use super::{code_tok, is_ident, is_punct, FileCtx, Finding};

pub const ID: &str = "nested-vec-adjacency";

/// The hot-path modules that must keep flat (CSR / arena) storage.
pub const FLAT_MODULES: [&str; 7] = [
    "crates/graph/src/graph.rs",
    "crates/graph/src/coloring.rs",
    "crates/refine/src/partition.rs",
    "crates/core/src/arena.rs",
    "crates/core/src/sub.rs",
    "crates/core/src/build.rs",
    "crates/canon/src/search.rs",
];

pub fn check(ctx: &FileCtx) -> Vec<Finding> {
    if !FLAT_MODULES.contains(&ctx.rel) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pos in 0..ctx.code.len() {
        let Some(tok) = code_tok(ctx, pos, 0) else {
            continue;
        };
        if ctx.text(tok) != "Vec" {
            continue;
        }
        // `Vec < Vec <` — the lexer splits generics into punct tokens,
        // so the nested type reads as four code tokens in a row.
        if is_punct(ctx, pos, 1, b'<')
            && is_ident(ctx, pos, 2, "Vec")
            && is_punct(ctx, pos, 3, b'<')
        {
            out.push(
                ctx.finding(
                    ID,
                    tok,
                    "nested `Vec<Vec<_>>` on the build/refine hot path — use a CSR segment \
                 (SubArena) or a flat offsets+members pair (Division) instead"
                        .to_string(),
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::ID;
    use crate::lint_source;

    fn run(rel: &str, src: &str) -> usize {
        let (findings, _) = lint_source(rel, src);
        findings.iter().filter(|f| f.rule == ID).count()
    }

    #[test]
    fn flags_nested_vec_on_hot_path() {
        for rel in ["crates/core/src/build.rs", "crates/graph/src/coloring.rs"] {
            assert_eq!(run(rel, "fn f() -> Vec<Vec<u32>> { Vec::new() }"), 1);
        }
    }

    #[test]
    fn ignores_flat_vec_and_cold_files() {
        assert_eq!(
            run(
                "crates/core/src/build.rs",
                "fn f() -> Vec<u32> { Vec::new() }"
            ),
            0
        );
        assert_eq!(
            run(
                "crates/core/src/aut.rs",
                "fn f() -> Vec<Vec<u32>> { Vec::new() }"
            ),
            0
        );
    }

    #[test]
    fn comment_between_tokens_does_not_hide_match() {
        assert_eq!(
            run(
                "crates/core/src/arena.rs",
                "type T = Vec</* rows */ Vec<u32>>;"
            ),
            1
        );
    }
}
