//! budget-reachability: every looping or self-recursive function in the
//! `refine`/`canon`/`core` crates must name the `govern::Budget`
//! machinery in its own signature or body (taking `budget: &Budget`,
//! calling `spend`, holding a `CancelToken`), or carry
//! a pragma that states who meters it.
//!
//! The rule judges each function by itself. Without types, a call can
//! be resolved by name only, and a loop would then pass through any
//! unrelated function of the same name (`SubArena::new()` through
//! `Budget::new`, `FxHashMap::default()` through `Budget::default`).
//! So a loop metered by its caller, or one that runs on a finished
//! tree, says so in a pragma, and the audit trail stays in the source.

use super::{code_tok, is_ident, is_punct, FileCtx, Finding};
use crate::lexer::TokKind;

pub const ID: &str = "budget-reachability";

/// The governed crates: the divide/refine/search pipeline.
pub const GOVERNED_CRATES: [&str; 3] = ["refine", "canon", "core"];

/// Identifiers that count as "references the budget machinery".
const BUDGET_IDENTS: [&str; 6] = ["Budget", "budget", "CancelToken", "cancel", "spend", "gov"];

/// Loop keywords.
const LOOP_KEYWORDS: [&str; 3] = ["for", "while", "loop"];

pub fn applies(crate_name: &str) -> bool {
    GOVERNED_CRATES.contains(&crate_name)
}

pub fn check(ctx: &FileCtx) -> Vec<Finding> {
    let ident_at = |cp: usize| match code_tok(ctx, cp, 0) {
        Some(t) if t.kind == TokKind::Ident => Some(ctx.text(t)),
        _ => None,
    };
    let mut out = Vec::new();
    for item in ctx.items.iter().filter(|item| !item.is_test) {
        let Some((start, end)) = item.body else {
            continue;
        };
        let names_budget = (item.sig.0..end)
            .any(|cp| matches!(ident_at(cp), Some(t) if BUDGET_IDENTS.contains(&t)));
        if names_budget {
            continue;
        }
        let loops =
            (start..end).any(|cp| matches!(ident_at(cp), Some(t) if LOOP_KEYWORDS.contains(&t)));
        let recurses = (start..end).any(|cp| {
            ident_at(cp) == Some(item.name.as_str())
                && is_punct(ctx, cp, 1, b'(')
                && calls_itself(ctx, cp)
        });
        if !loops && !recurses {
            continue;
        }
        let how = if recurses { "recursive" } else { "looping" };
        out.push(ctx.finding(
            ID,
            &ctx.toks[ctx.code[item.name_cp]],
            format!(
                "{how} function `{}` in a governed crate does not name the Budget machinery; \
                 thread the budget through it or state who meters it in a pragma",
                item.name
            ),
        ));
    }
    out
}

/// Whether the call `name(` at code position `cp`, inside the body of
/// a function called `name`, calls that function itself: a bare
/// `name(…)`, `Self::name(…)` or `self.name(…)`. `Other::name(…)` is
/// another type's function (rustc's `unconditional_recursion` catches
/// a `Type::name` that calls itself by its own path), and `x.name(…)`
/// or `self.field.name(…)` is a call on a value whose method shares
/// the name (`len`, `push`, …).
fn calls_itself(ctx: &FileCtx, cp: usize) -> bool {
    let before = |k: usize| cp.checked_sub(k);
    let punct = |k: usize, b: u8| before(k).is_some_and(|p| is_punct(ctx, p, 0, b));
    let ident = |k: usize, text: &str| before(k).is_some_and(|p| is_ident(ctx, p, 0, text));
    if punct(1, b'.') {
        return ident(2, "self") && !punct(3, b'.');
    }
    if punct(1, b':') && punct(2, b':') {
        return ident(3, "Self");
    }
    true
}

#[cfg(test)]
mod tests {
    use super::ID;
    use crate::lint_source;

    fn flagged(rel: &str, src: &str) -> Vec<String> {
        let (findings, _) = lint_source(rel, src);
        findings
            .iter()
            .filter(|f| f.rule == ID)
            .map(|f| f.message.clone())
            .collect()
    }

    #[test]
    fn unmetered_loop_is_flagged_and_non_governed_crates_pass() {
        let src = "
            pub fn runaway(xs: &[u8]) -> usize {
                let mut n = 0;
                for x in xs {
                    n += *x as usize;
                }
                n
            }
        ";
        assert_eq!(flagged("crates/core/src/x.rs", src).len(), 1);
        assert!(flagged("crates/graph/src/x.rs", src).is_empty());
    }

    #[test]
    fn recursion_is_flagged_without_a_budget_path() {
        let src = "
            pub fn descend(n: usize) -> usize {
                if n == 0 { 0 } else { descend(n - 1) }
            }
        ";
        let found = flagged("crates/canon/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("recursive"));
    }

    #[test]
    fn an_unrelated_fn_of_the_same_name_certifies_nothing() {
        // `Arena::new()` shares its name with `Budget::new`, which names
        // the budget; a rule that resolved calls by name certified the
        // loop through it.
        let src = "
            impl Budget {
                pub fn new(limit: u64) -> Budget { Budget { limit } }
            }
            pub fn carve(xs: &[u32]) -> Arena {
                let mut arena = Arena::new();
                for &x in xs {
                    arena.push(x);
                }
                arena
            }
        ";
        let found = flagged("crates/core/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("`carve`"), "{found:?}");
    }

    #[test]
    fn only_self_paths_and_bare_calls_are_recursion() {
        let other = "impl Session { pub fn new() -> Session { Session { s: Scratch::new() } } }";
        assert!(flagged("crates/core/src/x.rs", other).is_empty());
        for call in ["Self::new()", "new()", "self.new()"] {
            let src = format!("impl S {{ pub fn new(&self) -> S {{ {call} }} }}");
            let found = flagged("crates/core/src/x.rs", &src);
            assert_eq!(found.len(), 1, "{call}: {found:?}");
            assert!(found[0].contains("recursive"), "{call}: {found:?}");
        }
        let field = "impl S { pub fn len(&self) -> usize { self.items.len() + other.len() } }";
        assert!(flagged("crates/core/src/x.rs", field).is_empty());
    }
}
