//! budget-reachability: every looping or recursive function in the
//! `refine`/`canon`/`core` crates must be able to *reach* the
//! `govern::Budget` machinery through the call graph.
//!
//! This replaces the token-level budget-threading rule (which only
//! looked at five named modules and each function in isolation) with a
//! workspace property: a loop is metered if the function itself takes
//! or spends a budget, **or** some function it (transitively) calls
//! does. A refinement loop whose body calls `split_by` — which spends
//! one unit per splitter — passes without ceremony; a new O(n) loop
//! that cannot reach any `spend`/`checkpoint` is exactly the runaway
//! the governor cannot see, and gets flagged.
//!
//! Bounded helpers (an O(k) hash mix, a one-shot readout) that neither
//! take a budget nor call metered code still carry a suppression
//! pragma stating who meters them — the audit trail stays in the
//! source, as before.

use super::Finding;
use crate::lexer::TokKind;
use crate::Workspace;

pub const ID: &str = "budget-reachability";

/// The governed crates: the divide/refine/search pipeline.
pub const GOVERNED_CRATES: [&str; 3] = ["refine", "canon", "core"];

/// Identifiers that count as "references the budget machinery".
const BUDGET_IDENTS: [&str; 7] = [
    "Budget",
    "budget",
    "CancelToken",
    "cancel",
    "spend",
    "gov",
    "checkpoint",
];

/// Loop keywords.
const LOOP_KEYWORDS: [&str; 3] = ["for", "while", "loop"];

pub fn check(ws: &Workspace) -> Vec<Finding> {
    let syms = &ws.symbols;
    // Seeds: functions that directly mention the budget machinery in
    // their signature or body (taking `budget: &Budget` counts — that
    // is the threading pattern).
    let seeds: Vec<bool> = (0..syms.fns.len())
        .map(|id| {
            let r = syms.fns[id];
            let file = &ws.files[r.file];
            let item = &file.items[r.item];
            let end = item.body.map_or(item.sig.1, |b| b.1);
            (item.sig.0..end).any(|cp| {
                matches!(file.code.get(cp), Some(&i)
                    if file.toks[i].kind == TokKind::Ident
                        && BUDGET_IDENTS.contains(&file.toks[i].text(&file.src)))
            })
        })
        .collect();
    let certified = ws.calls.can_reach(&seeds);

    let mut out = Vec::new();
    for (id, &cert) in certified.iter().enumerate() {
        if cert {
            continue;
        }
        let r = syms.fns[id];
        let file = &ws.files[r.file];
        if !GOVERNED_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let item = &file.items[r.item];
        if item.is_test {
            continue;
        }
        let Some((start, end)) = item.body else {
            continue;
        };
        let ident_at = |cp: usize| -> Option<&str> {
            match file.code.get(cp) {
                Some(&i) if file.toks[i].kind == TokKind::Ident => {
                    Some(file.toks[i].text(&file.src))
                }
                _ => None,
            }
        };
        let is_punct = |cp: usize, b: u8| matches!(file.code.get(cp), Some(&i) if file.toks[i].kind == TokKind::Punct(b));
        let loops =
            (start..end).any(|cp| matches!(ident_at(cp), Some(t) if LOOP_KEYWORDS.contains(&t)));
        // Self-recursion: a bare `name(…)` call, or a true
        // `self.name(…)` method call. `self.field.name(…)` is a call
        // on a *member* that happens to share the name (`len`,
        // `push`, …), not recursion.
        let recurses = (start..end).any(|cp| {
            if !matches!(ident_at(cp), Some(t) if t == item.name) || !is_punct(cp + 1, b'(') {
                return false;
            }
            if cp == 0 || !is_punct(cp - 1, b'.') {
                return true;
            }
            cp >= 2 && ident_at(cp - 2) == Some("self") && (cp == 2 || !is_punct(cp - 3, b'.'))
        });
        if !loops && !recurses {
            continue;
        }
        let name_tok = &file.toks[file.code[item.name_cp]];
        let how = if recurses { "recursive" } else { "looping" };
        out.push(Finding {
            rule: ID,
            file: file.rel.clone(),
            line: name_tok.line,
            col: name_tok.col,
            byte: name_tok.start,
            message: format!(
                "{how} function `{}` in a governed crate cannot reach the Budget machinery \
                 through any call path; thread the budget through it or state who meters it \
                 in a pragma",
                item.name
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::ID;
    use crate::lint_source;

    #[test]
    fn loop_reaching_budget_through_a_callee_is_clean() {
        // The old token rule flagged this: `walk` never mentions the
        // budget, but its callee spends. The call graph certifies it.
        let src = "
            fn spend_one(budget: &Budget) -> Result<(), DviclError> {
                budget.spend(1)
            }
            pub fn walk(xs: &[u8], b: &B) -> Result<(), DviclError> {
                for _x in xs {
                    spend_one(b)?;
                }
                Ok(())
            }
        ";
        let (findings, _) = lint_source("crates/refine/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
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
        let (findings, _) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(
            findings.iter().filter(|f| f.rule == ID).count(),
            1,
            "{findings:?}"
        );
        let (findings, _) = lint_source("crates/graph/src/x.rs", src);
        assert!(findings.iter().all(|f| f.rule != ID), "{findings:?}");
    }

    #[test]
    fn recursion_is_flagged_without_a_budget_path() {
        let src = "
            pub fn descend(n: usize) -> usize {
                if n == 0 { 0 } else { descend(n - 1) }
            }
        ";
        let (findings, _) = lint_source("crates/canon/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("recursive"));
    }
}
