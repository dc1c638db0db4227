//! The intra-workspace call graph, built over the symbol table's `fn`
//! nodes by scanning every function body for call-shaped token
//! sequences: `name(` and `.name(`.
//!
//! Edges are resolved by name (see `symbols` for why over-approximation
//! is the safe direction here): `name(` and `Path::name(` to *every*
//! workspace function with that name, `.name(` only to those whose
//! signature takes a `self` receiver, since a method call can never
//! reach a free function. Macro invocations (`name!(…)`) and definitions are
//! excluded; calls into `std` or through trait objects simply resolve
//! to nothing and add no edge. Turbofish calls (`name::<T>(…)`) are a
//! known blind spot — none of the governed code paths use them at call
//! sites the rules reason about.

use crate::lexer::TokKind;
use crate::parse::Item;
use crate::symbols::SymbolTable;
use crate::FileData;

/// Keywords that look like `ident (` at call sites but never are.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "fn",
];

#[derive(Debug, Default)]
pub struct CallGraph {
    /// `callees[id]` — call-graph node ids called from fn `id`'s body,
    /// deduplicated, in first-occurrence order.
    pub callees: Vec<Vec<usize>>,
}

impl CallGraph {
    pub fn build(files: &[FileData], syms: &SymbolTable) -> CallGraph {
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); syms.fns.len()];
        for (id, &r) in syms.fns.iter().enumerate() {
            let file = &files[r.file];
            let item = &file.items[r.item];
            let Some((start, end)) = item.body else {
                continue;
            };
            for cp in start..end {
                let Some(&ti) = file.code.get(cp) else { break };
                let tok = &file.toks[ti];
                if tok.kind != TokKind::Ident {
                    continue;
                }
                // `name (` — and not `name !(`, not `fn name (`.
                if !is_punct(file, cp + 1, b'(') {
                    continue;
                }
                if cp > 0 && is_kw(file, cp - 1, "fn") {
                    continue;
                }
                let name = tok.text(&file.src);
                if NON_CALL_KEYWORDS.contains(&name) {
                    continue;
                }
                let method_call = cp > 0 && is_punct(file, cp - 1, b'.');
                for &target in syms.fns_named(name) {
                    let titem = syms.fn_item(files, target);
                    if titem.is_test && !item.is_test {
                        continue;
                    }
                    if method_call && !has_self_receiver(&files[syms.fns[target].file], titem) {
                        continue;
                    }
                    if !callees[id].contains(&target) {
                        callees[id].push(target);
                    }
                }
            }
        }
        CallGraph { callees }
    }

    /// Fixpoint over call edges: `out[id]` is true when `id` is a seed
    /// or any of its (transitive) callees is. This answers "can
    /// execution starting in `id` reach a seed function?".
    pub fn can_reach(&self, seeds: &[bool]) -> Vec<bool> {
        let mut out = seeds.to_vec();
        let mut changed = true;
        while changed {
            changed = false;
            for id in 0..self.callees.len() {
                if out[id] {
                    continue;
                }
                if self.callees[id].iter().any(|&c| out[c]) {
                    out[id] = true;
                    changed = true;
                }
            }
        }
        out
    }
}

/// Whether `item`'s signature takes a `self` receiver (`self`, `&self`,
/// `&mut self`, `self: Box<Self>`, …). A free function's signature can
/// mention `self` only as a path prefix (`self::T`), which is skipped.
fn has_self_receiver(file: &FileData, item: &Item) -> bool {
    (item.sig.0..item.sig.1).any(|cp| {
        is_kw(file, cp, "self") && !(is_punct(file, cp + 1, b':') && is_punct(file, cp + 2, b':'))
    })
}

fn is_punct(file: &FileData, cp: usize, b: u8) -> bool {
    matches!(file.code.get(cp), Some(&i) if file.toks[i].kind == TokKind::Punct(b))
}

fn is_kw(file: &FileData, cp: usize, kw: &str) -> bool {
    matches!(file.code.get(cp), Some(&i) if file.toks[i].kind == TokKind::Ident
        && file.toks[i].text(&file.src) == kw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileData;

    fn ws(src: &str) -> (Vec<FileData>, SymbolTable, CallGraph) {
        let files = vec![FileData::analyze("crates/core/src/x.rs".into(), src.into())];
        let syms = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &syms);
        (files, syms, graph)
    }

    #[test]
    fn direct_method_and_transitive_edges() {
        // `.leaf(` reaches only the method: a method call never reaches
        // a free function of the same name. `leaf(` and `Path::leaf(`
        // reach both.
        let src = r#"
            fn leaf(budget: usize) {}
            impl X { fn leaf(&self, budget: usize) {} }
            fn middle(x: &X) { x.leaf(1); }
            fn top() { middle(); leaf(2); }
            fn qualified() { self::leaf(3); }
            fn island() { println!("no edges"); }
        "#;
        let (_, syms, graph) = ws(src);
        let id = |n: &str| syms.fns_named(n)[0];
        let (free, method) = (id("leaf"), syms.fns_named("leaf")[1]);
        assert_eq!(graph.callees[id("middle")], vec![method]);
        assert_eq!(graph.callees[id("top")], vec![id("middle"), free, method]);
        assert_eq!(graph.callees[id("qualified")], vec![free, method]);
        assert!(
            graph.callees[id("island")].is_empty(),
            "macro is not a call"
        );
        let mut seeds = vec![false; syms.fns.len()];
        seeds[free] = true;
        let reach = graph.can_reach(&seeds);
        assert!(reach[id("top")] && !reach[id("middle")] && !reach[id("island")]);
    }

    #[test]
    fn test_fns_do_not_capture_edges_from_production_code() {
        let src = r#"
            fn prod() { helper(); }
            #[cfg(test)]
            mod tests {
                fn helper() {}
            }
        "#;
        let (_, syms, graph) = ws(src);
        let prod = syms.fns_named("prod")[0];
        assert!(graph.callees[prod].is_empty());
    }
}
