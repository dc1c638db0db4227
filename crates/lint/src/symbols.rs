//! The workspace symbol table: every parsed `fn` with a body in every
//! analyzed file, indexed for the call graph and the workspace-level
//! rules.
//!
//! Resolution is by *name*, deliberately over-approximated: `dvicl-lint`
//! has no type information, so a call `x.refine()` resolves to every
//! workspace function named `refine`. For the reachability questions
//! the rules ask ("can this loop reach a budget checkpoint?") an
//! over-approximation in the edge set means *fewer* findings, never
//! false ones from missing edges.

use crate::parse::Item;
use crate::FileData;
use std::collections::HashMap;

/// A reference to one item of one analyzed file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymRef {
    /// Index into the workspace's file list.
    pub file: usize,
    /// Index into that file's `items`.
    pub item: usize,
}

/// Workspace-wide item index.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every `fn` item *with a body*, in file order. Positions in this
    /// vector are the node ids of the call graph.
    pub fns: Vec<SymRef>,
    /// Function name → indices into [`SymbolTable::fns`].
    pub fns_by_name: HashMap<String, Vec<usize>>,
}

impl SymbolTable {
    pub fn build(files: &[FileData]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.items.iter().enumerate() {
                let r = SymRef { file: fi, item: ii };
                if item.body.is_some() {
                    let id = table.fns.len();
                    table.fns.push(r);
                    table
                        .fns_by_name
                        .entry(item.name.clone())
                        .or_default()
                        .push(id);
                }
            }
        }
        table
    }

    /// The parsed item behind a reference.
    pub fn item<'a>(&self, files: &'a [FileData], r: SymRef) -> &'a Item {
        &files[r.file].items[r.item]
    }

    /// The item behind call-graph node `id`.
    pub fn fn_item<'a>(&self, files: &'a [FileData], id: usize) -> &'a Item {
        self.item(files, self.fns[id])
    }

    /// Call-graph node ids of every function named `name`.
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.fns_by_name.get(name).map_or(&[], |v| v.as_slice())
    }
}
