//! Plain-text edge-list I/O.
//!
//! The format matches the SNAP-style files the paper's datasets ship in:
//! one `u v` pair per line, `#`-prefixed comment lines ignored, whitespace
//! separated. Vertex ids may be arbitrary (non-dense) `u64`s; they are
//! compacted to `0..n` on read, and the mapping is returned.
//!
//! Reading returns typed [`DviclError`]s (never panics), with the parse
//! failure kind and 1-based line number attached — malformed input is a
//! recoverable condition, not a crash.

use crate::{Graph, GraphBuilder, MAX_VERTICES, V};
use dvicl_govern::{DviclError, ParseError, ParseErrorKind};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::io::{self, BufRead, BufWriter, Read, Write};
use std::num::IntErrorKind;

/// Result of reading an edge list: the compacted graph plus the original id
/// of each compacted vertex.
#[derive(Clone, Debug)]
pub struct LoadedGraph {
    /// The compacted simple graph.
    pub graph: Graph,
    /// `original_ids[v]` is the id vertex `v` had in the input file.
    pub original_ids: Vec<u64>,
}

/// Reads an edge list from any reader. Lines starting with `#` or `%` are
/// comments; blank lines are skipped. Self-loops and duplicate edges are
/// dropped (the paper's preprocessing).
///
/// Errors are always typed: [`DviclError::Parse`] for malformed content
/// (truncated line, non-numeric token, overflowing id, no data at all) and
/// [`DviclError::InvalidInput`] for underlying reader failures.
pub fn read_edge_list<R: Read>(reader: R) -> Result<LoadedGraph, DviclError> {
    let mut ids: FxHashMap<u64, V> = FxHashMap::default();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut edges: Vec<(V, V)> = Vec::new();
    // The dense id of `raw`, or `None` once the ids would exceed
    // `MAX_VERTICES` (`V::MAX` itself is never a vertex).
    let mut intern = |raw: u64, original_ids: &mut Vec<u64>| -> Option<V> {
        match ids.entry(raw) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                let v = V::try_from(original_ids.len())
                    .ok()
                    .filter(|&v| v != V::MAX)?;
                original_ids.push(raw);
                Some(*e.insert(v))
            }
        }
    };
    let buf = io::BufReader::new(reader);
    let mut saw_data = false;
    for (lineno, line) in buf.lines().enumerate() {
        let line = line.map_err(|e| DviclError::invalid(format!("read failed: {e}")))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        saw_data = true;
        let mut it = line.split_whitespace();
        let a = parse_vertex(it.next(), line, lineno)?;
        let b = parse_vertex(it.next(), line, lineno)?;
        let (Some(u), Some(v)) = (intern(a, &mut original_ids), intern(b, &mut original_ids))
        else {
            return Err(ParseError::new(
                ParseErrorKind::TooLarge,
                format!("more than {MAX_VERTICES} distinct vertex ids"),
            )
            .at_line(lineno + 1)
            .into());
        };
        edges.push((u, v));
    }
    if !saw_data {
        return Err(ParseError::new(
            ParseErrorKind::Empty,
            "edge list contains no edges (only blank/comment lines)",
        )
        .into());
    }
    let mut builder = GraphBuilder::with_capacity(original_ids.len(), edges.len());
    for (u, v) in edges {
        builder.add_edge(u, v);
    }
    Ok(LoadedGraph {
        graph: builder.build(),
        original_ids,
    })
}

fn parse_vertex(tok: Option<&str>, line: &str, lineno: usize) -> Result<u64, DviclError> {
    let lineno = lineno + 1; // report 1-based
    let tok = tok.ok_or_else(|| {
        ParseError::new(
            ParseErrorKind::TruncatedLine,
            format!("expected `u v`, got {line:?}"),
        )
        .at_line(lineno)
    })?;
    tok.parse::<u64>().map_err(|e| {
        let kind = match e.kind() {
            IntErrorKind::PosOverflow | IntErrorKind::NegOverflow => ParseErrorKind::Overflow,
            _ => ParseErrorKind::NonNumeric,
        };
        ParseError::new(kind, format!("vertex id {tok:?}"))
            .at_line(lineno)
            .into()
    })
}

/// Writes a graph as an edge list (`u v` per line, `u < v`), with a size
/// header comment.
pub fn write_edge_list<W: Write>(writer: W, g: &Graph) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes: {} edges: {}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_snap_style_input() {
        let input = "# comment\n% another\n\n10 20\n20 30\n10 20\n30 30\n";
        let loaded = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(loaded.graph.n(), 3);
        assert_eq!(loaded.graph.m(), 2); // duplicate + self-loop dropped
        assert_eq!(loaded.original_ids, vec![10, 20, 30]);
    }

    #[test]
    fn rejects_malformed_lines_with_typed_errors() {
        let non_numeric = read_edge_list("1 x\n".as_bytes()).unwrap_err();
        assert!(matches!(
            non_numeric,
            DviclError::Parse(ParseError {
                kind: ParseErrorKind::NonNumeric,
                line: Some(1),
                ..
            })
        ));
        let truncated = read_edge_list("0 1\n7\n".as_bytes()).unwrap_err();
        assert!(matches!(
            truncated,
            DviclError::Parse(ParseError {
                kind: ParseErrorKind::TruncatedLine,
                line: Some(2),
                ..
            })
        ));
        let overflow = read_edge_list("0 99999999999999999999999\n".as_bytes()).unwrap_err();
        assert!(matches!(
            overflow,
            DviclError::Parse(ParseError {
                kind: ParseErrorKind::Overflow,
                ..
            })
        ));
    }

    #[test]
    fn rejects_empty_input() {
        for input in ["", "# only a comment\n", "\n\n% x\n"] {
            let err = read_edge_list(input.as_bytes()).unwrap_err();
            assert!(
                matches!(
                    err,
                    DviclError::Parse(ParseError {
                        kind: ParseErrorKind::Empty,
                        ..
                    })
                ),
                "expected Empty for {input:?}, got {err}"
            );
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn roundtrip() {
        let g = crate::named::petersen();
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let loaded = read_edge_list(&buf[..]).unwrap();
        // Ids in the file are already dense and appear in sorted edge order,
        // so the roundtrip preserves the labeling exactly.
        assert_eq!(loaded.graph.m(), g.m());
        assert_eq!(loaded.graph.n(), g.n());
        let relabel: Vec<V> = loaded
            .original_ids
            .iter()
            .map(|&x| V::try_from(x).unwrap())
            .collect();
        let perm = crate::Perm::from_image(relabel).unwrap();
        assert_eq!(loaded.graph.permuted(&perm), g);
    }
}
