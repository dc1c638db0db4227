//! graph6 encoding/decoding — the compact ASCII interchange format of the
//! nauty ecosystem (McKay's `formats.txt`). Supporting it makes the
//! library interoperable with the corpora the original tools ship with.
//!
//! Format recap: the vertex count is `n+63` as one byte for `n ≤ 62`,
//! `126` + 3 bytes (18 bits big-endian, 6 bits each `+63`) for
//! `n ≤ 258047`, or `126 126` + 6 bytes for larger `n`; then the upper
//! triangle of the adjacency matrix in column order
//! (`x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, …`), packed big-endian into 6-bit
//! groups, each `+63`.
//!
//! Decoding returns typed [`DviclError`]s and never panics; in particular
//! an oversized header (a declared `n` the payload cannot possibly back)
//! is rejected *before* any allocation proportional to `n`, so a
//! seven-byte string cannot demand gigabytes.

use crate::{Graph, GraphBuilder, V};
use dvicl_govern::{DviclError, ParseError, ParseErrorKind};

fn g6_err(kind: ParseErrorKind, detail: impl Into<String>) -> DviclError {
    DviclError::Parse(ParseError::new(kind, detail))
}

/// Encodes a graph as a graph6 ASCII string.
#[expect(
    clippy::cast_possible_truncation,
    reason = "each header byte encodes n <= 62 or a value masked to six bits"
)]
pub fn to_graph6(g: &Graph) -> String {
    let n = g.n();
    let mut out: Vec<u8> = Vec::new();
    if n <= 62 {
        out.push(n as u8 + 63);
    } else if n <= 258_047 {
        out.push(126);
        for shift in [12, 6, 0] {
            out.push(((n >> shift) & 0x3f) as u8 + 63);
        }
    } else {
        out.push(126);
        out.push(126);
        for shift in [30, 24, 18, 12, 6, 0] {
            out.push(((n >> shift) & 0x3f) as u8 + 63);
        }
    }
    // Upper-triangle bits in column order, 6 per byte, zero-padded.
    let mut acc = 0u8;
    let mut bits = 0u8;
    for j in g.vertices() {
        for i in 0..j {
            acc = acc << 1 | u8::from(g.has_edge(i, j));
            bits += 1;
            if bits == 6 {
                out.push(acc + 63);
                acc = 0;
                bits = 0;
            }
        }
    }
    if bits > 0 {
        out.push((acc << (6 - bits)) + 63);
    }
    // Every pushed byte is 63..=126, i.e. printable ASCII.
    out.into_iter().map(char::from).collect()
}

/// Decodes a graph6 ASCII string.
pub fn from_graph6(s: &str) -> Result<Graph, DviclError> {
    let bytes = s.trim_end().as_bytes();
    if bytes.is_empty() {
        return Err(g6_err(ParseErrorKind::Empty, "empty graph6 string"));
    }
    let mut pos = 0usize;
    let take = |pos: &mut usize| -> Result<u64, DviclError> {
        let b = *bytes.get(*pos).ok_or_else(|| {
            g6_err(
                ParseErrorKind::Truncated,
                "graph6 string ended before the declared data",
            )
        })?;
        *pos += 1;
        if !(63..=126).contains(&b) {
            return Err(g6_err(
                ParseErrorKind::BadByte(b),
                "bytes must be in the printable range 63..=126",
            ));
        }
        Ok((b - 63) as u64)
    };
    let n_raw: u64 = {
        let first = take(&mut pos)?;
        if first != 63 {
            first
        } else {
            // 126 encodes as value 63.
            let second = take(&mut pos)?;
            if second != 63 {
                let mut n = second;
                for _ in 0..2 {
                    n = n << 6 | take(&mut pos)?;
                }
                n
            } else {
                let mut n = 0u64;
                for _ in 0..6 {
                    n = n << 6 | take(&mut pos)?;
                }
                n
            }
        }
    };
    let Ok(n) = V::try_from(n_raw) else {
        return Err(g6_err(
            ParseErrorKind::TooLarge,
            format!(
                "declared vertex count {n_raw} exceeds the supported maximum {}",
                V::MAX
            ),
        ));
    };
    // Before building anything sized by n, verify the payload actually
    // carries the n(n-1)/2 adjacency bits the header promises. This is
    // the oversized-header guard: 36 bits of header can declare a graph
    // whose adjacency matrix alone needs petabytes.
    let total_bits = (n_raw as u128) * (n_raw as u128).saturating_sub(1) / 2;
    let required_bytes = total_bits.div_ceil(6);
    let available = (bytes.len() - pos) as u128;
    if available < required_bytes {
        return Err(g6_err(
            ParseErrorKind::Truncated,
            format!(
                "header declares {n_raw} vertices ({required_bytes} adjacency bytes) but only \
                 {available} bytes follow"
            ),
        ));
    }
    if available > required_bytes {
        return Err(g6_err(
            ParseErrorKind::TrailingData,
            format!(
                "{} bytes after the adjacency data",
                available - required_bytes
            ),
        ));
    }
    let total_bits = total_bits as usize;
    let mut b = GraphBuilder::new(n as usize);
    let mut consumed = 0usize;
    let mut cur = 0u64;
    let mut avail = 0u8;
    'outer: for j in 1..n {
        for i in 0..j {
            if avail == 0 {
                cur = take(&mut pos)?;
                avail = 6;
            }
            avail -= 1;
            if cur >> avail & 1 == 1 {
                b.add_edge(i, j);
            }
            consumed += 1;
            if consumed == total_bits {
                break 'outer;
            }
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;

    #[test]
    fn known_strings() {
        // Canonical examples from McKay's formats.txt and common usage.
        assert_eq!(to_graph6(&named::complete(4)), "C~");
        assert_eq!(to_graph6(&Graph::from_edges(5, &[])), "D??");
        assert_eq!(from_graph6("C~").unwrap(), named::complete(4));
        let p4 = from_graph6("CF").unwrap(); // 0-1,1-2? decode & sanity
        assert_eq!(p4.n(), 4);
    }

    #[test]
    fn roundtrip_named_graphs() {
        for g in [
            named::petersen(),
            named::fig1_example(),
            named::frucht(),
            named::complete_bipartite(3, 5),
            Graph::from_edges(1, &[]),
            Graph::from_edges(0, &[]),
            named::star(62), // n = 63: exercises the 3-byte size header
        ] {
            let enc = to_graph6(&g);
            let dec = from_graph6(&enc).expect("own encoding decodes");
            assert_eq!(dec, g, "roundtrip failed for {enc}");
        }
    }

    #[test]
    fn rejects_garbage_with_typed_errors() {
        let check = |s: &str, want: fn(&ParseErrorKind) -> bool| match from_graph6(s) {
            Err(DviclError::Parse(p)) => {
                assert!(want(&p.kind), "wrong kind {:?} for {s:?}", p.kind)
            }
            other => panic!("expected parse error for {s:?}, got {other:?}"),
        };
        check("", |k| matches!(k, ParseErrorKind::Empty));
        check("C", |k| matches!(k, ParseErrorKind::Truncated)); // K4 header without bits
        check("C~~", |k| matches!(k, ParseErrorKind::TrailingData)); // trailing data
        check("C\u{7}", |k| matches!(k, ParseErrorKind::BadByte(7))); // control byte
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        // "~~" + 6 bytes of '~' declares n = 2^36 - 1; honoring it would
        // allocate tens of gigabytes before noticing the missing payload.
        let bomb = "~~~~~~~~";
        match from_graph6(bomb) {
            Err(DviclError::Parse(p)) => {
                assert!(matches!(
                    p.kind,
                    ParseErrorKind::TooLarge | ParseErrorKind::Truncated
                ));
            }
            other => panic!("header bomb must be rejected, got {other:?}"),
        }
        // A merely large-but-plausible header with no payload: "~WY_"
        // declares n = 100000 and then ends. Must be Truncated, cheaply.
        assert!(matches!(
            from_graph6("~WY_"),
            Err(DviclError::Parse(ParseError {
                kind: ParseErrorKind::Truncated,
                ..
            }))
        ));
    }

    #[test]
    fn large_header() {
        let g = Graph::from_edges(100, &[]);
        let enc = to_graph6(&g);
        assert!(enc.starts_with('~'));
        assert_eq!(from_graph6(&enc).unwrap().n(), 100);
    }
}
