//! The `DVIX1` on-disk index format: save and load for
//! [`FingerprintIndex`].
//!
//! Layout (all integers LEB128 varints, so the format is
//! endianness-free and small graphs stay small on disk):
//!
//! ```text
//! "DVIX1\n"                                 magic, 6 bytes
//! varint class_count
//! class_count × {
//!     varint fingerprint.hi
//!     varint fingerprint.lo
//!     varint members                         >= 1
//!     varint color_run_count
//!     color_run_count × { varint color; varint multiplicity }
//!     varint edge_count
//!     edge_count × { varint du; varint v }   u delta-coded: u = prev_u + du
//! }
//! ```
//!
//! Nothing follows the last class — trailing bytes are a
//! [`ParseErrorKind::TrailingData`] error, exactly like the graph
//! parsers. The fingerprint is stored (not recomputed on load) because
//! it is the probe key existing clients hold; a paranoid load re-derives
//! it from the decoded form and rejects mismatches as witness failures,
//! which is how index-file corruption that varint decoding cannot see
//! is caught.
//!
//! **Hardening.** The loader never allocates from a declared count
//! alone: every count is first checked against the number of bytes
//! actually remaining (each color run and each edge costs at least two
//! bytes), so a 6-byte file claiming 2⁶⁴ classes fails with
//! [`ParseErrorKind::TooLarge`] instead of reserving memory — the same
//! header-bomb guard the graph6 reader uses.

use crate::{bucket_id, FingerprintIndex, IsoClass};
use dvicl_govern::{DviclError, ParseError, ParseErrorKind};
use dvicl_graph::{CanonForm, Fingerprint, V};
use dvicl_obs::{self as obs, Counter, Phase};
use std::io::{Read, Write};
use std::path::Path;

/// The 6-byte magic every `DVIX1` file starts with.
pub const MAGIC: &[u8; 6] = b"DVIX1\n";

/// Appends `x` as a LEB128-style varint (self-delimiting, so a varint
/// sequence is a prefix code).
fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A cursor over the loaded file body with typed-error decoding.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes one varint; `Truncated` if the input ends first,
    /// `Overflow` past 64 bits.
    fn varint(&mut self) -> Result<u64, ParseError> {
        let mut x: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(ParseError::new(
                    ParseErrorKind::Truncated,
                    format!("input ended inside a varint at byte {}", self.pos),
                ));
            };
            self.pos += 1;
            let low = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(ParseError::new(
                    ParseErrorKind::Overflow,
                    format!("varint ending at byte {} exceeds 64 bits", self.pos),
                ));
            }
            x |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    /// A declared element count, validated against the bytes actually
    /// remaining (`min_bytes_each` per element) before the caller
    /// allocates anything.
    fn checked_count(&mut self, what: &str, min_bytes_each: usize) -> Result<usize, ParseError> {
        let declared = self.varint()?;
        let cap = self.remaining() / min_bytes_each.max(1);
        match usize::try_from(declared) {
            Ok(count) if count <= cap => Ok(count),
            _ => Err(ParseError::new(
                ParseErrorKind::TooLarge,
                format!(
                    "declared {declared} {what} but only {} bytes remain",
                    self.remaining()
                ),
            )),
        }
    }

    /// A vertex-sized field (`V` is u32 on every platform).
    fn vertex(&mut self, what: &str) -> Result<V, ParseError> {
        let x = self.varint()?;
        V::try_from(x).map_err(|_| {
            ParseError::new(
                ParseErrorKind::Overflow,
                format!("{what} {x} exceeds the vertex representation"),
            )
        })
    }
}

impl FingerprintIndex {
    /// Serializes the index in `DVIX1` format.
    pub fn save_to(&self, w: &mut impl Write) -> Result<(), DviclError> {
        let _span = obs::span(Phase::IndexSave);
        let mut buf: Vec<u8> = Vec::with_capacity(64 + 16 * self.classes().len());
        buf.extend_from_slice(MAGIC);
        push_varint(&mut buf, self.classes().len() as u64);
        for class in self.classes() {
            push_varint(&mut buf, class.fingerprint.hi);
            push_varint(&mut buf, class.fingerprint.lo);
            push_varint(&mut buf, class.members);
            push_varint(&mut buf, class.form.colors.len() as u64);
            for &(color, mult) in &class.form.colors {
                push_varint(&mut buf, u64::from(color));
                push_varint(&mut buf, u64::from(mult));
            }
            push_varint(&mut buf, class.form.edges.len() as u64);
            let mut prev_u = 0u64;
            for &(u, v) in &class.form.edges {
                push_varint(&mut buf, u64::from(u) - prev_u);
                push_varint(&mut buf, u64::from(v));
                prev_u = u64::from(u);
            }
        }
        w.write_all(&buf)
            .map_err(|e| DviclError::invalid(format!("cannot write index: {e}")))
    }

    /// Saves the index to `path` (see [`FingerprintIndex::save_to`]).
    pub fn save(&self, path: &Path) -> Result<(), DviclError> {
        let mut file = std::fs::File::create(path)
            .map_err(|e| DviclError::invalid(format!("cannot create {}: {e}", path.display())))?;
        self.save_to(&mut file)
    }

    /// Deserializes a `DVIX1` index. Format damage surfaces as typed
    /// [`DviclError::Parse`] errors (truncation, overflow, bad magic,
    /// trailing data); with `paranoid`, every class's fingerprint is
    /// re-derived from its decoded form and a mismatch is a
    /// [`DviclError::WitnessFailure`] — corrupted-but-well-formed files
    /// do not enter service.
    pub fn load_from(r: &mut impl Read, paranoid: bool) -> Result<FingerprintIndex, DviclError> {
        let _span = obs::span(Phase::IndexLoad);
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)
            .map_err(|e| DviclError::invalid(format!("cannot read index: {e}")))?;
        if buf.is_empty() {
            return Err(ParseError::new(ParseErrorKind::Empty, "no index data").into());
        }
        if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
            let bad = buf
                .iter()
                .zip(MAGIC.iter())
                .find(|(got, want)| got != want)
                .map(|(&got, _)| got)
                .unwrap_or(0);
            return Err(ParseError::new(
                ParseErrorKind::BadByte(bad),
                "not a DVIX1 index (bad magic)",
            )
            .into());
        }
        let mut cur = Cursor {
            buf: &buf,
            pos: MAGIC.len(),
        };
        // A class costs at least 5 bytes (fp.hi, fp.lo, members, two
        // zero counts); runs and edges at least 2 each.
        let class_count = cur.checked_count("classes", 5)?;
        let mut index = FingerprintIndex::new();
        for c in 0..class_count {
            let hi = cur.varint()?;
            let lo = cur.varint()?;
            let fingerprint = Fingerprint { hi, lo };
            let members = cur.varint()?;
            if members == 0 {
                return Err(DviclError::invalid(format!(
                    "index class {c} declares zero members"
                )));
            }
            let run_count = cur.checked_count("color runs", 2)?;
            let mut colors: Vec<(V, V)> = Vec::with_capacity(run_count);
            for _ in 0..run_count {
                let color = cur.vertex("color")?;
                let mult = cur.vertex("multiplicity")?;
                colors.push((color, mult));
            }
            let edge_count = cur.checked_count("edges", 2)?;
            let mut edges: Vec<(V, V)> = Vec::with_capacity(edge_count);
            let mut prev_u = 0u64;
            for _ in 0..edge_count {
                let du = cur.varint()?;
                let u = prev_u.checked_add(du).ok_or_else(|| {
                    ParseError::new(ParseErrorKind::Overflow, "edge source delta overflows")
                })?;
                prev_u = u;
                let u = V::try_from(u).map_err(|_| {
                    ParseError::new(
                        ParseErrorKind::Overflow,
                        format!("edge source {u} exceeds the vertex representation"),
                    )
                })?;
                let v = cur.vertex("edge target")?;
                edges.push((u, v));
            }
            let form = CanonForm { colors, edges };
            if paranoid {
                obs::bump(Counter::VerifyChecks);
                let recomputed = Fingerprint::of_form(&form);
                if recomputed != fingerprint {
                    obs::bump(Counter::VerifyFailures);
                    return Err(DviclError::witness(
                        "index_load",
                        format!(
                            "class {c}: stored fingerprint {fingerprint} does not match \
                             the stored form's {recomputed}"
                        ),
                    ));
                }
            }
            index.push_loaded(IsoClass {
                fingerprint,
                form,
                members,
            })?;
        }
        if cur.remaining() > 0 {
            return Err(ParseError::new(
                ParseErrorKind::TrailingData,
                format!("{} bytes after the last class", cur.remaining()),
            )
            .into());
        }
        Ok(index)
    }

    /// Loads an index from `path` (see [`FingerprintIndex::load_from`]).
    pub fn load(path: &Path, paranoid: bool) -> Result<FingerprintIndex, DviclError> {
        let mut file = std::fs::File::open(path)
            .map_err(|e| DviclError::invalid(format!("cannot open {}: {e}", path.display())))?;
        FingerprintIndex::load_from(&mut file, paranoid)
    }

    /// Appends a deserialized class, rebuilding the probe bucket. Load
    /// path only — bypasses the insert counters and witness check.
    fn push_loaded(&mut self, class: IsoClass) -> Result<(), DviclError> {
        let fingerprint = class.fingerprint;
        let id = bucket_id(self.classes.len())?;
        self.classes.push(class);
        self.buckets.entry(fingerprint).or_default().push(id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvicl_core::{Budget, Session};
    use dvicl_graph::{named, Graph};

    fn canonical_form(g: &Graph) -> CanonForm {
        Session::default()
            .try_canonical_form(g, &Budget::unlimited())
            .expect("unlimited build cannot fail")
    }

    fn sample_index() -> FingerprintIndex {
        let mut idx = FingerprintIndex::new();
        for g in [
            named::petersen(),
            named::cycle(8),
            named::path(8),
            named::complete_bipartite(3, 4),
            named::frucht(),
        ] {
            let form = canonical_form(&g);
            let fp = Fingerprint::of_form(&form);
            idx.insert(fp, form, false).expect("insert");
        }
        // One repeated member so member counts round-trip too.
        let form = canonical_form(&named::cycle(8));
        let fp = Fingerprint::of_form(&form);
        idx.insert(fp, form, false).expect("insert");
        idx
    }

    fn saved(idx: &FingerprintIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        idx.save_to(&mut buf).expect("save");
        buf
    }

    #[test]
    fn round_trip_preserves_everything() {
        let idx = sample_index();
        let bytes = saved(&idx);
        let loaded =
            FingerprintIndex::load_from(&mut bytes.as_slice(), true).expect("load paranoid");
        assert_eq!(loaded.classes(), idx.classes());
        assert_eq!(loaded.members_total(), idx.members_total());
        // Lookups behave identically after the round trip.
        let form = canonical_form(&named::petersen());
        let fp = Fingerprint::of_form(&form);
        assert_eq!(loaded.lookup(fp, &form), idx.lookup(fp, &form));
    }

    #[test]
    fn empty_index_round_trips() {
        let bytes = saved(&FingerprintIndex::new());
        assert_eq!(bytes, [MAGIC.as_slice(), &[0x00]].concat());
        let loaded = FingerprintIndex::load_from(&mut bytes.as_slice(), true).expect("load");
        assert!(loaded.is_empty());
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = FingerprintIndex::load_from(&mut b"DVIX2\nxxxx".as_slice(), false)
            .expect_err("bad magic");
        assert!(matches!(
            err,
            DviclError::Parse(ParseError {
                kind: ParseErrorKind::BadByte(b'2'),
                ..
            })
        ));
        let err = FingerprintIndex::load_from(&mut b"".as_slice(), false).expect_err("empty");
        assert!(matches!(
            err,
            DviclError::Parse(ParseError {
                kind: ParseErrorKind::Empty,
                ..
            })
        ));
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        let bytes = saved(&sample_index());
        // Cutting the file anywhere strictly inside the body must fail
        // with a typed parse error, never a panic or a silent partial
        // index.
        for cut in MAGIC.len()..bytes.len() {
            let err =
                FingerprintIndex::load_from(&mut &bytes[..cut], false).expect_err("truncated load");
            assert!(
                matches!(
                    err,
                    DviclError::Parse(ParseError {
                        kind: ParseErrorKind::Truncated | ParseErrorKind::TooLarge,
                        ..
                    })
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn trailing_data_is_typed() {
        let mut bytes = saved(&sample_index());
        bytes.push(0x00);
        let err = FingerprintIndex::load_from(&mut bytes.as_slice(), false).expect_err("trailing");
        assert!(matches!(
            err,
            DviclError::Parse(ParseError {
                kind: ParseErrorKind::TrailingData,
                ..
            })
        ));
    }

    #[test]
    fn header_bomb_is_rejected_before_allocation() {
        // Magic + a varint claiming u64::MAX classes, then nothing: the
        // checked_count guard must refuse without reserving.
        let mut bytes = MAGIC.to_vec();
        push_varint(&mut bytes, u64::MAX);
        let err = FingerprintIndex::load_from(&mut bytes.as_slice(), false).expect_err("bomb");
        assert!(matches!(
            err,
            DviclError::Parse(ParseError {
                kind: ParseErrorKind::TooLarge,
                ..
            })
        ));
    }

    #[test]
    fn corrupted_payload_fails_paranoid_witness_check() {
        let mut bytes = saved(&sample_index());
        // Flip a byte near the end of the body (inside some class's
        // edge list, past the counts) — varint decoding may still
        // succeed, but the paranoid fingerprint re-derivation must
        // reject the class.
        let target = bytes.len() - 2;
        bytes[target] ^= 0x01;
        match FingerprintIndex::load_from(&mut bytes.as_slice(), true) {
            Err(
                DviclError::WitnessFailure { .. }
                | DviclError::Parse(_)
                | DviclError::InvalidInput(_),
            ) => {}
            Ok(_) => panic!("corrupted index accepted under --paranoid"),
            Err(e) => panic!("unexpected error class: {e:?}"),
        }
    }

    #[test]
    fn zero_members_is_rejected() {
        let mut bytes = MAGIC.to_vec();
        push_varint(&mut bytes, 1); // one class
        push_varint(&mut bytes, 7); // fp.hi
        push_varint(&mut bytes, 9); // fp.lo
        push_varint(&mut bytes, 0); // members = 0 (invalid)
        push_varint(&mut bytes, 0); // no color runs
        push_varint(&mut bytes, 0); // no edges
        let err = FingerprintIndex::load_from(&mut bytes.as_slice(), false).expect_err("invalid");
        assert!(matches!(err, DviclError::InvalidInput(_)));
    }

    #[test]
    fn save_and_load_via_files() {
        let dir = std::env::temp_dir().join(format!("dvix-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("corpus.dvix");
        let idx = sample_index();
        idx.save(&path).expect("save to file");
        let loaded = FingerprintIndex::load(&path, true).expect("load from file");
        assert_eq!(loaded.classes(), idx.classes());
        let missing = FingerprintIndex::load(&dir.join("absent.dvix"), false);
        assert!(matches!(missing, Err(DviclError::InvalidInput(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
