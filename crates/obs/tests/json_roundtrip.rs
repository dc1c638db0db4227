//! The `JsonSink` must emit valid NDJSON: every line a complete JSON
//! object, parseable without serde. The checker below is a tiny
//! recursive-descent JSON reader — enough to round-trip the hand-rolled
//! writer's output and inspect a few fields (satellite requirement).

use dvicl_obs::{JsonObj, JsonSink, PhaseRow, Sink, Summary, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A writer the test can read back after handing ownership to the sink.
#[derive(Clone)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().map_err(|_| std::io::ErrorKind::Other)?.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A parsed JSON value (test-local; the workspace has no serde).
#[derive(Debug, Clone, PartialEq)]
enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(BTreeMap<String, J>),
}

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.s.len() && self.s[self.i] == b {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", b as char, self.i))
        }
    }
    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.s.get(self.i).ok_or("eof in string")?;
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("eof in escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("eof in \\u")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u")?);
                        }
                        other => return Err(format!("bad escape {:?}", other as char)),
                    }
                }
                b => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.i - 1;
                    let chunk = self.s.get(start..start + len).ok_or("eof in utf8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.i = start + len;
                }
            }
        }
    }
    fn value(&mut self) -> Result<J, String> {
        match self.peek().ok_or("eof")? {
            b'{' => {
                self.eat(b'{')?;
                let mut map = BTreeMap::new();
                if self.peek() == Some(b'}') {
                    self.eat(b'}')?;
                    return Ok(J::Obj(map));
                }
                loop {
                    let k = self.string()?;
                    self.eat(b':')?;
                    map.insert(k, self.value()?);
                    match self.peek().ok_or("eof in obj")? {
                        b',' => self.eat(b',')?,
                        b'}' => {
                            self.eat(b'}')?;
                            return Ok(J::Obj(map));
                        }
                        other => return Err(format!("bad obj sep {:?}", other as char)),
                    }
                }
            }
            b'[' => {
                self.eat(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.eat(b']')?;
                    return Ok(J::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek().ok_or("eof in arr")? {
                        b',' => self.eat(b',')?,
                        b']' => {
                            self.eat(b']')?;
                            return Ok(J::Arr(items));
                        }
                        other => return Err(format!("bad arr sep {:?}", other as char)),
                    }
                }
            }
            b'"' => Ok(J::Str(self.string()?)),
            b't' => {
                self.lit("true")?;
                Ok(J::Bool(true))
            }
            b'f' => {
                self.lit("false")?;
                Ok(J::Bool(false))
            }
            b'n' => {
                self.lit("null")?;
                Ok(J::Null)
            }
            _ => {
                self.ws();
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .map_err(|e| e.to_string())?
                    .parse::<f64>()
                    .map(J::Num)
                    .map_err(|e| e.to_string())
            }
        }
    }
    fn lit(&mut self, word: &str) -> Result<(), String> {
        self.ws();
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(format!("expected {word}"))
        }
    }
}

fn parse(line: &str) -> Result<J, String> {
    let mut p = P {
        s: line.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {} in {line:?}", p.i));
    }
    Ok(v)
}

#[expect(
    clippy::panic,
    reason = "test helper: a panic here fails the calling test, which is the intent"
)]
fn obj(v: &J) -> &BTreeMap<String, J> {
    match v {
        J::Obj(m) => m,
        other => panic!("expected object, got {other:?}"),
    }
}

#[test]
fn ndjson_events_and_summary_round_trip() {
    let buf = Shared(Arc::new(Mutex::new(Vec::new())));
    let sink = JsonSink::new(Box::new(buf.clone()));

    sink.event(
        "budget_trip",
        &[
            ("resource", Value::Str("deadline \"2s\"\n".into())),
            ("spent", Value::U64(42)),
            ("ratio", Value::F64(0.5)),
            ("hard", Value::Bool(true)),
        ],
    );
    let mut summary = Summary::default();
    summary.phases.push(PhaseRow {
        label: "canon.search",
        calls: 3,
        total_ms: 1.5,
        self_ms: 1.25,
    });
    sink.finish(&summary);

    let bytes = buf.0.lock().expect("test buffer").clone();
    let text = String::from_utf8(bytes).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one event + one summary line: {text:?}");

    let ev = parse(lines[0]).expect("event line parses");
    let ev = obj(&ev);
    assert_eq!(ev.get("type"), Some(&J::Str("event".into())));
    assert_eq!(ev.get("name"), Some(&J::Str("budget_trip".into())));
    let fields = obj(ev.get("fields").expect("fields"));
    assert_eq!(
        fields.get("resource"),
        Some(&J::Str("deadline \"2s\"\n".into()))
    );
    assert_eq!(fields.get("spent"), Some(&J::Num(42.0)));
    assert_eq!(fields.get("hard"), Some(&J::Bool(true)));

    let su = parse(lines[1]).expect("summary line parses");
    let su = obj(&su);
    assert_eq!(su.get("type"), Some(&J::Str("summary".into())));
    let inner = obj(su.get("summary").expect("summary"));
    let counters = obj(inner.get("counters").expect("counters"));
    assert!(counters.contains_key("search_nodes"));
    match inner.get("phases") {
        Some(J::Arr(rows)) => {
            let row = obj(&rows[0]);
            assert_eq!(row.get("label"), Some(&J::Str("canon.search".into())));
            assert_eq!(row.get("calls"), Some(&J::Num(3.0)));
        }
        other => panic!("expected phases array, got {other:?}"),
    }
}

#[test]
fn writer_output_is_valid_json_for_tricky_strings() {
    let tricky = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{00e9}";
    let line = JsonObj::new().str("k", tricky).finish();
    let parsed = parse(&line).expect("parses");
    assert_eq!(obj(&parsed).get("k"), Some(&J::Str(tricky.into())));
}
