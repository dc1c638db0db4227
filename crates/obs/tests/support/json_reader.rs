//! A tiny recursive-descent JSON reader for tests (the workspace has no
//! serde): enough to parse the hand-rolled writer's output and inspect
//! its fields. Shared by the `dvicl-obs` round trip and the `dvicl` CLI
//! report tests.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
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
                while self.s.get(self.i).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
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

/// Parses one complete JSON value; trailing bytes are an error.
pub fn parse(line: &str) -> Result<J, String> {
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
pub fn obj(v: &J) -> &BTreeMap<String, J> {
    match v {
        J::Obj(m) => m,
        other => panic!("expected object, got {other:?}"),
    }
}
