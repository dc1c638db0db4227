//! A hand-rolled JSON writer.
//!
//! The workspace has no serialization dependency (it builds offline
//! from vendored shims only), so the run report's `--trace-json` line
//! and the bench `BENCH_*.json` records build their output through
//! these two small append-only builders. They emit a *subset* of JSON —
//! object literals with string / number / bool / null values, and
//! arrays of objects — which is all the schemas in DESIGN.md §9 need.

fn esc(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        // JSON has no NaN/Inf; null is the least-surprising stand-in.
        out.push_str("null");
    }
}

/// Builder for a JSON object literal. Methods take and return `self`
/// so records read as one chained expression.
///
/// ```
/// use dvicl_obs::JsonObj;
/// let s = JsonObj::new().str("graph", "k_10").u64("n", 10).finish();
/// assert_eq!(s, r#"{"graph":"k_10","n":10}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
    any: bool,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('"');
        esc(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        esc(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field; non-finite values become `null`.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        push_f64(&mut self.buf, v);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a `null` field.
    pub fn null(mut self, k: &str) -> Self {
        self.key(k);
        self.buf.push_str("null");
        self
    }

    /// Adds a nested object field.
    pub fn obj(mut self, k: &str, v: JsonObj) -> Self {
        self.key(k);
        self.buf.push_str(&v.finish());
        self
    }

    /// Adds a nested array field.
    pub fn arr(mut self, k: &str, v: JsonArr) -> Self {
        self.key(k);
        self.buf.push_str(&v.finish());
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(self) -> String {
        let mut buf = self.buf;
        buf.insert(0, '{');
        buf.push('}');
        buf
    }
}

/// Builder for a JSON array of [`JsonObj`] elements.
///
/// ```
/// use dvicl_obs::{JsonArr, JsonObj};
/// let s = JsonArr::new().push_obj(JsonObj::new().u64("n", 1)).finish();
/// assert_eq!(s, r#"[{"n":1}]"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonArr {
    buf: String,
    any: bool,
}

impl JsonArr {
    /// Starts an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
    }

    /// Appends a nested object element.
    pub fn push_obj(mut self, v: JsonObj) -> Self {
        self.sep();
        self.buf.push_str(&v.finish());
        self
    }

    /// Closes the array and returns the JSON text.
    pub fn finish(self) -> String {
        let mut buf = self.buf;
        buf.insert(0, '[');
        buf.push(']');
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let s = JsonObj::new().str("k", "a\"b\\c\n\t\u{1}").finish();
        assert_eq!(s, "{\"k\":\"a\\\"b\\\\c\\n\\t\\u0001\"}");
    }

    #[test]
    fn nested_structures_and_non_finite_floats() {
        let s = JsonObj::new()
            .f64("ok", 1.5)
            .f64("bad", f64::NAN)
            .arr(
                "xs",
                JsonArr::new().push_obj(JsonObj::new().bool("b", true)),
            )
            .null("none")
            .finish();
        assert_eq!(s, r#"{"ok":1.5,"bad":null,"xs":[{"b":true}],"none":null}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonObj::new().finish(), "{}");
        assert_eq!(JsonArr::new().finish(), "[]");
    }
}
