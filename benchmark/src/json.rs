//! Just enough JSON writing for the result line and the trace file.

use std::fmt::Display;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// a non-finite value (never produced by a healthy run) becomes `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// `null` or the value.
pub fn opt<T: Display>(x: Option<T>) -> String {
    x.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// An object from already-rendered values, keys in the given order.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_strings_numbers_and_objects() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(opt::<u8>(None), "null");
        assert_eq!(
            object(&[("a", "1".into()), ("b", string("x"))]),
            "{\"a\": 1, \"b\": \"x\"}"
        );
    }
}
