//! A well-formed pragma: states its rule and reason, fully clean.

pub fn f(xs: &[u32; 4]) -> u8 {
    // dvicl-lint: allow(narrowing-cast) -- a fixed-size array of 4 has length < u8::MAX
    xs.len() as u8
}
