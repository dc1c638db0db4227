//! A well-formed pragma: states its rule and reason, fully clean.

// dvicl-lint: allow(error-taxonomy) -- the message is the whole payload, shown verbatim
pub fn f(flag: bool) -> Result<u32, String> {
    if flag {
        Ok(7)
    } else {
        Ok(0)
    }
}
