//! A pragma without a reason: it must itself be a finding, and the
//! violation it names must stay active.

pub fn f(flag: bool) -> Result<u32, String> { // dvicl-lint: allow(error-taxonomy)
    if flag {
        Ok(7)
    } else {
        Ok(0)
    }
}
