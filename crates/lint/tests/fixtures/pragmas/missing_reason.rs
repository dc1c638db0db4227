//! A pragma without a reason: it must itself be a finding, and the
//! violation it names must stay active.

pub fn f(xs: &[u32]) -> u32 {
    xs.len() as u32 // dvicl-lint: allow(narrowing-cast)
}
