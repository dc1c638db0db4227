//! Clean fixture: non-panicking adapters, an `#[expect]`ed invariant,
//! and a test module that unwraps freely (as tests should). Checked by
//! CI with `clippy-driver` under the workspace's clippy lint levels.

pub fn lookup(xs: &[u32]) -> Option<u32> {
    let first = xs.first().copied().unwrap_or(0);
    let second = xs.get(1).copied().unwrap_or_default();
    Some(first + second)
}

#[expect(
    clippy::expect_used,
    reason = "xs verified non-empty by the caller's constructor"
)]
pub fn invariant_indexing(xs: &[u32]) -> u32 {
    *xs.first().expect("non-empty by construction")
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_unwrap_freely() {
        let xs = [1, 2];
        assert_eq!(*xs.first().unwrap(), 1);
    }
}
