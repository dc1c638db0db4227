//! Clean fixture (linted as a governed module): a loop that spends
//! directly, a bounded helper with a pragma, and a loop-free function.

pub fn metered_scan(xs: &[u32], budget: &Budget) -> Result<u32, DviclError> {
    let mut acc = 0;
    for &x in xs {
        budget.spend(1)?;
        acc += x;
    }
    Ok(acc)
}

// dvicl-lint: allow(budget-reachability) -- O(1) helper; metered_scan spends one unit per element before calling it
pub fn bounded_helper(xs: &[u32]) -> u32 {
    let mut h = 0;
    for &x in xs.iter().take(4) {
        h ^= x;
    }
    h
}

pub fn no_loops(a: u32, b: u32) -> u32 {
    a.wrapping_mul(b)
}
