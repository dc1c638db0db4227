//! Tripping fixture (linted as a governed module): loops and
//! self-recursion in functions that never name the budget machinery
//! themselves.

pub fn unmetered_scan(xs: &[u32]) -> u32 {
    let mut acc = 0;
    for &x in xs {
        acc += x; // finding: loop, no budget named
    }
    acc
}

pub fn unmetered_descend(depth: u32) -> u32 {
    if depth == 0 {
        return 0;
    }
    1 + unmetered_descend(depth - 1) // finding: recursion, no budget named
}

fn tick(m: &Meter) -> Result<(), DviclError> {
    m.spend(1)
}

/// Its callee spends, but `walk` itself never names the budget: the
/// rule judges each function by itself, so who meters this loop must be
/// stated here.
pub fn walk(xs: &[u32], m: &Meter) -> Result<u32, DviclError> {
    let mut acc = 0;
    for &x in xs {
        tick(m)?; // finding: loop whose only metering is a callee
        acc += x;
    }
    Ok(acc)
}
