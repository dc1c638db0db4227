//! Clean fixture: widening casts are free; a narrowing cast carries an
//! `#[expect]` stating its range; checked conversion is the fix of choice.

pub fn widen(x: u32) -> (u64, usize, f64) {
    (x as u64, x as usize, x as f64)
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "x < n and n is capped at u32::MAX by the parser"
)]
pub fn proven(x: usize, n: usize) -> u32 {
    debug_assert!(x < n && n <= u32::MAX as usize);
    x as u32
}

pub fn checked(x: usize) -> Option<u16> {
    u16::try_from(x).ok()
}
