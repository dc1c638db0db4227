//! Tripping fixture: the three narrowing casts, each denied by
//! `clippy::cast_possible_truncation`.

pub fn narrow(x: usize) -> (u8, u16, u32) {
    (x as u8, x as u16, x as u32) // three findings
}
