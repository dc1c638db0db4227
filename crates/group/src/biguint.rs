//! Minimal arbitrary-precision unsigned integers.
//!
//! Only the operations the reproduction needs: addition, multiplication,
//! factorials/binomials, comparison, decimal and scientific formatting.
//! Implemented from scratch (no external bignum crate) per the
//! build-every-substrate rule; limbs are base-2³² little-endian.

#![expect(
    clippy::cast_possible_truncation,
    reason = "u32-limb arithmetic: every cast extracts a masked limb, a carry below 2^32 or a digit below 10"
)]

use dvicl_govern::{Budget, DviclError};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign};

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian base-2³² limbs; no trailing zero limbs; empty = 0.
    limbs: Vec<u32>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a `u64`.
    pub fn from_u64(x: u64) -> Self {
        let mut limbs = vec![(x & 0xffff_ffff) as u32, (x >> 32) as u32];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// The value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | (self.limbs[1] as u64) << 32),
            _ => None,
        }
    }

    /// `n!` as a big integer.
    ///
    /// ```
    /// use dvicl_govern::Budget;
    /// use dvicl_group::BigUint;
    /// assert_eq!(BigUint::factorial(20).to_u64(), Some(2432902008176640000));
    /// let sci = BigUint::factorial(64).try_to_scientific(&Budget::unlimited())?;
    /// assert_eq!(sci, "1.26E89");
    /// # Ok::<(), dvicl_govern::DviclError>(())
    /// ```
    pub fn factorial(n: u64) -> Self {
        let mut acc = BigUint::one();
        for k in 2..=n {
            acc.mul_u64_assign(k);
        }
        acc
    }

    /// Binomial coefficient `C(n, k)`.
    pub fn binomial(n: u64, k: u64) -> Self {
        if k > n {
            return BigUint::zero();
        }
        let k = k.min(n - k);
        let mut num = BigUint::one();
        for i in 0..k {
            num.mul_u64_assign(n - i);
        }
        // Divide by k! using exact small division.
        for i in 2..=k {
            num = num.div_u32_exact(i as u32);
        }
        num
    }

    /// Multiplies in place by a `u64`.
    pub fn mul_u64_assign(&mut self, x: u64) {
        if x == 0 {
            self.limbs.clear();
            return;
        }
        let lo = (x & 0xffff_ffff) as u32;
        let hi = (x >> 32) as u32;
        if hi == 0 {
            self.mul_u32_assign(lo);
        } else {
            let mut high_part = self.clone();
            high_part.mul_u32_assign(hi);
            high_part.shl_limbs(1);
            self.mul_u32_assign(lo);
            *self += &high_part;
        }
    }

    fn mul_u32_assign(&mut self, x: u32) {
        if x == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry: u64 = 0;
        for l in &mut self.limbs {
            let prod = *l as u64 * x as u64 + carry;
            *l = (prod & 0xffff_ffff) as u32;
            carry = prod >> 32;
        }
        if carry > 0 {
            self.limbs.push(carry as u32);
        }
    }

    fn shl_limbs(&mut self, k: usize) {
        if !self.is_zero() {
            let mut new = vec![0u32; k];
            new.extend_from_slice(&self.limbs);
            self.limbs = new;
        }
    }

    /// Exact division by a small divisor; panics if the division leaves a
    /// remainder (used only where exactness is guaranteed, e.g. binomials).
    fn div_u32_exact(mut self, d: u32) -> BigUint {
        assert_eq!(
            self.div_rem_u32(d),
            0,
            "div_u32_exact called with inexact division"
        );
        self
    }

    /// Divides in place by a nonzero `d`, returning the remainder.
    fn div_rem_u32(&mut self, d: u32) -> u32 {
        assert!(d != 0, "division by zero");
        let d = u64::from(d);
        let mut rem: u64 = 0;
        for l in self.limbs.iter_mut().rev() {
            let cur = rem << 32 | u64::from(*l);
            *l = (cur / d) as u32;
            rem = cur % d;
        }
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
        rem as u32
    }

    /// Decimal string. Each pass divides by 10⁹ and emits nine digits,
    /// so a value of `d` digits costs about `d / 9` passes over its
    /// limbs; each pass spends one work unit of `budget`, because a
    /// 200 000-digit group order takes about a second to render.
    #[expect(
        clippy::expect_used,
        reason = "every byte is b'0' + d with d < 10, so the buffer is valid ASCII"
    )]
    pub fn try_to_decimal(&self, budget: &Budget) -> Result<String, DviclError> {
        if self.is_zero() {
            return Ok("0".to_string());
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            budget.spend(1)?;
            let mut chunk = cur.div_rem_u32(1_000_000_000);
            for _ in 0..9 {
                digits.push(b'0' + (chunk % 10) as u8);
                chunk /= 10;
            }
        }
        // The top chunk's leading zeros.
        while digits.last() == Some(&b'0') {
            digits.pop();
        }
        digits.reverse();
        Ok(String::from_utf8(digits).expect("digits are ASCII"))
    }

    /// The paper's table style: plain decimal when short, otherwise
    /// `d.ddE+ee` (e.g. `8.82E15`, `7.36E88`). Renders the whole decimal
    /// first, metered as [`BigUint::try_to_decimal`].
    pub fn try_to_scientific(&self, budget: &Budget) -> Result<String, DviclError> {
        let dec = self.try_to_decimal(budget)?;
        if dec.len() <= 7 {
            return Ok(dec);
        }
        let exp = dec.len() - 1;
        Ok(format!("{}.{}E{}", &dec[0..1], &dec[1..3], exp))
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        let n = self.limbs.len().max(rhs.limbs.len());
        self.limbs.resize(n, 0);
        let mut carry: u64 = 0;
        for i in 0..n {
            let sum = self.limbs[i] as u64 + *rhs.limbs.get(i).unwrap_or(&0) as u64 + carry;
            self.limbs[i] = (sum & 0xffff_ffff) as u32;
            carry = sum >> 32;
        }
        if carry > 0 {
            self.limbs.push(carry as u32);
        }
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = &*self * rhs;
    }
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
            }
            let mut k = i + rhs.limbs.len();
            while carry > 0 {
                let cur = out[k] as u64 + carry;
                out[k] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        BigUint { limbs: out }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.limbs
            .len()
            .cmp(&other.limbs.len())
            .then_with(|| self.limbs.iter().rev().cmp(other.limbs.iter().rev()))
    }
}

impl From<u64> for BigUint {
    fn from(x: u64) -> Self {
        BigUint::from_u64(x)
    }
}

// Unmetered: an unlimited budget never trips, so the `fmt::Error` arm is
// unreachable.
impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dec = self
            .try_to_decimal(&Budget::unlimited())
            .map_err(|_| fmt::Error)?;
        write!(f, "{dec}")
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_roundtrip() {
        for x in [0u64, 1, 9, 10, 4294967295, 4294967296, u64::MAX] {
            assert_eq!(BigUint::from_u64(x).to_u64(), Some(x));
            assert_eq!(BigUint::from_u64(x).to_string(), x.to_string());
        }
    }

    #[test]
    fn add_with_carry() {
        let mut a = BigUint::from_u64(u64::MAX);
        a += &BigUint::one();
        assert_eq!(a.to_string(), "18446744073709551616");
        assert_eq!(a.to_u64(), None);
    }

    #[test]
    fn mul_matches_u128() {
        let a = 123_456_789_012_345u64;
        let b = 987_654_321_098u64;
        let big = &BigUint::from_u64(a) * &BigUint::from_u64(b);
        assert_eq!(big.to_string(), (a as u128 * b as u128).to_string());
    }

    #[test]
    fn factorials() {
        assert_eq!(BigUint::factorial(0).to_u64(), Some(1));
        assert_eq!(BigUint::factorial(5).to_u64(), Some(120));
        assert_eq!(BigUint::factorial(20).to_u64(), Some(2432902008176640000));
        assert_eq!(
            BigUint::factorial(25).to_string(),
            "15511210043330985984000000"
        );
        assert_eq!(BigUint::factorial(100).to_string().len(), 158);
    }

    /// The per-digit reference: one division by 10 per digit.
    fn decimal_by_digit(x: &BigUint) -> String {
        let mut cur = x.clone();
        let mut digits = Vec::new();
        loop {
            digits.push(char::from(b'0' + cur.div_rem_u32(10) as u8));
            if cur.is_zero() {
                return digits.iter().rev().collect();
            }
        }
    }

    #[test]
    fn decimal_matches_the_per_digit_oracle() {
        let mut values: Vec<BigUint> = (0..=400).step_by(7).map(BigUint::factorial).collect();
        // Chunk boundaries: 10^(9k) and its neighbours, zeros inside chunks.
        let mut power = BigUint::one();
        for _ in 0..5 {
            power.mul_u64_assign(1_000_000_000);
            values.push(power.clone());
            values.push(&power + &BigUint::one());
            let mut below = power.clone();
            below.mul_u64_assign(7);
            values.push(below);
        }
        values.push(BigUint::from_u64(999_999_999));
        // Random limbs (xorshift64), 1 to 40 limbs long.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in 1..=40 {
            let mut limbs = Vec::new();
            for _ in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                limbs.push(state as u32);
            }
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            values.push(BigUint { limbs });
        }
        for x in &values {
            assert_eq!(x.to_string(), decimal_by_digit(x));
        }
    }

    #[test]
    fn rendering_is_metered() {
        use dvicl_govern::Resource;
        // 50 000!, the order of a 50 000-leaf star, takes about 23 700
        // division passes.
        let x = BigUint::factorial(50_000);
        for render in [BigUint::try_to_decimal, BigUint::try_to_scientific] {
            assert!(matches!(
                render(&x, &Budget::with_max_work(10)),
                Err(DviclError::BudgetExceeded {
                    resource: Resource::WorkUnits,
                    ..
                })
            ));
        }
        // Its 213 237 digits, checked at both ends: the per-digit oracle
        // needs about 35 s on it in a debug build, so it runs on 5 000!.
        let dec = x.try_to_decimal(&Budget::unlimited()).unwrap();
        assert_eq!(dec.len(), 213_237);
        assert!(dec.starts_with("33473205095971448369"));
        assert_eq!(dec.len() - dec.trim_end_matches('0').len(), 12_499);
        let y = BigUint::factorial(5_000);
        assert_eq!(
            y.try_to_decimal(&Budget::unlimited()).unwrap(),
            decimal_by_digit(&y)
        );
    }

    #[test]
    fn binomials() {
        assert_eq!(BigUint::binomial(10, 3).to_u64(), Some(120));
        assert_eq!(BigUint::binomial(52, 5).to_u64(), Some(2598960));
        assert_eq!(BigUint::binomial(5, 9).to_u64(), Some(0));
        assert_eq!(BigUint::binomial(7, 0).to_u64(), Some(1));
        // C(100, 50) has a known value.
        assert_eq!(
            BigUint::binomial(100, 50).to_string(),
            "100891344545564193334812497256"
        );
    }

    #[test]
    fn scientific_formatting() {
        let sci = |x: BigUint| x.try_to_scientific(&Budget::unlimited()).unwrap();
        assert_eq!(sci(BigUint::from_u64(8_820_000)), "8820000");
        assert_eq!(sci(BigUint::from_u64(8_820_000_000_000_000)), "8.82E15");
        assert_eq!(sci(BigUint::factorial(64)), "1.26E89");
    }

    #[test]
    fn ordering() {
        assert!(BigUint::factorial(10) < BigUint::factorial(11));
        assert!(BigUint::from_u64(5) > BigUint::zero());
        assert_eq!(
            BigUint::from_u64(42).cmp(&BigUint::from_u64(42)),
            Ordering::Equal
        );
    }
}
