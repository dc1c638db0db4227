//! Vendored offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the subset of proptest it uses: the `Strategy` trait with
//! `prop_map`/`prop_flat_map`, integer-range and tuple and
//! `collection::vec` strategies, `any::<T>()`, the `proptest!` macro,
//! and `prop_assert!`/`prop_assert_eq!`. Sampling is deterministic per
//! test (seeded from the test name) and there is no shrinking: a failing
//! case reports its inputs via the assertion message instead.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    /// Mirror of `proptest::test_runner::Config` (only `cases` is used).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    impl Config {
        /// Builds a config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    /// Deterministic splitmix64 generator used to drive strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream from an arbitrary label (the test name), so
        /// each property gets its own fixed, reproducible sequence.
        pub fn deterministic(label: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in label.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: seed }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

use test_runner::TestRng;

/// A source of random values of an associated type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into `f` to pick a dependent strategy.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy adapter returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy adapter returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u128;
                    self.start + (rng.next_u64() as u128 % span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u128 + 1;
                    lo + (rng.next_u64() as u128 % span) as $t
                }
            }
        )*
    };
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {
        $(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*
    };
}
impl_tuple_strategy!((A, B)(A, B, C)(A, B, C, D));

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {
        $(impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        })*
    };
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for i32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as i32
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as i64
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a collection size.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S`.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Builds a `Vec` strategy of `size` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, Strategy};
}

/// Defines property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `fn name()` that draws `config.cases` samples and runs the
/// body; `prop_assert*` failures abort the case with a message carrying
/// the offending values (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case_index in 0..config.cases {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(message) = outcome {
                        panic!("property {} failed at case {}: {}",
                               stringify!($name), case_index, message);
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside `proptest!`, failing the case (not the
/// whole process) with a formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Asserts equality inside `proptest!` with value-carrying diagnostics.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`): {}",
            stringify!($left), stringify!($right), l, r, format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Wrapper(u64);

    impl crate::Arbitrary for Wrapper {
        fn arbitrary(rng: &mut crate::test_runner::TestRng) -> Self {
            Wrapper(rng.next_u64())
        }
    }

    proptest! {
        #[test]
        fn ranges_are_honoured(n in 3usize..10, m in 0u32..=4) {
            prop_assert!((3..10).contains(&n), "n={}", n);
            prop_assert!(m <= 4);
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0u32..6, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            for x in &v {
                prop_assert!(*x < 6);
            }
        }

        #[test]
        fn flat_map_and_tuples((n, k) in (1usize..8).prop_flat_map(|n| (Just(n), 0usize..n))) {
            prop_assert!(k < n);
        }

        #[test]
        fn early_return_ok_is_supported(n in 0u8..4) {
            if n == 0 {
                return Ok(());
            }
            prop_assert_ne!(n, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_form_parses(seed in any::<u64>()) {
            let w = Wrapper(seed);
            prop_assert_eq!(w.clone(), w);
        }
    }
}
