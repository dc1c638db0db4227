//! Closed name catalogs generated from one list each.
//!
//! The counters and the span phases are each a fixed set of stable
//! names. [`catalog!`](crate::catalog) turns one `Variant = "name"` list
//! into the enum, its `ALL` array and its `name()` table, so the three
//! cannot drift apart, a misspelled variant is a compile error, and a
//! duplicated name fails constant evaluation.

/// Declares a closed catalog: a fieldless enum whose every variant
/// carries one stable name. The single list generates the enum,
/// `ALL` (every variant, in list order) and `name()`.
///
/// ```
/// dvicl_obs::catalog! {
///     /// Two demo names.
///     pub enum Demo {
///         /// The first.
///         First = "demo.first",
///         /// The second.
///         Second = "demo.second",
///     }
/// }
/// assert_eq!(Demo::ALL, [Demo::First, Demo::Second]);
/// assert_eq!(Demo::Second.name(), "demo.second");
/// ```
///
/// Two variants may not share a name:
///
/// ```compile_fail,E0080
/// dvicl_obs::catalog! {
///     /// One name listed twice.
///     pub enum Twice {
///         /// The first.
///         A = "same",
///         /// The second.
///         B = "same",
///     }
/// }
/// ```
#[macro_export]
macro_rules! catalog {
    (
        $(#[$meta:meta])*
        $vis:vis enum $ty:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $name:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis enum $ty {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: [$ty; [$($name),*].len()] = [$($ty::$variant),*];

            /// The variant's stable name.
            pub fn name(self) -> &'static str {
                match self {
                    $( $ty::$variant => $name, )*
                }
            }
        }

        const _: () = $crate::catalog::assert_distinct(&[$($name),*]);
    };
}

/// Fails constant evaluation when two catalog names are equal; called
/// by every [`catalog!`](crate::catalog) expansion.
#[doc(hidden)]
pub const fn assert_distinct(names: &[&str]) {
    let mut i = 0;
    while i < names.len() {
        let mut j = i + 1;
        while j < names.len() {
            assert!(
                !str_eq(names[i], names[j]),
                "a catalog lists one name twice"
            );
            j += 1;
        }
        i += 1;
    }
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut k = 0;
    while k < a.len() {
        if a[k] != b[k] {
            return false;
        }
        k += 1;
    }
    true
}
