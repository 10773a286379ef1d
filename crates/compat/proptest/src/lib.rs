//! Minimal vendored stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this workspace ships
//! the subset of proptest its property tests use: the [`Strategy`]
//! trait with `prop_map` / `prop_flat_map`, range and tuple strategies,
//! [`collection::vec`], the [`proptest!`] test macro with an optional
//! `#![proptest_config(...)]` header, and the `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the case index and
//!   the assertion message; rerunning is deterministic (cases are
//!   seeded from the case index), so failures reproduce exactly.
//! * Uniform (not bias-weighted) sampling over ranges.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub use strategy::Strategy;

/// The glob-importable surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Mirrors `proptest::prelude::prop`, the module-path entry point
    /// (`prop::collection::vec(...)`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Defines property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop(x in 0u32..10, v in prop::collection::vec(0.0..1.0f64, 3)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::case_rng(
                        config.seed_offset,
                        stringify!($name),
                        case,
                    );
                    $(let $arg =
                        $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            case,
                            config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default())
            $($rest)*
        );
    };
}

/// Fails the current case with a message unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!(
                    "{} (left: {:?}, right: {:?})",
                    format!($($fmt)*),
                    l,
                    r
                )),
            );
        }
    }};
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {} (both: {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}
