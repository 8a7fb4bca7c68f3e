//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The workspace builds with no crates.io access, so the subset of the
//! proptest 1.x API that this repo's property tests use is implemented here
//! and wired in via a workspace path dependency:
//!
//! - the `proptest!` macro (with optional
//!   `#![proptest_config(ProptestConfig::with_cases(N))]`)
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` / `prop_assume!`
//! - [`strategy::Strategy`] with `prop_map`, integer/float range strategies,
//!   tuple strategies, `any::<T>()`, [`collection::vec`],
//!   [`option::weighted`], and [`strategy::Just`]
//!
//! Differences from upstream, by design: cases are generated from a seed
//! derived deterministically from the test's module path and name (every run
//! explores the same inputs), drawn from the workspace's own seeded stream
//! ([`hcq_common::det::Rng`]), and there is **no shrinking** — a failing
//! case panics with its full `Debug`-formatted input instead.

use std::fmt::Debug;

use hcq_common::det;

pub mod strategy;
pub mod test_runner;

/// Per-case random source handed to [`strategy::Strategy::generate`].
pub struct TestRng {
    inner: det::Rng,
}

impl TestRng {
    /// Deterministic generator for one case of one named test.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let h = det::fnv1a(test_name.as_bytes(), det::FNV_OFFSET);
        TestRng {
            inner: det::Rng::new(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// The underlying generator every strategy samples from.
    pub fn inner(&mut self) -> &mut det::Rng {
        &mut self.inner
    }
}

/// `Debug`-format a generated input tuple for failure reports.
#[doc(hidden)]
pub fn __fmt_inputs<T: Debug>(vals: &T) -> String {
    format!("{vals:?}")
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// A strategy for `Vec<S::Value>` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy::new(element, size.into())
    }
}

pub mod option {
    //! Option strategies (`proptest::option::weighted`).

    use crate::strategy::{OptionStrategy, Strategy};

    /// `Some(value)` with probability `p`, `None` otherwise.
    pub fn weighted<S: Strategy>(p: f64, inner: S) -> OptionStrategy<S> {
        OptionStrategy::new(p, inner)
    }
}

pub mod prelude {
    //! The usual glob import, mirroring `proptest::prelude::*`.

    pub use crate::strategy::{any, Any, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running [`test_runner::Config::cases`] generated
/// cases; `prop_assert*` failures panic with the offending inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { config = ($config); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! {
            config = (<$crate::test_runner::Config as ::core::default::Default>::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( config = ($config:expr); ) => {};
    (
        config = ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_cases(
                $config,
                concat!(module_path!(), "::", stringify!($name)),
                |__rng: &mut $crate::TestRng| {
                    let __vals = (
                        $( $crate::strategy::Strategy::generate(&($strat), __rng), )+
                    );
                    let __desc = $crate::__fmt_inputs(&__vals);
                    let ( $($pat,)+ ) = __vals;
                    let __res: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            { $body }
                            ::core::result::Result::Ok(())
                        })();
                    (__desc, __res)
                },
            );
        }
        $crate::__proptest_fns! { config = ($config); $($rest)* }
    };
}

/// Check a condition inside a property test; on failure the case (not the
/// whole process) is reported with its inputs. Must run where the enclosing
/// function returns `Result<(), TestCaseError>`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l == *__r, $($fmt)+);
    }};
}

/// Inequality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l != *__r, $($fmt)+);
    }};
}

/// Discard the current case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}
