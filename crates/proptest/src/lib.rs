//! A self-contained, dependency-free stand-in for the subset of the
//! `proptest` crate API this workspace uses.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors what its property tests actually exercise: the
//! [`proptest!`] macro (with an optional `#![proptest_config(..)]` inner
//! attribute), the [`strategy::Strategy`] trait with `prop_map`,
//! `prop_filter`, and `boxed`, range/tuple/[`strategy::Just`] strategies,
//! [`collection::vec`], [`arbitrary::any`], [`num::f64::ANY`], the
//! `prop_assert*` macros, and [`prop_oneof!`].
//!
//! Semantics differ from upstream proptest in two deliberate ways: cases
//! are sampled from a deterministic per-test stream (seeded by the test
//! name) rather than an entropy source, and failures are **not** shrunk —
//! the failing assertion simply panics with the usual `assert!` message.
//! Both keep the shim tiny while preserving the tests' meaning.
//!
//! Two environment variables change a run:
//!
//! - `PROPTEST_CASES=n` runs `n` cases in every test, replacing both the
//!   default and a `with_cases` count (upstream only replaces the default);
//! - `PROPTEST_SEED=s` mixes `s` into every test's stream, so a new seed
//!   samples new cases. Unset, each test samples its usual cases.
//!
//! A failing case prints the test name, the seed and the case index
//! before the panic propagates; rerunning with the same seed reproduces it.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod num;
pub mod strategy;
pub mod test_runner;

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ..)`
/// item becomes a plain `#[test]` that samples its strategies
/// [`ProptestConfig::cases`](test_runner::ProptestConfig) times and runs
/// the body on each sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]; do not invoke directly.
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $(
        $(#[$meta:meta])+
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let config = config.with_env_overrides();
            let test = concat!(module_path!(), "::", stringify!($name));
            let seed = $crate::test_runner::env_seed();
            let mut rng = $crate::test_runner::TestRng::for_test_seeded(test, seed);
            let mut report = $crate::test_runner::FailureReport::new(test, seed);
            for __case in 0..config.cases {
                report.case = __case;
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                $body
            }
        }
    )*};
}

/// Skips the current case when its inputs don't satisfy a precondition.
/// Upstream proptest re-draws the case; the shim's body runs inline in the
/// per-case loop, so rejecting is just `continue` (the case still counts).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            continue;
        }
    };
}

/// Asserts a condition inside a property test (no shrinking: this is
/// `assert!` with a case-context prefix).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Picks uniformly between the given strategies (all must produce the same
/// value type). Weighted arms are not supported by the shim.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
