//! Offline stand-in for [`proptest`](https://proptest-rs.github.io/proptest).
//!
//! The build environment has no network access, so the real `proptest`
//! cannot be fetched. This crate re-implements the subset of its API the
//! workspace's property tests use: the [`proptest!`] macro, the
//! [`strategy::Strategy`] trait with `prop_map`/`prop_recursive`/`boxed`,
//! range / tuple / [`collection::vec`] / [`strategy::Just`] / string
//! strategies, [`prop_oneof!`], and the `prop_assert*` macros.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking** — a failing case reports the failure message only.
//! * **Fixed case count** — [`CASES`] cases per property (override with
//!   the `PROPTEST_CASES` environment variable).
//! * **Deterministic seeding** — every run draws the same inputs, so CI
//!   failures reproduce locally.
//! * String strategies ignore the regex pattern and generate arbitrary
//!   printable strings (the workspace only uses `"\PC{0,80}"`-style
//!   "any printable" patterns for never-panics properties).

#![forbid(unsafe_code)]

/// Default number of cases sampled per property.
pub const CASES: u32 = 64;

/// Test-runner plumbing: the RNG and the case-level error type.
pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The deterministic RNG handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng(pub(crate) SmallRng);

    impl TestRng {
        /// A fixed-seed RNG: every test run samples identical inputs.
        #[must_use]
        pub fn deterministic() -> Self {
            TestRng(SmallRng::seed_from_u64(0x5EED_CA5E_0001))
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property failed; the test should panic.
        Fail(String),
        /// The case was rejected by `prop_assume!`; skip it.
        Reject(String),
    }

    impl TestCaseError {
        /// Builds a failure.
        #[must_use]
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Builds a rejection.
        #[must_use]
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Number of cases to run (PROPTEST_CASES env override).
    #[must_use]
    pub fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(crate::CASES)
    }
}

/// Strategies: how random values of each type are produced.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};
    use std::sync::Arc;

    /// A generator of random values of type `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree / shrinking: a
    /// strategy simply samples.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Samples one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Builds a recursive strategy: `recurse` receives the strategy
        /// for depth `d` and returns the strategy for depth `d + 1`;
        /// `depth` levels are unrolled. `desired_size` and
        /// `expected_branch_size` are accepted for API compatibility and
        /// ignored.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let base = self.boxed();
            let mut cur = base.clone();
            for _ in 0..depth {
                let deeper = recurse(cur).boxed();
                cur = Union::new(vec![base.clone(), deeper]).boxed();
            }
            cur
        }

        /// Erases the strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// Object-safe strategy erasure.
    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A reference-counted type-erased strategy.
    pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among alternatives (the [`prop_oneof!`](crate::prop_oneof)
    /// backend).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Creates a union over the given arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty.
        #[must_use]
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.0.gen_range(0..self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    /// String strategies: the pattern is treated as "any printable
    /// string up to 80 chars" regardless of its regex content.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let len = rng.0.gen_range(0usize..=80);
            (0..len)
                .map(|_| {
                    // Mostly printable ASCII with occasional non-ASCII
                    // printables to stress parsers.
                    if rng.0.gen_bool(0.9) {
                        char::from(rng.0.gen_range(0x20u8..0x7F))
                    } else {
                        char::from_u32(rng.0.gen_range(0xA1u32..0x2FF)).unwrap_or('¿')
                    }
                })
                .collect()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// The accepted size specifications for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
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

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Generates `Vec`s whose length falls in `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.0.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Generates `true`/`false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The any-boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.0.gen_bool(0.5)
        }
    }
}

/// The things property tests `use` wholesale.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` sampling [`test_runner::cases`] cases.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_runner::TestRng::deterministic();
                let cases = $crate::test_runner::cases();
                for case in 0..cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);)*
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!("property {} failed at case {case}/{cases}: {msg}", stringify!($name));
                        }
                    }
                }
            }
        )*
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
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
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)*);
    }};
}

/// Skips the current case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among strategies that all generate the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 0u64..100, f in 0.0f64..1.0) {
            prop_assert!(x < 100);
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn vec_sizes_respected(v in crate::collection::vec(0u8..10, 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn oneof_and_map_compose(x in prop_oneof![
            (0u32..10).prop_map(|v| v * 2),
            Just(1u32),
        ]) {
            prop_assert!(x == 1 || (x % 2 == 0 && x < 20));
        }

        #[test]
        fn assume_rejects(x in 0u32..10) {
            prop_assume!(x < 5);
            prop_assert!(x < 5);
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        let strat = (0u8..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 3, |inner| {
                crate::collection::vec(inner, 1..4).prop_map(Tree::Node)
            });
        let mut rng = crate::test_runner::TestRng::deterministic();
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(cs) => 1 + cs.iter().map(depth).max().unwrap_or(0),
            }
        }
        for _ in 0..200 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 7, "depth bounded by unrolling");
        }
    }
}
