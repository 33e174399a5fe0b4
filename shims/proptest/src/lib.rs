//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest used by this workspace's property
//! tests: [`strategy::Strategy`] with `prop_map`/`prop_flat_map`, range and
//! tuple strategies, [`strategy::Just`], [`arbitrary::any`],
//! `prop::collection::{vec, btree_set}`, the [`proptest!`] /
//! [`prop_oneof!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros, and
//! [`test_runner::ProptestConfig`]. Unlike real proptest there is no
//! shrinking — failures report the raw generated inputs — and generation
//! is deterministic per test name and case index so failures reproduce.

#![forbid(unsafe_code)]

/// Deterministic RNG and run configuration.
pub mod test_runner {
    /// Number of generated cases per property.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic splitmix64-seeded xoshiro256++ generator.
    ///
    /// Seeded from the test's module path and case index, so every run of a
    /// property test sees the same inputs (no shrinking is implemented).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// RNG for one (test, case) pair.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in test_name.bytes() {
                seed = (seed ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
            }
            seed ^= u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut seed);
            }
            TestRng { s }
        }

        /// Next raw 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform value in `[0, n)`.
        pub fn below(&mut self, n: usize) -> usize {
            assert!(n > 0, "below(0)");
            ((self.next_u64() as u128 * n as u128) >> 64) as usize
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// Generated value type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { base: self, f }
        }

        /// Builds a dependent second-stage strategy from each value.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { base: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// One boxed arm of a [`Union`].
    pub type Arm<T> = Box<dyn Fn(&mut TestRng) -> T>;

    /// Uniform choice among boxed arms — backs [`prop_oneof!`](crate::prop_oneof).
    pub struct Union<T> {
        arms: Vec<Arm<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `arms`.
        pub fn new(arms: Vec<Arm<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len());
            (self.arms[i])(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (((rng.next_u64() as u128 * span as u128) >> 64) as u64) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    (start..end + 1).generate(rng)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (start, end) = (*self.start(), *self.end());
            assert!(start <= end, "empty range strategy");
            start + rng.unit_f64() * (end - start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident : $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A:0)
        (A:0, B:1)
        (A:0, B:1, C:2)
        (A:0, B:1, C:2, D:3)
        (A:0, B:1, C:2, D:3, E:4)
        (A:0, B:1, C:2, D:3, E:4, F:5)
    }
}

/// `any::<T>()` strategies over a type's full value range.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-range strategy.
    pub trait ArbitraryValue {
        /// Draws a full-range value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl ArbitraryValue for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbitraryValue for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl ArbitraryValue for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit_f64()
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

    impl<T: ArbitraryValue> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-range strategy for `T`.
    pub fn any<T: ArbitraryValue>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies (`prop::collection::{vec, btree_set}`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Collection size specifications: a fixed size or a (half-open or
    /// inclusive) range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive maximum.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            if self.min == self.max {
                self.min
            } else {
                self.min + rng.below(self.max - self.min + 1)
            }
        }
    }

    /// Strategy generating `Vec`s of an element strategy.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Generates vectors whose length is drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    /// Strategy generating `BTreeSet`s of an element strategy.
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut set = std::collections::BTreeSet::new();
            // The element domain may be smaller than the target size; cap
            // the attempts and accept what distinct values were found.
            for _ in 0..target.max(1) * 50 {
                if set.len() >= target {
                    break;
                }
                set.insert(self.elem.generate(rng));
            }
            assert!(
                set.len() >= self.size.min,
                "btree_set strategy could not reach minimum size {}",
                self.size.min
            );
            set
        }
    }

    /// Generates sets whose cardinality is drawn from `size`.
    pub fn btree_set<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S> {
        BTreeSetStrategy { elem, size: size.into() }
    }
}

/// The glob-imported surface: traits, config, macros, and `prop::` alias.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Lets `prop::collection::vec` resolve after `use proptest::prelude::*`.
    pub use crate as prop;
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Uniformly picks one of several strategies each draw.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        $crate::strategy::Union::new(vec![
            $({
                let s = $arm;
                ::std::boxed::Box::new(move |rng: &mut $crate::test_runner::TestRng| {
                    $crate::strategy::Strategy::generate(&s, rng)
                }) as ::std::boxed::Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>
            }),+
        ])
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over `config.cases` generated
/// inputs. No shrinking: a failing case panics with the raw inputs.
#[macro_export]
macro_rules! proptest {
    (@cfg $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);)*
                    $body
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg $crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 1usize..10, y in 0.25f64..=0.75) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((0.25..=0.75).contains(&y));
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(0u32..5, 2..=4)) {
            prop_assert!(v.len() >= 2 && v.len() <= 4);
            prop_assert!(v.iter().all(|x| *x < 5));
        }

        #[test]
        fn oneof_and_maps(v in prop_oneof![Just(1u8), (2u8..4).prop_map(|x| x)]) {
            prop_assert!((1u8..=3).contains(&v));
        }

        #[test]
        fn btree_set_sizes(s in prop::collection::btree_set(0usize..4, 1..=4)) {
            prop_assert!(!s.is_empty() && s.len() <= 4);
        }
    }
}
