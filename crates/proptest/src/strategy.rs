//! Strategies: composable deterministic samplers.

use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// A source of random values of one type.
///
/// Unlike upstream proptest there is no shrinking: a strategy is just a
/// pure function of the RNG state.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then a follow-up strategy from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64 + 1;
                lo + rng.below(span) as $t
            }
        }
    )*};
}

impl_int_ranges!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuples {
    ($(($($name:ident : $idx:tt),+ );)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuples! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
    (A: 0, B: 1, C: 2, D: 3, E: 4);
}

/// Accepted size arguments of [`vec`](fn@vec): an exact length or a range.
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        Self {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        Self {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// `prop::collection::vec`: a vector of `element` samples with a length
/// drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec`](fn@vec).
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64 + 1;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// `prop::bool::ANY`.
pub mod bool_any {
    use super::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform boolean strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    /// The canonical instance, mirroring `proptest::bool::ANY`.
    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// `prop::sample::Index`: an index drawn independently of the collection
/// it will select from; `index(len)` maps it uniformly into `0..len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Index(pub(crate) u64);

impl Index {
    /// Map into `0..len` (`len > 0`).
    pub fn index(&self, len: usize) -> usize {
        assert!(len > 0, "Index::index on an empty collection");
        ((self.0 as u128 * len as u128) >> 64) as usize
    }
}
