//! Value-generation strategies: the `proptest::strategy` subset this
//! workspace uses, without shrink trees — a strategy here is just a
//! deterministic sampler over a [`TestRng`].

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use crate::TestRng;

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f` (proptest's `prop_map`).
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
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

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform over the whole domain of `T` (see [`any`]).
pub struct Any<T>(PhantomData<T>);

/// A strategy generating arbitrary values of `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any(PhantomData)
}

macro_rules! impl_any {
    ($($t:ty => |$raw:ident| $sample:expr),* $(,)?) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let $raw = rng.inner().next_u64();
                $sample
            }
        }
    )*};
}

impl_any!(
    bool => |raw| raw & 1 == 1,
    u8 => |raw| raw as u8,
    u16 => |raw| raw as u16,
    u32 => |raw| raw as u32,
    u64 => |raw| raw,
    usize => |raw| raw as usize,
    i8 => |raw| raw as i8,
    i16 => |raw| raw as i16,
    i32 => |raw| raw as i32,
    i64 => |raw| raw as i64,
    isize => |raw| raw as isize,
    // 24 uniform mantissa bits in [0, 1).
    f32 => |raw| (raw >> 40) as f32 * (1.0 / (1u32 << 24) as f32),
    f64 => |raw| hcq_common::det::unit_f64(raw),
);

/// A uniform integer in `[lo, hi]`, any integer type widened to `i128`.
fn int_in(rng: &mut TestRng, lo: i128, hi: i128) -> i128 {
    assert!(lo <= hi, "cannot sample empty range");
    lo + rng.inner().range_inclusive(0, (hi - lo) as u64) as i128
}

/// A uniform float in `[lo, hi)` (`[lo, hi]` up to rounding).
fn float_in(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + rng.inner().next_f64() * (hi - lo)
}

macro_rules! impl_int_range {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                int_in(rng, self.start as i128, self.end as i128 - 1) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                int_in(rng, *self.start() as i128, *self.end() as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                float_in(rng, self.start as f64, self.end as f64) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "cannot sample empty range");
                float_in(rng, *self.start() as f64, *self.end() as f64) as $t
            }
        }
    )*};
}

impl_float_range!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($s:ident/$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A / 0, B / 1);
impl_tuple_strategy!(A / 0, B / 1, C / 2);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);

/// Inclusive bounds on a generated collection's length.
#[derive(Debug, Clone, Copy)]
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

/// The result of [`crate::collection::vec`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> VecStrategy<S> {
    pub(crate) fn new(element: S, size: SizeRange) -> Self {
        VecStrategy { element, size }
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = (self.size.lo..=self.size.hi).generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// The result of [`crate::option::weighted`].
pub struct OptionStrategy<S> {
    p_some: f64,
    inner: S,
}

impl<S: Strategy> OptionStrategy<S> {
    pub(crate) fn new(p_some: f64, inner: S) -> Self {
        OptionStrategy { p_some, inner }
    }
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        if rng.inner().next_f64() < self.p_some {
            Some(self.inner.generate(rng))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_compose() {
        let mut rng = TestRng::for_case("strategies_compose", 1);
        let s = crate::collection::vec((0u32..10, 0.0f64..1.0), 3..=5).prop_map(|v| v.len());
        for _ in 0..100 {
            let n = s.generate(&mut rng);
            assert!((3..=5).contains(&n));
        }
        let opt = crate::option::weighted(0.5, 1u64..=1);
        let mut some = 0;
        for _ in 0..200 {
            if let Some(v) = opt.generate(&mut rng) {
                assert_eq!(v, 1);
                some += 1;
            }
        }
        assert!(some > 50 && some < 150, "weighted(0.5) wildly off: {some}");
    }
}
