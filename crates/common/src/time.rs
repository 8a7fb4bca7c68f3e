//! Integer virtual time.
//!
//! The simulator never consults a wall clock. All event ordering is decided on
//! [`Nanos`], a `u64` count of virtual nanoseconds since simulation start.
//! Using an integer clock (instead of `f64` seconds) makes event ordering
//! total and platform-independent, which in turn makes every experiment in the
//! reproduction bit-for-bit deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `Nanos` is deliberately a single type for both instants and durations —
/// the simulator's arithmetic is simple enough that a `Instant`/`Duration`
/// split would add ceremony without catching real bugs, and every public API
/// documents which reading it expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero instant / empty duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(n: u64) -> Self {
        Nanos(n)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs saturate to zero; callers validate their
    /// configuration before reaching this point.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional seconds (lossy; for metrics and reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Value in fractional milliseconds (lossy; for metrics and reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Duration from `earlier` to `self`, saturating at zero if `earlier` is
    /// actually later (which would indicate a simulation bug; saturating keeps
    /// metrics finite while debug assertions catch the bug in tests).
    #[inline]
    pub fn saturating_since(self, earlier: Nanos) -> Nanos {
        debug_assert!(self >= earlier, "time ran backwards: {self} < {earlier}");
        Nanos(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Scale a duration by an expected multiplicity (e.g. expected number of
    /// output tuples), rounding to the nearest nanosecond.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        Nanos((self.0 as f64 * factor).round() as u64)
    }

    /// `self / other` as a ratio of durations. Returns `f64::INFINITY` when
    /// dividing by the empty duration.
    #[inline]
    pub fn ratio(self, other: Nanos) -> f64 {
        if other.0 == 0 {
            return f64::INFINITY;
        }
        self.0 as f64 / other.0 as f64
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// True for the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pick the largest unit that keeps the value >= 1 for readability.
        let n = self.0;
        if n >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if n >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if n >= 1_000 {
            write!(f, "{:.3}us", n as f64 / 1_000.0)
        } else {
            write!(f, "{n}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos(1_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos(1_000_000_000));
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos(1_500_000_000));
    }

    #[test]
    fn from_secs_f64_saturates_bad_input() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NEG_INFINITY), Nanos::ZERO);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Nanos::from_millis(5);
        let b = Nanos::from_millis(2);
        assert_eq!(a + b, Nanos::from_millis(7));
        assert_eq!(a - b, Nanos::from_millis(3));
        assert_eq!(a * 3, Nanos::from_millis(15));
        assert_eq!(a / 5, Nanos::from_millis(1));
        let mut c = a;
        c += b;
        assert_eq!(c, Nanos::from_millis(7));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn ratio_and_scale() {
        let a = Nanos::from_millis(10);
        let b = Nanos::from_millis(4);
        assert!((a.ratio(b) - 2.5).abs() < 1e-12);
        assert_eq!(a.ratio(Nanos::ZERO), f64::INFINITY);
        assert_eq!(b.scale(2.5), a);
        assert_eq!(a.scale(0.0), Nanos::ZERO);
    }

    #[test]
    fn min_max_sum() {
        let a = Nanos(3);
        let b = Nanos(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let total: Nanos = [a, b, Nanos(1)].into_iter().sum();
        assert_eq!(total, Nanos(13));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(3)), "3.000us");
        assert_eq!(format!("{}", Nanos::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(3)), "3.000s");
    }

    #[test]
    fn saturating_since_saturates_in_release_semantics() {
        let a = Nanos(5);
        let b = Nanos(10);
        assert_eq!(b.saturating_since(a), Nanos(5));
        assert_eq!(a.saturating_since(a), Nanos::ZERO);
    }

    proptest! {
        #[test]
        fn roundtrip_secs_f64(ms in 0u64..10_000_000) {
            let n = Nanos::from_millis(ms);
            let back = Nanos::from_secs_f64(n.as_secs_f64());
            // f64 has 52 mantissa bits; millisecond-scale values round-trip.
            prop_assert_eq!(n, back);
        }

        #[test]
        fn checked_add_matches_plain(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            prop_assert_eq!(Nanos(a).checked_add(Nanos(b)), Some(Nanos(a) + Nanos(b)));
        }

        #[test]
        fn scale_monotone(base in 1u64..1_000_000_000u64, f1 in 0.0f64..100.0, f2 in 0.0f64..100.0) {
            let n = Nanos(base);
            if f1 <= f2 {
                prop_assert!(n.scale(f1) <= n.scale(f2));
            } else {
                prop_assert!(n.scale(f2) <= n.scale(f1));
            }
        }
    }
}
