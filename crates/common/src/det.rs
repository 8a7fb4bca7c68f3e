//! Deterministic hashing and the seeded random stream.
//!
//! Operator selectivities are *realized* (a tuple passes a filter or it does
//! not) through a pure function of `(tuple id, operator salt, run seed)`.
//! This has two properties the evaluation methodology depends on:
//!
//! 1. **Policy independence.** Whether tuple `t` survives operator `O` does
//!    not depend on *when* the scheduler ran `O` on `t`, so every scheduling
//!    policy is measured against the identical workload realization — observed
//!    differences are scheduling, never sampling luck.
//! 2. **Reproducibility.** Re-running an experiment with the same seed yields
//!    the same tuple-level outcome stream.
//!
//! The mixer is SplitMix64 (Steele et al., "Fast splittable pseudorandom
//! number generators"), which passes BigCrush when used as a one-shot mixer
//! and costs a handful of ALU ops.
//!
//! Sequential draws — arrival gaps, workload parameters, property-test
//! cases — come from [`Rng`], a xoshiro256++ stream seeded through the same
//! mixer; [`fnv1a`] is the workspace's one byte-string hash.

/// One round of the SplitMix64 output mixer over an arbitrary 64-bit input.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mix two 64-bit values into one, order-sensitively.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ b.rotate_left(32))
}

/// Mix three 64-bit values into one, order-sensitively.
#[inline]
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix64(mix2(a, b) ^ c.rotate_left(16))
}

/// A deterministic Bernoulli coin: returns `true` with probability
/// `p` (clamped to `[0, 1]`) as a pure function of the mixed inputs.
#[inline]
pub fn coin(hash: u64, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    // Compare the hash against p scaled to the full u64 range. The scaling
    // loses ~11 bits of p's precision, irrelevant for selectivities specified
    // to a few decimal places.
    (hash as f64) < p * (u64::MAX as f64)
}

/// A deterministic uniform draw in `[0, 1)` from a hash.
#[inline]
pub fn unit_f64(hash: u64) -> f64 {
    // Take the top 53 bits for a dyadic uniform in [0,1).
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic uniform integer draw in `[lo, hi]` (inclusive) from a hash.
#[inline]
pub fn unit_range(hash: u64, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    let span = hi - lo + 1;
    lo + (unit_f64(hash) * span as f64) as u64
}

/// 64-bit FNV-1a offset basis: the `hash` to start a fresh [`fnv1a`] fold.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running 64-bit FNV-1a `hash` (start from
/// [`FNV_OFFSET`]). The workspace's one FNV-1a: fuzz digests, report
/// fingerprints, the large-q selection digest and test-case seeds.
#[inline]
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The seeded stream behind workload and arrival generation: xoshiro256++
/// (Blackman & Vigna), its state expanded from one `u64` seed through
/// [`splitmix64`] as the xoshiro authors recommend.
///
/// Unlike the one-shot mixers above, draws depend on their order, so an
/// `Rng` belongs to exactly one sequential generator (a source, a
/// population build, a test case).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose stream is a pure function of `seed`:
    /// `s[i] = splitmix64(seed + i·γ)`.
    pub fn new(seed: u64) -> Self {
        let word = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        Rng {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// The next 64 random bits.
    #[inline]
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

    /// A uniform draw in `[0, 1)`: [`unit_f64`] of the next 64 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// A uniform integer in `[lo, hi]`, by widening multiply of the next
    /// 64 bits; the full `[0, u64::MAX]` domain returns the raw draw.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "cannot sample empty range");
        let raw = self.next_u64();
        match (hi - lo).checked_add(1) {
            Some(span) => lo + ((raw as u128 * span as u128) >> 64) as u64,
            None => raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_known_vectors() {
        // First outputs of the reference SplitMix64 stream seeded with 0:
        // the mixer applied to successive increments of the golden gamma.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn coin_extremes() {
        for h in [0u64, 1, u64::MAX / 2, u64::MAX] {
            assert!(coin(h, 1.0));
            assert!(coin(h, 1.5));
            assert!(!coin(h, 0.0));
            assert!(!coin(h, -0.5));
        }
    }

    #[test]
    fn coin_frequency_tracks_probability() {
        // Empirical pass rate over a hash stream must be within ~1% of p.
        for &p in &[0.1, 0.33, 0.5, 0.9] {
            let n = 100_000u64;
            let passes = (0..n).filter(|&i| coin(splitmix64(i), p)).count() as f64;
            let rate = passes / n as f64;
            assert!(
                (rate - p).abs() < 0.01,
                "p={p} measured {rate} over {n} draws"
            );
        }
    }

    #[test]
    fn unit_range_covers_bounds() {
        let mut seen_lo = false;
        let mut seen_hi = false;
        for i in 0..10_000u64 {
            let v = unit_range(splitmix64(i), 1, 4);
            assert!((1..=4).contains(&v));
            seen_lo |= v == 1;
            seen_hi |= v == 4;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn rng_matches_the_pinned_xoshiro_stream() {
        // Known answers of the xoshiro256++/SplitMix64 stream every
        // workload, arrival process and property test draws from.
        let mut r = Rng::new(42);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c
            ]
        );
        assert_eq!(Rng::new(7).next_f64().to_bits(), 0x3fac_5834_0055_5d20);
        let mut r = Rng::new(1);
        let ranged: Vec<u64> = (0..5).map(|_| r.range_inclusive(10, 20)).collect();
        assert_eq!(ranged, [18, 18, 11, 18, 12]);
    }

    #[test]
    fn rng_streams_are_deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_f64().to_bits(), b.next_f64().to_bits());
        }
        let mut c = Rng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn rng_unit_floats_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&r.next_f64()));
        }
    }

    #[test]
    fn rng_ranges_respect_bounds() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            assert!((3..=8).contains(&r.range_inclusive(3, 8)));
            assert!((10..=20).contains(&r.range_inclusive(10, 20)));
            assert_eq!(r.range_inclusive(5, 5), 5);
        }
    }

    #[test]
    fn rng_ranges_cover_endpoints() {
        let mut r = Rng::new(2);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[r.range_inclusive(0, 3) as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn rng_full_domain_is_the_raw_draw() {
        // A span of 2^64 cannot be multiplied into; it is the draw itself.
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert_eq!(a.range_inclusive(0, u64::MAX), b.next_u64());
        assert_eq!(
            a.range_inclusive(1, u64::MAX),
            1 + ((b.next_u64() as u128 * u64::MAX as u128) >> 64) as u64
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn rng_empty_range_panics() {
        Rng::new(4).range_inclusive(2, 1);
    }

    #[test]
    fn fnv1a_known_vectors() {
        // The reference FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(b"bar", fnv1a(b"foo", FNV_OFFSET)),
            fnv1a(b"foobar", FNV_OFFSET)
        );
    }

    proptest! {
        #[test]
        fn unit_f64_in_range(x in any::<u64>()) {
            let v = unit_f64(x);
            prop_assert!((0.0..1.0).contains(&v));
        }

        #[test]
        fn mixers_are_order_sensitive(a in any::<u64>(), b in any::<u64>()) {
            prop_assume!(a != b);
            prop_assert_ne!(mix2(a, b), mix2(b, a));
        }

        #[test]
        fn coin_is_monotone_in_p(h in any::<u64>(), p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            // If the coin passes at the lower probability it must pass at the higher.
            if coin(h, lo) {
                prop_assert!(coin(h, hi));
            }
        }
    }
}
