//! Log-bucketed slowdown histogram.
//!
//! Slowdowns under load are heavy-tailed — exactly why the paper contrasts
//! average against maximum and ℓ2. A logarithmic histogram captures the
//! whole distribution cheaply (one counter increment per record) and
//! supports quantile estimates for reporting beyond the paper's headline
//! metrics.

/// Histogram over `[1, ∞)` with power-of-two buckets.
///
/// Bucket `i` covers slowdowns in `[2^i, 2^(i+1))`; slowdowns below 1
/// (possible only for composite tuples measured against generous ideals,
/// and clamped here) and non-finite values land in bucket 0.
#[derive(Debug, Clone, Default)]
pub struct SlowdownHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl SlowdownHistogram {
    /// Record one slowdown observation.
    #[inline]
    pub fn record(&mut self, slowdown: f64) {
        let bucket = Self::bucket_of(slowdown);
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// `⌊log2 x⌋` read off the exponent field: exact at every bucket edge,
    /// where a quotient of logarithms rounds.
    #[inline]
    fn bucket_of(slowdown: f64) -> usize {
        if slowdown.is_finite() && slowdown > 1.0 {
            // Above 1 the sign bit is clear and the value is normal, so the
            // top twelve bits are the biased exponent, at least 1023.
            (slowdown.to_bits() >> 52) as usize - 1023
        } else {
            0
        }
    }

    /// Lower edge of bucket `i`.
    pub fn bucket_low(&self, i: usize) -> f64 {
        2f64.powi(i as i32)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Non-empty `(bucket_low, count)` pairs in ascending slowdown order.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_low(i), c))
            .collect()
    }

    /// Estimate the `q`-quantile as the lower edge of the bucket containing
    /// the rank-`⌈q·total⌉` observation. Edge cases are pinned:
    ///
    /// * empty histogram → `0.0` (the only reachable value below 1),
    /// * `q = 0.0` → lower edge of the first non-empty bucket,
    /// * `q = 1.0` → lower edge of the last non-empty bucket (the bucket
    ///   holding the maximum observation),
    /// * `q` outside `[0, 1]` (including NaN) clamps into range.
    ///
    /// The rank is clamped to `[1, total]`, so the bucket scan always
    /// terminates at a non-empty bucket — no fallthrough value exists.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_low(i);
            }
        }
        unreachable!("rank {rank} exceeds recorded total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_are_log_spaced() {
        let mut h = SlowdownHistogram::default();
        for &v in &[1.0, 1.5, 2.0, 3.9, 4.0, 100.0] {
            h.record(v);
        }
        // [1,2): 1.0,1.5 -> 2; [2,4): 2.0,3.9 -> 2; [4,8): 4.0 -> 1; [64,128): 100 -> 1
        let buckets = h.buckets();
        assert_eq!(buckets[0], (1.0, 2));
        assert_eq!(buckets[1], (2.0, 2));
        assert_eq!(buckets[2], (4.0, 1));
        assert_eq!(*buckets.last().unwrap(), (64.0, 1));
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn values_outside_one_to_infinity_clamp_to_first_bucket() {
        let outside = [
            0.2,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            -8.0,
            0.0,
            1.0,
        ];
        let mut h = SlowdownHistogram::default();
        for v in outside {
            h.record(v);
        }
        assert_eq!(h.buckets(), vec![(1.0, outside.len() as u64)]);
        assert_eq!(SlowdownHistogram::bucket_of(f64::MAX), 1023);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = SlowdownHistogram::default();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.quantile(0.0), 1.0);
        // median of 1..=100 is 50, which lies in [32,64)
        assert_eq!(h.quantile(0.5), 32.0);
        // p99 = 99 lies in [64,128)
        assert_eq!(h.quantile(0.99), 64.0);
        assert_eq!(h.quantile(1.0), 64.0);
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(SlowdownHistogram::default().quantile(0.5), 0.0);
        assert_eq!(SlowdownHistogram::default().quantile(0.0), 0.0);
        assert_eq!(SlowdownHistogram::default().quantile(1.0), 0.0);
    }

    #[test]
    fn quantile_edges_are_pinned() {
        // Known distribution: 3 in [1,2), 1 in [4,8), 1 in [64,128).
        let mut h = SlowdownHistogram::default();
        for &v in &[1.0, 1.2, 1.9, 5.0, 100.0] {
            h.record(v);
        }
        // p0: first non-empty bucket's lower edge.
        assert_eq!(h.quantile(0.0), 1.0);
        // p50: rank ceil(0.5*5)=3 is the last of the three in [1,2).
        assert_eq!(h.quantile(0.5), 1.0);
        // p100: the bucket holding the maximum, not a fallthrough.
        assert_eq!(h.quantile(1.0), 64.0);
    }

    #[test]
    fn out_of_range_q_clamps() {
        let mut h = SlowdownHistogram::default();
        h.record(3.0);
        h.record(9.0);
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
        assert_eq!(h.quantile(1.5), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
    }

    /// The documented `[2^k, 2^(k+1))`, to the ulp: the edge and its upper
    /// neighbour open bucket `k`, its lower neighbour closes bucket `k − 1`
    /// (a quotient of logarithms puts that one in bucket `k` from k = 2 on).
    #[test]
    fn bucket_edges_are_exact_to_the_ulp() {
        for k in 1..=60usize {
            let edge = 2f64.powi(k as i32);
            let (below, above) = (
                f64::from_bits(edge.to_bits() - 1),
                f64::from_bits(edge.to_bits() + 1),
            );
            assert_eq!(SlowdownHistogram::bucket_of(edge), k, "2^{k}");
            assert_eq!(SlowdownHistogram::bucket_of(above), k, "next(2^{k})");
            assert_eq!(SlowdownHistogram::bucket_of(below), k - 1, "prev(2^{k})");
        }
    }

    proptest! {
        #[test]
        fn bucket_contains_value(v in 1.0f64..1e12) {
            let h = SlowdownHistogram::default();
            let b = SlowdownHistogram::bucket_of(v);
            prop_assert!(h.bucket_low(b) <= v);
            prop_assert!(v < h.bucket_low(b + 1));
        }

        #[test]
        fn total_counts_everything(values in proptest::collection::vec(0.5f64..1e6, 0..300)) {
            let mut h = SlowdownHistogram::default();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.total(), values.len() as u64);
            let bucket_total: u64 = h.buckets().iter().map(|&(_, c)| c).sum();
            prop_assert_eq!(bucket_total, values.len() as u64);
        }

        #[test]
        fn quantile_is_monotone(values in proptest::collection::vec(1.0f64..1e6, 1..200)) {
            let mut h = SlowdownHistogram::default();
            for &v in &values {
                h.record(v);
            }
            let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99];
            for w in qs.windows(2) {
                prop_assert!(h.quantile(w[0]) <= h.quantile(w[1]));
            }
        }
    }
}
