//! Order statistics over slice samples, and the latency histogram.

/// Median, quartiles, sample count and coefficient of variation of one
/// metric's per-slice (or per-repetition) values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// Standard deviation over mean (0 for fewer than two samples).
    pub cov: f64,
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so a spread
/// printed here is the spread the driver computes. Fewer than two values
/// give the single value (or 0) three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Summarise samples; an empty slice summarises to all zeros.
pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n.max(1) as f64;
    let cov = if n < 2 || mean == 0.0 {
        0.0
    } else {
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt() / mean.abs()
    };
    Summary {
        median,
        q1,
        q3,
        n,
        cov,
    }
}

/// Sub-buckets per power of two: a value is reported as its bucket's
/// midpoint, so the relative error is at most 1/(2·64) < 1 %.
const SUB: u64 = 64;
const SUB_BITS: u32 = SUB.trailing_zeros();

/// Log-linear histogram of nanosecond values (HdrHistogram's layout: exact
/// below `SUB`, then `SUB` linear sub-buckets per power of two).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        // 64-bit values: one linear block plus (64 - SUB_BITS) octaves.
        LatencyHistogram {
            counts: vec![0; (SUB * (65 - SUB_BITS as u64)) as usize],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() - SUB_BITS; // ≥ 0
        let sub = (ns >> octave) - SUB; // top SUB_BITS+1 bits, minus the leading one
        (SUB * (octave as u64 + 1) + sub) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bucket(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            return (i, 1);
        }
        let octave = i / SUB - 1;
        let sub = i % SUB;
        ((SUB + sub) << octave, 1 << octave)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds, as the midpoint of the
    /// bucket holding the ⌈q·n⌉-th smallest sample; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = Self::bucket(i);
                return lo as f64 + (width - 1) as f64 / 2.0;
            }
        }
        unreachable!("rank ≤ total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcq_common::det;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn summary_and_cov() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert_eq!(s.median, 4.5);
        // mean 5, sample sd sqrt(32/7)
        assert!((s.cov - (32.0f64 / 7.0).sqrt() / 5.0).abs() < 1e-12);
        assert_eq!(summarize(&[]).median, 0.0);
        assert_eq!(summarize(&[3.0]).cov, 0.0);
    }

    #[test]
    fn histogram_quantiles_within_three_percent_of_exact() {
        // A heavy-tailed synthetic latency population: 5 µs body, stalls to
        // tens of milliseconds.
        let mut exact: Vec<u64> = (0..200_000u64)
            .map(|i| {
                let u = det::unit_f64(det::mix2(7, i));
                let body = 2_000.0 + 6_000.0 * u;
                let tail = if det::coin(det::mix2(8, i), 0.01) {
                    40_000_000.0 * det::unit_f64(det::mix2(9, i))
                } else {
                    0.0
                };
                (body + tail) as u64
            })
            .collect();
        let mut h = LatencyHistogram::new();
        for &x in &exact {
            h.record(x);
        }
        exact.sort_unstable();
        assert_eq!(h.total(), exact.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let want = exact[rank - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= 0.03 * want,
                "q={q}: histogram {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        for ns in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 123_456_789, u64::MAX] {
            let (lo, width) = LatencyHistogram::bucket(LatencyHistogram::index(ns));
            assert!(lo <= ns && ns - lo < width, "{ns} not in [{lo}, +{width})");
        }
        assert_eq!(LatencyHistogram::new().quantile(0.5), 0.0);
    }
}
