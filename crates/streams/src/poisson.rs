//! Memoryless and deterministic arrival processes.

use hcq_common::det::Rng;
use hcq_common::Nanos;

use crate::source::ArrivalSource;

/// Poisson arrivals: i.i.d. exponential inter-arrival gaps.
///
/// §9.1.7 drives the multi-stream experiments with Poisson arrivals; it is
/// also the smooth baseline against which the bursty [`crate::OnOffSource`]
/// is contrasted.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    mean_gap_ns: f64,
    clock: Nanos,
    rng: Rng,
}

impl PoissonSource {
    /// Arrivals with the given mean inter-arrival time, deterministic in
    /// `seed`.
    pub fn new(mean_gap: Nanos, seed: u64) -> Self {
        assert!(!mean_gap.is_zero(), "mean inter-arrival time must be > 0");
        PoissonSource {
            mean_gap_ns: mean_gap.as_nanos() as f64,
            clock: Nanos::ZERO,
            rng: Rng::new(seed),
        }
    }
}

impl ArrivalSource for PoissonSource {
    fn next_arrival(&mut self) -> Option<Nanos> {
        let gap = sample_exp(&mut self.rng, self.mean_gap_ns);
        self.clock = self.clock.saturating_add(gap);
        Some(self.clock)
    }

    fn mean_gap_hint(&self) -> Option<Nanos> {
        Some(Nanos::from_nanos(self.mean_gap_ns as u64))
    }
}

/// Deterministic arrivals every `gap` nanoseconds (starting at `gap`).
#[derive(Debug, Clone)]
pub struct ConstantSource {
    gap: Nanos,
    clock: Nanos,
}

impl ConstantSource {
    /// One arrival every `gap`.
    pub fn new(gap: Nanos) -> Self {
        assert!(!gap.is_zero(), "inter-arrival gap must be > 0");
        ConstantSource {
            gap,
            clock: Nanos::ZERO,
        }
    }
}

impl ArrivalSource for ConstantSource {
    fn next_arrival(&mut self) -> Option<Nanos> {
        self.clock = self.clock.saturating_add(self.gap);
        Some(self.clock)
    }

    fn mean_gap_hint(&self) -> Option<Nanos> {
        Some(self.gap)
    }
}

/// Sample an exponential gap with the given mean, rounded to ≥ 1 ns so time
/// always advances.
pub(crate) fn sample_exp(rng: &mut Rng, mean_ns: f64) -> Nanos {
    let u = rng.next_f64();
    // u ∈ [0,1); 1-u ∈ (0,1] so the log is finite.
    let gap = -(1.0 - u).ln() * mean_ns;
    Nanos::from_nanos((gap.round() as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_arrivals;

    #[test]
    fn constant_source_is_regular() {
        let mut s = ConstantSource::new(Nanos::from_millis(5));
        let a = collect_arrivals(&mut s, 4);
        assert_eq!(
            a,
            vec![
                Nanos::from_millis(5),
                Nanos::from_millis(10),
                Nanos::from_millis(15),
                Nanos::from_millis(20)
            ]
        );
        assert_eq!(s.mean_gap_hint(), Some(Nanos::from_millis(5)));
    }

    #[test]
    fn poisson_mean_gap_converges() {
        let mean = Nanos::from_millis(2);
        let mut s = PoissonSource::new(mean, 42);
        let arrivals = collect_arrivals(&mut s, 50_000);
        let total = arrivals.last().unwrap().as_nanos() as f64;
        let measured = total / arrivals.len() as f64;
        let expect = mean.as_nanos() as f64;
        assert!(
            (measured / expect - 1.0).abs() < 0.02,
            "measured mean gap {measured} vs {expect}"
        );
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = collect_arrivals(&mut PoissonSource::new(Nanos::from_millis(1), 7), 100);
        let b = collect_arrivals(&mut PoissonSource::new(Nanos::from_millis(1), 7), 100);
        let c = collect_arrivals(&mut PoissonSource::new(Nanos::from_millis(1), 8), 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut s = PoissonSource::new(Nanos::from_micros(1), 3);
        let a = collect_arrivals(&mut s, 10_000);
        for w in a.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn exponential_cv_is_one() {
        // Coefficient of variation of exponential gaps is 1.
        let mut s = PoissonSource::new(Nanos::from_millis(1), 11);
        let arrivals = collect_arrivals(&mut s, 20_000);
        let gaps: Vec<f64> = std::iter::once(arrivals[0])
            .chain(arrivals.windows(2).map(|w| w[1] - w[0]))
            .map(|g| g.as_nanos() as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv = {cv}");
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn zero_mean_rejected() {
        let _ = PoissonSource::new(Nanos::ZERO, 0);
    }
}
