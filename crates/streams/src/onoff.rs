//! Bursty ON/OFF arrivals — the LBL-PKT-4 stand-in.
//!
//! Wide-area packet traces (the paper's input) are famously self-similar:
//! activity comes in bursts whose lengths are heavy-tailed. The classical
//! generative model is a Markov-modulated Poisson process whose ON and OFF
//! sojourn times follow (bounded) Pareto distributions — superpositions of
//! such sources converge to the long-range-dependent behaviour measured at
//! Bellcore/LBL (Willinger et al.). During ON periods tuples arrive as a
//! Poisson process at the peak rate; during OFF periods nothing arrives.
//!
//! The *mean* arrival rate — the quantity utilization calibration needs — is
//! `peak_rate · E[on] / (E[on] + E[off])`.

use hcq_common::det::Rng;
use hcq_common::Nanos;

use crate::poisson::sample_exp;
use crate::source::ArrivalSource;

/// Parameters of an [`OnOffSource`].
#[derive(Debug, Clone)]
pub struct OnOffConfig {
    /// Mean inter-arrival gap while ON (peak-rate gap).
    pub on_gap: Nanos,
    /// Mean duration of ON periods.
    pub mean_on: Nanos,
    /// Mean duration of OFF periods.
    pub mean_off: Nanos,
    /// Pareto tail index for sojourn times; `1 < α ≤ 2` yields the
    /// heavy-tailed bursts that make WAN traffic self-similar. Values above
    /// 2 make the source progressively smoother.
    pub alpha: f64,
    /// Upper truncation of sojourn times as a multiple of the mean (keeps
    /// the sampler's realized mean finite and close to the configured one).
    pub max_sojourn_factor: f64,
}

impl OnOffConfig {
    /// A configuration resembling the LBL-PKT-4 hour at a given mean
    /// inter-arrival time: 1.2 s mean bursts at 5× the mean rate separated
    /// by 4.8 s mean silences, α = 1.5.
    pub fn lbl_like(mean_gap: Nanos) -> Self {
        // duty cycle 0.2 ⇒ peak rate = mean rate / 0.2 = 5× mean rate.
        OnOffConfig {
            on_gap: Nanos::from_nanos((mean_gap.as_nanos() / 5).max(1)),
            mean_on: Nanos::from_millis(1_200),
            mean_off: Nanos::from_millis(4_800),
            alpha: 1.5,
            max_sojourn_factor: 50.0,
        }
    }

    /// Fraction of time the source is ON.
    pub fn duty_cycle(&self) -> f64 {
        let on = self.mean_on.as_nanos() as f64;
        let off = self.mean_off.as_nanos() as f64;
        on / (on + off)
    }

    /// The long-run mean inter-arrival time implied by the configuration.
    pub fn mean_gap(&self) -> Nanos {
        let peak_rate = 1.0 / self.on_gap.as_nanos() as f64;
        let mean_rate = peak_rate * self.duty_cycle();
        Nanos::from_nanos((1.0 / mean_rate).round() as u64)
    }

    fn validate(&self) {
        assert!(!self.on_gap.is_zero(), "on_gap must be > 0");
        assert!(!self.mean_on.is_zero(), "mean_on must be > 0");
        assert!(!self.mean_off.is_zero(), "mean_off must be > 0");
        assert!(self.alpha > 1.0, "alpha must exceed 1 for a finite mean");
        assert!(self.max_sojourn_factor > 1.0);
    }
}

/// The ON/OFF Markov-modulated Poisson source.
#[derive(Debug, Clone)]
pub struct OnOffSource {
    cfg: OnOffConfig,
    rng: Rng,
    clock: Nanos,
    /// End of the current ON period (when ON), i.e. the next state flip.
    on_until: Nanos,
}

impl OnOffSource {
    /// Create a source, deterministic in `seed`. Starts at the beginning of
    /// an OFF period so early arrivals are not biased toward bursts.
    pub fn new(cfg: OnOffConfig, seed: u64) -> Self {
        cfg.validate();
        OnOffSource {
            cfg,
            rng: Rng::new(seed),
            clock: Nanos::ZERO,
            on_until: Nanos::ZERO,
        }
    }

    /// The LBL-like preset at a target mean inter-arrival time.
    pub fn lbl_like(mean_gap: Nanos, seed: u64) -> Self {
        Self::new(OnOffConfig::lbl_like(mean_gap), seed)
    }

    /// Sample a bounded-Pareto sojourn with the configured tail index and
    /// target mean.
    fn sample_sojourn(&mut self, mean: Nanos) -> Nanos {
        let alpha = self.cfg.alpha;
        let mean_ns = mean.as_nanos() as f64;
        // An (unbounded) Pareto with scale x_m and index α has mean
        // α·x_m/(α−1); choose x_m to hit the target mean, then truncate at
        // `max_sojourn_factor · mean` (slightly lowering the realized mean —
        // acceptable, the burst *shape* is what matters here).
        let x_m = mean_ns * (alpha - 1.0) / alpha;
        let u = self.rng.next_f64();
        let raw = x_m / (1.0 - u).powf(1.0 / alpha);
        let capped = raw.min(mean_ns * self.cfg.max_sojourn_factor);
        Nanos::from_nanos((capped.round() as u64).max(1))
    }
}

impl ArrivalSource for OnOffSource {
    fn next_arrival(&mut self) -> Option<Nanos> {
        loop {
            if self.clock < self.on_until {
                // In an ON period: next Poisson arrival at peak rate.
                let gap = sample_exp(&mut self.rng, self.cfg.on_gap.as_nanos() as f64);
                let t = self.clock.saturating_add(gap);
                if t <= self.on_until {
                    self.clock = t;
                    return Some(t);
                }
                // Burst ended before the sampled arrival: fall through to
                // the next OFF/ON cycle (the sampled gap's memorylessness
                // makes discarding it statistically sound).
                self.clock = self.on_until;
            }
            // OFF period, then a fresh ON period.
            let off = self.sample_sojourn(self.cfg.mean_off);
            let on = self.sample_sojourn(self.cfg.mean_on);
            self.clock = self.clock.saturating_add(off);
            self.on_until = self.clock.saturating_add(on);
        }
    }

    fn mean_gap_hint(&self) -> Option<Nanos> {
        Some(self.cfg.mean_gap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_arrivals;
    use crate::stats::ArrivalStats;

    fn lbl(seed: u64) -> OnOffSource {
        OnOffSource::lbl_like(Nanos::from_millis(10), seed)
    }

    #[test]
    fn config_mean_gap_math() {
        let cfg = OnOffConfig::lbl_like(Nanos::from_millis(10));
        assert!((cfg.duty_cycle() - 0.2).abs() < 1e-12);
        let hinted = cfg.mean_gap().as_nanos() as f64;
        let target = Nanos::from_millis(10).as_nanos() as f64;
        assert!((hinted / target - 1.0).abs() < 0.01);
    }

    #[test]
    fn arrivals_monotone_and_deterministic() {
        let a = collect_arrivals(&mut lbl(1), 5_000);
        let b = collect_arrivals(&mut lbl(1), 5_000);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0] < w[1], "non-monotone arrivals");
        }
    }

    #[test]
    fn mean_rate_roughly_matches_target() {
        // Heavy tails converge slowly; accept a generous band. The
        // truncation at 50× mean biases the realized rate slightly high.
        let arrivals = collect_arrivals(&mut lbl(123), 200_000);
        let span = arrivals.last().unwrap().as_nanos() as f64;
        let measured_gap = span / arrivals.len() as f64;
        let target = Nanos::from_millis(10).as_nanos() as f64;
        assert!(
            measured_gap > target * 0.4 && measured_gap < target * 2.5,
            "measured mean gap {measured_gap} too far from target {target}"
        );
    }

    #[test]
    fn burstier_than_poisson() {
        // Index of dispersion of counts (windowed) must far exceed the
        // Poisson value of 1 — this is the property the paper's trace
        // provides and the whole reason for this source.
        let arrivals = collect_arrivals(&mut lbl(7), 100_000);
        let stats = ArrivalStats::from_arrivals(&arrivals);
        let idc = stats.index_of_dispersion(Nanos::from_secs(2));
        assert!(idc > 3.0, "index of dispersion {idc} not bursty");
    }

    #[test]
    fn on_periods_contain_multiple_arrivals() {
        // With on_gap = mean_on/600, bursts should pack many arrivals: check
        // the minimum observed gap is near the peak-rate gap, far below the
        // mean gap.
        let arrivals = collect_arrivals(&mut lbl(99), 20_000);
        let min_gap = arrivals
            .windows(2)
            .map(|w| (w[1] - w[0]).as_nanos())
            .min()
            .unwrap();
        assert!(min_gap < Nanos::from_millis(2).as_nanos());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_below_one_rejected() {
        let mut cfg = OnOffConfig::lbl_like(Nanos::from_millis(1));
        cfg.alpha = 0.9;
        let _ = OnOffSource::new(cfg, 0);
    }
}
