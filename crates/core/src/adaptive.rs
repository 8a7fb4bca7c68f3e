//! Online cost/selectivity estimation (the §10 "dynamic environment" hook).
//!
//! The related-work discussion notes that, like TelegraphCQ's eddies, these
//! policies "can work in a dynamic environment with support for monitoring
//! the queries' costs and selectivities, and updating the priorities
//! whenever it is necessary". This module provides that monitoring: an
//! exponentially-weighted moving average per operator, from which fresh
//! [`crate::unit::UnitStatics`] — and hence fresh priorities — can be
//! derived periodically and handed to a policy through
//! [`Policy::on_statics_update`](crate::Policy::on_statics_update).

use hcq_common::Nanos;

/// Accept an observed emissions-per-input figure only when it is a finite,
/// non-negative number. Selectivity observations come from counter deltas in
/// well-behaved runtimes, but external embeddings can feed ratios of raw
/// clock/counter readings where a zero denominator yields NaN/∞ — folding
/// one such sample into an EWMA poisons every later estimate (NaN absorbs),
/// so degenerate samples are dropped whole rather than clamped.
fn valid_produced(produced: f64) -> bool {
    produced.is_finite() && produced >= 0.0
}

/// EWMA estimator of one operator's processing cost and selectivity.
#[derive(Debug, Clone, Copy)]
pub struct EwmaEstimator {
    alpha: f64,
    cost_ns: f64,
    selectivity: f64,
    observations: u64,
}

impl EwmaEstimator {
    /// Create with smoothing factor `alpha ∈ (0, 1]` (weight of the newest
    /// observation) and initial guesses.
    pub fn new(alpha: f64, initial_cost: Nanos, initial_selectivity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha) && alpha > 0.0,
            "alpha in (0,1]"
        );
        EwmaEstimator {
            alpha,
            cost_ns: initial_cost.as_nanos() as f64,
            selectivity: initial_selectivity,
            observations: 0,
        }
    }

    /// Record one execution: measured processing time and tuples produced
    /// per input tuple (0 or 1 for filters; can exceed 1 for joins). A
    /// non-finite or negative `produced` drops the whole sample — one NaN
    /// folded into an EWMA would poison every later estimate. Zero-cost
    /// observations are fine: they pull the mean down and [`Self::cost`]
    /// clamps the reported estimate to the 1 ns engine resolution.
    pub fn observe(&mut self, cost: Nanos, produced: f64) {
        if !valid_produced(produced) {
            return;
        }
        let c = cost.as_nanos() as f64;
        self.cost_ns += self.alpha * (c - self.cost_ns);
        self.selectivity += self.alpha * (produced - self.selectivity);
        self.observations += 1;
    }

    /// Record only a selectivity observation (tuples produced per input
    /// tuple), leaving the cost estimate untouched — for runtimes whose
    /// clock cannot meaningfully time individual operators (manual/replay
    /// clocks). Non-finite/negative samples are dropped like in
    /// [`Self::observe`].
    pub fn observe_selectivity(&mut self, produced: f64) {
        if !valid_produced(produced) {
            return;
        }
        self.selectivity += self.alpha * (produced - self.selectivity);
        self.observations += 1;
    }

    /// Current cost estimate.
    pub fn cost(&self) -> Nanos {
        Nanos::from_nanos(self.cost_ns.round().max(1.0) as u64)
    }

    /// Current selectivity estimate (clamped away from zero so priority
    /// ratios stay finite).
    pub fn selectivity(&self) -> f64 {
        self.selectivity.max(1e-6)
    }

    /// Number of observations folded in.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

/// Tumbling-window estimator: plain means over the current window, reset at
/// each publication. Where the EWMA blends phases together with a half-life
/// set by `alpha`, the windowed estimator forgets completely at every
/// [`Self::reset`] — the right shape for on/off workloads whose phases are
/// longer than the window, at the price of higher variance within one.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowedEstimator {
    cost_sum_ns: f64,
    produced_sum: f64,
    count: u64,
    /// Lifetime observation count (never reset), mirroring
    /// [`EwmaEstimator::observations`].
    total: u64,
}

impl WindowedEstimator {
    /// An empty window.
    pub fn new() -> Self {
        WindowedEstimator::default()
    }

    /// Record one execution into the current window. Degenerate `produced`
    /// samples (NaN/∞/negative) are dropped whole, as in
    /// [`EwmaEstimator::observe`].
    pub fn observe(&mut self, cost: Nanos, produced: f64) {
        if !valid_produced(produced) {
            return;
        }
        self.cost_sum_ns += cost.as_nanos() as f64;
        self.produced_sum += produced;
        self.count += 1;
        self.total += 1;
    }

    /// Mean cost over the current window, `None` when it holds no samples.
    pub fn cost(&self) -> Option<Nanos> {
        (self.count > 0).then(|| {
            Nanos::from_nanos((self.cost_sum_ns / self.count as f64).round().max(1.0) as u64)
        })
    }

    /// Mean selectivity over the current window (clamped away from zero),
    /// `None` when it holds no samples.
    pub fn selectivity(&self) -> Option<f64> {
        (self.count > 0).then(|| (self.produced_sum / self.count as f64).max(1e-6))
    }

    /// Samples in the current window.
    pub fn window_len(&self) -> u64 {
        self.count
    }

    /// Lifetime samples across all windows.
    pub fn observations(&self) -> u64 {
        self.total
    }

    /// Start a new window (publication boundary).
    pub fn reset(&mut self) {
        self.cost_sum_ns = 0.0;
        self.produced_sum = 0.0;
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    #[test]
    fn converges_to_stationary_values() {
        let mut e = EwmaEstimator::new(0.1, ms(1), 1.0);
        for i in 0..500 {
            e.observe(ms(8), if i % 4 == 0 { 1.0 } else { 0.0 });
        }
        assert!((e.cost().as_millis_f64() - 8.0).abs() < 0.01);
        assert!((e.selectivity() - 0.25).abs() < 0.1);
        assert_eq!(e.observations(), 500);
    }

    #[test]
    fn tracks_a_shift() {
        let mut e = EwmaEstimator::new(0.2, ms(5), 0.5);
        for _ in 0..100 {
            e.observe(ms(5), 0.5);
        }
        // Workload shifts: cost doubles, selectivity collapses.
        for _ in 0..100 {
            e.observe(ms(10), 0.1);
        }
        assert!((e.cost().as_millis_f64() - 10.0).abs() < 0.1);
        assert!((e.selectivity() - 0.1).abs() < 0.05);
    }

    #[test]
    fn alpha_one_is_last_observation() {
        let mut e = EwmaEstimator::new(1.0, ms(1), 1.0);
        e.observe(ms(42), 0.0);
        assert_eq!(e.cost(), ms(42));
        // Selectivity clamps away from exactly zero.
        assert!(e.selectivity() > 0.0 && e.selectivity() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_rejected() {
        let _ = EwmaEstimator::new(0.0, ms(1), 1.0);
    }

    #[test]
    fn degenerate_samples_never_poison_the_ewma() {
        let mut e = EwmaEstimator::new(0.5, ms(4), 0.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            e.observe(ms(9), bad);
            e.observe_selectivity(bad);
        }
        assert_eq!(e.observations(), 0, "degenerate samples are dropped whole");
        assert_eq!(e.cost(), ms(4));
        assert_eq!(e.selectivity(), 0.5);
        // A later clean sample lands on an unpoisoned state.
        e.observe(ms(8), 1.0);
        assert!(e.cost() > ms(4));
        assert!(e.selectivity().is_finite());
    }

    #[test]
    fn zero_cost_observations_clamp_to_engine_resolution() {
        let mut e = EwmaEstimator::new(1.0, ms(5), 1.0);
        e.observe(Nanos::ZERO, 0.0);
        assert_eq!(e.cost(), Nanos::from_nanos(1), "cost floor is 1 ns");
        assert!(e.selectivity() > 0.0, "selectivity floor stays positive");
    }

    #[test]
    fn windowed_means_and_reset() {
        let mut w = WindowedEstimator::new();
        assert_eq!(w.cost(), None);
        assert_eq!(w.selectivity(), None);
        w.observe(ms(2), 1.0);
        w.observe(ms(4), 0.0);
        assert_eq!(w.cost(), Some(ms(3)));
        assert_eq!(w.selectivity(), Some(0.5));
        assert_eq!(w.window_len(), 2);
        w.reset();
        assert_eq!(w.cost(), None, "reset forgets the window completely");
        assert_eq!(w.window_len(), 0);
        assert_eq!(w.observations(), 2, "lifetime count survives resets");
        // The next window sees only its own phase — the on/off property.
        w.observe(ms(10), 1.0);
        assert_eq!(w.cost(), Some(ms(10)));
    }

    #[test]
    fn windowed_drops_degenerate_samples() {
        let mut w = WindowedEstimator::new();
        w.observe(ms(1), f64::NAN);
        w.observe(ms(1), f64::INFINITY);
        assert_eq!(w.window_len(), 0);
        w.observe(Nanos::ZERO, 2.0);
        assert_eq!(
            w.cost(),
            Some(Nanos::from_nanos(1)),
            "zero cost clamps, not poisons"
        );
        assert_eq!(w.selectivity(), Some(2.0));
    }
}
