//! Time-scaling source wrapper.
//!
//! Replaying an archived trace at a different load is a standard evaluation
//! trick: compressing timestamps by 2× doubles the arrival rate while
//! preserving the burst *structure* exactly. (The paper instead scales
//! operator costs via `K`; [`TimeScale`] offers the dual knob — scale the
//! arrivals, keep the costs — which is the natural choice when the costs
//! are real and the trace is synthetic.)

use hcq_common::Nanos;

use crate::source::ArrivalSource;

/// Wraps a source, multiplying every inter-arrival gap by a factor.
///
/// `factor < 1` compresses time (higher rate), `factor > 1` dilates it.
/// Scaling is applied to *gaps*, not absolute timestamps, so rounding never
/// makes the sequence non-monotone; arrivals never coincide unless they did
/// in the source.
#[derive(Debug, Clone)]
pub struct TimeScale<S> {
    inner: S,
    factor: f64,
    last_in: Nanos,
    last_out: Nanos,
}

impl<S: ArrivalSource> TimeScale<S> {
    /// Scale `inner`'s inter-arrival gaps by `factor` (must be positive and
    /// finite).
    pub fn new(inner: S, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        TimeScale {
            inner,
            factor,
            last_in: Nanos::ZERO,
            last_out: Nanos::ZERO,
        }
    }
}

impl<S: ArrivalSource> ArrivalSource for TimeScale<S> {
    fn next_arrival(&mut self) -> Option<Nanos> {
        let t = self.inner.next_arrival()?;
        let gap = t.saturating_since(self.last_in);
        self.last_in = t;
        let scaled = gap.scale(self.factor).max(Nanos(1));
        self.last_out = self.last_out.saturating_add(scaled);
        Some(self.last_out)
    }

    fn mean_gap_hint(&self) -> Option<Nanos> {
        self.inner
            .mean_gap_hint()
            .map(|g| g.scale(self.factor).max(Nanos(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::ConstantSource;
    use crate::source::collect_arrivals;
    use crate::trace::TraceReplay;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    #[test]
    fn halving_gaps_doubles_rate() {
        let inner = ConstantSource::new(ms(10));
        let mut scaled = TimeScale::new(inner, 0.5);
        let a = collect_arrivals(&mut scaled, 4);
        assert_eq!(a, vec![ms(5), ms(10), ms(15), ms(20)]);
        assert_eq!(scaled.mean_gap_hint(), Some(ms(5)));
    }

    #[test]
    fn dilation_preserves_burst_structure() {
        // Gaps 1,1,50 (a burst then silence) scaled 2x -> 2,2,100.
        let trace = TraceReplay::from_arrivals(vec![ms(1), ms(2), ms(52)]).unwrap();
        let mut scaled = TimeScale::new(trace, 2.0);
        let a = collect_arrivals(&mut scaled, 3);
        assert_eq!(a, vec![ms(2), ms(4), ms(104)]);
    }

    #[test]
    fn extreme_compression_stays_monotone() {
        let trace = TraceReplay::from_arrivals(vec![Nanos(10), Nanos(11), Nanos(12)]).unwrap();
        let mut scaled = TimeScale::new(trace, 1e-9);
        let a = collect_arrivals(&mut scaled, 3);
        assert!(a[0] < a[1] && a[1] < a[2], "{a:?}");
    }

    #[test]
    fn exhaustion_passes_through() {
        let trace = TraceReplay::from_arrivals(vec![ms(1)]).unwrap();
        let mut scaled = TimeScale::new(trace, 1.0);
        assert_eq!(scaled.next_arrival(), Some(ms(1)));
        assert_eq!(scaled.next_arrival(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_rejected() {
        let _ = TimeScale::new(ConstantSource::new(ms(1)), 0.0);
    }
}
