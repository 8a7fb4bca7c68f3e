//! Pluggable time sources.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use hcq_common::Nanos;

/// A monotonic time source for the runtime.
///
/// Everything QoS-related (arrival stamps, response times, window
/// predicates) comes from this clock, so swapping it swaps the runtime
/// between live operation and deterministic replay. The `Dsms` reads it
/// once per push and once per emission, and once per scheduling decision
/// only when the policy's priorities depend on `now` (LSF, BSD, ℓp and
/// clustered BSD; see [`hcq_core::PolicyKind::reads_now`]). Any other
/// policy selects at the last instant read.
pub trait Clock {
    /// Current time. Must be monotone non-decreasing across calls.
    fn now(&self) -> Nanos;
}

/// Wall-clock time since construction.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock starting at zero now.
    pub fn new() -> Self {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Nanos {
        Nanos::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// A manually advanced clock for tests and replays. Cloning shares the
/// underlying time, so the test and the runtime see the same instant.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    now: Rc<Cell<u64>>,
}

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advance by a duration.
    pub fn advance(&self, by: Nanos) {
        self.now.set(self.now.get() + by.as_nanos());
    }

    /// Jump to an absolute time (must not go backwards).
    pub fn set(&self, to: Nanos) {
        assert!(to.as_nanos() >= self.now.get(), "clock cannot go backwards");
        self.now.set(to.as_nanos());
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Nanos {
        Nanos::from_nanos(self.now.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Nanos::ZERO);
        c.advance(Nanos::from_millis(5));
        assert_eq!(c.now(), Nanos::from_millis(5));
        c.set(Nanos::from_millis(9));
        assert_eq!(c.now(), Nanos::from_millis(9));
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let a = ManualClock::new();
        let b = a.clone();
        a.advance(Nanos::from_secs(1));
        assert_eq!(b.now(), Nanos::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_regression() {
        let c = ManualClock::new();
        c.set(Nanos::from_millis(5));
        c.set(Nanos::from_millis(1));
    }

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
