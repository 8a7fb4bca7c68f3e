//! Longest Stretch First (§4.1).
//!
//! The greedy maximum-slowdown policy from Acharya & Muthukrishnan's
//! broadcast scheduling work: the priority of a unit is the *current
//! slowdown* of its head tuple, `W/T` (Equation 5). `W` grows with wall
//! time at slope `1/T`, and the slopes differ across units, so the argmax
//! can flip between any two scheduling points. The naive policy scans the
//! non-empty units each time (`O(ready)` per decision; the clustering
//! machinery of §6 exists precisely because dynamic priorities cost this);
//! this one selects what that scan selects through `headgroups`,
//! one evaluation per distinct head arrival, and is charged as the scan.

use hcq_common::{Nanos, TupleId};

use crate::headgroups::HeadGroups;
use crate::policy::{Policy, QueueView, Selection, UnitId};
use crate::unit::UnitStatics;

/// LSF: run the unit whose head tuple has the largest current slowdown.
///
/// The priority is the ratio `W/T_k`; a zero ideal processing time would
/// make it `∞` at any positive wait, letting one degenerate unit capture
/// every scheduling point (and `0/0 = NaN` at zero wait would poison the
/// argmax comparison entirely). [`UnitStatics`] clamps `T_k` (and `C̄`) to
/// [`crate::unit::MIN_TIME_NS`], so every slope stored here is finite.
#[derive(Debug, Default)]
pub struct LsfPolicy {
    /// Ready units by head arrival, over the `1/T` column.
    groups: HeadGroups,
}

impl LsfPolicy {
    /// A fresh LSF policy.
    pub fn new() -> Self {
        LsfPolicy::default()
    }

    /// Times the ready units were regrouped from the queue view (see
    /// [`BsdPolicy::rebuilds`](crate::BsdPolicy::rebuilds)).
    pub fn rebuilds(&self) -> u64 {
        self.groups.rebuilds()
    }
}

impl Policy for LsfPolicy {
    fn name(&self) -> &'static str {
        "LSF"
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        self.groups
            .reset(units.iter().map(UnitStatics::lsf_slope).collect());
    }

    fn on_enqueue(&mut self, unit: UnitId, _tuple: TupleId, _arrival: Nanos, _now: Nanos) {
        self.groups.on_enqueue(unit);
    }

    fn on_shed(&mut self, unit: UnitId, _tuple: TupleId) {
        self.groups.on_shed(unit);
    }

    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.groups.set_factor(unit, statics.lsf_slope());
    }

    fn memory_footprint(&self) -> Option<usize> {
        Some(self.groups.heap_bytes())
    }

    fn select(&mut self, queues: &dyn QueueView, now: Nanos) -> Option<Selection> {
        self.groups.select(queues, now, |wait| wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::{drain_order, MockQueues};

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    #[test]
    fn prefers_highest_current_stretch() {
        // Unit 0: T = 10ms, waited 20ms -> stretch 2.
        // Unit 1: T = 2ms, waited 6ms  -> stretch 3.  LSF picks unit 1.
        let units = vec![
            UnitStatics::new(1.0, ms(10), ms(10)),
            UnitStatics::new(1.0, ms(2), ms(2)),
        ];
        let mut p = LsfPolicy::new();
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        q.push(0, TupleId::new(0), ms(0));
        q.push(1, TupleId::new(1), ms(14));
        let sel = p.select(&q, ms(20)).unwrap();
        assert_eq!(sel.units, vec![1]);
        assert_eq!(sel.ops_counted, 4);
    }

    #[test]
    fn priority_flips_as_time_passes() {
        // Early on the long-T unit's tuple is older and wins; later the
        // short-T unit's stretch overtakes it.
        let units = vec![
            UnitStatics::new(1.0, ms(100), ms(100)), // slope 0.01/ms
            UnitStatics::new(1.0, ms(5), ms(5)),     // slope 0.2/ms
        ];
        let mut p = LsfPolicy::new();
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        q.push(0, TupleId::new(0), ms(0));
        q.push(1, TupleId::new(1), ms(99));
        // At t=100: unit0 stretch 1.0, unit1 stretch 0.2 -> unit 0.
        assert_eq!(p.select(&q, ms(100)).unwrap().units, vec![0]);
        // At t=125: unit0 stretch 1.25, unit1 stretch 5.2 -> unit 1.
        assert_eq!(p.select(&q, ms(125)).unwrap().units, vec![1]);
    }

    #[test]
    fn equal_ideal_times_reduce_to_fcfs() {
        let units = vec![
            UnitStatics::new(1.0, ms(4), ms(4)),
            UnitStatics::new(1.0, ms(4), ms(4)),
        ];
        let order = drain_order(&mut LsfPolicy::new(), &units, &[(1, 0, 0), (0, 1, 2)]);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn zero_ideal_time_unit_cannot_capture_the_scheduler() {
        // A zero-T unit's slope is clamped finite (1/MIN_TIME_NS), so a
        // normal unit with enough accumulated wait can still outrank it and
        // the policy keeps draining both queues.
        let units = vec![
            UnitStatics::new(1.0, Nanos::ZERO, Nanos::ZERO),
            UnitStatics::new(1.0, Nanos::from_nanos(2), Nanos::from_nanos(2)),
        ];
        let mut p = LsfPolicy::new();
        p.on_register(&units);
        assert!(units.iter().all(|u| u.lsf_slope().is_finite()));
        let mut q = MockQueues::new(2);
        q.push(0, TupleId::new(0), Nanos::from_nanos(10));
        q.push(1, TupleId::new(1), Nanos::from_nanos(0));
        // At t=12: unit0 stretch = 2ns·(1/1ns) = 2, unit1 stretch =
        // 12ns·(1/2ns) = 6 -> the ordinary unit outranks the degenerate one.
        let sel = p.select(&q, Nanos::from_nanos(12)).unwrap();
        assert_eq!(sel.units, vec![1]);
    }

    #[test]
    fn statics_update_changes_the_slope_in_place() {
        let units = vec![
            UnitStatics::new(1.0, ms(10), ms(10)),
            UnitStatics::new(1.0, ms(10), ms(10)),
        ];
        let mut p = LsfPolicy::new();
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        q.push(0, TupleId::new(0), ms(0));
        q.push(1, TupleId::new(1), ms(0));
        assert_eq!(p.select(&q, ms(20)).unwrap().units, vec![0], "tie → id");
        // Unit 1 is re-estimated much shorter: its stretch slope dominates.
        p.on_statics_update(1, &UnitStatics::new(1.0, ms(1), ms(1)));
        assert_eq!(p.select(&q, ms(20)).unwrap().units, vec![1]);
        assert!(p.memory_footprint().unwrap() >= 2 * 8);
    }

    #[test]
    fn zero_wait_everywhere_breaks_ties_by_id() {
        let units = vec![
            UnitStatics::new(1.0, ms(4), ms(4)),
            UnitStatics::new(1.0, ms(4), ms(4)),
        ];
        let mut p = LsfPolicy::new();
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        q.push(1, TupleId::new(0), ms(5));
        q.push(0, TupleId::new(1), ms(5));
        assert_eq!(p.select(&q, ms(5)).unwrap().units, vec![0]);
    }
}
