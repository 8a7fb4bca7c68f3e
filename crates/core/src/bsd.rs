//! Balance Slowdown (§4.2.2) — the exact policy.
//!
//! BSD minimizes the ℓ2 norm of slowdowns with priority
//! `V = (S/(C̄·T²)) · W = Φ · W` (Equation 6): the product of the unit's
//! static normalized-rate-over-T factor `Φ` and the current wait of its head
//! tuple. Because `W` advances continuously, the naive scheduler re-evaluates
//! every ready unit at every scheduling point — the O(q) cost that §6's
//! clustering ([`crate::cluster`]) exists to remove, approximately. This
//! policy selects exactly what that scan selects, through
//! `headgroups`: one evaluation per distinct head arrival instead of
//! one per ready unit. It is still *charged* as the naive scan
//! (`ops_counted = 2·|ready|`): the "no optimizations" bar of Figure 14.

use hcq_common::{Nanos, TupleId};

use crate::headgroups::HeadGroups;
use crate::policy::{Policy, QueueView, Selection, UnitId};
use crate::unit::UnitStatics;

/// Exact BSD: the argmax of `Φ·W` over the ready units.
#[derive(Debug, Default)]
pub struct BsdPolicy {
    /// Ready units by head arrival, over the `Φ = S/(C̄·T²)` column.
    groups: HeadGroups,
}

impl BsdPolicy {
    /// A fresh BSD policy.
    pub fn new() -> Self {
        BsdPolicy::default()
    }

    /// Override a unit's static factor (shared-operator groups, adaptive
    /// re-estimation).
    pub fn set_phi(&mut self, unit: UnitId, phi: f64) {
        self.groups.set_factor(unit, phi);
    }

    /// The unit's static factor `Φ`.
    pub fn phi(&self, unit: UnitId) -> f64 {
        self.groups.factor(unit)
    }

    /// Times the ready units were regrouped from the queue view because the
    /// callbacks had not announced all of them (a re-registration with
    /// tuples pending does that once).
    pub fn rebuilds(&self) -> u64 {
        self.groups.rebuilds()
    }
}

impl Policy for BsdPolicy {
    fn name(&self) -> &'static str {
        "BSD"
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        self.groups
            .reset(units.iter().map(UnitStatics::bsd_static).collect());
    }

    fn on_enqueue(&mut self, unit: UnitId, _tuple: TupleId, _arrival: Nanos, _now: Nanos) {
        self.groups.on_enqueue(unit);
    }

    fn on_shed(&mut self, unit: UnitId, _tuple: TupleId) {
        self.groups.on_shed(unit);
    }

    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.groups.set_factor(unit, statics.bsd_static());
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
    use crate::policy::testkit::MockQueues;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    #[test]
    fn hybrid_behaviour_rate_vs_wait() {
        // Unit 0 has a ~16× higher Φ (better normalized rate), unit 1 a
        // 1000× older head tuple: the wait dominates first, Φ later.
        let units = vec![
            UnitStatics::new(1.0, ms(1), ms(1)),
            UnitStatics::new(0.5, ms(2), ms(2)),
        ];
        let mut p = BsdPolicy::new();
        p.on_register(&units);
        assert!(p.phi(0) > p.phi(1));
        let mut q = MockQueues::new(2);
        // Fresh tuple on 0, ancient tuple on 1.
        q.push(1, TupleId::new(0), ms(0));
        q.push(0, TupleId::new(1), ms(1_000));
        // Shortly after unit 0's arrival its W is tiny: unit 1 wins on wait.
        let phi0 = p.phi(0);
        let phi1 = p.phi(1);
        let w0 = 1.0e6; // 1ms after unit-0 arrival, in ns
        let w1 = 1_001.0e6;
        assert!(phi1 * w1 > phi0 * w0, "sanity: aged tuple dominates");
        assert_eq!(p.select(&q, ms(1_001)).unwrap().units, vec![1]);
        // Much later the relative waits even out and Φ dominates.
        q.pop(1);
        q.push(1, TupleId::new(2), ms(1_000));
        assert!(phi0 * 99_000.0e6 > phi1 * 99_000.0e6);
        assert_eq!(p.select(&q, ms(100_000)).unwrap().units, vec![0]);
    }

    #[test]
    fn equal_waits_reduce_to_hnr_over_t() {
        // With equal W, BSD ranks by Φ = HNR/T: Example 1's Q2 wins (its Φ
        // advantage over Q1 is even larger than its HNR advantage).
        let units = vec![
            UnitStatics::new(1.0, ms(5), ms(5)),
            UnitStatics::new(0.33, ms(2), ms(2)),
        ];
        let mut p = BsdPolicy::new();
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        q.push(0, TupleId::new(0), ms(0));
        q.push(1, TupleId::new(1), ms(0));
        assert_eq!(p.select(&q, ms(10)).unwrap().units, vec![1]);
    }

    #[test]
    fn ops_counted_scales_with_ready_units() {
        let units: Vec<UnitStatics> = (1..=8)
            .map(|c| UnitStatics::new(0.5, ms(c), ms(c)))
            .collect();
        let mut p = BsdPolicy::new();
        p.on_register(&units);
        let mut q = MockQueues::new(8);
        for u in 0..5 {
            q.push(u, TupleId::new(u as u64), ms(u as u64));
        }
        let sel = p.select(&q, ms(100)).unwrap();
        assert_eq!(sel.ops_counted, 10, "2 ops per ready unit");
    }

    #[test]
    fn statics_update_changes_the_scan_in_place() {
        let units = vec![
            UnitStatics::new(1.0, ms(1), ms(1)),
            UnitStatics::new(0.5, ms(2), ms(2)),
        ];
        let mut p = BsdPolicy::new();
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        q.push(0, TupleId::new(0), ms(0));
        q.push(1, TupleId::new(1), ms(0));
        assert_eq!(p.select(&q, ms(10)).unwrap().units, vec![0], "Φ0 > Φ1");
        // Re-estimate unit 1 as much cheaper: its Φ overtakes.
        p.on_statics_update(
            1,
            &UnitStatics::new(1.0, Nanos::from_nanos(500_000), Nanos::from_nanos(500_000)),
        );
        assert!(p.phi(1) > p.phi(0));
        assert_eq!(p.select(&q, ms(10)).unwrap().units, vec![1]);
        assert!(p.memory_footprint().unwrap() >= 2 * 4 * 8);
    }

    #[test]
    fn zero_wait_selects_lowest_id_deterministically() {
        let units = vec![
            UnitStatics::new(0.5, ms(2), ms(2)),
            UnitStatics::new(0.5, ms(2), ms(2)),
        ];
        let mut p = BsdPolicy::new();
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        q.push(1, TupleId::new(0), ms(7));
        q.push(0, TupleId::new(1), ms(7));
        // W = 0 for both -> priorities equal 0 -> tie broken by id.
        assert_eq!(p.select(&q, ms(7)).unwrap().units, vec![0]);
    }
}
