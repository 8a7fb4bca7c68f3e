//! Aurora-style round-robin.
//!
//! The paper's `RR` comparator is Aurora's two-level scheme (§8 "Policies"):
//! round-robin across queries, rate-based execution *within* a query. At
//! query-level scheduling the within-query part is the engine's pipelined
//! segment execution, so the policy reduces to a rotating cursor over units
//! with pending work.

use hcq_common::{Nanos, TupleId};

use crate::policy::{Policy, QueueView, SchedStats, Selection, UnitId};
use crate::unit::UnitStatics;

/// Round-robin over units with pending tuples.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    cursor: UnitId,
    n_units: u32,
}

impl RoundRobinPolicy {
    /// A fresh round-robin policy.
    pub fn new() -> Self {
        RoundRobinPolicy::default()
    }
}

impl Policy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        self.n_units = units.len() as u32;
        self.cursor = 0;
    }

    fn on_enqueue(&mut self, _unit: UnitId, _tuple: TupleId, _arrival: Nanos, _now: Nanos) {}

    fn select(&mut self, queues: &dyn QueueView, _now: Nanos) -> Option<Selection> {
        if self.n_units == 0 {
            return None;
        }
        // Advance from the cursor to the next unit with pending work.
        for step in 0..self.n_units {
            let unit = (self.cursor + step) % self.n_units;
            if queues.len(unit) > 0 {
                self.cursor = (unit + 1) % self.n_units;
                let inspected = u64::from(step) + 1;
                let stats = SchedStats {
                    candidates_scanned: inspected,
                    comparisons: inspected,
                    ..SchedStats::default()
                };
                return Some(Selection::one(unit, inspected).with_stats(stats));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::drain_order;

    fn units(n: usize) -> Vec<UnitStatics> {
        (0..n)
            .map(|_| UnitStatics::new(1.0, Nanos::from_millis(1), Nanos::from_millis(1)))
            .collect()
    }

    #[test]
    fn rotates_across_units() {
        // Two tuples pending on each of three units: RR alternates.
        let order = drain_order(
            &mut RoundRobinPolicy::new(),
            &units(3),
            &[
                (0, 0, 0),
                (0, 1, 0),
                (1, 2, 0),
                (1, 3, 0),
                (2, 4, 0),
                (2, 5, 0),
            ],
        );
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_empty_units() {
        let order = drain_order(
            &mut RoundRobinPolicy::new(),
            &units(4),
            &[(1, 0, 0), (3, 1, 0), (3, 2, 0)],
        );
        assert_eq!(order, vec![1, 3, 3]);
    }

    #[test]
    fn counts_inspections_as_overhead() {
        let mut p = RoundRobinPolicy::new();
        p.on_register(&units(5));
        let mut q = crate::UnitQueues::new(5);
        q.push(4, (TupleId::new(0), Nanos::ZERO));
        p.on_enqueue(4, TupleId::new(0), Nanos::ZERO, Nanos::ZERO);
        let sel = p.select(&q, Nanos::ZERO).unwrap();
        assert_eq!(sel.units, vec![4]);
        assert_eq!(sel.ops_counted, 5, "inspected units 0..=4");
    }

    #[test]
    fn empty_system_returns_none() {
        let mut p = RoundRobinPolicy::new();
        p.on_register(&units(2));
        let q = crate::UnitQueues::<(TupleId, Nanos)>::new(2);
        assert!(p.select(&q, Nanos::ZERO).is_none());
    }
}
