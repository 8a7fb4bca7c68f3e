//! First-come-first-served.
//!
//! The baseline every DSMS paper measures against: run whichever unit holds
//! the globally oldest pending tuple. Implemented as a mirrored global FIFO,
//! so `select` is O(1): per-unit queues are FIFO, the engine dequeues one
//! head per selection, and tuples are reported in arrival order — so the
//! mirror's front entry is always some unit's head tuple.

use std::collections::VecDeque;

use hcq_common::{Nanos, TupleId};

use crate::policy::{Policy, QueueView, SchedStats, Selection, UnitId};
use crate::unit::UnitStatics;

/// FCFS over system arrival times.
#[derive(Debug, Default)]
pub struct FcfsPolicy {
    fifo: VecDeque<UnitId>,
    /// Mirror maintenance (pushes, shed repairs) accumulated since the last
    /// `select`, reported on the next decision's [`SchedStats`].
    pending_heap_ops: u64,
}

impl FcfsPolicy {
    /// A fresh FCFS policy.
    pub fn new() -> Self {
        FcfsPolicy::default()
    }
}

impl Policy for FcfsPolicy {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn on_register(&mut self, _units: &[UnitStatics]) {
        // Re-registration is a full reset (trait contract): the engine
        // replays the live backlog via `on_enqueue` right after, so any
        // surviving mirror entries would be counted twice and desync
        // `select` from the real queues.
        self.fifo.clear();
    }

    fn on_enqueue(&mut self, unit: UnitId, _tuple: TupleId, _arrival: Nanos, _now: Nanos) {
        self.fifo.push_back(unit);
        self.pending_heap_ops += 1;
    }

    fn on_shed(&mut self, unit: UnitId, _tuple: TupleId) {
        // Shedding removes the unit's *tail* tuple; per-unit queues are FIFO
        // and the mirror records enqueue order, so that tuple corresponds to
        // the unit's most recent (rearmost) mirror entry. A shed for a unit
        // with no mirror entries is a no-op per the trait contract (the
        // governor can re-shed a unit drained in the same admission storm).
        if let Some(i) = self.fifo.iter().rposition(|&u| u == unit) {
            self.fifo.remove(i);
            self.pending_heap_ops += 1;
        }
    }

    fn select(&mut self, queues: &dyn QueueView, _now: Nanos) -> Option<Selection> {
        let unit = self.fifo.pop_front()?;
        debug_assert!(queues.len(unit) > 0, "FCFS mirror out of sync");
        let stats = SchedStats {
            candidates_scanned: 1,
            heap_ops: 1 + std::mem::take(&mut self.pending_heap_ops),
            ..SchedStats::default()
        };
        Some(Selection::one(unit, 1).with_stats(stats))
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
    fn runs_in_arrival_order() {
        let order = drain_order(
            &mut FcfsPolicy::new(),
            &units(3),
            &[(2, 0, 0), (0, 1, 5), (1, 2, 10), (0, 3, 11)],
        );
        assert_eq!(order, vec![2, 0, 1, 0]);
    }

    #[test]
    fn empty_select_returns_none() {
        let mut p = FcfsPolicy::new();
        p.on_register(&units(1));
        let q = crate::UnitQueues::<(TupleId, Nanos)>::new(1);
        assert!(p.select(&q, Nanos::ZERO).is_none());
    }

    #[test]
    fn shed_forgets_the_units_newest_entry() {
        use crate::UnitQueues;
        let mut p = FcfsPolicy::new();
        p.on_register(&units(2));
        let mut q = UnitQueues::new(2);
        // Arrivals: unit 0 (t=0), unit 1 (t=1), unit 0 (t=2). Shedding unit
        // 0's tail must drop the t=2 entry, leaving the order [0, 1].
        for (u, t, a) in [(0, 0, 0u64), (1, 1, 1), (0, 2, 2)] {
            let at = Nanos::from_millis(a);
            q.push(u, (TupleId::new(t), at));
            p.on_enqueue(u, TupleId::new(t), at, at);
        }
        q.shed_tail(0).unwrap();
        p.on_shed(0, TupleId::new(2));
        let mut order = Vec::new();
        while !q.nonempty().is_empty() {
            let sel = p.select(&q, Nanos::from_millis(9)).expect("work pending");
            for u in sel.units {
                q.pop(u).unwrap();
                order.push(u);
            }
        }
        assert_eq!(order, vec![0, 1]);
        assert!(p.select(&q, Nanos::from_millis(9)).is_none());
    }

    #[test]
    fn double_shed_is_a_noop_on_empty_mirror() {
        use crate::UnitQueues;
        let mut p = FcfsPolicy::new();
        p.on_register(&units(2));
        let mut q = UnitQueues::new(2);
        for (u, t, a) in [(0, 0, 0u64), (1, 1, 1)] {
            let at = Nanos::from_millis(a);
            q.push(u, (TupleId::new(t), at));
            p.on_enqueue(u, TupleId::new(t), at, at);
        }
        // First shed drains unit 0's only entry; the second hits an already
        // empty mirror and must be tolerated as a no-op (trait contract:
        // idempotent per queue position — no underflow, no panic).
        q.shed_tail(0).unwrap();
        p.on_shed(0, TupleId::new(0));
        p.on_shed(0, TupleId::new(0));
        let sel = p.select(&q, Nanos::from_millis(9)).expect("unit 1 pending");
        assert_eq!(sel.units, vec![1]);
        q.pop(1).unwrap();
        assert!(p.select(&q, Nanos::from_millis(9)).is_none());
    }

    #[test]
    fn interleaves_same_unit_fairly() {
        // Two tuples on unit 0 sandwiching one on unit 1 arrive 0,1,2.
        let order = drain_order(
            &mut FcfsPolicy::new(),
            &units(2),
            &[(0, 0, 0), (1, 1, 1), (0, 2, 2)],
        );
        assert_eq!(order, vec![0, 1, 0]);
    }
}
