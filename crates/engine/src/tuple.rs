//! The simulated tuple.

use hcq_common::{Nanos, TupleId};
use hcq_join::JoinItem;

/// A tuple flowing through the simulator.
///
/// Tuples carry no payload beyond what scheduling and metrics consume: the
/// §8 attribute (`key`, uniform in \[1,100\], shared by every copy of one
/// physical arrival so select outcomes correlate across queries exactly as
/// in the paper's testbed) and the bookkeeping for the slowdown metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTuple {
    /// Unique per simulation run; composite tuples mint fresh ids.
    pub id: TupleId,
    /// System arrival time: the stream arrival for base tuples, the max over
    /// constituents for composites (Definition 5).
    pub arrival: Nanos,
    /// Timestamp used by window predicates (equals `arrival` here — the DSMS
    /// timestamps tuples on entry, §5).
    pub ts: Nanos,
    /// The §8 attribute in \[1, 100\] driving select predicates.
    pub key: u64,
    /// Ideal departure time `D_ideal` (§5.1.2): the max over constituents of
    /// `arrival + alone-path cost`. Equals `arrival + T_k` for single-stream
    /// tuples.
    pub ideal_depart: Nanos,
    /// Stable lineage id: the arrival id of the base tuple this one's
    /// response time is measured against. Base tuples carry their own id;
    /// composites inherit the lineage of the later-arriving constituent —
    /// the same constituent whose arrival defines the composite's Definition
    /// 5 arrival, so `at − arrival` on an `Emit` is the response time of
    /// exactly this lineage. Lets offline analysis chain a root emission
    /// back to the physical arrival that paid its queue wait.
    pub lineage: TupleId,
}

impl SimTuple {
    /// A base tuple entering one route at `at`: `id` is the arrival's global
    /// ordinal (also its lineage), `key` its §8 attribute, and `alone` the
    /// route's alone-path cost, so `ideal_depart = at + alone`.
    pub fn base(id: TupleId, at: Nanos, key: u64, alone: Nanos) -> SimTuple {
        SimTuple {
            id,
            arrival: at,
            ts: at,
            key,
            ideal_depart: at + alone,
            lineage: id,
        }
    }

    /// Combine two join inputs into a composite tuple (Definition 5 arrival;
    /// ideal departures take the max — each constituent's own path work
    /// bounds the composite from below).
    pub fn composite(id: TupleId, left: &SimTuple, right: &SimTuple) -> SimTuple {
        SimTuple {
            id,
            arrival: left.arrival.max(right.arrival),
            ts: left.ts.max(right.ts),
            // The §8 attribute of a composite: keep the probing side's
            // attribute distributionally uniform by mixing both.
            key: 1 + (hcq_common::det::mix2(left.key, right.key) % 100),
            ideal_depart: left.ideal_depart.max(right.ideal_depart),
            lineage: if right.arrival > left.arrival {
                right.lineage
            } else {
                left.lineage
            },
        }
    }
}

impl JoinItem for SimTuple {
    /// All tuples share one join bucket: the window join's matching is
    /// "every tuple in the window is a candidate", thinned by the join
    /// predicate's selectivity coin — exactly the §5 cost/selectivity model
    /// (`S_other · V/τ_other` candidates, each passing with `s_J`).
    fn key(&self) -> u64 {
        0
    }

    fn timestamp(&self) -> Nanos {
        self.ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, arrival_ms: u64, ideal_ms: u64, key: u64) -> SimTuple {
        SimTuple {
            id: TupleId::new(id),
            arrival: Nanos::from_millis(arrival_ms),
            ts: Nanos::from_millis(arrival_ms),
            key,
            ideal_depart: Nanos::from_millis(ideal_ms),
            lineage: TupleId::new(id),
        }
    }

    #[test]
    fn composite_takes_maxes() {
        let a = t(1, 10, 30, 5);
        let b = t(2, 20, 25, 80);
        let c = SimTuple::composite(TupleId::new(3), &a, &b);
        assert_eq!(c.arrival, Nanos::from_millis(20));
        assert_eq!(c.ts, Nanos::from_millis(20));
        assert_eq!(c.ideal_depart, Nanos::from_millis(30));
        assert!((1..=100).contains(&c.key));
        // Lineage follows the later-arriving constituent (b at 20ms).
        assert_eq!(c.lineage, TupleId::new(2));
    }

    #[test]
    fn composite_lineage_ties_break_left() {
        let a = t(1, 20, 30, 5);
        let b = t(2, 20, 25, 80);
        let c = SimTuple::composite(TupleId::new(3), &a, &b);
        assert_eq!(c.lineage, TupleId::new(1));
    }

    #[test]
    fn join_item_uses_shared_bucket() {
        let a = t(1, 10, 30, 5);
        let b = t(2, 99, 30, 77);
        assert_eq!(JoinItem::key(&a), JoinItem::key(&b));
        assert_eq!(a.timestamp(), Nanos::from_millis(10));
    }

    #[test]
    fn composite_key_is_deterministic() {
        let a = t(1, 10, 30, 5);
        let b = t(2, 20, 25, 80);
        let c1 = SimTuple::composite(TupleId::new(3), &a, &b);
        let c2 = SimTuple::composite(TupleId::new(4), &a, &b);
        assert_eq!(c1.key, c2.key);
    }
}
