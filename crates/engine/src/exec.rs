//! The `Policy`/`Executor` boundary: the pure decision core shared by the
//! virtual-time [`Simulator`](crate::Simulator) and the wall-clock
//! `hcq-runtime` executor.
//!
//! Everything here is a pure function of the workload realization — tuple
//! identity, operator position, and the run seed — never of scheduling
//! order, wall-clock time, or which thread executes. That property is what
//! makes the runtime ⇄ simulator differential harness possible: any
//! executor that feeds the same arrivals through these functions produces
//! the same emitted-tuple multiset, no matter how its threads interleave.
//!
//! The *scheduling* half of the boundary is [`hcq_core::Policy`] +
//! [`hcq_core::QueueView`], unchanged: both executors own per-unit FIFO
//! queues, call `on_enqueue`/`on_shed` as tuples move, and `select` to pick
//! the next unit. This module is the *execution* half — what happens to a
//! tuple once a policy has picked it, and which tuple QoS-aware admission
//! sacrifices under overload.

use hcq_common::{det, Nanos, TupleId};
use hcq_core::{PriorityKey, UnitId};
use hcq_plan::OperatorSpec;

use crate::tuple::SimTuple;

/// The §8 extra attribute carried by every arrival: uniform in `[1, 100]`,
/// a pure function of `(seed, arrival ordinal)` so key-predicate outcomes
/// correlate across queries sharing the attribute.
pub fn arrival_key(seed: u64, id: TupleId) -> u64 {
    det::unit_range(det::splitmix64(det::mix2(seed, id.raw())), 1, 100)
}

/// Key-predicate select: pass iff `key ≤ s·100` (the §8 predicate-over-an-
/// attribute realization). Takes the *effective* selectivity so drifting
/// statics shift the threshold.
pub fn key_passes(selectivity: f64, t: &SimTuple) -> bool {
    t.key <= (selectivity * 100.0).round() as u64
}

/// Outcome of one unary operator on one tuple at *effective* selectivity
/// `s`: key predicates consult the tuple's attribute, everything else flips
/// a coin that is a pure function of `(tuple, operator, seed)`.
pub fn unary_passes(
    seed: u64,
    query: usize,
    op: usize,
    spec: &OperatorSpec,
    s: f64,
    t: &SimTuple,
) -> bool {
    if spec.kind.is_key_predicate() {
        key_passes(s, t)
    } else {
        det::coin(
            det::mix3(t.id.raw(), det::mix2(query as u64, op as u64), seed),
            s,
        )
    }
}

/// The part of the join-predicate coin that does not depend on the pair:
/// one value per `(seed, query, join operator)`, so a probe computes it once
/// for all its candidates.
pub fn pair_salt(seed: u64, query: usize, op: usize) -> u64 {
    det::mix3(query as u64, op as u64, seed)
}

/// Join-predicate coin for a candidate pair under a [`pair_salt`]: symmetric
/// in the pair (the probing order is policy-dependent; the outcome must not
/// be).
#[inline]
pub fn pair_passes_salted(salt: u64, selectivity: f64, a: &SimTuple, b: &SimTuple) -> bool {
    let lo = a.id.raw().min(b.id.raw());
    let hi = a.id.raw().max(b.id.raw());
    det::coin(det::mix3(lo, hi, salt), selectivity)
}

/// §5.1.2 slowdown of an emission at `now`:
/// `H = 1 + (D_actual − D_ideal)/T`, clamped at 1 when the tuple beat its
/// nominal ideal departure (possible under cost jitter).
pub fn slowdown(now: Nanos, ideal_depart: Nanos, ideal_time: Nanos) -> f64 {
    if now > ideal_depart {
        1.0 + (now - ideal_depart).ratio(ideal_time)
    } else {
        1.0
    }
}

/// QoS-aware shed-victim selection: among the non-empty units, the one with
/// the lowest static HNR priority `S/(C̄·T)` (ties broken by lower unit
/// id), provided it is valued strictly below — or tied with and id-before —
/// the arriving unit. `None` means the arriving unit is itself the least
/// valuable and the arrival should be rejected instead.
pub fn shed_victim(nonempty: &[UnitId], shed_priority: &[f64], arriving: UnitId) -> Option<UnitId> {
    let mut victim = arriving;
    let mut lowest = PriorityKey(shed_priority[arriving as usize]);
    for &u in nonempty {
        let p = PriorityKey(shed_priority[u as usize]);
        if p < lowest || (p == lowest && u < victim) {
            victim = u;
            lowest = p;
        }
    }
    (victim != arriving).then_some(victim)
}

/// Fold one emission into an ordering-insensitive fingerprint.
///
/// The differential harness compares runtime and simulator on the
/// *multiset* of emissions `(query, lineage)` — commutative XOR/ADD over a
/// per-emission hash is equal iff the multisets are (up to hash collision),
/// regardless of emission order, which threads interleave freely.
pub fn fold_emission(acc: (u64, u64), query: usize, lineage: TupleId) -> (u64, u64) {
    let h = det::mix3(lineage.raw(), query as u64, 0x00D1_FF00);
    (acc.0 ^ h, acc.1.wrapping_add(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(id: u64, key: u64) -> SimTuple {
        SimTuple {
            id: TupleId::new(id),
            arrival: Nanos::ZERO,
            ts: Nanos::ZERO,
            key,
            ideal_depart: Nanos::from_millis(10),
            lineage: TupleId::new(id),
        }
    }

    #[test]
    fn key_predicate_thresholds() {
        assert!(key_passes(0.5, &tuple(1, 50)));
        assert!(!key_passes(0.5, &tuple(1, 51)));
        assert!(key_passes(1.0, &tuple(1, 100)));
    }

    #[test]
    fn pair_coin_is_symmetric() {
        let (a, b) = (tuple(3, 10), tuple(9, 20));
        let salt = pair_salt(7, 0, 1);
        for sel in [0.1, 0.5, 0.9] {
            assert_eq!(
                pair_passes_salted(salt, sel, &a, &b),
                pair_passes_salted(salt, sel, &b, &a)
            );
        }
    }

    /// The salted coin is `coin(mix3(lo, hi, mix3(query, op, seed)), s)`, the
    /// formula every pinned result was produced with, in either probing
    /// order.
    #[test]
    fn salted_coin_is_the_pair_coin() {
        let mut x = 0x5EED_u64;
        let mut next = || {
            x = det::splitmix64(x);
            x
        };
        for _ in 0..2_000 {
            let (seed, query, op) = (next(), (next() % 1_000) as usize, (next() % 8) as usize);
            let (a, b) = (tuple(next(), 1), tuple(next() | 1 << 63, 2));
            let sel = det::unit_f64(next()) * 1.2 - 0.1;
            let (lo, hi) = (a.id.raw().min(b.id.raw()), a.id.raw().max(b.id.raw()));
            let want = det::coin(
                det::mix3(lo, hi, det::mix3(query as u64, op as u64, seed)),
                sel,
            );
            let salt = pair_salt(seed, query, op);
            assert_eq!(pair_passes_salted(salt, sel, &a, &b), want);
            assert_eq!(pair_passes_salted(salt, sel, &b, &a), want);
        }
    }

    #[test]
    fn slowdown_clamps_at_one() {
        let t = Nanos::from_millis(10);
        assert_eq!(
            slowdown(Nanos::from_millis(5), Nanos::from_millis(8), t),
            1.0
        );
        let s = slowdown(Nanos::from_millis(13), Nanos::from_millis(8), t);
        assert!((s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn shed_victim_prefers_lowest_priority_then_lowest_id() {
        let pri = [3.0, 1.0, 1.0, 0.5];
        // Unit 3 is cheapest among the pending.
        assert_eq!(shed_victim(&[1, 2, 3], &pri, 0), Some(3));
        // Tie between 1 and 2 breaks to the lower id.
        assert_eq!(shed_victim(&[2, 1], &pri, 0), Some(1));
        // The arriving unit is the least valuable: reject the arrival.
        assert_eq!(shed_victim(&[0, 1], &pri, 3), None);
        // Tied with the arriving unit, a higher-id pending unit is spared.
        assert_eq!(shed_victim(&[2], &pri, 1), None);
    }

    #[test]
    fn emission_fingerprint_is_order_insensitive() {
        let a = [(0usize, 1u64), (1, 2), (0, 3)];
        let b = [(0usize, 3u64), (0, 1), (1, 2)];
        let fold = |set: &[(usize, u64)]| {
            set.iter().fold((0, 0), |acc, &(q, l)| {
                fold_emission(acc, q, TupleId::new(l))
            })
        };
        assert_eq!(fold(&a), fold(&b));
        // A different multiset fingerprints differently.
        assert_ne!(fold(&a), fold(&b[..2]));
    }
}
