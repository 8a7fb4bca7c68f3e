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

/// One operator's pass/fail rule, compiled once per run: a key predicate
/// keeps its threshold `round(s·100)`, any other operator its coin's
/// operator salt and selectivity. [`UnaryGate::passes`] is then only the
/// per-tuple work, and [`unary_passes`] is the same gate built for one call.
#[derive(Debug, Clone, Copy)]
pub struct UnaryGate {
    /// The coin's operator half: `det::mix2(query, op)`, or a sharing
    /// group's salt for its shared operator.
    salt: u64,
    seed: u64,
    rule: Rule,
}

#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Pass iff the tuple's key is at most this threshold.
    Key(u64),
    /// Pass iff `coin(mix3(id, salt, seed), s)`.
    Coin(f64),
}

impl UnaryGate {
    /// Operator `op` of query `query` at its selectivity `s`: a key
    /// predicate consults the tuple's attribute (`key ≤ s·100`, the §8
    /// predicate-over-an-attribute realization), everything else flips a
    /// coin that is a pure function of `(tuple, operator, seed)`.
    pub fn new(seed: u64, query: usize, op: usize, spec: &OperatorSpec) -> Self {
        let s = spec.selectivity;
        let rule = if spec.kind.is_key_predicate() {
            Rule::Key((s * 100.0).round() as u64)
        } else {
            Rule::Coin(s)
        };
        UnaryGate {
            salt: det::mix2(query as u64, op as u64),
            seed,
            rule,
        }
    }

    /// The shared operator of sharing group `group`, whose members all lead
    /// with the operator `leader` gates: physically one operator, so one
    /// outcome for every member. A select is key-driven and thus identical
    /// across members by construction; any other kind flips a coin salted
    /// by the group.
    pub fn shared(group: usize, leader: &UnaryGate) -> Self {
        UnaryGate {
            salt: 0xC0DE_5A17 ^ group as u64,
            ..*leader
        }
    }

    /// Window join `op` of query `query`: it passes every arriving tuple
    /// (its output is decided pair by pair, [`pair_passes_salted`]); the gate
    /// carries the operator salt the simulator charges the join under.
    pub fn join(query: usize, op: usize) -> Self {
        UnaryGate {
            salt: det::mix2(query as u64, op as u64),
            seed: 0,
            rule: Rule::Coin(1.0),
        }
    }

    /// Whether `t` passes the operator.
    #[inline]
    pub fn passes(&self, t: &SimTuple) -> bool {
        match self.rule {
            Rule::Key(threshold) => t.key <= threshold,
            Rule::Coin(s) => det::coin(det::mix3(t.id.raw(), self.salt, self.seed), s),
        }
    }

    /// The operator salt: the simulator's miscalibration draw for this
    /// operator is keyed by it too.
    #[inline]
    pub fn salt(&self) -> u64 {
        self.salt
    }
}

/// Outcome of one unary operator on one tuple at selectivity `s`:
/// [`UnaryGate::new`] and [`UnaryGate::passes`] in one call, the reference
/// the executors' prebuilt gates are held to.
pub fn unary_passes(
    seed: u64,
    query: usize,
    op: usize,
    spec: &OperatorSpec,
    s: f64,
    t: &SimTuple,
) -> bool {
    let spec = OperatorSpec {
        selectivity: s,
        ..*spec
    };
    UnaryGate::new(seed, query, op, &spec).passes(t)
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
/// nominal ideal departure (possible when miscalibration makes an operator
/// cheaper than its plan cost).
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
    use hcq_plan::OpKind;

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
        let select = OperatorSpec::new(OpKind::Select, Nanos::from_nanos(1), 0.5);
        let passes = |s: f64, key: u64| {
            let spec = OperatorSpec {
                selectivity: s,
                ..select
            };
            UnaryGate::new(0, 0, 0, &spec).passes(&tuple(1, key))
        };
        assert!(passes(0.5, 50));
        assert!(!passes(0.5, 51));
        assert!(passes(1.0, 100));
    }

    /// A gate decides exactly as the rule every pinned result was produced
    /// with — `key ≤ round(s·100)` for a select, `coin(mix3(id, mix2(query,
    /// op), seed), s)` for any other kind — and so does `unary_passes`,
    /// across kinds, rounding-edge and random selectivities, seeds, operator
    /// positions, keys at the threshold, and composite (top-bit) ids.
    #[test]
    fn gate_is_the_reference_rule() {
        let kinds = [
            OpKind::Select,
            OpKind::Project,
            OpKind::StoredJoin,
            OpKind::Map,
        ];
        let edges = [1.0, 0.005, 0.015, 0.125, 0.285, 0.995];
        let mut rng = det::Rng::new(0x6A7E);
        for case in 0..40_000usize {
            let kind = kinds[case % kinds.len()];
            let s = match case % 3 {
                0 => edges[(case / 3) % edges.len()],
                _ => det::unit_f64(rng.next_u64()),
            };
            let (seed, query, op) = (
                rng.next_u64(),
                (rng.next_u64() % 1_000) as usize,
                (rng.next_u64() % 8) as usize,
            );
            let threshold = (s * 100.0).round() as u64;
            let key = match rng.next_u64() % 2 {
                0 => 1 + rng.next_u64() % 100,
                _ => (threshold + rng.next_u64() % 3).saturating_sub(1).max(1),
            };
            let id = (rng.next_u64() >> 1) | (rng.next_u64() & 1 << 63);
            let t = tuple(id, key);
            let spec = OperatorSpec::new(kind, Nanos::from_nanos(1), s);
            let want = if kind == OpKind::Select {
                key <= threshold
            } else {
                det::coin(det::mix3(id, det::mix2(query as u64, op as u64), seed), s)
            };
            let gate = UnaryGate::new(seed, query, op, &spec);
            assert_eq!(
                gate.passes(&t),
                want,
                "case {case}: {kind:?} s={s} key={key}"
            );
            assert_eq!(unary_passes(seed, query, op, &spec, s, &t), want);
            assert_eq!(gate.salt(), det::mix2(query as u64, op as u64));

            let group = query;
            let want = if kind == OpKind::Select {
                key <= threshold
            } else {
                det::coin(det::mix3(id, 0xC0DE_5A17 ^ group as u64, seed), s)
            };
            let shared = UnaryGate::shared(group, &gate);
            assert_eq!(
                shared.passes(&t),
                want,
                "case {case}: shared {kind:?} s={s}"
            );

            let join = UnaryGate::join(query, op);
            assert!(join.passes(&t));
            assert_eq!(join.salt(), det::mix2(query as u64, op as u64));
        }
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
