//! Struct-of-arrays statics storage for large unit populations.
//!
//! Every dynamic-priority hot path in this crate reduces to "multiply one
//! per-unit static by the head wait and compare": BSD weighs `Φ_x`, LSF
//! `1/T_k`, clustered BSD re-buckets on `Φ_x`. With 10⁵–10⁶ units, an
//! array-of-structs layout drags the two unused `f64`s of every
//! [`UnitStatics`] through the cache on each scan; this table stores each
//! statistic in its own contiguous array so a `select` scan touches exactly
//! the eight bytes per unit it needs.
//!
//! The table also carries the *derived* factors (`Φ = S/(C̄·T²)`, the LSF
//! slope `1/T`) precomputed, so updating one unit's statics
//! ([`StaticsTable::set`]) refreshes every derived column in O(1) and no
//! scan ever divides.
//!
//! The queue side has the matching column: [`QueueView::head_arrivals`]
//! serves every head arrival as one dense slice, and [`scan_argmax`] is the
//! exact O(ready) scan over the two columns that defines what BSD, LSF and ℓp
//! select. Their policies select through `headgroups`, which returns
//! the same unit from one candidate per distinct head arrival; the scan is its
//! fallback for non-finite inputs and its oracle.
//!
//! [`QueueView::head_arrivals`]: crate::policy::QueueView::head_arrivals

use hcq_common::Nanos;

use crate::policy::{SchedStats, Selection, UnitId};
use crate::unit::UnitStatics;

/// The exact dynamic-priority argmax: over `ready`, maximize
/// `wait_term(now − heads[u]) · factor[u]`, ties toward the lower unit id.
///
/// `heads` is the queue side's head-arrival column and `factor` the policy's
/// static column, both indexed by unit id, so one evaluation is two gathers,
/// one multiply and one compare. The first ready unit is the initial
/// candidate whatever its priority; a later unit replaces the candidate only
/// by comparing strictly greater (or equal with a lower id), so a NaN
/// priority never displaces one. Every ready unit is evaluated and compared
/// once: `ops_counted = 2·|ready|`, itemized as `|ready|` candidates,
/// evaluations and comparisons — the O(q) profile of §6 that `ext_overhead`
/// measures against the clustered implementations.
// Inlined into each policy's `select` whatever rustc's codegen-unit merge
// does with the rest of the crate: out of line, the loop came out with a
// branch-free tie-break (six more instructions per unit), `sim_bsd` ×0.71.
#[inline]
pub fn scan_argmax(
    ready: &[UnitId],
    heads: &[Nanos],
    factor: &[f64],
    now: Nanos,
    wait_term: impl Fn(f64) -> f64,
) -> Option<Selection> {
    let mut priorities = ready.iter().map(|&unit| {
        let wait = now.saturating_since(heads[unit as usize]).as_nanos() as f64;
        (wait_term(wait) * factor[unit as usize], unit)
    });
    let mut best = priorities.next()?;
    for (priority, unit) in priorities {
        if priority > best.0 || (priority == best.0 && unit < best.1) {
            best = (priority, unit);
        }
    }
    Some(naive_charge(best.1, ready.len()))
}

/// The decision for `unit` charged as the naive scan over `ready` units:
/// `ops_counted = 2·ready`, itemized as `ready` candidates, evaluations and
/// comparisons — the §9.2 cost model of naive BSD, whatever work the
/// policy actually did to find `unit`.
pub fn naive_charge(unit: UnitId, ready: usize) -> Selection {
    let n = ready as u64;
    let stats = SchedStats {
        candidates_scanned: n,
        priority_evals: n,
        comparisons: n,
        ..SchedStats::default()
    };
    Selection::one(unit, 2 * n).with_stats(stats)
}

/// Per-unit statics in struct-of-arrays layout: the §2 quantities
/// (`S_x`, `C̄_x`, `T_k`) plus the derived scan factors.
#[derive(Debug, Clone, Default)]
pub struct StaticsTable {
    /// Global selectivity `S` per unit.
    selectivity: Vec<f64>,
    /// Global average cost `C̄` in nanoseconds per unit.
    avg_cost_ns: Vec<f64>,
    /// Ideal total processing time `T` in nanoseconds per unit.
    ideal_time_ns: Vec<f64>,
    /// Derived BSD factor `Φ = S/(C̄·T²)` per unit (Equation 6).
    phi: Vec<f64>,
}

impl StaticsTable {
    /// An empty table.
    pub fn new() -> Self {
        StaticsTable::default()
    }

    /// Build from a registration slice.
    pub fn from_units(units: &[UnitStatics]) -> Self {
        let mut t = StaticsTable {
            selectivity: Vec::with_capacity(units.len()),
            avg_cost_ns: Vec::with_capacity(units.len()),
            ideal_time_ns: Vec::with_capacity(units.len()),
            phi: Vec::with_capacity(units.len()),
        };
        for u in units {
            t.push(u);
        }
        t
    }

    /// Number of units stored.
    pub fn len(&self) -> usize {
        self.phi.len()
    }

    /// True when no units are stored.
    pub fn is_empty(&self) -> bool {
        self.phi.is_empty()
    }

    /// Append one unit, returning its id (dense, registration order).
    pub fn push(&mut self, u: &UnitStatics) -> UnitId {
        let id = self.phi.len() as UnitId;
        self.selectivity.push(u.selectivity);
        self.avg_cost_ns.push(u.avg_cost_ns);
        self.ideal_time_ns.push(u.ideal_time_ns);
        self.phi.push(u.bsd_static());
        id
    }

    /// Replace one unit's statics, refreshing the derived columns.
    pub fn set(&mut self, unit: UnitId, u: &UnitStatics) {
        let i = unit as usize;
        self.selectivity[i] = u.selectivity;
        self.avg_cost_ns[i] = u.avg_cost_ns;
        self.ideal_time_ns[i] = u.ideal_time_ns;
        self.phi[i] = u.bsd_static();
    }

    /// Reassemble one unit's statics (round-trips the stored columns).
    pub fn get(&self, unit: UnitId) -> UnitStatics {
        let i = unit as usize;
        UnitStatics {
            selectivity: self.selectivity[i],
            avg_cost_ns: self.avg_cost_ns[i],
            ideal_time_ns: self.ideal_time_ns[i],
        }
    }

    /// The contiguous `Φ` column — the clustered/naive BSD scan input.
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// One unit's `Φ` factor.
    pub fn phi_of(&self, unit: UnitId) -> f64 {
        self.phi[unit as usize]
    }

    /// Override one unit's `Φ` directly, decoupled from `S`/`C̄`/`T`
    /// (shared-operator groups install synthesized factors).
    pub fn set_phi(&mut self, unit: UnitId, phi: f64) {
        self.phi[unit as usize] = phi;
    }

    /// Heap bytes held by the table (capacity, not length — what the
    /// allocator actually committed).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.selectivity.capacity()
                + self.avg_cost_ns.capacity()
                + self.ideal_time_ns.capacity()
                + self.phi.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::MockQueues;
    use crate::policy::{Policy, QueueView};
    use crate::{BsdPolicy, LpPolicy, LsfPolicy};
    use hcq_common::TupleId;
    use proptest::prelude::*;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    /// The scan as BSD, LSF and ℓp each carried it before the head column:
    /// one `head_arrival` call per ready unit. Kept as the oracle.
    fn reference_scan(
        queues: &dyn QueueView,
        factor: &[f64],
        now: Nanos,
        wait_term: impl Fn(f64) -> f64,
    ) -> Option<Selection> {
        let mut best: Option<(f64, UnitId)> = None;
        let mut ops = 0;
        for &unit in queues.nonempty() {
            let arrival = queues.head_arrival(unit).expect("nonempty unit has a head");
            let wait = now.saturating_since(arrival).as_nanos() as f64;
            let priority = wait_term(wait) * factor[unit as usize];
            ops += 2;
            let better = match best {
                None => true,
                Some((b, bu)) => priority > b || (priority == b && unit < bu),
            };
            if better {
                best = Some((priority, unit));
            }
        }
        best.map(|(_, unit)| {
            let n = ops / 2;
            let stats = SchedStats {
                candidates_scanned: n,
                priority_evals: n,
                comparisons: n,
                ..SchedStats::default()
            };
            Selection::one(unit, ops).with_stats(stats)
        })
    }

    proptest! {
        /// Kernel ≡ oracle ≡ each policy's `select`: same unit, `ops_counted`
        /// and `SchedStats`. Statics and arrivals come from tiny domains so
        /// ties are the norm; `now` can equal the newest head (zero waits);
        /// ready sets shrink to one unit and to none (`None`).
        #[test]
        fn scan_argmax_matches_per_unit_reference(
            // Per unit: statics class, head arrival (ms; `None` = empty
            // queue), a raw factor that may be NaN, and its rank in the
            // (unordered) ready list.
            cells in proptest::collection::vec(
                (0usize..3, proptest::option::weighted(0.7, 0u64..4), 0usize..4, 0u32..8), 1..10),
            now_ms in 3u64..6,
        ) {
            let classes = [
                UnitStatics::new(0.5, ms(2), ms(2)),
                UnitStatics::new(1.0, ms(4), ms(4)),
                UnitStatics::new(0.25, ms(1), ms(3)),
            ];
            let units: Vec<UnitStatics> = cells.iter().map(|c| classes[c.0]).collect();
            let mut q = MockQueues::new(units.len());
            let mut order: Vec<UnitId> = (0..units.len() as UnitId).collect();
            order.sort_by_key(|&u| cells[u as usize].3);
            for u in order {
                if let Some(a) = cells[u as usize].1 {
                    q.push(u, TupleId::new(u as u64), ms(a));
                    q.push(u, TupleId::new(100 + u as u64), ms(a + 1));
                }
            }
            let now = ms(now_ms);
            let lp_factor = |p: f64| -> Vec<f64> {
                units.iter()
                    .map(|u| u.selectivity / (u.avg_cost_ns * u.ideal_time_ns.powf(p)))
                    .collect()
            };
            let w_term = |p: f64| move |w: f64| if p == 1.0 { 1.0 } else { w.powf(p - 1.0) };
            let bsd: Vec<f64> = units.iter().map(UnitStatics::bsd_static).collect();
            let lsf: Vec<f64> = units.iter().map(UnitStatics::lsf_slope).collect();
            let raw: Vec<f64> = cells.iter().map(|c| [0.0, 1.0, 2.0, f64::NAN][c.2]).collect();
            let (ready, heads) = (q.nonempty(), q.head_arrivals());

            let check = |factor: &[f64], p: f64, policy: Option<&mut dyn Policy>| {
                let expect = reference_scan(&q, factor, now, w_term(p));
                prop_assert_eq!(&scan_argmax(ready, heads, factor, now, w_term(p)), &expect);
                if let Some(policy) = policy {
                    policy.on_register(&units);
                    prop_assert_eq!(&policy.select(&q, now), &expect, "{}", policy.name());
                }
                prop_assert_eq!(expect.is_none(), ready.is_empty());
                if let Some(sel) = expect {
                    prop_assert_eq!(sel.ops_counted, 2 * ready.len() as u64);
                }
                Ok(())
            };
            check(&bsd, 2.0, Some(&mut BsdPolicy::new()))?;
            check(&lsf, 2.0, Some(&mut LsfPolicy::new()))?;
            check(&lp_factor(1.0), 1.0, Some(&mut LpPolicy::new(1.0)))?;
            check(&lp_factor(2.5), 2.5, Some(&mut LpPolicy::new(2.5)))?;
            check(&raw, 2.0, None)?;
        }
    }

    #[test]
    fn columns_round_trip_and_derive() {
        let units = vec![
            UnitStatics::new(0.5, ms(4), ms(6)),
            UnitStatics::new(1.0, ms(1), ms(2)),
        ];
        let t = StaticsTable::from_units(&units);
        assert_eq!(t.len(), 2);
        for (i, u) in units.iter().enumerate() {
            assert_eq!(t.get(i as UnitId), *u);
            assert_eq!(t.phi_of(i as UnitId), u.bsd_static());
        }
        assert_eq!(t.phi().len(), 2);
    }

    #[test]
    fn set_refreshes_derived_columns() {
        let mut t = StaticsTable::from_units(&[UnitStatics::new(0.5, ms(4), ms(6))]);
        let next = UnitStatics::new(0.9, ms(1), ms(1));
        t.set(0, &next);
        assert_eq!(t.get(0), next);
        assert_eq!(t.phi_of(0), next.bsd_static());
    }

    #[test]
    fn push_assigns_dense_ids() {
        let mut t = StaticsTable::new();
        assert!(t.is_empty());
        assert_eq!(t.push(&UnitStatics::new(0.5, ms(1), ms(1))), 0);
        assert_eq!(t.push(&UnitStatics::new(0.5, ms(2), ms(2))), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn phi_override_is_decoupled() {
        let mut t = StaticsTable::from_units(&[UnitStatics::new(0.5, ms(4), ms(6))]);
        t.set_phi(0, 42.0);
        assert_eq!(t.phi_of(0), 42.0);
        // The base columns are untouched.
        assert_eq!(t.get(0).selectivity, 0.5);
    }

    #[test]
    fn heap_bytes_tracks_columns() {
        let t = StaticsTable::from_units(&[UnitStatics::new(0.5, ms(1), ms(1)); 10]);
        assert!(t.heap_bytes() >= 4 * 10 * 8);
    }
}
