//! Policy-level fuzzing over degenerate unit statics.
//!
//! The engine-level suite ([`crate::invariants`]) can only reach statistics
//! that survive plan validation (costs ≥ 1 ns, selectivities in `(0, 1]`).
//! This module drives every policy directly through the [`Policy`] trait
//! with the statics the validation layer is *protecting* them from — exact
//! zero costs and ideal times, zero selectivity, NaN selectivity — exactly
//! the corners the `MIN_TIME_NS` clamp, the NaN-last [`hcq_core::PriorityKey`] order,
//! and the degenerate-domain clustering guards exist for.
//!
//! Checked per scenario and policy:
//!
//! * `no-wedge` — `select` returns a selection while work is pending;
//! * `valid-selection` — every selected unit exists and has pending work;
//! * `termination` — a full drain finishes within a linear op budget;
//! * `epsilon-bound` — for logarithmically clustered BSD on an all-positive
//!   `Φ` domain, the executed choice is within `ε = (Φ_max/Φ_min)^(1/m)` of
//!   the exact BSD maximum (§6.2.1's approximation guarantee).
//!
//! The module's tests also hold the static policies (HR, HNR, SRPT, custom)
//! to the lazy max-heap they ran on before the rank-ordered ready bitmap,
//! kept there as a reference: over fuzzed enqueue / pop / shed / refill
//! sequences on these statics every `Selection` must agree field by field,
//! and the selected units must still agree once priorities are overridden
//! mid-sequence. Likewise the wait-linear policies (BSD, LSF, ℓp), which
//! select by head-arrival group, are held field by field to
//! [`hcq_core::soa::scan_argmax`], the per-unit scan that defines them, on
//! tie-heavy statics, non-monotone heads and clocks, factor changes and
//! re-registrations with tuples pending.

use std::collections::VecDeque;

use hcq_common::{det, Nanos, TupleId};
use hcq_core::{Clustering, Policy, PolicyKind, QueueView, UnitId, UnitStatics};

use crate::invariants::{cluster_variants, label, Violation};

/// Engine-style queue state for hand-driven policies: one FIFO per unit,
/// with the head-arrival column kept by the engine's write rule (a push onto
/// an empty queue, a pop that exposes a new front; never a tail removal).
/// Cloneable so a reference policy can drain an identical copy.
#[derive(Clone)]
pub(crate) struct FuzzQueues {
    queues: Vec<VecDeque<(TupleId, Nanos)>>,
    heads: Vec<Nanos>,
    nonempty: Vec<UnitId>,
}

impl FuzzQueues {
    pub(crate) fn new(n: usize) -> Self {
        FuzzQueues {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            heads: vec![Nanos::ZERO; n],
            nonempty: Vec::new(),
        }
    }

    /// Re-derive the ready list (id order) and check the column against the
    /// queues: every fuzzed mutation sequence exercises the write rule.
    fn refresh(&mut self) {
        self.nonempty = (0..self.queues.len() as UnitId)
            .filter(|&u| !self.queues[u as usize].is_empty())
            .collect();
        for (u, q) in self.queues.iter().enumerate() {
            let front = q.front().map(|&(_, a)| a);
            assert_eq!(self.head_arrival(u as UnitId), front, "head column");
        }
    }

    pub(crate) fn push(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos) {
        let q = &mut self.queues[unit as usize];
        if q.is_empty() {
            self.heads[unit as usize] = arrival;
        }
        q.push_back((tuple, arrival));
        self.refresh();
    }

    pub(crate) fn pop(&mut self, unit: UnitId) -> Option<(TupleId, Nanos)> {
        let q = &mut self.queues[unit as usize];
        let head = q.pop_front();
        if let Some(&(_, arrival)) = q.front() {
            self.heads[unit as usize] = arrival;
        }
        self.refresh();
        head
    }

    /// Remove the unit's tail tuple (models the engine shedding).
    pub(crate) fn pop_back(&mut self, unit: UnitId) -> Option<(TupleId, Nanos)> {
        let tail = self.queues[unit as usize].pop_back();
        self.refresh();
        tail
    }

    pub(crate) fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Every queued `(tuple, unit, arrival)`, unit by unit.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (TupleId, UnitId, Nanos)> + '_ {
        self.queues.iter().enumerate().flat_map(|(u, q)| {
            q.iter()
                .map(move |&(tuple, arrival)| (tuple, u as UnitId, arrival))
        })
    }
}

impl QueueView for FuzzQueues {
    fn len(&self, unit: UnitId) -> usize {
        self.queues[unit as usize].len()
    }

    fn head_arrivals(&self) -> &[Nanos] {
        &self.heads
    }

    fn nonempty(&self) -> &[UnitId] {
        &self.nonempty
    }
}

/// Generate a deliberately degenerate statics vector: NaN and zero
/// selectivities, zero costs and ideal times, and ordinary units mixed in
/// so comparisons against healthy priorities happen too.
pub fn degenerate_units(seed: u64, case: u64) -> Vec<UnitStatics> {
    let base = det::mix3(det::splitmix64(seed ^ 0x7066_757a_7a21), case, 0xdead);
    let n = det::unit_range(det::mix2(base, 1), 1, 8) as usize;
    (0..n)
        .map(|i| {
            let h = det::mix2(base, 100 + i as u64);
            let sel_r = det::unit_f64(det::mix2(h, 1));
            let cost = gen_nanos(det::mix2(h, 2));
            let ideal = gen_nanos(det::mix2(h, 3));
            let mut u = UnitStatics::new(
                if sel_r < 0.25 {
                    0.0
                } else if sel_r < 0.4 {
                    1e-9
                } else {
                    det::unit_f64(det::mix2(h, 4)).max(1e-3)
                },
                cost,
                ideal,
            );
            if sel_r < 0.1 {
                // NaN statics can only come from outside the constructors
                // (external embeddings mutating the public fields) — emulate
                // exactly that.
                u.selectivity = f64::NAN;
            }
            u
        })
        .collect()
}

fn gen_nanos(h: u64) -> Nanos {
    let r = det::unit_f64(det::mix2(h, 9));
    if r < 0.25 {
        Nanos::ZERO
    } else if r < 0.5 {
        Nanos::from_nanos(1)
    } else {
        Nanos::from_nanos(det::unit_range(det::mix2(h, 10), 1_000, 5_000_000))
    }
}

/// Fuzz one `(seed, case)` of degenerate statics through every policy: the
/// paper's seven plus clustered BSD in each of `cluster_variants`.
/// Logarithmic clustering is also held to its ε-bound.
pub fn fuzz_policies(seed: u64, case: u64) -> Vec<Violation> {
    let base = det::mix3(det::splitmix64(seed ^ 0x7066_757a_7a21), case, 0xbeef);
    let units = degenerate_units(seed, case);
    let arrivals = det::unit_range(det::mix2(base, 2), 1, 24);
    let gap = det::unit_range(det::mix2(base, 3), 1, 1_000_000);
    let m = det::unit_range(det::mix2(base, 4), 1, 6) as usize;
    let mut violations = Vec::new();
    let clustered = cluster_variants(m).map(PolicyKind::Clustered);
    for kind in PolicyKind::ALL.into_iter().chain(clustered) {
        let check_eps =
            matches!(kind, PolicyKind::Clustered(c) if c.clustering == Clustering::Logarithmic);
        drain_with_checks(
            &label(kind),
            kind.build().as_mut(),
            &units,
            arrivals,
            gap,
            m,
            check_eps,
            &mut violations,
        );
    }
    violations
}

/// ε-bound context for one drain: the §6.2.1 guarantee applies only when
/// the sanitized `Φ` domain is entirely positive and finite.
fn epsilon(units: &[UnitStatics], m: usize) -> Option<f64> {
    let mut lo = f64::INFINITY;
    let mut hi: f64 = 0.0;
    for u in units {
        let p = u.bsd_static();
        if !p.is_finite() || p <= 0.0 {
            return None;
        }
        lo = lo.min(p);
        hi = hi.max(p);
    }
    let eps = (hi / lo).powf(1.0 / m as f64);
    eps.is_finite().then_some(eps)
}

#[allow(clippy::too_many_arguments)]
fn drain_with_checks(
    name: &str,
    policy: &mut dyn Policy,
    units: &[UnitStatics],
    arrivals: u64,
    gap: u64,
    m: usize,
    check_eps: bool,
    violations: &mut Vec<Violation>,
) {
    let fail = |violations: &mut Vec<Violation>, invariant: &'static str, detail: String| {
        violations.push(Violation {
            policy: name.to_string(),
            invariant,
            detail,
        });
    };
    policy.on_register(units);
    let mut queues = FuzzQueues::new(units.len());
    let mut now = Nanos::ZERO;
    for t in 0..arrivals {
        let arrival = Nanos::from_nanos(t * gap);
        now = arrival;
        // Engine-style fan-out: one source tuple, one copy per unit.
        for u in 0..units.len() as UnitId {
            queues.push(u, TupleId::new(t), arrival);
            policy.on_enqueue(u, TupleId::new(t), arrival, now);
        }
    }
    let eps = check_eps.then(|| epsilon(units, m)).flatten();
    let budget = 4 * arrivals as usize * units.len() + 16;
    let mut steps = 0;
    while queues.pending() > 0 {
        steps += 1;
        if steps > budget {
            fail(
                violations,
                "termination",
                format!(
                    "drain exceeded {budget} selects with {} tuples still pending",
                    queues.pending()
                ),
            );
            return;
        }
        let Some(selection) = policy.select(&queues, now) else {
            fail(
                violations,
                "no-wedge",
                format!(
                    "select returned None with {} tuples pending",
                    queues.pending()
                ),
            );
            return;
        };
        if selection.units.as_slice().is_empty() {
            fail(violations, "valid-selection", "empty selection".into());
            return;
        }
        if let Some(eps) = eps {
            // Exact BSD maximum over per-unit heads, before popping.
            let exact_best = queues
                .nonempty()
                .iter()
                .map(|&u| {
                    let w = now
                        .saturating_since(queues.head_arrival(u).unwrap())
                        .as_nanos() as f64;
                    units[u as usize].bsd_static() * w
                })
                .fold(0.0f64, f64::max);
            let executed = selection
                .units
                .as_slice()
                .iter()
                .map(|&u| {
                    let w = now
                        .saturating_since(queues.head_arrival(u).unwrap())
                        .as_nanos() as f64;
                    units[u as usize].bsd_static() * w
                })
                .fold(0.0f64, f64::max);
            if executed * eps * (1.0 + 1e-9) < exact_best {
                fail(
                    violations,
                    "epsilon-bound",
                    format!(
                        "executed priority {executed:e} more than ε = {eps} below exact best {exact_best:e}"
                    ),
                );
            }
        }
        for &u in selection.units.as_slice() {
            if u as usize >= units.len() {
                fail(violations, "valid-selection", format!("unknown unit {u}"));
                return;
            }
            if queues.pop(u).is_none() {
                fail(
                    violations,
                    "valid-selection",
                    format!("selected unit {u} has an empty queue"),
                );
                return;
            }
        }
        now += Nanos::from_nanos(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcq_core::soa::scan_argmax;
    use hcq_core::{PriorityKey, SchedStats, Selection, StaticPolicy, StaticRank, WaitPolicy};
    use std::collections::BinaryHeap;

    /// The lazy max-heap behind HR/HNR/SRPT before the rank-ordered ready
    /// bitmap replaced it, kept verbatim as the oracle: a unit is pushed
    /// when its queue turns non-empty and popped once observed empty at the
    /// top; a re-prioritised ready unit is pushed again and its old entry
    /// discarded when it surfaces.
    struct LazyHeapStatic {
        priorities: Vec<PriorityKey>,
        heap: BinaryHeap<(PriorityKey, UnitId)>,
        in_heap: Vec<bool>,
        pending_heap_ops: u64,
        pending_evals: u64,
    }

    impl LazyHeapStatic {
        fn new(priorities: &[f64], evals: u64) -> Self {
            LazyHeapStatic {
                priorities: priorities.iter().map(|&p| PriorityKey(p)).collect(),
                heap: BinaryHeap::new(),
                in_heap: vec![false; priorities.len()],
                pending_heap_ops: 0,
                pending_evals: evals,
            }
        }

        fn set_priority(&mut self, unit: UnitId, priority: f64) {
            self.priorities[unit as usize] = PriorityKey(priority);
            self.pending_evals += 1;
            if self.in_heap[unit as usize] {
                self.heap.push((PriorityKey(priority), unit));
                self.pending_heap_ops += 1;
            }
        }

        fn on_enqueue(&mut self, unit: UnitId) {
            if !std::mem::replace(&mut self.in_heap[unit as usize], true) {
                self.heap.push((self.priorities[unit as usize], unit));
                self.pending_heap_ops += 1;
            }
        }

        fn select(&mut self, queues: &dyn QueueView) -> Option<Selection> {
            let mut ops = 0;
            let mut heap_ops = 0;
            loop {
                let &(key, unit) = self.heap.peek()?;
                ops += 1;
                heap_ops += 1;
                let stale = queues.len(unit) == 0 || key != self.priorities[unit as usize];
                if stale {
                    self.heap.pop();
                    heap_ops += 1;
                    if queues.len(unit) == 0 {
                        self.in_heap[unit as usize] = false;
                    } else if !self.heap.iter().any(|&(_, u)| u == unit) {
                        self.heap.push((self.priorities[unit as usize], unit));
                        heap_ops += 1;
                    }
                    continue;
                }
                let stats = SchedStats {
                    candidates_scanned: ops,
                    priority_evals: std::mem::take(&mut self.pending_evals),
                    comparisons: ops,
                    heap_ops: heap_ops + std::mem::take(&mut self.pending_heap_ops),
                    ..SchedStats::default()
                };
                // The heap's top stays on top while it has work: it holds.
                return Some(Selection::one(unit, ops).with_stats(stats).held());
            }
        }
    }

    /// Degenerate statics for one differential case: a handful of units, or
    /// (every third case) enough to cross a 64-rank word of the bitmap.
    fn oracle_units(case: u64) -> Vec<UnitStatics> {
        let want = if case.is_multiple_of(3) { 130 } else { 1 };
        let mut units = degenerate_units(31, case);
        for part in 32.. {
            if units.len() >= want {
                break;
            }
            units.extend(degenerate_units(part, case));
        }
        units
    }

    /// Drive the production policy and the heap oracle through one fuzzed
    /// enqueue / pop / shed / refill sequence. With `reprioritise` the
    /// sequence also overrides priorities, after which only the chosen units
    /// are comparable (the heap charges pops for its stale duplicates).
    fn differential(rank: StaticRank, case: u64, reprioritise: bool) {
        const CORNERS: [f64; 7] = [f64::NAN, 0.0, -0.0, 1.0, 1.0, f64::INFINITY, -2.5];
        let corner = |h: u64| CORNERS[(h % CORNERS.len() as u64) as usize];
        let units = oracle_units(case);
        let n = units.len() as u64;
        let (mut policy, priorities, evals) = if rank == StaticRank::Custom {
            let p: Vec<f64> = (0..n).map(|u| corner(det::mix3(case, u, 5))).collect();
            (StaticPolicy::custom("CUSTOM", p.clone()), p, 0)
        } else {
            let p = units.iter().map(|u| rank.priority(u)).collect();
            (StaticPolicy::new(rank), p, n)
        };
        policy.on_register(&units);
        let mut oracle = LazyHeapStatic::new(&priorities, evals);
        let mut queues = FuzzQueues::new(units.len());
        let tag = format!("{rank:?} case {case}");
        for step in 0..(40 * n).clamp(200, 2_000) {
            let h = det::mix3(case, step, 0x0a11);
            let unit = (det::mix2(h, 1) % n) as UnitId;
            // Bursts of arrivals, then bursts of service, so the ready set
            // both fills up and drains to empty.
            let arriving = (step / 64).is_multiple_of(2);
            match h % 8 {
                0 if reprioritise => {
                    let p = corner(det::mix2(h, 2));
                    policy.set_priority(unit, p);
                    oracle.set_priority(unit, p);
                }
                1 if queues.len(unit) > 0 => {
                    // Shed the tail: a unit can empty behind the policy's back.
                    let (tuple, _) = queues.pop_back(unit).unwrap();
                    policy.on_shed(unit, tuple);
                }
                k if (k < 5) == arriving => {
                    let tuple = TupleId::new(step);
                    queues.push(unit, tuple, Nanos::from_nanos(step));
                    policy.on_enqueue(unit, tuple, Nanos::from_nanos(step), Nanos::ZERO);
                    oracle.on_enqueue(unit);
                }
                _ => {
                    let got = policy.select(&queues, Nanos::ZERO);
                    let want = oracle.select(&queues);
                    assert_eq!(got.is_none(), queues.pending() == 0, "{tag} step {step}");
                    if reprioritise {
                        let chosen = |s: &Option<Selection>| s.as_ref().map(|s| s.units.to_vec());
                        assert_eq!(chosen(&got), chosen(&want), "{tag} step {step}");
                    } else {
                        assert_eq!(got, want, "{tag} step {step}");
                    }
                    for &u in got.iter().flat_map(|s| s.units.as_slice()) {
                        queues.pop(u).expect("selected units are non-empty");
                    }
                }
            }
        }
    }

    /// A wait-linear policy and the two halves of its priority, written
    /// out as the policy computes them: the static factor and the wait term.
    #[derive(Debug, Clone, Copy)]
    enum WaitLinear {
        Bsd,
        Lsf,
        Lp(f64),
    }

    impl WaitLinear {
        fn factor(self, u: &UnitStatics) -> f64 {
            match self {
                WaitLinear::Bsd => u.bsd_static(),
                WaitLinear::Lsf => u.lsf_slope(),
                WaitLinear::Lp(p) => u.selectivity / (u.avg_cost_ns * u.ideal_time_ns.powf(p)),
            }
        }

        fn wait_term(self, wait: f64) -> f64 {
            match self {
                WaitLinear::Lp(p) if p - 1.0 == 0.0 => 1.0,
                WaitLinear::Lp(p) => wait.powf(p - 1.0),
                _ => wait,
            }
        }
    }

    /// The adjacent larger float (`f64::next_up` for positive finite `x`).
    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    /// Tie-heavy statics: repeated classes, `S = 0` and `S = −0`, a
    /// selectivity and its float neighbour, and (some cases) `S = NaN` or
    /// `S = ∞`, whose non-finite factors send selection to the scan.
    fn tie_statics(h: u64, degenerate: bool) -> UnitStatics {
        let ms = Nanos::from_millis;
        let mut u = match h % 7 {
            0 | 1 => UnitStatics::new(0.5, ms(2), ms(2)),
            2 => UnitStatics::new(0.25, ms(1), ms(4)),
            3 => UnitStatics::new(next_up(0.5), ms(2), ms(2)),
            4 => UnitStatics::new(0.0, ms(1), ms(3)),
            5 => UnitStatics::new(-0.0, ms(3), ms(2)),
            _ => UnitStatics::new(0.9, ms(4), ms(1)),
        };
        if degenerate && (h >> 8).is_multiple_of(5) {
            u.selectivity = if (h >> 12).is_multiple_of(2) {
                f64::NAN
            } else {
                f64::INFINITY
            };
        }
        u
    }

    /// `Φ` overrides for BSD: a factor and its float neighbour, ±0, a
    /// negative factor, one so large that `W·Φ` overflows to `∞` (ties at
    /// infinity), and NaN / ∞ (the scan fallback).
    fn phi_corner(h: u64, degenerate: bool) -> f64 {
        let corners = [
            3.0e-12,
            next_up(3.0e-12),
            0.0,
            -0.0,
            -2.5e-12,
            1.0e306,
            f64::NAN,
            f64::INFINITY,
        ];
        let n = if degenerate { 8 } else { 6 };
        corners[(h % n) as usize]
    }

    /// Drive one wait-linear policy and the scan over the same fuzzed
    /// sequence: fan-out and single enqueues at a handful of instants (so
    /// heads share arrivals, arrive out of order like composites, and lie
    /// after `now`), selects at a clock that also moves backwards and lands
    /// on arrival instants (`W = 0`), tail sheds down to empty and refills,
    /// factor changes, and re-registration with tuples pending. Every
    /// `Selection` must equal the scan's: unit, `ops_counted`, `SchedStats`.
    /// Cases from 120 on draw 130–200 units, so a fan-out's group spans
    /// several 64-rank blocks of the kernel's bitmap.
    fn wait_linear_differential(mut policy: WaitPolicy, kind: WaitLinear, case: u64) {
        let tag = format!("{kind:?} case {case}");
        let degenerate = case % 4 == 3;
        let (lo, hi) = match case {
            120.. => (130, 200),
            _ if case.is_multiple_of(3) => (1, 40),
            _ => (1, 8),
        };
        let n = det::unit_range(det::mix2(case, 1), lo, hi);
        let mut units: Vec<UnitStatics> = (0..n)
            .map(|u| tie_statics(det::mix3(case, u, 2), degenerate))
            .collect();
        let mut factor: Vec<f64> = units.iter().map(|u| kind.factor(u)).collect();
        policy.on_register(&units);
        let mut queues = FuzzQueues::new(n as usize);
        let instant = |h: u64| Nanos::from_nanos(1_000 * (h % 6));
        let mut now = Nanos::ZERO;
        let mut next_tuple = 0u64;
        let mut enqueue =
            |p: &mut WaitPolicy, q: &mut FuzzQueues, unit: UnitId, at: Nanos, now: Nanos| {
                let tuple = TupleId::new(next_tuple);
                next_tuple += 1;
                q.push(unit, tuple, at);
                p.on_enqueue(unit, tuple, at, now);
            };
        for step in 0..400u64 {
            let h = det::mix3(case, step, 0x0b5d);
            let unit = (det::mix2(h, 1) % n) as UnitId;
            if h.is_multiple_of(5) {
                // The clock jumps anywhere on the grid, backwards included.
                now = instant(h >> 40);
            }
            match (h >> 8) % 16 {
                0..=3 => enqueue(&mut policy, &mut queues, unit, instant(h >> 20), now),
                4 => {
                    // One arrival fanned out to every unit, at `now`.
                    for u in 0..n as UnitId {
                        enqueue(&mut policy, &mut queues, u, now, now);
                    }
                }
                5 | 6 if queues.len(unit) > 0 => {
                    // Shed the tail; half the time down to empty and refill
                    // at another instant.
                    let drain = h.is_multiple_of(2);
                    while let Some((tuple, _)) = queues.pop_back(unit) {
                        policy.on_shed(unit, tuple);
                        if !drain {
                            break;
                        }
                    }
                    if drain {
                        enqueue(&mut policy, &mut queues, unit, instant(h >> 24), now);
                    }
                }
                7 => {
                    let fresh = tie_statics(det::mix2(h, 3), degenerate);
                    if matches!(kind, WaitLinear::Bsd) && h.is_multiple_of(2) {
                        let phi = phi_corner(h >> 28, degenerate);
                        policy.set_factor(unit, phi);
                        factor[unit as usize] = phi;
                    } else {
                        policy.on_statics_update(unit, &fresh);
                        units[unit as usize] = fresh;
                        factor[unit as usize] = kind.factor(&fresh);
                    }
                }
                8 if h.is_multiple_of(8) => {
                    // Re-register with tuples pending and replay nothing.
                    policy.on_register(&units);
                    factor = units.iter().map(|u| kind.factor(u)).collect();
                }
                _ => {
                    let (ready, heads) = (queues.nonempty(), queues.head_arrivals());
                    // `Nanos::saturating_since` asserts against heads after
                    // `now` where debug assertions are on; release builds
                    // select with the clock behind heads too (`W = 0`).
                    let newest = ready.iter().map(|&u| heads[u as usize]).max();
                    let now = match newest {
                        Some(head) if cfg!(debug_assertions) => now.max(head),
                        _ => now,
                    };
                    let want = scan_argmax(ready, heads, &factor, now, |w| kind.wait_term(w));
                    let got = policy.select(&queues, now);
                    assert_eq!(got, want, "{tag} step {step}");
                    for &u in got.iter().flat_map(|s| s.units.as_slice()) {
                        queues.pop(u).expect("selected units are non-empty");
                    }
                }
            }
        }
    }

    #[test]
    fn wait_linear_policies_match_the_scan_field_by_field() {
        for case in 0..132 {
            wait_linear_differential(WaitPolicy::bsd(), WaitLinear::Bsd, case);
            wait_linear_differential(WaitPolicy::lsf(), WaitLinear::Lsf, case);
            for p in [1.0, 1.5, 2.0, 3.0, 16.0] {
                wait_linear_differential(WaitPolicy::lp(p), WaitLinear::Lp(p), case);
            }
        }
    }

    /// Run one seeded enqueue / select script on two instances of `kind`:
    /// one is called at `now` = the latest arrival, the other 10⁹ s later.
    /// Returns whether some step picked different units. Until then both
    /// see the same queues, and a kind that claims not to read `now` must
    /// agree on the whole `Selection` (`ops_counted` and `SchedStats` too).
    fn now_moves_a_pick(kind: PolicyKind, case: u64) -> bool {
        let ms = Nanos::from_millis;
        let n = det::unit_range(det::mix2(case, 1), 2, 8);
        let units: Vec<UnitStatics> = (0..n)
            .map(|u| {
                let h = det::mix3(case, u, 0x0c10c);
                let cost = ms(det::unit_range(det::mix2(h, 1), 1, 10));
                let ideal = ms(det::unit_range(det::mix2(h, 2), 1, 40));
                UnitStatics::new(0.1 + 0.9 * det::unit_f64(h), cost, ideal)
            })
            .collect();
        let late_by = Nanos::from_secs(1_000_000_000);
        let (mut early, mut late) = (kind.build(), kind.build());
        early.on_register(&units);
        late.on_register(&units);
        let mut queues = FuzzQueues::new(units.len());
        let mut latest = Nanos::ZERO;
        for step in 0..200u64 {
            let h = det::mix3(case, step, 0x0c10d);
            if !h.is_multiple_of(3) {
                // Arrivals never go back, and some share an instant.
                latest += ms(det::unit_range(det::mix2(h, 1), 0, 4));
                let unit = (det::mix2(h, 2) % n) as UnitId;
                let tuple = TupleId::new(step);
                queues.push(unit, tuple, latest);
                early.on_enqueue(unit, tuple, latest, latest);
                late.on_enqueue(unit, tuple, latest, latest + late_by);
                continue;
            }
            let picked = early.select(&queues, latest);
            let picked_late = late.select(&queues, latest + late_by);
            let tag = format!("{} case {case} step {step}", label(kind));
            if !kind.reads_now() {
                assert_eq!(picked, picked_late, "{tag}");
            }
            let units_of = |s: &Option<Selection>| s.as_ref().map(|s| s.units.to_vec());
            if units_of(&picked) != units_of(&picked_late) {
                return true;
            }
            for &u in picked.iter().flat_map(|s| s.units.as_slice()) {
                queues.pop(u).expect("selected units are non-empty");
            }
        }
        false
    }

    /// An executor may skip its clock read before `select` when
    /// `PolicyKind::reads_now` is false, so the flag must not lie either
    /// way: such a kind selects identically at any `now` (checked inside
    /// the script), and for a kind that claims to read `now` some script
    /// has a step where `now` changes the pick.
    #[test]
    fn reads_now_is_true_exactly_when_now_changes_a_pick() {
        let kinds = PolicyKind::ALL
            .into_iter()
            .chain([PolicyKind::Lp(2.5)])
            .chain(cluster_variants(3).map(PolicyKind::Clustered));
        for kind in kinds {
            let moved = (0..24).filter(|&case| now_moves_a_pick(kind, case)).count();
            assert_eq!(
                moved > 0,
                kind.reads_now(),
                "{}: `now` changed the pick in {moved} of 24 scripts",
                label(kind)
            );
        }
    }

    /// Run one seeded enqueue / select / pop script on `kind`. After a pop
    /// that leaves the picked units non-empty, select again at a later
    /// `now` with no callback in between, and keep doing so while the pick
    /// holds: a held pick must be repeated. Now and then a statics update
    /// comes between; that ends the hold, and the re-select must be the
    /// pick of a fresh instance on the same queues. Returns whether some
    /// re-select after a pick that did not hold picked differently, and
    /// whether any pick held.
    fn a_pop_moves_a_pick(kind: PolicyKind, case: u64) -> (bool, bool) {
        let ms = Nanos::from_millis;
        let n = det::unit_range(det::mix2(case, 1), 2, 8);
        let statics = |h: u64| {
            let cost = ms(det::unit_range(det::mix2(h, 1), 1, 10));
            let ideal = ms(det::unit_range(det::mix2(h, 2), 1, 40));
            UnitStatics::new(0.1 + 0.9 * det::unit_f64(h), cost, ideal)
        };
        let mut units: Vec<UnitStatics> = (0..n)
            .map(|u| statics(det::mix3(case, u, 0x401d)))
            .collect();
        let mut policy = kind.build();
        policy.on_register(&units);
        let mut queues = FuzzQueues::new(units.len());
        let (mut now, mut moved, mut held) = (Nanos::ZERO, false, false);
        let units_of = |s: &Option<Selection>| s.as_ref().map(|s| s.units.to_vec());
        for step in 0..200u64 {
            let h = det::mix3(case, step, 0x401e);
            if !h.is_multiple_of(3) {
                now += ms(det::unit_range(det::mix2(h, 1), 0, 4));
                let unit = (det::mix2(h, 2) % n) as UnitId;
                let tuple = TupleId::new(step);
                queues.push(unit, tuple, now);
                policy.on_enqueue(unit, tuple, now, now);
                continue;
            }
            let tag = format!("{} case {case} step {step}", label(kind));
            let mut pick = policy.select(&queues, now);
            for link in 0.. {
                let Some(sel) = &pick else { break };
                for &u in &sel.units {
                    queues.pop(u).expect("selected units are non-empty");
                }
                let live = sel.units.iter().all(|&u| queues.len(u) > 0);
                if !live || (link > 0 && !sel.holds) {
                    break;
                }
                held |= sel.holds;
                let hl = det::mix3(h, link, 0x401f);
                now += ms(det::unit_range(det::mix2(hl, 1), 1, 50));
                let update = sel.holds && det::mix2(hl, 2).is_multiple_of(4);
                if update {
                    let unit = (det::mix2(hl, 3) % n) as UnitId;
                    units[unit as usize] = statics(det::mix2(hl, 4));
                    policy.on_statics_update(unit, &units[unit as usize]);
                }
                let again = policy.select(&queues, now);
                if update {
                    let mut fresh = kind.build();
                    fresh.on_register(&units);
                    for (u, q) in (0..).zip(&queues.queues) {
                        for &(tuple, arrival) in q {
                            fresh.on_enqueue(u, tuple, arrival, now);
                        }
                    }
                    let want = fresh.select(&queues, now);
                    assert_eq!(units_of(&again), units_of(&want), "{tag}: after an update");
                } else if sel.holds {
                    assert_eq!(
                        units_of(&again),
                        units_of(&pick),
                        "{tag}: a held pick moved"
                    );
                } else {
                    moved |= units_of(&again) != units_of(&pick);
                }
                pick = again;
            }
        }
        (moved, held)
    }

    /// An executor may serve a held unit without asking again, so
    /// `Selection::holds` must not lie either way: a held pick is repeated
    /// after its pop at any later instant (checked inside the script), and
    /// every kind that never holds has a script where a pop moves its pick.
    /// Exactly the static-priority kinds hold.
    #[test]
    fn holds_is_set_exactly_when_a_pick_survives_its_pop() {
        let kinds = PolicyKind::ALL
            .into_iter()
            .chain([PolicyKind::Lp(2.5)])
            .chain(cluster_variants(3).map(PolicyKind::Clustered));
        for kind in kinds {
            let (mut moved, mut held) = (0, 0);
            for case in 0..24 {
                let (m, h) = a_pop_moves_a_pick(kind, case);
                moved += usize::from(m);
                held += usize::from(h);
            }
            let statics = matches!(kind, PolicyKind::Srpt | PolicyKind::Hr | PolicyKind::Hnr);
            let at = format!(
                "{}: held in {held}, moved in {moved} of 24 scripts",
                label(kind)
            );
            assert_eq!(held > 0, statics, "{at}");
            assert_eq!(moved > 0, !statics, "{at}");
        }
    }

    const RANKS: [StaticRank; 4] = [
        StaticRank::Srpt,
        StaticRank::Hr,
        StaticRank::Hnr,
        StaticRank::Custom,
    ];

    #[test]
    fn static_policy_matches_the_lazy_heap_field_by_field() {
        for rank in RANKS {
            for case in 0..48 {
                differential(rank, case, false);
            }
        }
    }

    #[test]
    fn static_policy_matches_the_lazy_heap_units_under_reprioritisation() {
        for rank in RANKS {
            for case in 0..48 {
                differential(rank, case, true);
            }
        }
    }

    #[test]
    fn degenerate_statics_are_generated_deterministically() {
        // Compare through Debug: NaN selectivities are intentional, and
        // NaN != NaN would fail a direct PartialEq comparison.
        assert_eq!(
            format!("{:?}", degenerate_units(5, 9)),
            format!("{:?}", degenerate_units(5, 9))
        );
        // The corners are actually sampled over a modest case range.
        let mut saw_nan = false;
        let mut saw_zero_cost = false;
        let mut saw_zero_sel = false;
        for case in 0..64 {
            for u in degenerate_units(0, case) {
                saw_nan |= u.selectivity.is_nan();
                saw_zero_cost |= u.avg_cost_ns == hcq_core::MIN_TIME_NS;
                saw_zero_sel |= u.selectivity == 0.0;
            }
        }
        assert!(saw_nan && saw_zero_cost && saw_zero_sel);
    }

    #[test]
    fn all_policies_survive_degenerate_statics() {
        for case in 0..32 {
            let violations = fuzz_policies(2, case);
            assert!(
                violations.is_empty(),
                "case {case} violated:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  {v}\n"))
                    .collect::<String>()
            );
        }
    }
}
