//! Per-unit FIFO input queues with an O(1) non-empty index, generic over
//! the payload, and the workspace's one admission function.

use std::collections::VecDeque;

use hcq_common::{EngineError, Nanos};
use hcq_core::{QueueView, UnitId};

use crate::config::AdmissionMode;
use crate::exec;
use crate::tuple::SimTuple;

/// What a queue payload must expose: its system arrival, which feeds the
/// head column.
pub trait Queued {
    /// System-arrival time (the `W` origin of every policy).
    fn arrival(&self) -> Nanos;
}

impl Queued for SimTuple {
    fn arrival(&self) -> Nanos {
        self.arrival
    }
}

/// What [`UnitQueues::admit`] did with an arrival.
#[derive(Debug, PartialEq)]
pub enum Admission<T> {
    /// Queued; nothing was lost.
    Queued,
    /// Refused and handed back; the queues are untouched.
    Rejected(T),
    /// Queued after shedding `shed`, the tail of `victim`'s queue.
    Displaced {
        /// The unit that lost its tail.
        victim: UnitId,
        /// The tuple it lost.
        shed: T,
    },
}

/// The queue state of every executor (simulator, wall-clock runtime,
/// `Dsms`); implements [`QueueView`] for policies.
#[derive(Debug)]
pub struct UnitQueues<T = SimTuple> {
    queues: Vec<VecDeque<T>>,
    /// `heads[u]` is the arrival of `queues[u]`'s front tuple — the dense
    /// column behind [`QueueView::head_arrivals`]. Written when a push makes
    /// the queue non-empty and when a pop exposes a new front; an emptied
    /// queue leaves its last value behind (unspecified by contract), and
    /// `shed_tail` never moves a front, so it never writes.
    heads: Vec<Nanos>,
    /// Unordered list of units with pending tuples.
    nonempty: Vec<UnitId>,
    /// `pos[u] = i+1` when `nonempty[i] == u`; 0 when absent.
    pos: Vec<u32>,
    pending: usize,
}

impl<T: Queued> UnitQueues<T> {
    /// Unbounded queues for `n` units.
    ///
    /// Each queue gets a small initial capacity and keeps whatever it grows
    /// to for the rest of the run (`pop` never shrinks), so after a brief
    /// warm-up the steady-state hot path performs no queue allocations.
    pub fn new(n: usize) -> Self {
        UnitQueues {
            queues: (0..n).map(|_| VecDeque::with_capacity(4)).collect(),
            heads: vec![Nanos::ZERO; n],
            nonempty: Vec::with_capacity(n),
            pos: vec![0; n],
            pending: 0,
        }
    }

    /// Grow the unit space by one (empty) unit — the `Dsms` registers
    /// queries one at a time.
    pub fn add_unit(&mut self) {
        self.queues.push(VecDeque::with_capacity(4));
        self.heads.push(Nanos::ZERO);
        self.pos.push(0);
    }

    /// Admission control — the only place an [`AdmissionMode`] decides what
    /// happens to an arrival. `DropTail` refuses it at a full queue;
    /// `QosShed`, at a full queue with total load at or above `watermark`,
    /// sheds the tail of the [`exec::shed_victim`] unit (lowest
    /// `shed_priority`) to make room, or refuses the arrival when its own
    /// unit is the least valuable (an O(non-empty units) scan that only runs
    /// past the watermark). The caller owns the bookkeeping: shed counters,
    /// trace events, the policy's `on_shed`/`on_enqueue`. Inlined: out of
    /// line, handing the tuple in and an [`Admission`] back cost `sim_hnr`
    /// about 4 % (benchmark, alternating pairs against the parent commit).
    #[inline]
    pub fn admit(
        &mut self,
        mode: AdmissionMode,
        capacity: usize,
        watermark: usize,
        shed_priority: &[f64],
        unit: UnitId,
        item: T,
    ) -> Admission<T> {
        let full = mode != AdmissionMode::Unbounded && self.len(unit) >= capacity;
        let outcome = match mode {
            AdmissionMode::DropTail if full => return Admission::Rejected(item),
            AdmissionMode::QosShed if full && self.pending >= watermark => {
                let Some(victim) = exec::shed_victim(&self.nonempty, shed_priority, unit) else {
                    return Admission::Rejected(item);
                };
                let Some(shed) = self.shed_tail(victim) else {
                    debug_assert!(false, "victim came from the non-empty index");
                    return Admission::Rejected(item);
                };
                Admission::Displaced { victim, shed }
            }
            _ => Admission::Queued,
        };
        self.push(unit, item);
        outcome
    }

    /// Enqueue a tuple.
    ///
    /// Out of line on purpose: inlined into the simulator's admission path
    /// (with the column store) it changes the event loop's code generation
    /// enough to cost the emission-heavy join workload about 10 % (benchmark
    /// `sim_join`, 30 alternating slices); the call itself is not measurable
    /// on `sim_hnr` or `sim_bsd`.
    #[inline(never)]
    pub fn push(&mut self, unit: UnitId, tuple: T) {
        let q = &mut self.queues[unit as usize];
        if q.is_empty() {
            self.heads[unit as usize] = tuple.arrival();
            self.nonempty.push(unit);
            self.pos[unit as usize] = self.nonempty.len() as u32;
        }
        q.push_back(tuple);
        self.pending += 1;
    }

    /// Remove `unit` from the non-empty index once its queue has drained.
    /// Swap-remove: O(1), order not preserved.
    ///
    /// Errors (instead of underflowing `pos - 1` or panicking on an empty
    /// index) when the index slot disagrees with the queue contents — state
    /// corruption, not a caller mistake.
    fn unindex(&mut self, unit: UnitId) -> Result<(), EngineError> {
        let corrupt = EngineError::QueueIndexCorrupt { unit };
        let i = self
            .pos
            .get(unit as usize)
            .copied()
            .and_then(|p| p.checked_sub(1))
            .map(|i| i as usize)
            .filter(|&i| self.nonempty.get(i) == Some(&unit))
            .ok_or(corrupt)?;
        let last = self.nonempty.pop().ok_or(corrupt)?;
        if last != unit {
            self.nonempty[i] = last;
            self.pos[last as usize] = i as u32 + 1;
        }
        self.pos[unit as usize] = 0;
        Ok(())
    }

    /// Reconstruct the non-empty index from the queue contents — the
    /// self-healing path taken when [`UnitQueues::unindex`] detects
    /// corruption on a call that cannot surface an error.
    fn rebuild_index(&mut self) {
        self.nonempty.clear();
        self.pos.iter_mut().for_each(|p| *p = 0);
        for (u, q) in self.queues.iter().enumerate() {
            if !q.is_empty() {
                self.nonempty.push(u as UnitId);
                self.pos[u] = self.nonempty.len() as u32;
            }
        }
    }

    /// Dequeue the unit's head tuple.
    ///
    /// Errors (instead of panicking) on an empty queue or an out-of-range
    /// unit id — both are policy/engine contract violations that a robust
    /// engine surfaces as values.
    pub fn pop(&mut self, unit: UnitId) -> Result<T, EngineError> {
        let q = self
            .queues
            .get_mut(unit as usize)
            .ok_or(EngineError::UnknownUnit {
                unit,
                unit_count: self.pos.len(),
            })?;
        let t = q.pop_front().ok_or(EngineError::EmptyQueuePop { unit })?;
        self.pending -= 1;
        match q.front() {
            Some(front) => self.heads[unit as usize] = front.arrival(),
            None => self.unindex(unit)?,
        }
        Ok(t)
    }

    /// Remove and return the unit's *tail* tuple (load shedding: the newest
    /// tuple has waited least, so dropping it costs the least sunk QoS).
    /// Returns `None` when the queue is empty.
    pub fn shed_tail(&mut self, unit: UnitId) -> Option<T> {
        let t = self.queues.get_mut(unit as usize)?.pop_back()?;
        self.pending -= 1;
        if self.queues[unit as usize].is_empty() && self.unindex(unit).is_err() {
            // `shed_tail` has no error channel; a corrupt index slot heals
            // by rebuilding the whole index from the queues.
            self.rebuild_index();
        }
        Some(t)
    }

    /// Corrupt the unit's index slot — regression-test hook for the
    /// [`EngineError::QueueIndexCorrupt`] paths.
    #[cfg(test)]
    fn corrupt_pos_for_tests(&mut self, unit: UnitId, pos: u32) {
        self.pos[unit as usize] = pos;
    }

    /// Iterate the unit's queued tuples in FIFO order (head first) without
    /// disturbing them — the policy-switch resync path reads the full
    /// backlog to replay it into a freshly built policy.
    pub fn tuples(&self, unit: UnitId) -> impl Iterator<Item = &T> {
        self.queues[unit as usize].iter()
    }

    /// Total pending tuples across all units.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when nothing is pending anywhere.
    pub fn all_empty(&self) -> bool {
        self.pending == 0
    }
}

impl<T> QueueView for UnitQueues<T> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use hcq_common::TupleId;
    use proptest::prelude::*;

    fn tuple(id: u64, arrival_ms: u64) -> SimTuple {
        SimTuple::base(
            TupleId::new(id),
            Nanos::from_millis(arrival_ms),
            1,
            Nanos::ZERO,
        )
    }

    /// A payload that is neither `Copy` nor a `SimTuple`.
    #[derive(Debug, PartialEq)]
    struct Owned(Nanos, String);

    impl Queued for Owned {
        fn arrival(&self) -> Nanos {
            self.0
        }
    }

    #[test]
    fn fifo_order_and_index() {
        let mut q = UnitQueues::new(3);
        assert!(q.all_empty());
        q.push(1, tuple(1, 10));
        q.push(1, tuple(2, 20));
        q.push(0, tuple(3, 30));
        assert_eq!(q.pending(), 3);
        assert_eq!(q.len(1), 2);
        assert_eq!(q.head_arrival(1), Some(Nanos::from_millis(10)));
        let mut ne: Vec<_> = q.nonempty().to_vec();
        ne.sort();
        assert_eq!(ne, vec![0, 1]);
        assert_eq!(q.pop(1).unwrap().id, TupleId::new(1));
        assert_eq!(q.head_arrival(1), Some(Nanos::from_millis(20)));
        assert_eq!(q.pop(1).unwrap().id, TupleId::new(2));
        assert_eq!(q.nonempty(), &[0]);
        q.pop(0).unwrap();
        assert!(q.all_empty());
        assert!(q.nonempty().is_empty());
    }

    #[test]
    fn popping_empty_is_a_typed_error() {
        let mut q = UnitQueues::<SimTuple>::new(1);
        assert_eq!(q.pop(0), Err(EngineError::EmptyQueuePop { unit: 0 }));
    }

    #[test]
    fn popping_unknown_unit_is_a_typed_error() {
        let mut q = UnitQueues::<SimTuple>::new(2);
        assert_eq!(
            q.pop(7),
            Err(EngineError::UnknownUnit {
                unit: 7,
                unit_count: 2
            })
        );
    }

    /// `admit` over mode × arriving-queue-full × load-at-watermark ×
    /// arriving-unit-is-least-valuable, capacity 1, one tuple pending in
    /// each of the two other units.
    #[test]
    fn admit_decides_per_mode() {
        use AdmissionMode::{DropTail, QosShed, Unbounded};
        // Unit 1 is the least valuable; arriving at unit 0 makes it the
        // victim, arriving at unit 1 leaves nobody to displace.
        let pri = [2.0, 1.0, 3.0];
        for mode in [Unbounded, DropTail, QosShed] {
            for bits in 0..8u8 {
                let (full, at_watermark, least) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
                let case = format!("{mode:?} full={full} wm={at_watermark} least={least}");
                let arriving: UnitId = if least { 1 } else { 0 };
                let mut q = UnitQueues::new(3);
                for u in 0..3 {
                    if u != arriving || full {
                        q.push(u, tuple(u64::from(u), 10 + u64::from(u)));
                    }
                }
                let before = q.pending();
                let watermark = if at_watermark { before } else { before + 1 };
                let item = tuple(9, 99);
                let got = q.admit(mode, 1, watermark, &pri, arriving, item);
                let want = match mode {
                    DropTail if full => Admission::Rejected(item),
                    QosShed if full && at_watermark && least => Admission::Rejected(item),
                    QosShed if full && at_watermark => Admission::Displaced {
                        victim: 1,
                        shed: tuple(1, 11),
                    },
                    _ => Admission::Queued,
                };
                assert_eq!(got, want, "{case}");
                let queued = usize::from(want == Admission::Queued);
                assert_eq!(q.pending(), before + queued, "{case}");
                let displaced = matches!(want, Admission::Displaced { .. });
                let mut ne = q.nonempty().to_vec();
                ne.sort();
                assert_eq!(
                    ne,
                    if displaced { vec![0, 2] } else { vec![0, 1, 2] },
                    "{case}"
                );
                // A full queue keeps its front; an empty one takes the
                // arrival's; a displaced victim reads as empty.
                let head = if full { 10 + u64::from(arriving) } else { 99 };
                assert_eq!(
                    q.head_arrival(arriving),
                    Some(Nanos::from_millis(head)),
                    "{case}"
                );
                assert_eq!(
                    q.head_arrivals()[arriving as usize],
                    Nanos::from_millis(head)
                );
                assert_eq!(q.head_arrival(1).is_none(), displaced, "{case}");
            }
        }
    }

    /// A victim named by the index whose queue turns out empty (index
    /// corruption) rejects the arrival — in every executor, and loudly where
    /// debug assertions are on.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-empty index"))]
    fn admit_rejects_when_the_victim_has_no_tail() {
        let mut q = UnitQueues::new(2);
        q.push(0, tuple(1, 10));
        q.nonempty.push(1);
        let item = tuple(2, 20);
        let got = q.admit(AdmissionMode::QosShed, 1, 0, &[2.0, 1.0], 0, item);
        assert_eq!(got, Admission::Rejected(item));
        assert_eq!((q.pending(), q.len(0)), (1, 1));
    }

    #[test]
    fn shed_tail_removes_newest_and_maintains_index() {
        let mut q = UnitQueues::new(2);
        q.push(0, tuple(1, 10));
        q.push(0, tuple(2, 20));
        q.push(1, tuple(3, 30));
        let shed = q.shed_tail(0).unwrap();
        assert_eq!(shed.id, TupleId::new(2));
        assert_eq!(q.pending(), 2);
        assert_eq!(q.head_arrival(0), Some(Nanos::from_millis(10)));
        // Shedding a queue's last tuple must clear it from the index.
        let shed = q.shed_tail(1).unwrap();
        assert_eq!(shed.id, TupleId::new(3));
        assert_eq!(q.nonempty(), &[0]);
        assert_eq!(q.shed_tail(1), None);
        assert_eq!(q.shed_tail(9), None, "out-of-range unit sheds nothing");
        assert_eq!(q.pop(0).unwrap().id, TupleId::new(1));
        assert!(q.all_empty());
    }

    #[test]
    fn corrupt_index_pop_is_a_typed_error() {
        // A zeroed slot (claims "absent" while the queue holds a tuple)
        // used to underflow `pos - 1`; an out-of-range slot used to panic
        // or clobber a neighbour. Both now surface as a typed error.
        for bad_pos in [0u32, 99] {
            let mut q = UnitQueues::new(2);
            q.push(0, tuple(1, 10));
            q.corrupt_pos_for_tests(0, bad_pos);
            assert_eq!(q.pop(0), Err(EngineError::QueueIndexCorrupt { unit: 0 }));
        }
    }

    #[test]
    fn corrupt_index_shed_self_heals() {
        let mut q = UnitQueues::new(3);
        q.push(0, tuple(1, 10));
        q.push(2, tuple(2, 20));
        q.corrupt_pos_for_tests(0, 0);
        // `shed_tail` has no error channel: it rebuilds the index instead.
        assert_eq!(q.shed_tail(0).unwrap().id, TupleId::new(1));
        assert_eq!(q.nonempty(), &[2]);
        assert_eq!(q.pop(2).unwrap().id, TupleId::new(2));
        assert!(q.all_empty());
        assert!(q.nonempty().is_empty());
    }

    /// Drive `ops` (unit, op) against queues of `make`-built payloads and
    /// check, after every step, that the non-empty index, the pending count
    /// and the head-arrival column match the actual queue contents.
    fn check_index_consistent<T: Queued>(
        ops: &[(u32, u8)],
        make: impl Fn(u64) -> T,
    ) -> Result<(), TestCaseError> {
        let mut q = UnitQueues::new(3);
        let mut pri = vec![1.0, 0.5, 2.0];
        let mut id = 0u64;
        for &(unit, op) in ops {
            let n = pri.len() as u32;
            let unit = unit % n;
            let (had, before) = (q.len(unit), q.pending());
            match op {
                0 | 1 => {
                    id += 1;
                    q.push(unit, make(id));
                }
                2 => prop_assert_eq!(q.pop(unit).is_ok(), had > 0),
                3 => prop_assert_eq!(q.shed_tail(unit).is_some(), had > 0),
                4 | 5 => {
                    id += 1;
                    let mode = AdmissionMode::from_rung(op - 3);
                    let queued = match q.admit(mode, 2, 4, &pri, unit, make(id)) {
                        Admission::Queued => 1,
                        Admission::Rejected(_) | Admission::Displaced { .. } => 0,
                    };
                    prop_assert_eq!(q.pending(), before + queued);
                }
                _ => {
                    q.add_unit();
                    pri.push(f64::from(n % 4));
                }
            }
            let n = pri.len() as u32;
            let expect: Vec<u32> = (0..n).filter(|&u| q.len(u) > 0).collect();
            let mut got = q.nonempty().to_vec();
            got.sort();
            prop_assert_eq!(got, expect);
            let total: usize = (0..n).map(|u| q.len(u)).sum();
            prop_assert_eq!(total, q.pending());
            prop_assert_eq!(q.head_arrivals().len(), n as usize);
            for u in 0..n {
                let front = q.tuples(u).next().map(|t| t.arrival());
                prop_assert_eq!(q.head_arrival(u), front);
                prop_assert!(front.is_none_or(|a| q.head_arrivals()[u as usize] == a));
            }
        }
        Ok(())
    }

    proptest! {
        /// Pushes, pops, sheds, bounded admissions and unit-space growth
        /// interleaved, for the simulator's `Copy` tuple and for an owned
        /// payload.
        #[test]
        fn nonempty_index_consistent(ops in proptest::collection::vec((0u32..8, 0u8..7), 1..200)) {
            check_index_consistent(&ops, |id| tuple(id, id))?;
            check_index_consistent(&ops, |id| Owned(Nanos::from_millis(id), id.to_string()))?;
        }
    }
}
