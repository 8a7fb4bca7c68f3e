//! The [`Scheduler`] every executor drives its queues through, and the
//! workspace's one admission function. The queues themselves are
//! [`hcq_core::UnitQueues`], beside the [`QueueView`] they implement.

use hcq_common::{EngineError, Nanos, TupleId};
use hcq_core::{Policy, QueueView, Queued, Reask, Selection, UnitId, UnitStatics};

use crate::config::{AdmissionMode, OverloadConfig};
use crate::exec;
use crate::tuple::SimTuple;

/// Kept at this path for the benchmark's isolated push/pop timing.
pub use hcq_core::UnitQueues;

impl Queued for SimTuple {
    fn arrival(&self) -> Nanos {
        self.arrival
    }
}

/// A payload that carries its tuple id, which the policy is told when a
/// bounded admission sheds it and when a policy swap replays it.
pub trait Identified: Queued {
    /// The id the policy was told at `on_enqueue`.
    fn id(&self) -> TupleId;
}

impl Identified for SimTuple {
    fn id(&self) -> TupleId {
        self.id
    }
}

/// What [`Scheduler::admit`] did with an arrival.
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

/// What a [`Scheduler::point`] serves.
#[derive(Debug)]
pub enum Point {
    /// The unit of a standing hold, and the charge of the `select` that
    /// was not called ([`Selection::reask`]).
    Held(UnitId, &'static Reask),
    /// The policy's selection.
    Asked(Selection),
}

/// The scheduling step every executor (simulator, runtime shard, `Dsms`)
/// shares: admit → policy callbacks → select or hold → pop. It owns the
/// policy, the queues and the unit of a choice that holds
/// ([`Selection::holds`]), and nothing else changes them, so every change
/// the policy can see ends the hold here.
pub struct Scheduler<T> {
    policy: Box<dyn Policy>,
    queues: UnitQueues<T>,
    /// Per-unit HNR priority `S/(C̄·T)` of the statics last registered or
    /// updated: the QoS-shedding victim metric.
    shed_priority: Vec<f64>,
    /// The held unit and what asking again would cost.
    held: Option<(UnitId, &'static Reask)>,
    /// Decisions the policy made (debug re-selects aside).
    selections: u64,
}

impl<T: Queued> Scheduler<T> {
    /// `policy` over no units; [`Scheduler::register`] adds them.
    pub fn new(policy: Box<dyn Policy>) -> Self {
        Scheduler {
            policy,
            queues: UnitQueues::new(0),
            shed_priority: Vec::new(),
            held: None,
            selections: 0,
        }
    }

    /// The queues, as the policy sees them.
    pub fn queues(&self) -> &UnitQueues<T> {
        &self.queues
    }

    /// The unit a standing hold serves next, if any. Debug builds ask the
    /// policy at `now()` anyway and assert the same unit at the held
    /// charge: only this can see a hold that outlived a change to the
    /// queues, or a [`Selection::reask`] that misstates the policy's cost.
    #[inline]
    pub fn held(&mut self, now: impl FnOnce() -> Nanos) -> Option<UnitId> {
        self.hold(now).map(|(unit, _)| unit)
    }

    /// The standing hold and its re-ask charge, checked as in
    /// [`Scheduler::held`].
    #[inline]
    fn hold(&mut self, now: impl FnOnce() -> Nanos) -> Option<(UnitId, &'static Reask)> {
        let (unit, reask) = self.held?;
        debug_assert_eq!(
            self.policy.select(&self.queues, now()).map(|s| (
                s.units.to_vec(),
                s.ops_counted,
                s.stats
            )),
            Some((vec![unit], reask.ops_counted, reask.stats)),
            "a held choice changed"
        );
        Some((unit, reask))
    }

    /// Decisions the policy made: the scheduling points that
    /// [`Scheduler::point`] did not serve from a hold. The simulator
    /// counts every point apart from these.
    pub fn selections(&self) -> u64 {
        self.selections
    }

    /// Register every unit's statics, growing the queues to one per unit.
    pub fn register(&mut self, statics: &[UnitStatics]) {
        for _ in self.shed_priority.len()..statics.len() {
            self.queues.add_unit();
        }
        self.shed_priority = statics.iter().map(|u| u.hnr_priority()).collect();
        self.held = None;
        self.policy.on_register(statics);
    }

    /// Install fresh statics for one unit.
    pub fn update_statics(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.shed_priority[unit as usize] = statics.hnr_priority();
        self.held = None;
        self.policy.on_statics_update(unit, statics);
    }

    /// Ask the policy to refreeze its priority domain; true when it did.
    pub fn refreeze(&mut self) -> bool {
        self.held = None;
        self.policy.on_domain_refreeze()
    }

    /// Queue `item` as tuple `id`, unbounded, and tell the policy at `now`.
    pub fn enqueue(&mut self, unit: UnitId, id: TupleId, item: T, now: Nanos) {
        self.held = None;
        let arrival = item.arrival();
        self.queues.push(unit, item);
        self.policy.on_enqueue(unit, id, arrival, now);
    }

    /// One scheduling point, in every executor: while a hold stands, the
    /// [`Scheduler::held`] unit, without asking the policy; else the
    /// policy's selection at `now()`, kept when it holds.
    #[inline]
    pub fn point(&mut self, mut now: impl FnMut() -> Nanos) -> Result<Point, EngineError> {
        if let Some((unit, reask)) = self.hold(&mut now) {
            return Ok(Point::Held(unit, reask));
        }
        self.selections += 1;
        // Matched, not `ok_or(…)?`: wrapping the selection in a `Result`
        // first copies it once more, ≈ ×0.9 on `sim_hnr`.
        let Some(selection) = self.policy.select(&self.queues, now()) else {
            let pending = self.queues.pending();
            return Err(EngineError::NoSelection { pending });
        };
        if selection.holds {
            self.held = selection.units.first().map(|&unit| (unit, selection.reask));
        }
        Ok(Point::Asked(selection))
    }

    /// Dequeue `unit`'s head; emptying the unit ends the hold.
    #[inline]
    pub fn pop(&mut self, unit: UnitId) -> Result<T, EngineError> {
        let item = self.queues.pop(unit)?;
        if self.queues.len(unit) == 0 {
            self.held = None;
        }
        Ok(item)
    }
}

impl<T: Identified> Scheduler<T> {
    /// Admission control — the only place an [`AdmissionMode`] decides what
    /// happens to an arrival: `DropTail` refuses it at a full queue;
    /// `QosShed`, at a full queue with total load at or above the
    /// watermark, sheds the tail of the [`exec::shed_victim`] unit or, when
    /// its own unit is the least valuable, refuses it. The policy hears of
    /// a shed tail and of the enqueue; the caller counts the outcome.
    #[inline]
    pub fn admit(&mut self, rule: OverloadConfig, unit: UnitId, t: T, now: Nanos) -> Admission<T> {
        self.held = None;
        let queues = &mut self.queues;
        let full = rule.mode != AdmissionMode::Unbounded && queues.len(unit) >= rule.capacity;
        let outcome = match rule.mode {
            AdmissionMode::DropTail if full => return Admission::Rejected(t),
            AdmissionMode::QosShed if full && queues.pending() >= rule.watermark => {
                let Some(victim) = exec::shed_victim(queues.nonempty(), &self.shed_priority, unit)
                else {
                    return Admission::Rejected(t);
                };
                let Some(shed) = queues.shed_tail(victim) else {
                    debug_assert!(false, "victim came from the non-empty index");
                    return Admission::Rejected(t);
                };
                self.policy.on_shed(victim, shed.id());
                Admission::Displaced { victim, shed }
            }
            _ => Admission::Queued,
        };
        let (id, arrival) = (t.id(), t.arrival());
        queues.push(unit, t);
        self.policy.on_enqueue(unit, id, arrival, now);
        outcome
    }

    /// Swap in `next`, registered with `statics` and told of every queued
    /// tuple in global arrival order (unit order breaks ties); hands back
    /// the policy it replaces. The shed priorities stay as they were.
    pub fn replace_policy(
        &mut self,
        mut next: Box<dyn Policy>,
        statics: &[UnitStatics],
        now: Nanos,
    ) -> Box<dyn Policy> {
        next.on_register(statics);
        let mut backlog: Vec<(Nanos, UnitId, TupleId)> = self
            .queues
            .iter()
            .map(|(unit, t)| (t.arrival(), unit, t.id()))
            .collect();
        backlog.sort_by_key(|&(arrival, unit, _)| (arrival, unit));
        for (arrival, unit, id) in backlog {
            next.on_enqueue(unit, id, arrival, now);
        }
        self.held = None;
        std::mem::replace(&mut self.policy, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

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

    impl Identified for Owned {
        fn id(&self) -> TupleId {
            TupleId::new(self.1.parse().unwrap())
        }
    }

    /// A scheduler over `pri.len()` units with shed priorities `pri`,
    /// whose policy logs what it is told to `log`.
    fn sched<T: Queued>(pri: &[f64], log: &Rc<RefCell<Vec<Told>>>) -> Scheduler<T> {
        let mut s = Scheduler::new(Box::new(Recorder(Rc::clone(log))));
        s.register(&vec![UnitStatics::new(1.0, Nanos(1), Nanos(1)); pri.len()]);
        s.shed_priority = pri.to_vec();
        s
    }

    fn overload(mode: AdmissionMode, capacity: usize, watermark: usize) -> OverloadConfig {
        OverloadConfig {
            mode,
            capacity,
            watermark,
        }
    }

    /// `admit` over mode × arriving-queue-full × load-at-watermark ×
    /// arriving-unit-is-least-valuable, capacity 1, one tuple pending in
    /// each of the two other units; the policy hears of a displaced tail
    /// and of every enqueue, and of nothing rejected.
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
                let log = Rc::default();
                let mut s = sched(&pri, &log);
                for u in 0..3 {
                    if u != arriving || full {
                        s.queues.push(u, tuple(u64::from(u), 10 + u64::from(u)));
                    }
                }
                let before = s.queues.pending();
                let watermark = if at_watermark { before } else { before + 1 };
                let item = tuple(9, 99);
                let got = s.admit(overload(mode, 1, watermark), arriving, item, Nanos::ZERO);
                let q = s.queues();
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
                let enqueue = Told::Enqueue(arriving, 9, Nanos::from_millis(99));
                let told = match &want {
                    Admission::Queued => vec![enqueue],
                    Admission::Rejected(_) => vec![],
                    Admission::Displaced { .. } => vec![Told::Shed(1, 1), enqueue],
                };
                assert_eq!(*log.borrow(), told, "{case}");
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
        let mut s = sched(&[2.0, 1.0], &Rc::default());
        s.queues.push(0, tuple(1, 10));
        s.queues.corrupt_index_for_tests(1);
        let item = tuple(2, 20);
        let got = s.admit(overload(AdmissionMode::QosShed, 1, 0), 0, item, Nanos::ZERO);
        assert_eq!(got, Admission::Rejected(item));
        assert_eq!((s.queues.pending(), s.queues.len(0)), (1, 1));
    }

    /// Drive `ops` (unit, op) against queues of `make`-built payloads and
    /// check, after every step, that the non-empty index, the pending count
    /// and the head-arrival column match the actual queue contents.
    fn check_index_consistent<T: Identified>(
        ops: &[(u32, u8)],
        make: impl Fn(u64) -> T,
    ) -> Result<(), TestCaseError> {
        let mut s = sched(&[1.0, 0.5, 2.0], &Rc::default());
        let mut id = 0u64;
        for &(unit, op) in ops {
            let (q, pri) = (&mut s.queues, &mut s.shed_priority);
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
                    let queued = match s.admit(overload(mode, 2, 4), unit, make(id), Nanos::ZERO) {
                        Admission::Queued => 1,
                        Admission::Rejected(_) | Admission::Displaced { .. } => 0,
                    };
                    prop_assert_eq!(s.queues.pending(), before + queued);
                }
                _ => {
                    q.add_unit();
                    pri.push(f64::from(n % 4));
                }
            }
            let (q, n) = (&s.queues, s.shed_priority.len() as u32);
            let expect: Vec<u32> = (0..n).filter(|&u| q.len(u) > 0).collect();
            let mut got = q.nonempty().to_vec();
            got.sort();
            prop_assert_eq!(got, expect);
            let total: usize = (0..n).map(|u| q.len(u)).sum();
            prop_assert_eq!(total, q.pending());
            prop_assert_eq!(q.head_arrivals().len(), n as usize);
            let mut fronts = vec![None; n as usize];
            for (u, t) in q.iter() {
                fronts[u as usize].get_or_insert(t.arrival());
            }
            for (u, front) in (0..).zip(fronts) {
                prop_assert_eq!(q.head_arrival(u), front);
                prop_assert!(front.is_none_or(|a| q.head_arrivals()[u as usize] == a));
            }
        }
        Ok(())
    }

    /// A callback a [`Recorder`] was given: `on_enqueue`'s unit, tuple and
    /// arrival, or `on_shed`'s unit and tuple.
    #[derive(Debug, PartialEq)]
    enum Told {
        Enqueue(UnitId, u64, Nanos),
        Shed(UnitId, u64),
    }

    /// Logs every `on_enqueue` and `on_shed`; selects the first non-empty
    /// unit, holding, at no charge.
    struct Recorder(Rc<RefCell<Vec<Told>>>);

    impl Policy for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn on_register(&mut self, _units: &[UnitStatics]) {}
        fn on_enqueue(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos, _now: Nanos) {
            self.0
                .borrow_mut()
                .push(Told::Enqueue(unit, tuple.raw(), arrival));
        }
        fn on_shed(&mut self, unit: UnitId, tuple: TupleId) {
            self.0.borrow_mut().push(Told::Shed(unit, tuple.raw()));
        }
        fn select(&mut self, queues: &dyn QueueView, _now: Nanos) -> Option<Selection> {
            let unit = *queues.nonempty().first()?;
            Some(Selection::one(unit, 0).held(&Reask::NONE))
        }
    }

    /// A policy swap (the governor's) ends the hold and replays the backlog
    /// into the new policy in global arrival order, unit order breaking
    /// ties — behaviour no front-end test pins on its own.
    #[test]
    fn replace_policy_replays_the_backlog_in_arrival_order() {
        let log = Rc::default();
        let mut s = sched(&[1.0; 3], &log);
        for (unit, id, arrival_ms) in [(2, 1, 30), (0, 2, 20), (2, 3, 40), (1, 4, 30), (0, 5, 50)] {
            s.enqueue(unit, TupleId::new(id), tuple(id, arrival_ms), Nanos::ZERO);
        }
        assert!(s.point(|| Nanos::ZERO).is_ok());
        assert!(s.held(|| Nanos::ZERO).is_some());
        let replayed = Rc::default();
        let next = Box::new(Recorder(Rc::clone(&replayed)));
        let statics = [UnitStatics::new(1.0, Nanos(1), Nanos(1)); 3];
        let old = s.replace_policy(next, &statics, Nanos::ZERO);
        assert_eq!(old.name(), "recorder");
        assert_eq!(log.borrow().len(), 5, "the old policy is told nothing more");
        assert_eq!(s.held(|| Nanos::ZERO), None);
        let ms = Nanos::from_millis;
        let order = [(0, 2, 20), (1, 4, 30), (2, 1, 30), (2, 3, 40), (0, 5, 50)];
        let want: Vec<_> = order
            .map(|(unit, id, arrival)| Told::Enqueue(unit, id, ms(arrival)))
            .into();
        assert_eq!(*replayed.borrow(), want);
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
