//! Per-unit FIFO input queues with an O(1) non-empty index, generic over
//! the payload: the one [`QueueView`] implementation the executors run and
//! the policy tests and fuzz cases drive, so every `select` anywhere sees
//! the ready-list order production hands it.

use std::collections::VecDeque;

use hcq_common::{EngineError, Nanos, TupleId};

use crate::policy::{QueueView, UnitId};

/// What a queue payload must expose: its system arrival, which feeds the
/// head column.
pub trait Queued {
    /// System-arrival time (the `W` origin of every policy).
    fn arrival(&self) -> Nanos;
}

/// A tuple id and its arrival: the payload of hand-driven policies.
impl Queued for (TupleId, Nanos) {
    fn arrival(&self) -> Nanos {
        self.1
    }
}

/// The queue state of every executor (simulator, wall-clock runtime,
/// `Dsms`); implements [`QueueView`] for policies.
#[derive(Debug, Clone)]
pub struct UnitQueues<T> {
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

    /// Grow the unit space by one (empty) unit, as the `Dsms` registers
    /// queries one at a time.
    pub fn add_unit(&mut self) {
        self.queues.push(VecDeque::with_capacity(4));
        self.heads.push(Nanos::ZERO);
        self.pos.push(0);
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

    /// Total pending tuples across all units.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// List `unit` as ready without queueing anything: the index
    /// corruption an executor's tests plant to reach its reject paths.
    #[doc(hidden)]
    pub fn corrupt_index_for_tests(&mut self, unit: UnitId) {
        self.nonempty.push(unit);
    }

    /// Every queued tuple with its unit, unit by unit, each queue front to
    /// back.
    pub fn iter(&self) -> impl Iterator<Item = (UnitId, &T)> + '_ {
        (0..)
            .zip(&self.queues)
            .flat_map(|(unit, q)| q.iter().map(move |t| (unit, t)))
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

    fn tuple(id: u64, arrival_ms: u64) -> (TupleId, Nanos) {
        (TupleId::new(id), Nanos::from_millis(arrival_ms))
    }

    #[test]
    fn fifo_order_and_index() {
        let mut q = UnitQueues::new(3);
        assert_eq!(q.pending(), 0);
        q.push(1, tuple(1, 10));
        q.push(1, tuple(2, 20));
        q.push(0, tuple(3, 30));
        assert_eq!(q.pending(), 3);
        assert_eq!(q.len(1), 2);
        assert_eq!(q.head_arrival(1), Some(Nanos::from_millis(10)));
        let order: Vec<_> = q.iter().map(|(u, t)| (u, t.0.raw())).collect();
        assert_eq!(order, [(0, 3), (1, 1), (1, 2)], "unit then FIFO order");
        let mut ne: Vec<_> = q.nonempty().to_vec();
        ne.sort();
        assert_eq!(ne, vec![0, 1]);
        assert_eq!(q.pop(1).unwrap(), tuple(1, 10));
        assert_eq!(q.head_arrival(1), Some(Nanos::from_millis(20)));
        assert_eq!(q.pop(1).unwrap(), tuple(2, 20));
        assert_eq!(q.nonempty(), &[0]);
        q.pop(0).unwrap();
        assert_eq!(q.pending(), 0);
        assert!(q.nonempty().is_empty());
    }

    #[test]
    fn popping_empty_is_a_typed_error() {
        let mut q = UnitQueues::new(3);
        q.push(1, tuple(0, 0));
        assert_eq!(q.pop(0), Err(EngineError::EmptyQueuePop { unit: 0 }));
        assert!(q.pop(1).is_ok());
        assert_eq!(q.pop(1), Err(EngineError::EmptyQueuePop { unit: 1 }));
    }

    #[test]
    fn popping_unknown_unit_is_a_typed_error() {
        let mut q = UnitQueues::<(TupleId, Nanos)>::new(2);
        assert_eq!(
            q.pop(7),
            Err(EngineError::UnknownUnit {
                unit: 7,
                unit_count: 2
            })
        );
    }

    #[test]
    fn shed_tail_removes_newest_and_maintains_index() {
        let mut q = UnitQueues::new(2);
        q.push(0, tuple(1, 10));
        q.push(0, tuple(2, 20));
        q.push(1, tuple(3, 30));
        assert_eq!(q.shed_tail(0), Some(tuple(2, 20)));
        assert_eq!(q.pending(), 2);
        assert_eq!(q.head_arrival(0), Some(Nanos::from_millis(10)));
        // Shedding a queue's last tuple must clear it from the index.
        assert_eq!(q.shed_tail(1), Some(tuple(3, 30)));
        assert_eq!(q.nonempty(), &[0]);
        assert_eq!(q.shed_tail(1), None);
        assert_eq!(q.shed_tail(9), None, "out-of-range unit sheds nothing");
        assert_eq!(q.pop(0).unwrap(), tuple(1, 10));
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn corrupt_index_pop_is_a_typed_error() {
        // A zeroed slot (claims "absent" while the queue holds a tuple)
        // used to underflow `pos - 1`; an out-of-range slot used to panic
        // or clobber a neighbour. Both now surface as a typed error.
        for bad_pos in [0u32, 99] {
            let mut q = UnitQueues::new(2);
            q.push(0, tuple(1, 10));
            q.pos[0] = bad_pos;
            assert_eq!(q.pop(0), Err(EngineError::QueueIndexCorrupt { unit: 0 }));
        }
    }

    #[test]
    fn corrupt_index_shed_self_heals() {
        let mut q = UnitQueues::new(3);
        q.push(0, tuple(1, 10));
        q.push(2, tuple(2, 20));
        q.pos[0] = 0;
        // `shed_tail` has no error channel: it rebuilds the index instead.
        assert_eq!(q.shed_tail(0), Some(tuple(1, 10)));
        assert_eq!(q.nonempty(), &[2]);
        assert_eq!(q.pop(2).unwrap(), tuple(2, 20));
        assert_eq!(q.pending(), 0);
        assert!(q.nonempty().is_empty());
    }
}
