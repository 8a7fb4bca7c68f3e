//! The hand-driven FIFO queue model the property tests share.

use std::collections::VecDeque;

use hcq_common::{Nanos, TupleId};
use hcq_core::{QueueView, UnitId};

pub struct Queues {
    queues: Vec<VecDeque<(TupleId, Nanos)>>,
    heads: Vec<Nanos>,
    pub nonempty: Vec<UnitId>,
}

impl Queues {
    pub fn new(n: usize) -> Self {
        Queues {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            heads: vec![Nanos::ZERO; n],
            nonempty: Vec::new(),
        }
    }

    pub fn push(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos) {
        let q = &mut self.queues[unit as usize];
        if q.is_empty() {
            self.nonempty.push(unit);
            self.heads[unit as usize] = arrival;
        }
        q.push_back((tuple, arrival));
    }

    pub fn pop(&mut self, unit: UnitId) {
        let q = &mut self.queues[unit as usize];
        q.pop_front().expect("nonempty");
        match q.front() {
            Some(&(_, arrival)) => self.heads[unit as usize] = arrival,
            None => self.nonempty.retain(|&u| u != unit),
        }
    }
}

impl QueueView for Queues {
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
