//! Harness-side implementations of the traits the program already exposes:
//! the only way the traced run looks inside an executor.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use hcq_aqsios::Clock;
use hcq_common::{Nanos, TupleId};
use hcq_core::{Policy, QueueView, Selection, UnitId, UnitStatics};
use hcq_engine::{MetricsSink, TelemetrySnapshot, TraceEvent, TraceSink};
use hcq_streams::{ArrivalSource, SourceFaultStats};

use crate::spans::{timed, Shared};

/// A [`Policy`] that times every `on_enqueue` and `select` of the policy it
/// wraps, against the real queue states the executor produces.
pub struct TimedPolicy {
    pub inner: Box<dyn Policy>,
    pub enqueue: Shared,
    pub select: Shared,
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_register(&mut self, units: &[UnitStatics]) {
        self.inner.on_register(units);
    }
    fn on_enqueue(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos, now: Nanos) {
        let inner = &mut self.inner;
        timed(&self.enqueue, || {
            inner.on_enqueue(unit, tuple, arrival, now)
        });
    }
    fn on_shed(&mut self, unit: UnitId, tuple: TupleId) {
        self.inner.on_shed(unit, tuple);
    }
    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.inner.on_statics_update(unit, statics);
    }
    fn on_domain_refreeze(&mut self) -> bool {
        self.inner.on_domain_refreeze()
    }
    fn memory_footprint(&self) -> Option<usize> {
        self.inner.memory_footprint()
    }
    fn select(&mut self, queues: &dyn QueueView, now: Nanos) -> Option<Selection> {
        let inner = &mut self.inner;
        timed(&self.select, || inner.select(queues, now))
    }
}

/// An [`ArrivalSource`] that times every `next_arrival` of the source it
/// wraps.
pub struct TimedSource {
    pub inner: Box<dyn ArrivalSource>,
    pub next: Shared,
}

impl ArrivalSource for TimedSource {
    fn next_arrival(&mut self) -> Option<Nanos> {
        let inner = &mut self.inner;
        timed(&self.next, || inner.next_arrival())
    }
    fn mean_gap_hint(&self) -> Option<Nanos> {
        self.inner.mean_gap_hint()
    }
    fn fault_stats(&self) -> SourceFaultStats {
        self.inner.fault_stats()
    }
}

/// The harness's wall clock. The `Dsms` gets a copy, so due times, push
/// times and `Emission::emitted_at` share one epoch. Every read is counted:
/// the `Dsms` reads its clock on its own hot path, and how often is a cost
/// the harness can see exactly.
#[derive(Debug, Clone)]
pub struct BenchClock {
    epoch: Instant,
    reads: Rc<Cell<u64>>,
}

impl BenchClock {
    pub fn start() -> Self {
        BenchClock {
            epoch: Instant::now(),
            reads: Rc::new(Cell::new(0)),
        }
    }

    /// Nanoseconds since the epoch, not counted as a read.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Clock reads made through the [`Clock`] trait so far.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }
}

impl Clock for BenchClock {
    fn now(&self) -> Nanos {
        self.reads.set(self.reads.get() + 1);
        Nanos::from_nanos(self.elapsed_ns())
    }
}

/// A [`TraceSink`] that counts events and drops them: the cheapest enabled
/// sink, so what it costs is the engine's own tracing path.
#[derive(Debug, Default)]
pub struct CountingTrace {
    pub events: u64,
}

impl TraceSink for CountingTrace {
    fn event(&mut self, _event: &TraceEvent) {
        self.events += 1;
    }
}

/// A [`MetricsSink`] that counts snapshots and drops them.
#[derive(Debug, Default)]
pub struct CountingTelemetry {
    pub snapshots: u64,
}

impl MetricsSink for CountingTelemetry {
    fn sample(&mut self, _snapshot: &TelemetrySnapshot) {
        self.snapshots += 1;
    }
}
