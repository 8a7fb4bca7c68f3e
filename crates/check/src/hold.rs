//! A policy wrapper that passes [`Selection::holds`] on, or clears it, and
//! counts the `select` calls its executor makes.
//!
//! Every executor serves a held choice through `Scheduler::point` without
//! asking the policy until the held unit empties or the policy hears of a
//! change. Running the same inputs once through a [`HoldProbe`] that keeps
//! holds and once through one that clears them compares an executor that
//! holds with one that asks at every decision: everything but the number
//! of `select` calls must come out the same.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcq_common::{Nanos, TupleId};
use hcq_core::{Policy, QueueView, Selection, UnitId, UnitStatics};

/// How often a [`HoldProbe`] was asked.
#[derive(Debug, Default)]
pub struct Selects {
    all: AtomicU64,
    during_hold: AtomicU64,
}

impl Selects {
    /// Every `select` call.
    pub fn all(&self) -> u64 {
        self.all.load(Ordering::Relaxed)
    }

    /// The calls made while no hold the probe passed on was live: the
    /// decisions an executor could not serve from a hold. Debug builds
    /// also ask at every held point, to check the hold; those calls are
    /// not counted here. A live hold ends when the held unit is empty at
    /// the next call or the probe hears of any change, so an admission
    /// that an executor rejects without telling the policy leaves it live.
    pub fn needed(&self) -> u64 {
        self.all() - self.during_hold.load(Ordering::Relaxed)
    }
}

/// Forwards every call to `inner`, passes a selection's `holds` on or
/// clears it, and counts `select` calls in a shared [`Selects`].
pub struct HoldProbe {
    inner: Box<dyn Policy>,
    keep_holds: bool,
    /// The unit of the last selection passed on as holding.
    live: Option<UnitId>,
    selects: Arc<Selects>,
}

impl HoldProbe {
    /// Probe `inner`, keeping its holds or clearing them; the counts stay
    /// readable after the probe moves into an executor.
    pub fn new(inner: Box<dyn Policy>, keep_holds: bool) -> (Self, Arc<Selects>) {
        let selects = Arc::new(Selects::default());
        let probe = HoldProbe {
            inner,
            keep_holds,
            live: None,
            selects: Arc::clone(&selects),
        };
        (probe, selects)
    }
}

impl Policy for HoldProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        self.live = None;
        self.inner.on_register(units);
    }

    fn on_enqueue(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos, now: Nanos) {
        self.live = None;
        self.inner.on_enqueue(unit, tuple, arrival, now);
    }

    fn on_shed(&mut self, unit: UnitId, tuple: TupleId) {
        self.live = None;
        self.inner.on_shed(unit, tuple);
    }

    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.live = None;
        self.inner.on_statics_update(unit, statics);
    }

    fn on_domain_refreeze(&mut self) -> bool {
        self.live = None;
        self.inner.on_domain_refreeze()
    }

    fn memory_footprint(&self) -> Option<usize> {
        self.inner.memory_footprint()
    }

    fn select(&mut self, queues: &dyn QueueView, now: Nanos) -> Option<Selection> {
        self.selects.all.fetch_add(1, Ordering::Relaxed);
        if self.live.take().is_some_and(|unit| queues.len(unit) > 0) {
            self.selects.during_hold.fetch_add(1, Ordering::Relaxed);
        }
        let mut selection = self.inner.select(queues, now)?;
        selection.holds &= self.keep_holds;
        if selection.holds {
            self.live = selection.units.first().copied();
        }
        Some(selection)
    }
}
