//! The runtime: the third front end on the executor core's parts — its
//! queues are the engine's [`UnitQueues`] over records, its policy a
//! [`RuntimePolicy::build`] instance refreshed through
//! [`Policy::on_statics_update`], its slowdown [`exec::slowdown`]. Its own:
//! real records and operators, online monitors, and the whole-fan-out
//! `max_pending` valve (a stream-level rule, so not a queue admission mode).
//!
//! A decision does only the work it needs. The clock is read once per
//! `push` (the arrival stamp) and once per emission, so every response is
//! wall-true; a decision reads it only when the policy's choice depends on
//! `now` ([`RuntimePolicy::reads_now`]), and otherwise selects at the last
//! instant read. Its emissions come back as an [`Emissions`] batch, which
//! holds one inline and spills to a `Vec` only for a join's fan-out, and a
//! record passes through its unary chain by value.

use hcq_common::{HcqError, Nanos, QueryId, Result, StreamId, TupleId};
use hcq_core::{EwmaEstimator, Policy, UnitId, UnitStatics};
use hcq_engine::exec;
use hcq_engine::queues::{Queued, UnitQueues};
use hcq_join::{JoinItem, Side, SymmetricHashJoin};
use hcq_metrics::{QosAccumulator, QosSummary};
use hcq_plan::{CompiledQuery, PlanStats, QueryBuilder, StreamRates};

use crate::clock::{Clock, SystemClock};
use crate::ops::{RtOp, RtPlan};
use crate::record::Record;

/// Which scheduling policy drives the runtime: the core's policy spec.
pub use hcq_core::PolicyKind as RuntimePolicy;

/// Runtime configuration.
pub struct DsmsConfig {
    /// The scheduling policy.
    pub policy: RuntimePolicy,
    /// EWMA smoothing factor for online cost/selectivity monitoring.
    pub ewma_alpha: f64,
    /// Refresh scheduling priorities from the monitors automatically every
    /// N ≥ 1 scheduling decisions (`None` = only on explicit
    /// [`Dsms::refresh_priorities`] calls).
    pub auto_refresh_every: Option<u64>,
    /// Load shedding: cap on total pending tuples across all queues. When a
    /// push would exceed it, the new tuple is *shed* (dropped at admission,
    /// counted in [`RuntimeStats::shed`]) — the classic DSMS overload valve.
    /// `None` = unbounded queues.
    pub max_pending: Option<usize>,
    /// The time source.
    pub clock: Box<dyn Clock>,
}

impl DsmsConfig {
    /// Defaults: α = 0.05, no auto-refresh, wall clock.
    pub fn new(policy: RuntimePolicy) -> Self {
        DsmsConfig {
            policy,
            ewma_alpha: 0.05,
            auto_refresh_every: None,
            max_pending: None,
            clock: Box::new(SystemClock::new()),
        }
    }

    /// Enable load shedding with the given total-pending cap.
    pub fn with_max_pending(mut self, cap: usize) -> Self {
        self.max_pending = Some(cap);
        self
    }

    /// Use a custom clock (e.g. [`crate::ManualClock`] for tests).
    pub fn with_clock(mut self, clock: Box<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Enable periodic automatic priority refresh.
    pub fn with_auto_refresh(mut self, every: u64) -> Self {
        self.auto_refresh_every = Some(every);
        self
    }
}

/// One emitted result.
#[derive(Debug, Clone, PartialEq)]
pub struct Emission {
    /// The producing query.
    pub query: QueryId,
    /// The output record.
    pub record: Record,
    /// System arrival of the underlying tuple (max over constituents for
    /// join outputs).
    pub arrival: Nanos,
    /// Emission instant.
    pub emitted_at: Nanos,
    /// Response time.
    pub response: Nanos,
    /// Slowdown against the query's currently-estimated ideal processing
    /// time.
    pub slowdown: f64,
}

/// The emissions of one decision, stored inline for the common case.
///
/// A decision runs one tuple through one unit, so it emits at most once
/// unless a join probe matches several partners. As with
/// [`hcq_core::SelectionUnits`], a `Vec` here would be a heap allocation
/// per decision: one emission lives inline, and only a join's fan-out
/// spills. Dereferences to `[Emission]` and iterates by value.
#[derive(Debug, Clone, PartialEq)]
pub enum Emissions {
    /// No emission or one, no heap allocation.
    Inline(Option<Emission>),
    /// Two or more, from one join probe.
    Spilled(Vec<Emission>),
}

impl Emissions {
    fn push(&mut self, emission: Emission) {
        match self {
            Emissions::Inline(slot @ None) => *slot = Some(emission),
            Emissions::Inline(first) => {
                let first = first.take().expect("the inline slot is full");
                *self = Emissions::Spilled(vec![first, emission]);
            }
            Emissions::Spilled(v) => v.push(emission),
        }
    }
}

impl Default for Emissions {
    fn default() -> Self {
        Emissions::Inline(None)
    }
}

impl std::ops::Deref for Emissions {
    type Target = [Emission];

    fn deref(&self) -> &[Emission] {
        match self {
            Emissions::Inline(one) => one.as_slice(),
            Emissions::Spilled(v) => v,
        }
    }
}

impl IntoIterator for Emissions {
    type Item = Emission;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Emission>, std::vec::IntoIter<Emission>>;

    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self {
            Emissions::Inline(one) => (one, Vec::new()),
            Emissions::Spilled(many) => (None, many),
        };
        one.into_iter().chain(many)
    }
}

/// Aggregate runtime statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Records pushed across all streams.
    pub pushed: u64,
    /// Emissions produced.
    pub emitted: u64,
    /// Per-query-copy drops (filtered tuples).
    pub dropped: u64,
    /// Tuples shed at admission by the load-shedding valve.
    pub shed: u64,
    /// Scheduling decisions taken.
    pub decisions: u64,
    /// QoS over all emissions.
    pub qos: QosSummary,
}

/// A pending tuple in a segment queue.
#[derive(Debug, Clone)]
struct Pending {
    record: Record,
    arrival: Nanos,
}

impl Queued for Pending {
    fn arrival(&self) -> Nanos {
        self.arrival
    }
}

/// Join-table entry.
#[derive(Debug, Clone)]
struct Keyed {
    key: u64,
    ts: Nanos,
    record: Record,
    arrival: Nanos,
}

impl JoinItem for Keyed {
    fn key(&self) -> u64 {
        self.key
    }
    fn timestamp(&self) -> Nanos {
        self.ts
    }
}

/// Per-operator online monitor slots: one per unary op (in plan order),
/// plus one for the join where present.
struct QueryRuntime {
    plan: RtPlan,
    monitors: Vec<EwmaEstimator>,
    join_monitor: Option<EwmaEstimator>,
    join: Option<SymmetricHashJoin<Keyed>>,
    /// Estimated ideal processing time (refreshed with priorities).
    ideal_time: Nanos,
    /// Estimated alone-path cost per leaf (join queries; single-stream uses
    /// `ideal_time`).
    alone: Vec<Nanos>,
}

/// What a schedulable unit executes.
#[derive(Debug, Clone, Copy)]
enum RtUnit {
    Single { query: usize },
    JoinLeaf { query: usize, side: Side },
}

/// The clock and what an emission updates, apart from the queries so that
/// a join probe can emit while it holds its query's state.
struct Emitter {
    clock: Box<dyn Clock>,
    /// The last instant read from `clock`.
    now: Nanos,
    emitted: u64,
    qos: QosAccumulator,
}

impl Emitter {
    fn read_clock(&mut self) -> Nanos {
        self.now = self.clock.now();
        self.now
    }

    /// Stamp one result with a fresh clock read and account for it.
    fn emit(
        &mut self,
        out: &mut Emissions,
        query: usize,
        record: Record,
        arrival: Nanos,
        ideal_depart: Nanos,
        ideal: Nanos,
    ) {
        let now = self.read_clock();
        let response = now.saturating_since(arrival);
        // With a manual clock `now` can precede the estimated ideal
        // departure; the tuple was "faster than ideal" and clamps at 1.
        let slowdown = exec::slowdown(now, ideal_depart, ideal);
        self.qos.record(response, slowdown);
        self.emitted += 1;
        out.push(Emission {
            query: QueryId::new(query),
            record,
            arrival,
            emitted_at: now,
            response,
            slowdown,
        });
    }
}

/// The online DSMS.
pub struct Dsms {
    emitter: Emitter,
    ewma_alpha: f64,
    auto_refresh_every: Option<u64>,
    max_pending: Option<usize>,
    policy: Box<dyn Policy>,
    /// [`RuntimePolicy::reads_now`] of the policy: whether a decision reads
    /// the clock.
    reads_now: bool,
    queries: Vec<QueryRuntime>,
    units: Vec<RtUnit>,
    /// `(unit, ...)` fed by each stream index.
    routes: Vec<Vec<UnitId>>,
    queues: UnitQueues<Pending>,
    /// Per-stream inter-arrival EWMA (for §5 window-occupancy priorities).
    stream_gaps: Vec<Option<EwmaEstimator>>,
    last_arrival: Vec<Option<Nanos>>,
    tuple_counter: u64,
    pushed: u64,
    dropped: u64,
    shed: u64,
    decisions: u64,
}

impl Dsms {
    /// Create a runtime.
    pub fn new(cfg: DsmsConfig) -> Result<Self> {
        if !(cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0) {
            return Err(HcqError::config("ewma_alpha must be in (0, 1]"));
        }
        if cfg.auto_refresh_every == Some(0) {
            return Err(HcqError::config("auto_refresh_every must be at least 1"));
        }
        Ok(Dsms {
            emitter: Emitter {
                clock: cfg.clock,
                now: Nanos::ZERO,
                emitted: 0,
                qos: QosAccumulator::new(),
            },
            ewma_alpha: cfg.ewma_alpha,
            auto_refresh_every: cfg.auto_refresh_every,
            max_pending: cfg.max_pending,
            policy: cfg.policy.build(),
            reads_now: cfg.policy.reads_now(),
            queries: Vec::new(),
            units: Vec::new(),
            routes: Vec::new(),
            queues: UnitQueues::new(0),
            stream_gaps: Vec::new(),
            last_arrival: Vec::new(),
            tuple_counter: 0,
            pushed: 0,
            dropped: 0,
            shed: 0,
            decisions: 0,
        })
    }

    /// Register a continuous query. Must happen while no tuples are pending
    /// (registration re-derives the whole unit table).
    pub fn register(&mut self, plan: RtPlan) -> Result<QueryId> {
        plan.validate()?;
        if self.queues.pending() > 0 {
            return Err(HcqError::config(
                "register queries before pushing data (or after draining)",
            ));
        }
        let id = QueryId::new(self.queries.len());
        let alpha = self.ewma_alpha;
        let (monitors, join_monitor, join) = match &plan {
            RtPlan::Single { ops, .. } => (
                ops.iter()
                    .map(|op| EwmaEstimator::new(alpha, op.est_cost, op.est_selectivity))
                    .collect(),
                None,
                None,
            ),
            RtPlan::Join {
                left_ops,
                right_ops,
                common_ops,
                join,
                ..
            } => (
                left_ops
                    .iter()
                    .chain(right_ops)
                    .chain(common_ops)
                    .map(|op| EwmaEstimator::new(alpha, op.est_cost, op.est_selectivity))
                    .collect(),
                Some(EwmaEstimator::new(
                    alpha,
                    join.est_cost,
                    join.est_selectivity,
                )),
                Some(SymmetricHashJoin::new(join.window)),
            ),
        };
        for stream in plan.streams() {
            if self.stream_gaps.len() <= stream.index() {
                self.stream_gaps.resize_with(stream.index() + 1, || None);
                self.last_arrival.resize(stream.index() + 1, None);
                self.routes.resize(stream.index() + 1, Vec::new());
            }
        }
        // Units and routing.
        let qi = id.index();
        match &plan {
            RtPlan::Single { stream, .. } => {
                let unit = self.units.len() as UnitId;
                self.units.push(RtUnit::Single { query: qi });
                self.queues.add_unit();
                self.routes[stream.index()].push(unit);
            }
            RtPlan::Join {
                left_stream,
                right_stream,
                ..
            } => {
                let left = self.units.len() as UnitId;
                self.units.push(RtUnit::JoinLeaf {
                    query: qi,
                    side: Side::Left,
                });
                self.queues.add_unit();
                self.routes[left_stream.index()].push(left);
                let right = self.units.len() as UnitId;
                self.units.push(RtUnit::JoinLeaf {
                    query: qi,
                    side: Side::Right,
                });
                self.queues.add_unit();
                self.routes[right_stream.index()].push(right);
            }
        }
        self.queries.push(QueryRuntime {
            plan,
            monitors,
            join_monitor,
            join,
            ideal_time: Nanos(1),
            alone: Vec::new(),
        });
        // (Re-)derive statics and register with the policy.
        let statics = self.derive_statics()?;
        self.policy.on_register(&statics);
        Ok(id)
    }

    /// Push a record onto a stream, stamped with the current clock time.
    pub fn push(&mut self, stream: StreamId, record: Record) {
        let now = self.emitter.read_clock();
        self.pushed += 1;
        // Update the stream's inter-arrival monitor.
        if stream.index() < self.stream_gaps.len() {
            if let Some(last) = self.last_arrival[stream.index()] {
                let gap = now.saturating_since(last);
                self.stream_gaps[stream.index()]
                    .get_or_insert_with(|| {
                        EwmaEstimator::new(self.ewma_alpha, gap.max(Nanos(1)), 1.0)
                    })
                    .observe(gap.max(Nanos(1)), 1.0);
            }
            self.last_arrival[stream.index()] = Some(now);
        }
        let Some(routes) = self.routes.get(stream.index()) else {
            return;
        };
        // Load shedding: admit the whole fan-out or none of it, so every
        // query sees a consistent sub-stream.
        if let Some(cap) = self.max_pending {
            if self.queues.pending() + routes.len() > cap {
                self.shed += 1;
                return;
            }
        }
        for &unit in routes {
            self.tuple_counter += 1;
            self.queues.push(
                unit,
                Pending {
                    record: record.clone(),
                    arrival: now,
                },
            );
            self.policy
                .on_enqueue(unit, TupleId::new(self.tuple_counter), now, now);
        }
    }

    /// Take one scheduling decision and execute it; returns the emissions it
    /// produced, or `None` when nothing is pending.
    pub fn run_once(&mut self) -> Option<Emissions> {
        if self.queues.all_empty() {
            return None;
        }
        let now = if self.reads_now {
            self.emitter.read_clock()
        } else {
            self.emitter.now
        };
        let selection = self.policy.select(&self.queues, now).expect("work pending");
        self.decisions += 1;
        let mut out = Emissions::default();
        for unit in selection.units {
            let pending = self.queues.pop(unit).expect("selected units are non-empty");
            match self.units[unit as usize] {
                RtUnit::Single { query } => self.run_single(query, pending, &mut out),
                RtUnit::JoinLeaf { query, side } => {
                    self.run_join_leaf(query, side, pending, &mut out)
                }
            }
        }
        if let Some(every) = self.auto_refresh_every {
            if self.decisions.is_multiple_of(every) {
                self.refresh_priorities()
                    .expect("registered plans stay valid");
            }
        }
        Some(out)
    }

    /// Run decisions until no work is pending; returns all emissions.
    pub fn run_until_idle(&mut self) -> Vec<Emission> {
        let mut all = Vec::new();
        while let Some(batch) = self.run_once() {
            all.extend(batch);
        }
        all
    }

    /// Recompute every unit's statics from the online monitors and hand
    /// them to the policy (every policy that reads statics after
    /// registration refreshes; FCFS and RR ignore them).
    pub fn refresh_priorities(&mut self) -> Result<()> {
        let statics = self.derive_statics()?;
        for (unit, s) in statics.iter().enumerate() {
            self.policy.on_statics_update(unit as UnitId, s);
        }
        Ok(())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            pushed: self.pushed,
            emitted: self.emitter.emitted,
            dropped: self.dropped,
            shed: self.shed,
            decisions: self.decisions,
            qos: self.emitter.qos.summary(),
        }
    }

    /// Tuples currently queued.
    pub fn pending(&self) -> usize {
        self.queues.pending()
    }

    /// Current online estimates for a query's unary operators, in plan
    /// order: `(cost, selectivity)` per operator. Exposes what the EWMA
    /// monitors have learned (introspection / debugging / dashboards).
    pub fn estimates(&self, query: QueryId) -> Option<Vec<(Nanos, f64)>> {
        self.queries.get(query.index()).map(|q| {
            q.monitors
                .iter()
                .map(|m| (m.cost(), m.selectivity()))
                .collect()
        })
    }

    /// Current estimated ideal processing time `T` for a query.
    pub fn estimated_ideal_time(&self, query: QueryId) -> Option<Nanos> {
        self.queries.get(query.index()).map(|q| q.ideal_time)
    }

    /// The measured mean inter-arrival time of a stream, once at least two
    /// pushes have been observed on it.
    pub fn measured_gap(&self, stream: StreamId) -> Option<Nanos> {
        self.stream_gaps
            .get(stream.index())
            .and_then(|g| g.as_ref())
            .map(|g| g.cost())
    }

    // ---------------------------------------------------------- internals

    /// Build plan-equivalent statistics from the current monitor estimates
    /// and derive per-unit statics plus per-query T / alone costs.
    fn derive_statics(&mut self) -> Result<Vec<UnitStatics>> {
        let mut statics = Vec::with_capacity(self.units.len());
        // Stream rates from monitors (joins need them; fall back to the
        // window length when unmeasured, a deliberately conservative guess).
        let mut rates = StreamRates::none();
        for (s, gap) in self.stream_gaps.iter().enumerate() {
            if let Some(g) = gap {
                rates.set(StreamId::new(s), g.cost().max(Nanos(1)));
            }
        }
        for q in &mut self.queries {
            let builder = plan_from_estimates(&q.plan, &q.monitors, &q.join_monitor);
            let compiled = CompiledQuery::compile(&builder);
            // For join plans with unmeasured streams, substitute the window
            // as τ so the occupancy estimate is defined.
            let mut local_rates = rates.clone();
            if let RtPlan::Join {
                left_stream,
                right_stream,
                join,
                ..
            } = &q.plan
            {
                for s in [left_stream, right_stream] {
                    if local_rates.tau(*s).is_none() {
                        local_rates.set(*s, join.window);
                    }
                }
            }
            let stats = PlanStats::compute(&compiled, &local_rates)?;
            q.ideal_time = stats.ideal_time;
            q.alone = (0..compiled.leaves.len())
                .map(|li| compiled.alone_cost(hcq_plan::LeafIndex(li)))
                .collect();
            for leaf in &stats.per_leaf {
                statics.push(UnitStatics::from_leaf(leaf));
            }
        }
        debug_assert_eq!(statics.len(), self.units.len());
        Ok(statics)
    }

    fn run_single(&mut self, query: usize, pending: Pending, out: &mut Emissions) {
        let QueryRuntime {
            plan,
            monitors,
            ideal_time,
            ..
        } = &mut self.queries[query];
        let RtPlan::Single { ops, .. } = plan else {
            unreachable!("unit/plan mismatch");
        };
        match run_chain(ops, monitors, pending.record) {
            Some(record) => {
                let (arrival, ideal) = (pending.arrival, *ideal_time);
                self.emitter
                    .emit(out, query, record, arrival, arrival + ideal, ideal);
            }
            None => self.dropped += 1,
        }
    }

    fn run_join_leaf(&mut self, query: usize, side: Side, pending: Pending, out: &mut Emissions) {
        let QueryRuntime {
            plan,
            monitors,
            join_monitor,
            join: join_table,
            ideal_time,
            alone,
        } = &mut self.queries[query];
        let RtPlan::Join {
            left_ops,
            right_ops,
            join,
            common_ops,
            ..
        } = plan
        else {
            unreachable!("unit/plan mismatch");
        };
        let n_left = left_ops.len();
        let (own_ops, key_field, mon_base) = match side {
            Side::Left => (&*left_ops, join.left_field, 0),
            Side::Right => (&*right_ops, join.right_field, n_left),
        };
        let Some(record) = run_chain(own_ops, &mut monitors[mon_base..], pending.record) else {
            self.dropped += 1;
            return;
        };
        // Join: key from the post-chain record. A record lacking the key
        // field cannot match anything.
        let Some(key) = record.get(key_field) else {
            self.dropped += 1;
            return;
        };
        let entry = Keyed {
            key: key as u64,
            ts: pending.arrival,
            record: record.clone(),
            arrival: pending.arrival,
        };
        let matches = join_table
            .as_mut()
            .expect("join plan has a join table")
            .insert_probe(side, &entry);
        if let Some(jm) = join_monitor.as_mut() {
            jm.observe_selectivity(matches.len() as f64);
        }
        if matches.is_empty() {
            self.dropped += 1;
            return;
        }
        let common_base = n_left + right_ops.len();
        // Per §5.1: composite arrival = max of constituents; ideal departure
        // = max over constituents of (arrival + alone-path estimate).
        let (own_leaf, other_leaf) = match side {
            Side::Left => (0usize, 1usize),
            Side::Right => (1, 0),
        };
        for partner in matches {
            let (left_rec, right_rec) = match side {
                Side::Left => (&record, &partner.record),
                Side::Right => (&partner.record, &record),
            };
            let composite = left_rec.concat(right_rec);
            let arrival = pending.arrival.max(partner.arrival);
            let ideal_depart =
                (pending.arrival + alone[own_leaf]).max(partner.arrival + alone[other_leaf]);
            match run_chain(common_ops, &mut monitors[common_base..], composite) {
                Some(composite) => {
                    self.emitter
                        .emit(out, query, composite, arrival, ideal_depart, *ideal_time)
                }
                None => self.dropped += 1,
            }
        }
    }
}

/// Run `record` through a unary chain, teaching each operator's monitor
/// whether the record passed it; `None` once an operator filters it out.
fn run_chain(ops: &[RtOp], monitors: &mut [EwmaEstimator], mut record: Record) -> Option<Record> {
    for (op, monitor) in ops.iter().zip(monitors) {
        let next = op.apply_owned(record);
        monitor.observe_selectivity(if next.is_some() { 1.0 } else { 0.0 });
        record = next?;
    }
    Some(record)
}

/// Translate runtime estimates into an `hcq-plan` query so the §2/§5
/// statistics machinery derives the scheduling priorities.
fn plan_from_estimates(
    plan: &RtPlan,
    monitors: &[EwmaEstimator],
    join_monitor: &Option<EwmaEstimator>,
) -> hcq_plan::QueryPlan {
    let op_spec = |b: QueryBuilder, mon: &EwmaEstimator, op: &RtOp| -> QueryBuilder {
        match op.kind {
            crate::ops::RtOpKind::Select(_) => b.map(mon.cost(), mon.selectivity().min(1.0)),
            crate::ops::RtOpKind::Project(_) => b.project(mon.cost()),
        }
    };
    match plan {
        RtPlan::Single { stream, ops } => {
            let mut b = QueryBuilder::on(*stream);
            for (op, mon) in ops.iter().zip(monitors) {
                b = op_spec(b, mon, op);
            }
            b.build().expect("validated at registration")
        }
        RtPlan::Join {
            left_stream,
            right_stream,
            left_ops,
            right_ops,
            join,
            common_ops,
        } => {
            let mut left = QueryBuilder::on(*left_stream);
            for (op, mon) in left_ops.iter().zip(monitors) {
                left = op_spec(left, mon, op);
            }
            let mut right = QueryBuilder::on(*right_stream);
            for (op, mon) in right_ops.iter().zip(&monitors[left_ops.len()..]) {
                right = op_spec(right, mon, op);
            }
            let jm = join_monitor.as_ref().expect("join plan has a join monitor");
            let mut b = left.window_join(
                right,
                jm.cost(),
                // PlanStats wants the per-pair predicate selectivity in
                // (0,1]; the monitor tracks *matches per probe*, which the
                // occupancy term already models — keep the declared
                // estimate's role and clamp.
                jm.selectivity().clamp(1e-6, 1.0),
                join.window,
            );
            for (op, mon) in common_ops
                .iter()
                .zip(&monitors[left_ops.len() + right_ops.len()..])
            {
                b = op_spec(b, mon, op);
            }
            b.build().expect("validated at registration")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::record::{Cmp, Predicate};

    /// A refresh period of zero decisions would never fire (`decisions` is
    /// never a multiple of 0 once positive); like an α outside (0, 1], it
    /// is a configuration error, not a silent no-op.
    #[test]
    fn rejects_degenerate_monitoring_config() {
        let alpha_zero = DsmsConfig {
            ewma_alpha: 0.0,
            ..DsmsConfig::new(RuntimePolicy::Hnr)
        };
        let never = DsmsConfig::new(RuntimePolicy::Hnr).with_auto_refresh(0);
        for cfg in [alpha_zero, never] {
            assert!(matches!(Dsms::new(cfg), Err(HcqError::InvalidConfig(_))));
        }
        assert!(Dsms::new(DsmsConfig::new(RuntimePolicy::Hnr).with_auto_refresh(1)).is_ok());
    }

    /// `refresh_priorities` reaches every policy that reads statics, LSF
    /// included (the old per-policy refresh table skipped it). The `Dsms`
    /// loop itself learns selectivities only, and `T` is a sum of costs, so
    /// the test plays the part of a cost monitor: it teaches the estimators
    /// costs that invert the two queries' ideal times.
    #[test]
    fn lsf_refresh_follows_learned_ideal_times() {
        let clock = ManualClock::new();
        let cfg = DsmsConfig::new(RuntimePolicy::Lsf).with_clock(Box::new(clock.clone()));
        let mut dsms = Dsms::new(cfg).unwrap();
        let mut register = |cost_ms| {
            let pass = Predicate::new(0, Cmp::Ge, 0);
            let op = RtOp::select(pass, Nanos::from_millis(cost_ms), 1.0);
            dsms.register(RtPlan::single(StreamId::new(0), vec![op]))
                .unwrap()
        };
        let (q0, q1) = (register(2), register(10));
        let first_pick = |dsms: &mut Dsms| {
            dsms.push(StreamId::new(0), Record::new(vec![1]));
            clock.advance(Nanos::from_micros(10));
            let first = dsms.run_once().unwrap()[0].query;
            dsms.run_until_idle();
            first
        };
        // Equal waits: LSF (W/T) runs the query with the smaller T first.
        assert_eq!(first_pick(&mut dsms), q0);
        for _ in 0..200 {
            dsms.queries[0].monitors[0].observe(Nanos::from_millis(20), 1.0);
            dsms.queries[1].monitors[0].observe(Nanos::from_millis(1), 1.0);
        }
        assert_eq!(first_pick(&mut dsms), q0, "nothing refreshed yet");
        dsms.refresh_priorities().unwrap();
        assert!(dsms.estimated_ideal_time(q0) > dsms.estimated_ideal_time(q1));
        assert_eq!(first_pick(&mut dsms), q1);
    }
}
