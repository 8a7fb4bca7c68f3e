//! The runtime: the third front end on the executor core's parts — its
//! scheduling step is the engine's [`Scheduler`] over records, driving a
//! [`RuntimePolicy::build`] instance (or one handed to
//! [`Dsms::with_policy`], such as a contract audit) refreshed through
//! [`Scheduler::update_statics`], its plan the compiled [`CompiledQuery`]
//! with its [`PlanStats`], its slowdown [`exec::slowdown`]. Its own:
//! real records and operators, online monitors, and the whole-fan-out
//! `max_pending` valve (a stream-level rule, so not a queue admission mode).
//!
//! A query is lowered once, at registration: its [`RtPlan`] becomes a
//! `CompiledQuery` with the declared estimates as specs, and beside the
//! compiled ops, aligned with them, each op's behaviour and EWMA monitor.
//! Each leaf is a unit whose op path is resolved then. A refresh writes the
//! monitors into the specs in place and recomputes each query's stats; a
//! copy is one walk along its unit's path, which at a join inserts, probes
//! and walks on once per composite.
//!
//! A decision does only the work it needs. The clock is read once per
//! `push` (the arrival stamp) and once per emission, so every response is
//! wall-true; a decision reads it only when the policy's choice depends on
//! `now` ([`RuntimePolicy::reads_now`]), and otherwise selects at the last
//! instant read. Its emissions come back as an [`Emissions`] batch, which
//! holds one inline and spills to a `Vec` only for a join's fan-out.
//!
//! A copy does only its own work. A push wraps its record once, in an `Rc`
//! (the `Dsms` is not `Send`: it owns a `Box<dyn Clock>`), and every routed
//! copy queues a reference to it, with no atomic count per copy. A unary
//! chain runs on the borrowed record: a select evaluates in place, a
//! projection allocates its output, and only a chain that ends still
//! borrowed clones the record, when it emits. A choice that holds
//! ([`hcq_core::Selection::holds`], the static-priority policies) is served
//! without `select` until the `Scheduler` ends the hold: its unit empties
//! or the policy's inputs change.

use std::borrow::Cow;
use std::rc::Rc;

use hcq_common::{HcqError, Nanos, QueryId, Result, StreamId, TupleId};
use hcq_core::{EwmaEstimator, Policy, Queued, SelectionUnits, UnitId, UnitStatics};
use hcq_engine::exec;
use hcq_engine::queues::{Point, Scheduler};
use hcq_join::{JoinItem, Side, SymmetricHashJoin};
use hcq_metrics::{QosAccumulator, QosSummary};
use hcq_plan::{
    CompiledOpKind, CompiledQuery, LeafIndex, OpKind, PlanStats, QueryBuilder, StreamRates,
};

use crate::clock::{Clock, SystemClock};
use crate::ops::{RtOp, RtOpKind, RtPlan};
use crate::record::Record;

/// Which scheduling policy drives the runtime: the core's policy spec.
pub use hcq_core::PolicyKind as RuntimePolicy;

/// EWMA smoothing factor of the online cost, selectivity and
/// inter-arrival monitors.
const EWMA_ALPHA: f64 = 0.05;

/// Runtime configuration.
pub struct DsmsConfig {
    /// The scheduling policy.
    pub policy: RuntimePolicy,
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
    /// Defaults: no auto-refresh, unbounded queues, wall clock.
    pub fn new(policy: RuntimePolicy) -> Self {
        DsmsConfig {
            policy,
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
    /// Scheduling decisions taken: every `run_once` that served a tuple,
    /// whether the policy was asked or a held choice was served.
    pub decisions: u64,
    /// QoS over all emissions.
    pub qos: QosSummary,
}

/// A pending tuple in a segment queue: a reference to its push's one
/// shared record.
#[derive(Debug, Clone)]
struct Pending {
    record: Rc<Record>,
    arrival: Nanos,
}

impl Queued for Pending {
    fn arrival(&self) -> Nanos {
        self.arrival
    }
}

/// Join-table entry: the post-chain record, keyed, stamped with its
/// arrival.
#[derive(Debug, Clone)]
struct Keyed {
    key: u64,
    arrival: Nanos,
    record: Record,
}

impl JoinItem for Keyed {
    fn key(&self) -> u64 {
        self.key
    }
    fn timestamp(&self) -> Nanos {
        self.arrival
    }
}

/// What one compiled operator does to a record.
enum Step {
    /// A select or a projection.
    Unary(RtOpKind),
    /// The window join: each side's key field, and the window table.
    Join {
        fields: [usize; 2],
        table: Box<SymmetricHashJoin<Keyed>>,
    },
}

/// A registered query, lowered once: the compiled plan whose operator
/// specs each refresh rewrites in place, and beside `cq.ops`, aligned with
/// it, each operator's behaviour and online monitor (the join's included).
struct QueryRuntime {
    cq: CompiledQuery,
    steps: Vec<(Step, EwmaEstimator)>,
    /// `cq`'s statistics at the last refresh: `T` and each leaf's alone cost.
    stats: PlanStats,
}

/// What executing a copy in one unit needs, resolved at registration: the
/// unit's query and leaf, and the operator indices from the leaf's entry
/// to the root.
struct UnitPath {
    query: usize,
    leaf: LeafIndex,
    path: Box<[usize]>,
}

/// The clock and what a walk updates, apart from the queries so that a
/// walk can emit while it holds its query's state.
struct Emitter {
    clock: Box<dyn Clock>,
    /// The last instant read from `clock`.
    now: Nanos,
    emitted: u64,
    dropped: u64,
    qos: QosAccumulator,
    /// The current decision's emissions.
    out: Emissions,
}

impl Emitter {
    fn read_clock(&mut self) -> Nanos {
        self.now = self.clock.now();
        self.now
    }

    /// Stamp one result with a fresh clock read and account for it.
    fn emit(
        &mut self,
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
        self.out.push(Emission {
            query: QueryId::new(query),
            record,
            arrival,
            emitted_at: now,
            response,
            slowdown,
        });
    }
}

impl QueryRuntime {
    /// Lower `plan` into the compiled form, with the declared estimates
    /// as the specs and the monitors' seeds.
    fn lower(plan: RtPlan) -> Result<Self> {
        let unary = |b: QueryBuilder, op: &RtOp| match op.kind {
            RtOpKind::Select(_) => b.select(op.est_cost, op.est_selectivity),
            RtOpKind::Project(_) => b.project(op.est_cost),
        };
        let ewma = |cost, s| EwmaEstimator::new(EWMA_ALPHA, cost, s);
        let step = |op: RtOp| (Step::Unary(op.kind), ewma(op.est_cost, op.est_selectivity));
        let (builder, steps): (_, Vec<_>) = match plan {
            RtPlan::Single { stream, ops } => (
                ops.iter().fold(QueryBuilder::on(stream), unary),
                ops.into_iter().map(step).collect(),
            ),
            RtPlan::Join {
                left_stream,
                right_stream,
                left_ops,
                right_ops,
                join,
                common_ops,
            } => {
                let left = left_ops.iter().fold(QueryBuilder::on(left_stream), unary);
                let right = right_ops.iter().fold(QueryBuilder::on(right_stream), unary);
                let joined =
                    left.window_join(right, join.est_cost, join.est_selectivity, join.window);
                let join_step = Step::Join {
                    fields: [join.left_field, join.right_field],
                    table: Box::new(SymmetricHashJoin::new(join.window)),
                };
                (
                    common_ops.iter().fold(joined, unary),
                    // Compiled order: the left chain, the right chain, the
                    // join, the common chain.
                    left_ops
                        .into_iter()
                        .chain(right_ops)
                        .map(step)
                        .chain([(join_step, ewma(join.est_cost, join.est_selectivity))])
                        .chain(common_ops.into_iter().map(step))
                        .collect(),
                )
            }
        };
        let cq = CompiledQuery::compile(&builder.build()?);
        debug_assert!((cq.ops.iter().zip(&steps))
            .all(|(op, (step, _))| op.is_join() == matches!(step, Step::Join { .. })));
        Ok(QueryRuntime {
            cq,
            steps,
            // The first refresh, which `register` runs next, fills it in.
            stats: PlanStats {
                per_op: Vec::new(),
                per_leaf: Vec::new(),
                ideal_time: Nanos::ZERO,
            },
        })
    }

    /// Write each monitor's estimate into its operator's spec, then
    /// recompute the stats on this query's own stream rates: a join's
    /// inputs at their measured `τ`, an unmeasured one at the join's window
    /// (a deliberately conservative guess).
    fn refresh(&mut self, gaps: &[Option<EwmaEstimator>]) -> Result<()> {
        let mut rates = StreamRates::none();
        for (op, (_, monitor)) in self.cq.ops.iter_mut().zip(&self.steps) {
            match &mut op.kind {
                CompiledOpKind::Unary(spec) => {
                    spec.cost = monitor.cost();
                    // A projection keeps selectivity 1.
                    if spec.kind == OpKind::Select {
                        spec.selectivity = monitor.selectivity().min(1.0);
                    }
                }
                CompiledOpKind::Join(join) => {
                    join.cost = monitor.cost();
                    // `PlanStats` wants the per-pair predicate selectivity
                    // in (0, 1]; the monitor tracks matches per probe, which
                    // the occupancy term already models, so clamp.
                    join.selectivity = monitor.selectivity().clamp(1e-6, 1.0);
                    for leaf in &self.cq.leaves {
                        let measured = gaps.get(leaf.stream.index()).and_then(Option::as_ref);
                        rates.set(
                            leaf.stream,
                            measured.map_or(join.window, EwmaEstimator::cost),
                        );
                    }
                }
            }
        }
        self.stats = PlanStats::compute(&self.cq, &rates)?;
        Ok(())
    }

    /// Run `record` along `path`, the rest of `unit`'s path, teaching
    /// each operator's monitor what passed it, and emit what reaches the
    /// root. A join inserts and probes its table, then walks on once per
    /// composite: its arrival is the later constituent's, its ideal
    /// departure the later of each constituent's arrival plus alone cost
    /// (§5.1). A borrowed record stays borrowed through selects.
    fn walk(
        &mut self,
        unit: &UnitPath,
        path: &[usize],
        mut record: Cow<'_, Record>,
        (arrival, ideal_depart): (Nanos, Nanos),
        emitter: &mut Emitter,
    ) {
        for (at, &op) in path.iter().enumerate() {
            let (step, monitor) = &mut self.steps[op];
            match step {
                Step::Unary(kind) => {
                    let next = kind.apply_cow(record);
                    monitor.observe_selectivity(if next.is_some() { 1.0 } else { 0.0 });
                    let Some(next) = next else {
                        return emitter.dropped += 1;
                    };
                    record = next;
                }
                Step::Join { fields, table } => {
                    // An RtPlan join's leaves are its left and right inputs.
                    let (side, key_field, partner_leaf) = match unit.leaf.index() {
                        0 => (Side::Left, fields[0], 1),
                        _ => (Side::Right, fields[1], 0),
                    };
                    // A record lacking the key field cannot match anything.
                    let Some(key) = record.get(key_field) else {
                        return emitter.dropped += 1;
                    };
                    let entry = Keyed {
                        key: key as u64,
                        arrival,
                        record: record.into_owned(),
                    };
                    let matches = table.insert_probe(side, &entry);
                    monitor.observe_selectivity(matches.len() as f64);
                    if matches.is_empty() {
                        return emitter.dropped += 1;
                    }
                    let partner_alone = self.stats.per_leaf[partner_leaf].alone_cost;
                    let rest = &path[at + 1..];
                    for partner in matches {
                        let (left, right) = match side {
                            Side::Left => (&entry.record, &partner.record),
                            Side::Right => (&partner.record, &entry.record),
                        };
                        let times = (
                            arrival.max(partner.arrival),
                            ideal_depart.max(partner.arrival + partner_alone),
                        );
                        self.walk(unit, rest, Cow::Owned(left.concat(right)), times, emitter);
                    }
                    return;
                }
            }
        }
        let (record, ideal) = (record.into_owned(), self.stats.ideal_time);
        emitter.emit(unit.query, record, arrival, ideal_depart, ideal);
    }
}

/// The online DSMS.
pub struct Dsms {
    emitter: Emitter,
    auto_refresh_every: Option<u64>,
    max_pending: Option<usize>,
    /// The policy, the per-unit queues of records and the hold.
    sched: Scheduler<Pending>,
    /// [`RuntimePolicy::reads_now`] of the policy: whether a decision reads
    /// the clock.
    reads_now: bool,
    queries: Vec<QueryRuntime>,
    units: Vec<UnitPath>,
    /// The units fed by each stream index.
    routes: Vec<Vec<UnitId>>,
    /// Per-stream inter-arrival EWMA (for §5 window-occupancy priorities).
    stream_gaps: Vec<Option<EwmaEstimator>>,
    last_arrival: Vec<Option<Nanos>>,
    tuple_counter: u64,
    pushed: u64,
    shed: u64,
    decisions: u64,
}

impl Dsms {
    /// Create a runtime.
    pub fn new(cfg: DsmsConfig) -> Result<Self> {
        let policy = cfg.policy.build();
        Self::with_policy(cfg, policy)
    }

    /// Create a runtime around an already built policy, for a wrapper such
    /// as a contract audit. `cfg.policy` must name its kind: whether a
    /// decision reads the clock is derived from it.
    pub fn with_policy(cfg: DsmsConfig, policy: Box<dyn Policy>) -> Result<Self> {
        if cfg.auto_refresh_every == Some(0) {
            return Err(HcqError::config("auto_refresh_every must be at least 1"));
        }
        Ok(Dsms {
            emitter: Emitter {
                clock: cfg.clock,
                now: Nanos::ZERO,
                emitted: 0,
                dropped: 0,
                qos: QosAccumulator::new(),
                out: Emissions::default(),
            },
            auto_refresh_every: cfg.auto_refresh_every,
            max_pending: cfg.max_pending,
            sched: Scheduler::new(policy),
            reads_now: cfg.policy.reads_now(),
            queries: Vec::new(),
            units: Vec::new(),
            routes: Vec::new(),
            stream_gaps: Vec::new(),
            last_arrival: Vec::new(),
            tuple_counter: 0,
            pushed: 0,
            shed: 0,
            decisions: 0,
        })
    }

    /// Register a continuous query. Must happen while no tuples are pending
    /// (registration re-derives the whole unit table), and must leave every
    /// stream's fan-out within `max_pending`: the valve sheds a push's whole
    /// fan-out, so a stream fanning out past the cap would shed every record.
    pub fn register(&mut self, plan: RtPlan) -> Result<QueryId> {
        plan.validate()?;
        if self.sched.queues().pending() > 0 {
            return Err(HcqError::config(
                "register queries before pushing data (or after draining)",
            ));
        }
        let streams = plan.streams();
        for &stream in &streams {
            let fan_out = self.routes.get(stream.index()).map_or(0, Vec::len)
                + streams.iter().filter(|&&s| s == stream).count();
            if self.max_pending.is_some_and(|cap| fan_out > cap) {
                return Err(HcqError::config(format!(
                    "stream {stream} would fan out to {fan_out} queues, past max_pending; \
                     every record on it would be shed"
                )));
            }
        }
        let query = QueryRuntime::lower(plan)?;
        for &stream in &streams {
            if self.stream_gaps.len() <= stream.index() {
                self.stream_gaps.resize_with(stream.index() + 1, || None);
                self.last_arrival.resize(stream.index() + 1, None);
                self.routes.resize(stream.index() + 1, Vec::new());
            }
        }
        // One unit per leaf, routed from the leaf's stream.
        let id = QueryId::new(self.queries.len());
        for (leaf, entry) in query.cq.leaves.iter().enumerate() {
            let unit = self.units.len() as UnitId;
            let leaf = LeafIndex(leaf);
            self.units.push(UnitPath {
                query: id.index(),
                leaf,
                path: query.cq.path(leaf).collect(),
            });
            self.routes[entry.stream.index()].push(unit);
        }
        self.queries.push(query);
        let statics = self.refresh_statics()?;
        self.sched.register(&statics);
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
                    .get_or_insert_with(|| EwmaEstimator::new(EWMA_ALPHA, gap.max(Nanos(1)), 1.0))
                    .observe(gap.max(Nanos(1)), 1.0);
            }
            self.last_arrival[stream.index()] = Some(now);
        }
        let Some(routes) = self.routes.get(stream.index()).filter(|r| !r.is_empty()) else {
            return;
        };
        // Load shedding: admit the whole fan-out or none of it, so every
        // query sees a consistent sub-stream. A shed fan-out reaches no
        // queue and leaves a hold standing.
        if let Some(cap) = self.max_pending {
            if self.sched.queues().pending() + routes.len() > cap {
                self.shed += 1;
                return;
            }
        }
        let record = Rc::new(record);
        for &unit in routes {
            self.tuple_counter += 1;
            let pending = Pending {
                record: Rc::clone(&record),
                arrival: now,
            };
            let id = TupleId::new(self.tuple_counter);
            self.sched.enqueue(unit, id, pending, now);
        }
    }

    /// Take one scheduling decision and execute it; returns the emissions it
    /// produced, or `None` when nothing is pending. A held choice is served
    /// without asking the policy.
    pub fn run_once(&mut self) -> Option<Emissions> {
        if self.sched.queues().pending() == 0 {
            return None;
        }
        // A decision reads the clock only if the policy's choice needs it.
        let (fresh, e) = (self.reads_now, &mut self.emitter);
        let now = || if fresh { e.read_clock() } else { e.now };
        let units = match self.sched.point(now).expect("work pending") {
            Point::Held(unit, _) => SelectionUnits::from_iter([unit]),
            Point::Asked(selection) => selection.units,
        };
        for unit in units {
            let pending = self.sched.pop(unit).expect("selected units are non-empty");
            let unit = &self.units[unit as usize];
            let query = &mut self.queries[unit.query];
            let arrival = pending.arrival;
            let ideal_depart = arrival + query.stats.per_leaf[unit.leaf.index()].alone_cost;
            let record = Cow::Borrowed(&*pending.record);
            query.walk(
                unit,
                &unit.path,
                record,
                (arrival, ideal_depart),
                &mut self.emitter,
            );
        }
        self.decisions += 1;
        if let Some(every) = self.auto_refresh_every {
            if self.decisions.is_multiple_of(every) {
                self.refresh_priorities()
                    .expect("registered plans stay valid");
            }
        }
        Some(std::mem::take(&mut self.emitter.out))
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
        let statics = self.refresh_statics()?;
        for (unit, s) in statics.iter().enumerate() {
            self.sched.update_statics(unit as UnitId, s);
        }
        Ok(())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            pushed: self.pushed,
            emitted: self.emitter.emitted,
            dropped: self.emitter.dropped,
            shed: self.shed,
            decisions: self.decisions,
            qos: self.emitter.qos.summary(),
        }
    }

    /// Tuples currently queued.
    pub fn pending(&self) -> usize {
        self.sched.queues().pending()
    }

    /// Current online estimates for a query's unary operators, in plan
    /// order: `(cost, selectivity)` per operator. Exposes what the EWMA
    /// monitors have learned (introspection / debugging / dashboards).
    pub fn estimates(&self, query: QueryId) -> Option<Vec<(Nanos, f64)>> {
        self.queries.get(query.index()).map(|q| {
            (q.cq.ops.iter().zip(&q.steps))
                .filter(|(op, _)| !op.is_join())
                .map(|(_, (_, m))| (m.cost(), m.selectivity()))
                .collect()
        })
    }

    /// Current estimated ideal processing time `T` for a query.
    pub fn estimated_ideal_time(&self, query: QueryId) -> Option<Nanos> {
        self.queries.get(query.index()).map(|q| q.stats.ideal_time)
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

    /// Refresh every query from its monitors (see [`QueryRuntime::refresh`])
    /// and return the units' statics, in unit order.
    fn refresh_statics(&mut self) -> Result<Vec<UnitStatics>> {
        let mut statics = Vec::with_capacity(self.units.len());
        for q in &mut self.queries {
            q.refresh(&self.stream_gaps)?;
            statics.extend(q.stats.per_leaf.iter().map(UnitStatics::from_leaf));
        }
        debug_assert_eq!(statics.len(), self.units.len());
        Ok(statics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::ops::RtJoin;
    use crate::record::{Cmp, Predicate};
    use hcq_core::Selection;

    /// A refresh period of zero decisions would never fire (`decisions` is
    /// never a multiple of 0 once positive): it is a configuration error,
    /// not a silent no-op.
    #[test]
    fn rejects_degenerate_monitoring_config() {
        let never = DsmsConfig::new(RuntimePolicy::Hnr).with_auto_refresh(0);
        assert!(matches!(Dsms::new(never), Err(HcqError::InvalidConfig(_))));
        assert!(Dsms::new(DsmsConfig::new(RuntimePolicy::Hnr).with_auto_refresh(1)).is_ok());
    }

    /// Register a query on `stream` that passes every record at `cost_ms`
    /// per tuple: HNR ranks the cheaper of two such queries higher.
    fn pass_all(dsms: &mut Dsms, stream: usize, cost_ms: u64) -> QueryId {
        let pass = Predicate::new(0, Cmp::Ge, 0);
        let op = RtOp::select(pass, Nanos::from_millis(cost_ms), 1.0);
        dsms.register(RtPlan::single(StreamId::new(stream), vec![op]))
            .unwrap()
    }

    /// A push that enqueues anything ends the hold, and the higher-ranked
    /// query it fed runs next. A push whose whole fan-out the valve sheds
    /// reaches no queue and leaves the hold standing.
    #[test]
    fn a_push_ends_the_hold() {
        let cfg = DsmsConfig::new(RuntimePolicy::Hnr)
            .with_clock(Box::new(ManualClock::new()))
            .with_max_pending(3);
        let mut dsms = Dsms::new(cfg).unwrap();
        let low = pass_all(&mut dsms, 0, 10);
        let high = pass_all(&mut dsms, 1, 1);
        pass_all(&mut dsms, 1, 20);
        for v in 0..3 {
            dsms.push(StreamId::new(0), Record::new(vec![v]));
        }
        assert_eq!(dsms.run_once().unwrap()[0].query, low);
        assert_eq!(
            dsms.sched.held(|| Nanos::ZERO),
            Some(0),
            "HNR's only ready unit holds"
        );
        // Two pending plus a fan-out of two is past the cap of three.
        dsms.push(StreamId::new(1), Record::new(vec![3]));
        assert_eq!(dsms.stats().shed, 1);
        assert_eq!(
            dsms.sched.held(|| Nanos::ZERO),
            Some(0),
            "a shed fan-out changes no queue"
        );
        assert_eq!(dsms.run_once().unwrap()[0].query, low);
        dsms.push(StreamId::new(1), Record::new(vec![4]));
        assert_eq!(dsms.sched.held(|| Nanos::ZERO), None);
        assert_eq!(dsms.run_once().unwrap()[0].query, high);
    }

    /// A registration that would fan a stream out past `max_pending` is
    /// refused before it changes anything: every push on that stream would
    /// be shed, even into empty queues.
    #[test]
    fn register_refuses_a_fan_out_past_max_pending() {
        let cfg = DsmsConfig::new(RuntimePolicy::Fcfs)
            .with_clock(Box::new(ManualClock::new()))
            .with_max_pending(2);
        let mut dsms = Dsms::new(cfg).unwrap();
        let first = pass_all(&mut dsms, 0, 1);
        pass_all(&mut dsms, 0, 1);
        let pass = Predicate::new(0, Cmp::Ge, 0);
        let op = RtOp::select(pass, Nanos::from_millis(1), 1.0);
        let third = dsms.register(RtPlan::single(StreamId::new(0), vec![op]));
        assert!(third.unwrap_err().to_string().contains("max_pending"));
        // Another stream has its own fan-out.
        pass_all(&mut dsms, 1, 1);
        // Nothing changed: both queries on stream 0 receive every record.
        dsms.push(StreamId::new(0), Record::new(vec![1]));
        assert_eq!((dsms.pending(), dsms.stats().shed), (2, 0));
        assert_eq!(dsms.run_once().unwrap()[0].query, first);
    }

    /// A refresh ends the hold: taught costs that invert two queries'
    /// ranks (as in `lsf_refresh_follows_learned_ideal_times`), the `Dsms`
    /// runs the newly higher-ranked query next, not the held one.
    #[test]
    fn a_refresh_ends_the_hold() {
        let cfg = DsmsConfig::new(RuntimePolicy::Hnr).with_clock(Box::new(ManualClock::new()));
        let mut dsms = Dsms::new(cfg).unwrap();
        let (q0, q1) = (pass_all(&mut dsms, 0, 2), pass_all(&mut dsms, 0, 10));
        for v in 0..2 {
            dsms.push(StreamId::new(0), Record::new(vec![v]));
        }
        assert_eq!(dsms.run_once().unwrap()[0].query, q0);
        assert_eq!(dsms.sched.held(|| Nanos::ZERO), Some(0));
        for _ in 0..200 {
            dsms.queries[0].steps[0]
                .1
                .observe(Nanos::from_millis(20), 1.0);
            dsms.queries[1].steps[0]
                .1
                .observe(Nanos::from_millis(1), 1.0);
        }
        dsms.refresh_priorities().unwrap();
        assert_eq!(dsms.sched.held(|| Nanos::ZERO), None);
        assert_eq!(dsms.run_once().unwrap()[0].query, q1);
    }

    /// A push shares one record among its copies, and a chain of selects
    /// emits that same storage: the fields are never copied.
    #[test]
    fn a_select_only_chain_emits_the_pushed_storage() {
        let cfg = DsmsConfig::new(RuntimePolicy::Fcfs).with_clock(Box::new(ManualClock::new()));
        let mut dsms = Dsms::new(cfg).unwrap();
        pass_all(&mut dsms, 0, 1);
        pass_all(&mut dsms, 0, 2);
        let record = Record::new(vec![1; 1000]);
        dsms.push(StreamId::new(0), record.clone());
        let out = dsms.run_until_idle();
        assert_eq!(out.len(), 2);
        for e in &out {
            assert_eq!(e.record, record);
            assert!(std::ptr::eq(
                e.record.fields().as_ptr(),
                record.fields().as_ptr()
            ));
        }
    }

    /// A queued copy is a reference to its push's record and an instant.
    #[test]
    fn a_queued_copy_is_two_words() {
        assert_eq!(std::mem::size_of::<Pending>(), 16);
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
            dsms.queries[0].steps[0]
                .1
                .observe(Nanos::from_millis(20), 1.0);
            dsms.queries[1].steps[0]
                .1
                .observe(Nanos::from_millis(1), 1.0);
        }
        assert_eq!(first_pick(&mut dsms), q0, "nothing refreshed yet");
        dsms.refresh_priorities().unwrap();
        assert!(dsms.estimated_ideal_time(q0) > dsms.estimated_ideal_time(q1));
        assert_eq!(first_pick(&mut dsms), q1);
    }

    /// Keeps the statics of the last `on_register`; serves the first
    /// non-empty unit.
    struct LastRegistered(Rc<std::cell::RefCell<Vec<UnitStatics>>>);

    impl Policy for LastRegistered {
        fn name(&self) -> &'static str {
            "last-registered"
        }
        fn on_register(&mut self, units: &[UnitStatics]) {
            *self.0.borrow_mut() = units.to_vec();
        }
        fn on_enqueue(&mut self, _: UnitId, _: TupleId, _: Nanos, _: Nanos) {}
        fn select(&mut self, queues: &dyn hcq_core::QueueView, _: Nanos) -> Option<Selection> {
            Some(Selection::one(*queues.nonempty().first()?, 1))
        }
    }

    /// On unmeasured streams a join query's occupancy is derived from its
    /// own window: two join queries on one stream pair get, registered
    /// together, the statics each gets alone (rates shared across queries
    /// would give the second the first's window as `τ`, 20 times its
    /// occupancy). And a join query's estimates
    /// list its left, right and common unary operators in plan order,
    /// without the join.
    #[test]
    fn each_join_query_derives_its_statics_from_its_own_window() {
        let us = Nanos::from_micros;
        let pass = Predicate::new(0, Cmp::Ge, 0);
        let join = |window_ms| RtPlan::Join {
            left_stream: StreamId::new(0),
            right_stream: StreamId::new(1),
            left_ops: vec![RtOp::select(pass, us(1), 0.5)],
            right_ops: vec![RtOp::select(pass, us(2), 0.25)],
            join: RtJoin::new(0, 0, Nanos::from_millis(window_ms))
                .with_est_cost(us(4))
                .with_est_selectivity(0.1),
            common_ops: vec![RtOp::project(vec![0], us(3))],
        };
        let registered = |windows: &[u64]| {
            let log = Rc::default();
            let cfg = DsmsConfig::new(RuntimePolicy::Fcfs).with_clock(Box::new(ManualClock::new()));
            let policy = Box::new(LastRegistered(Rc::clone(&log)));
            let mut dsms = Dsms::with_policy(cfg, policy).unwrap();
            for &window in windows {
                dsms.register(join(window)).unwrap();
            }
            (dsms, log.take())
        };
        let (_, short) = registered(&[100]);
        let (_, long) = registered(&[2_000]);
        let (dsms, both) = registered(&[100, 2_000]);
        assert_eq!(both, [short, long].concat());
        assert_eq!(
            dsms.estimates(QueryId::new(1)).unwrap(),
            vec![(us(1), 0.5), (us(2), 0.25), (us(3), 1.0)]
        );
    }
}
