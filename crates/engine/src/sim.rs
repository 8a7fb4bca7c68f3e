//! The discrete-event simulation loop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use hcq_common::{det, EngineError, HcqError, Nanos, Result, StreamId, TupleId};
use hcq_core::{EwmaEstimator, Policy, QueueView, UnitStatics, WindowedEstimator};
use hcq_join::{Side, SymmetricHashJoin};
use hcq_metrics::{ClassBreakdown, OverheadTotals, QosAccumulator, SlowdownHistogram};
use hcq_plan::{CompiledOp, CompiledOpKind, GlobalPlan, Port, StreamRates};
use hcq_streams::{ArrivalSource, SourceFaultStats};

use crate::config::{
    AdaptConfig, AdaptMode, AdmissionMode, FaultConfig, OverloadConfig, SchedulingLevel, SimConfig,
};
use crate::exec::{self, UnaryGate};
use crate::governor::{Governor, Switch};
use crate::model::{SimModel, UnitKind};
use crate::queues::{Admission, Scheduler};
use crate::report::SimReport;
use crate::telemetry::{EngineTelemetry, MetricsSink, NoTelemetry};
use crate::trace::{NoTrace, TraceEvent, TraceSink};
use crate::tuple::SimTuple;

/// Run a complete simulation.
///
/// `sources[i]` feeds stream `i`; every stream referenced by `plan` must
/// have a source. See [`SimConfig`] for the knobs and the crate docs for an
/// end-to-end example.
pub fn simulate(
    plan: &GlobalPlan,
    rates: &StreamRates,
    sources: Vec<Box<dyn ArrivalSource>>,
    policy: Box<dyn Policy>,
    cfg: SimConfig,
) -> Result<SimReport> {
    Simulator::new(plan, rates, sources, policy, cfg)?.run()
}

/// Run a complete simulation streaming [`TraceEvent`]s into `sink`.
///
/// Identical decisions and report to [`simulate`] — the sink observes, it
/// never steers. Returns the sink alongside the report so buffering sinks
/// (e.g. [`crate::trace::JsonlTrace`]) can be finished/inspected.
pub fn simulate_traced<S: TraceSink>(
    plan: &GlobalPlan,
    rates: &StreamRates,
    sources: Vec<Box<dyn ArrivalSource>>,
    policy: Box<dyn Policy>,
    cfg: SimConfig,
    sink: S,
) -> Result<(SimReport, S)> {
    Simulator::with_sink(plan, rates, sources, policy, cfg, sink)?.run_with_sink()
}

/// Run a complete simulation sampling [`hcq_metrics::TelemetrySnapshot`]s
/// into `metrics` every [`SimConfig::telemetry_cadence`] of virtual time.
///
/// Identical decisions and report to [`simulate`] — telemetry observes, it
/// never steers. Returns the sink alongside the report so buffering sinks
/// (e.g. [`crate::telemetry::JsonlTelemetry`]) can be finished/inspected.
pub fn simulate_monitored<M: MetricsSink>(
    plan: &GlobalPlan,
    rates: &StreamRates,
    sources: Vec<Box<dyn ArrivalSource>>,
    policy: Box<dyn Policy>,
    cfg: SimConfig,
    metrics: M,
) -> Result<(SimReport, M)> {
    Simulator::with_instrumentation(plan, rates, sources, policy, cfg, NoTrace, metrics)?
        .run_instrumented()
        .map(|(report, _, metrics)| (report, metrics))
}

/// Live state of the online statistics estimator. Boxed behind an `Option`
/// on the simulator so an adaptation-disabled run carries one null pointer
/// and is bit-identical to an engine without the feature.
struct AdaptState {
    cfg: AdaptConfig,
    /// Next cadence boundary at which to publish re-estimates.
    next_flush: Nanos,
    /// Per-unit EWMA estimators ([`AdaptMode::Ewma`]; empty otherwise).
    /// These smooth across cadence-window *means*, not raw observations:
    /// per-execution cost is heavily bimodal (a tuple dropped by the entry
    /// operator versus one that runs the full pipeline), and feeding raw
    /// samples makes priorities thrash hard enough to lose QoS outright.
    ewma: Vec<EwmaEstimator>,
    /// Per-unit in-window accumulators (both modes): the open cadence
    /// window's running sums, folded into `ewma` or read directly at flush.
    windowed: Vec<WindowedEstimator>,
    /// The statics as the policy currently knows them: plan statics at
    /// registration, then whatever was last published.
    current: Vec<UnitStatics>,
    /// Observations per unit since the last flush boundary.
    fresh: Vec<u64>,
    /// Span of the positive priority coordinates `Φ` at registration —
    /// the engine's view of the domain a clustered policy froze. Published
    /// estimates drifting outside `[lo/f, hi·f]` trigger a refreeze.
    phi_lo: f64,
    phi_hi: f64,
    /// Statics publications forwarded to the policy.
    statics_updates: u64,
    /// Priority-domain refreezes the policy acknowledged.
    refreezes: u64,
}

impl AdaptState {
    /// Record one observed unit execution: total charged cost and tuples
    /// emitted while the unit ran one input tuple.
    fn observe(&mut self, unit: u32, cost: Nanos, produced: f64) {
        let u = unit as usize;
        self.windowed[u].observe(cost, produced);
        self.fresh[u] += 1;
    }

    /// The current estimate for `unit`: smoothed (EWMA) or the open
    /// window's mean, falling back to the last published statics when the
    /// window is empty. `ideal_time` is never re-estimated.
    fn estimate_of(&self, unit: usize) -> UnitStatics {
        let base = self.current[unit];
        let ideal = Nanos::from_nanos(base.ideal_time_ns.round() as u64);
        match self.cfg.mode {
            AdaptMode::Ewma => {
                let e = &self.ewma[unit];
                UnitStatics::new(e.selectivity(), e.cost(), ideal)
            }
            AdaptMode::Windowed => {
                let w = &self.windowed[unit];
                match (w.cost(), w.selectivity()) {
                    (Some(c), Some(s)) => UnitStatics::new(s, c, ideal),
                    _ => base,
                }
            }
        }
    }

    /// Re-anchor the tracked Φ span to the currently published statics,
    /// so a single drifted unit does not re-trigger every flush.
    fn reanchor_phi_span(&mut self) {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for s in &self.current {
            let p = s.sanitized_phi();
            if p > 0.0 {
                lo = lo.min(p);
            }
            hi = hi.max(p);
        }
        self.phi_lo = if lo.is_finite() { lo } else { 0.0 };
        self.phi_hi = hi;
    }
}

/// One operator as the run executes it: its pass/fail rule and what one
/// execution charges. Both are run constants, built with the simulator.
#[derive(Clone, Copy)]
struct RunOp {
    gate: UnaryGate,
    cost: Nanos,
}

/// What one execution of an operator charges: its plan cost scaled by the
/// run's persistent miscalibration, a factor drawn once per operator salt
/// (a stale calibration, not noise; identical across policies).
fn charged_cost(cost: Nanos, salt: u64, faults: &FaultConfig) -> Nanos {
    let m = faults.cost_miscalibration;
    if m > 0.0 {
        let u = det::unit_f64(det::mix3(salt, 0xFA17_C057, faults.seed));
        let mut factor = 1.0 + m * (2.0 * u - 1.0);
        if m >= 1.0 {
            // Magnitudes past 1 would otherwise drive the factor negative;
            // floor at 1% so "wildly miscalibrated" still means a positive
            // cost. Magnitudes below 1 keep their exact historical behavior.
            factor = factor.max(0.01);
        }
        cost.scale(factor).max(Nanos(1))
    } else {
        cost
    }
}

/// A tuple quarantined after a transient operator failure, waiting for its
/// cooldown to elapse before re-admission.
struct Parked {
    release: Nanos,
    /// Park ordinal: ties on `release` pop in park order, keeping the
    /// release sequence deterministic.
    seq: u64,
    unit: u32,
    tuple: SimTuple,
}

impl PartialEq for Parked {
    fn eq(&self, other: &Self) -> bool {
        (self.release, self.seq) == (other.release, other.seq)
    }
}
impl Eq for Parked {}
impl PartialOrd for Parked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Parked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.release, self.seq).cmp(&(other.release, other.seq))
    }
}

/// The simulator. Most callers use [`simulate`]; the struct is public for
/// step-wise tests and custom instrumentation. The `S` parameter is the
/// trace sink and `M` the telemetry sink: the defaults ([`NoTrace`],
/// [`NoTelemetry`]) compile every emission and sampling site out.
pub struct Simulator<S: TraceSink = NoTrace, M: MetricsSink = NoTelemetry> {
    model: SimModel,
    /// The policy, the unit queues and the admission rule's victim metric.
    sched: Scheduler<SimTuple>,
    sources: Vec<Box<dyn ArrivalSource>>,
    /// `(next arrival, stream)` min-heap.
    upcoming: BinaryHeap<Reverse<(Nanos, usize)>>,
    /// One symmetric hash join per query (the engine supports ≤ 1).
    joins: Vec<Option<(usize, SymmetricHashJoin<SimTuple>)>>,
    /// Operator-level only: `op_units[query][op]` = unit id.
    op_units: Vec<Vec<u32>>,
    /// `ops[query][op]`: each operator's gate and charged cost.
    ops: Vec<Vec<RunOp>>,
    /// `group_ops[group]`: each sharing group's shared operator.
    group_ops: Vec<RunOp>,
    cfg: SimConfig,
    sched_cost: Nanos,
    /// `ideal_times[query]` = `T_k`, hoisted out of the per-emission path
    /// (`stats` is indexed on every emit and every shared-group fan-out).
    ideal_times: Vec<Nanos>,
    /// Scratch buffer for join probe results, reused across probes so the
    /// hot path does not allocate a fresh `Vec` per arriving tuple.
    probe_buf: Vec<SimTuple>,
    /// Per-query deadline, hoisted from the plans (all `None` unless a
    /// query used `with_deadline`, in which case head tuples past budget
    /// expire at dequeue).
    deadlines: Vec<Option<Nanos>>,
    /// Whether any query carries a deadline (skips the per-dequeue lookup
    /// entirely for deadline-free workloads).
    any_deadline: bool,

    /// Live admission rule: [`SimConfig::overload`], whose mode the
    /// governor (when armed) moves along the ladder.
    overload: OverloadConfig,
    /// The closed-loop governor, boxed so an ungoverned run carries one
    /// null pointer and is bit-identical to an engine without the feature.
    governor: Option<Box<Governor>>,
    /// The base policy, parked while the governor's overload policy runs.
    /// Only the governor's `Switch`es fill and empty it.
    standby: Option<Box<dyn Policy>>,
    /// The online statistics estimator; `None` when disabled.
    adapt: Option<Box<AdaptState>>,

    /// Tuples quarantined by transient operator failures, keyed by release
    /// time; min-heap.
    parked: BinaryHeap<Reverse<Parked>>,
    park_seq: u64,
    /// Failed-attempt counts per `(unit, tuple id)`, touched only on
    /// failures — the happy path never inserts.
    fail_attempts: HashMap<(u32, u64), u32>,

    clock: Nanos,
    /// Ids for composite tuples (top bit set, so they never collide with
    /// arrival ids and are minted independently of arrival numbering).
    composite_counter: u64,
    arrivals_injected: u64,

    qos: QosAccumulator,
    classes: ClassBreakdown,
    /// `class_slots[query]`: the query's slot in `classes`, resolved once.
    class_slots: Vec<usize>,
    histogram: SlowdownHistogram,
    emitted: u64,
    dropped: u64,
    shed: u64,
    /// Tuples expired at dequeue past their query's deadline.
    expired: u64,
    /// Transient operator failures injected.
    op_failures: u64,
    /// Total virtual time tuples spent quarantined after failures.
    quarantine_time: Nanos,
    sched_ops: u64,
    /// Itemized scheduler work (per-kind counters), always accumulated —
    /// five integer adds per scheduling point, independent of tracing.
    overhead: OverheadTotals,
    overhead_time: Nanos,
    busy_time: Nanos,
    /// Virtual time spent with total pending load at or above the
    /// configured watermark (0 when no watermark is set).
    overload_time: Nanos,
    /// Integral of pending-tuple count over virtual time (tuple·ns), for
    /// time-averaged memory; updated whenever the clock advances.
    pending_area: f64,
    peak_pending: usize,

    sink: S,
    /// Emit/Shed events produced while a unit executes, replayed after the
    /// enclosing `UnitRun` so a reader always sees the run before its
    /// outputs. Empty and untouched when `S::ENABLED` is false.
    trace_buf: Vec<TraceEvent>,
    /// True while inside `execute_unit` (events route to `trace_buf`).
    trace_buffering: bool,
    /// The unit currently executing (attributes `Emit` events).
    current_unit: u32,

    metrics: M,
    /// The instrument set, built only when `M::ENABLED` (boxed so the
    /// unmonitored simulator carries one pointer, not the whole registry).
    telemetry: Option<Box<EngineTelemetry>>,
}

impl Simulator<NoTrace, NoTelemetry> {
    /// Build an untraced, unmonitored simulator; validates the
    /// plan/source/level combination.
    pub fn new(
        plan: &GlobalPlan,
        rates: &StreamRates,
        sources: Vec<Box<dyn ArrivalSource>>,
        policy: Box<dyn Policy>,
        cfg: SimConfig,
    ) -> Result<Self> {
        Self::with_sink(plan, rates, sources, policy, cfg, NoTrace)
    }
}

impl<S: TraceSink> Simulator<S, NoTelemetry> {
    /// Build a simulator that streams [`TraceEvent`]s into `sink`.
    pub fn with_sink(
        plan: &GlobalPlan,
        rates: &StreamRates,
        sources: Vec<Box<dyn ArrivalSource>>,
        policy: Box<dyn Policy>,
        cfg: SimConfig,
        sink: S,
    ) -> Result<Self> {
        Self::with_instrumentation(plan, rates, sources, policy, cfg, sink, NoTelemetry)
    }
}

impl<S: TraceSink, M: MetricsSink> Simulator<S, M> {
    /// Build a fully instrumented simulator: `sink` receives per-event
    /// [`TraceEvent`]s, `metrics` receives per-cadence snapshots.
    pub fn with_instrumentation(
        plan: &GlobalPlan,
        rates: &StreamRates,
        mut sources: Vec<Box<dyn ArrivalSource>>,
        policy: Box<dyn Policy>,
        cfg: SimConfig,
        sink: S,
        metrics: M,
    ) -> Result<Self> {
        if cfg.overload.mode != AdmissionMode::Unbounded && cfg.overload.capacity == 0 {
            return Err(HcqError::config(format!(
                "admission mode {:?} requires a per-unit capacity of at least 1",
                cfg.overload.mode
            )));
        }
        if let Some(g) = &cfg.governor {
            g.validate(&cfg.overload)?;
        }
        if let Some(adapt) = &cfg.adapt {
            if adapt.cadence.is_zero() {
                return Err(HcqError::config(
                    "adaptation cadence must be positive".to_string(),
                ));
            }
            if !(adapt.alpha > 0.0 && adapt.alpha <= 1.0) {
                return Err(HcqError::config(
                    "adaptation alpha must be in (0, 1]".to_string(),
                ));
            }
            if adapt.refreeze_factor < 1.0 || adapt.refreeze_factor.is_nan() {
                return Err(HcqError::config(
                    "adaptation refreeze_factor must be at least 1".to_string(),
                ));
            }
        }
        if cfg.faults.op_failure_prob > 0.0 && cfg.faults.op_failure_cooldown.is_zero() {
            return Err(HcqError::config(
                "op-failure injection needs a positive cooldown".to_string(),
            ));
        }
        let model = SimModel::build(plan, rates, cfg.level, cfg.sharing)?;
        for (s, routes) in model.routes.iter().enumerate() {
            if !routes.is_empty() && s >= sources.len() {
                return Err(HcqError::config(format!(
                    "stream {} is referenced by the plan but has no source",
                    StreamId::new(s)
                )));
            }
        }
        let mut upcoming = BinaryHeap::new();
        for (s, src) in sources.iter_mut().enumerate() {
            if let Some(t) = src.next_arrival() {
                upcoming.push(Reverse((t, s)));
            }
        }
        let mut joins = Vec::with_capacity(model.compiled.len());
        for (qi, cq) in model.compiled.iter().enumerate() {
            joins.push(match cq.join_indices().first() {
                Some(&ji) => match &cq.ops[ji].kind {
                    CompiledOpKind::Join(j) => Some((ji, SymmetricHashJoin::new(j.window))),
                    _ => {
                        return Err(HcqError::plan(format!(
                            "query Q{qi}: join index {ji} does not point at a join operator"
                        )))
                    }
                },
                None => None,
            });
        }
        let mut op_units: Vec<Vec<u32>> = Vec::new();
        if cfg.level == SchedulingLevel::Operator {
            op_units = model
                .compiled
                .iter()
                .map(|cq| vec![u32::MAX; cq.ops.len()])
                .collect();
            for (uid, unit) in model.units.iter().enumerate() {
                if let UnitKind::Operator { query, op } = unit.kind {
                    op_units[query][op] = uid as u32;
                }
            }
        }
        let (seed, faults) = (cfg.seed, &cfg.faults);
        let ops: Vec<Vec<RunOp>> = (model.compiled.iter().enumerate())
            .map(|(query, cq)| {
                let op = |(op, compiled): (usize, &CompiledOp)| {
                    let gate = match compiled.kind {
                        CompiledOpKind::Unary(spec) => UnaryGate::new(seed, query, op, &spec),
                        CompiledOpKind::Join(_) => UnaryGate::join(query, op),
                    };
                    let cost = charged_cost(compiled.cost(), gate.salt(), faults);
                    RunOp { gate, cost }
                };
                cq.ops.iter().enumerate().map(op).collect()
            })
            .collect();
        // The plan validates that every member leads with the group's
        // operator, so the first member's gate is the group's but for the
        // salt.
        let group_ops = (model.groups.iter().enumerate())
            .map(|(group, g)| RunOp {
                gate: UnaryGate::shared(group, &ops[g.members[0]][0].gate),
                cost: charged_cost(g.shared_cost, 0xD00D ^ group as u64, faults),
            })
            .collect();
        let sched_cost = model.min_op_cost;
        let unit_statics = model.unit_statics();
        let ideal_times = model.stats.iter().map(|s| s.ideal_time).collect();
        let mut classes = ClassBreakdown::new();
        let class_slots = model.tags.iter().map(|&tag| classes.slot(tag)).collect();
        let deadlines: Vec<Option<Nanos>> = plan.queries.iter().map(|q| q.deadline).collect();
        let any_deadline = deadlines.iter().any(|d| d.is_some());
        let governor = cfg.governor.map(|mut g| {
            // Switching to the policy already running is no switch at all.
            g.overload_policy = g.overload_policy.filter(|k| k.name() != policy.name());
            Box::new(Governor::new(g, cfg.overload.mode))
        });
        let adapt = cfg.adapt.map(|adapt| {
            let mut state = Box::new(AdaptState {
                cfg: adapt,
                next_flush: adapt.cadence,
                ewma: match adapt.mode {
                    AdaptMode::Ewma => unit_statics
                        .iter()
                        .map(|s| {
                            EwmaEstimator::new(
                                adapt.alpha,
                                Nanos::from_nanos(s.avg_cost_ns.round() as u64),
                                s.selectivity,
                            )
                        })
                        .collect(),
                    AdaptMode::Windowed => Vec::new(),
                },
                windowed: vec![WindowedEstimator::new(); unit_statics.len()],
                current: unit_statics.clone(),
                fresh: vec![0; unit_statics.len()],
                phi_lo: 0.0,
                phi_hi: 0.0,
                statics_updates: 0,
                refreezes: 0,
            });
            state.reanchor_phi_span();
            state
        });
        let mut sched = Scheduler::new(policy);
        sched.register(&unit_statics);
        let telemetry = if M::ENABLED {
            Some(Box::new(EngineTelemetry::new(
                model.unit_count(),
                model.compiled.len(),
                &cfg,
            )))
        } else {
            None
        };
        Ok(Simulator {
            model,
            sched,
            sources,
            upcoming,
            joins,
            op_units,
            ops,
            group_ops,
            overload: cfg.overload,
            cfg,
            sched_cost,
            ideal_times,
            probe_buf: Vec::new(),
            deadlines,
            any_deadline,
            governor,
            standby: None,
            adapt,
            parked: BinaryHeap::new(),
            park_seq: 0,
            fail_attempts: HashMap::new(),
            clock: Nanos::ZERO,
            composite_counter: 0,
            arrivals_injected: 0,
            qos: QosAccumulator::new(),
            classes,
            class_slots,
            histogram: SlowdownHistogram::default(),
            emitted: 0,
            dropped: 0,
            shed: 0,
            expired: 0,
            op_failures: 0,
            quarantine_time: Nanos::ZERO,
            sched_ops: 0,
            overhead: OverheadTotals::new(),
            overhead_time: Nanos::ZERO,
            busy_time: Nanos::ZERO,
            overload_time: Nanos::ZERO,
            pending_area: 0.0,
            peak_pending: 0,
            sink,
            trace_buf: Vec::new(),
            trace_buffering: false,
            current_unit: 0,
            metrics,
            telemetry,
        })
    }

    /// Install fresh statics for one unit mid-run — the §10 adaptive path
    /// (online cost/selectivity re-estimation) crossing the queue/policy
    /// boundary. [`Scheduler::update_statics`] refreshes the QoS-shedding
    /// victim priority and forwards to the policy's incremental
    /// [`Policy::on_statics_update`] hook, so a clustered policy re-buckets
    /// only the affected unit instead of rebuilding its priority domain.
    pub fn update_unit_statics(&mut self, unit: u32, statics: UnitStatics) {
        if let Some(a) = self.adapt.as_mut() {
            a.current[unit as usize] = statics;
        }
        self.sched.update_statics(unit, &statics);
    }

    /// Route an event: buffered while a unit executes, straight to the sink
    /// otherwise. Call sites guard with `S::ENABLED` so event construction
    /// itself is compiled out for [`NoTrace`].
    fn trace(&mut self, event: TraceEvent) {
        if S::ENABLED {
            if self.trace_buffering {
                self.trace_buf.push(event);
            } else {
                self.sink.event(&event);
            }
        }
    }

    /// Run to completion and report.
    ///
    /// Errors only on a policy ⇄ engine contract violation (a
    /// [`hcq_common::EngineError`] wrapped as [`HcqError::Engine`]): no
    /// selection while work is pending, or a selected unit with an empty
    /// queue. The built-in policies never trigger these; external
    /// embeddings and fault harnesses get a value instead of a panic.
    pub fn run(self) -> Result<SimReport> {
        self.run_with_sink().map(|(report, _)| report)
    }

    /// [`run`](Self::run), but also hand back the trace sink so buffered
    /// events can be inspected or flushed.
    pub fn run_with_sink(self) -> Result<(SimReport, S)> {
        self.run_instrumented()
            .map(|(report, sink, _)| (report, sink))
    }

    /// [`run`](Self::run), handing back both instrumentation sinks.
    pub fn run_instrumented(mut self) -> Result<(SimReport, S, M)> {
        if S::ENABLED && self.cfg.faults.cost_miscalibration > 0.0 {
            let magnitude = self.cfg.faults.cost_miscalibration;
            self.trace(TraceEvent::Fault {
                at: Nanos::ZERO,
                kind: "cost_miscalibration",
                magnitude,
            });
        }
        if S::ENABLED && self.cfg.faults.op_failure_prob > 0.0 {
            let magnitude = self.cfg.faults.op_failure_prob;
            self.trace(TraceEvent::Fault {
                at: Nanos::ZERO,
                kind: "op_failure",
                magnitude,
            });
        }
        loop {
            self.deliver_due_arrivals();
            self.release_parked_due();
            if M::ENABLED {
                self.sample_telemetry();
            }
            if self.governor.is_some() {
                self.govern();
            }
            if self.adapt.is_some() {
                self.adapt_flush();
            }
            if self.sched.queues().pending() == 0 {
                // Idle: jump to the next event — an arrival or a parked
                // release — or finish.
                let next_arrival = if self.arrivals_injected < self.cfg.max_arrivals {
                    self.peek_next_arrival()
                } else {
                    None
                };
                let next_release = if self.cfg.drain || next_arrival.is_some() {
                    self.parked.peek().map(|Reverse(p)| p.release)
                } else {
                    // Not draining and arrivals exhausted: quarantined
                    // tuples stay parked and count as pending at the end.
                    None
                };
                let target = match (next_arrival, next_release) {
                    (Some(a), Some(r)) => Some(a.min(r)),
                    (Some(a), None) => Some(a),
                    (None, r) => r,
                };
                match target {
                    Some(t) => {
                        self.advance_clock(self.clock.max(t));
                        continue;
                    }
                    None => break,
                }
            }
            if !self.cfg.drain && self.arrivals_injected >= self.cfg.max_arrivals {
                break;
            }
            let selection = self.sched.select(self.clock)?;
            self.sched_ops += selection.ops_counted;
            let st = selection.stats;
            self.overhead.record(
                st.candidates_scanned,
                st.priority_evals,
                st.comparisons,
                st.cluster_ops,
                st.heap_ops,
            );
            let charged = if self.cfg.charge_overhead {
                self.sched_cost * selection.ops_counted
            } else {
                Nanos::ZERO
            };
            if S::ENABLED {
                self.trace(TraceEvent::SchedulingPoint {
                    at: self.clock,
                    candidates_scanned: st.candidates_scanned,
                    priority_evals: st.priority_evals,
                    comparisons: st.comparisons,
                    cluster_ops: st.cluster_ops,
                    heap_ops: st.heap_ops,
                    charged,
                });
            }
            if self.cfg.charge_overhead {
                self.advance_clock(self.clock + charged);
                self.overhead_time += charged;
            }
            for unit in selection.units {
                self.execute_unit(unit)?;
            }
        }
        if M::ENABLED {
            self.final_sample();
        }
        // Source-side fault accounting: clip every scheduled fault window
        // against the final clock so schedule and report reconcile even when
        // a window extends past the end of the run.
        let mut source_stats = SourceFaultStats::default();
        for s in &self.sources {
            source_stats.absorb(s.fault_stats());
        }
        let mut fault_stall_time = Nanos::ZERO;
        let mut fault_stall_truncated = Nanos::ZERO;
        for &(start, end) in &source_stats.windows {
            let in_run_end = end.min(self.clock);
            if in_run_end > start {
                fault_stall_time += in_run_end - start;
            }
            if end > self.clock {
                fault_stall_truncated += end - self.clock.max(start);
            }
        }
        let report = SimReport {
            qos: self.qos.summary(),
            classes: self.classes,
            histogram: self.histogram,
            arrivals: self.arrivals_injected,
            emitted: self.emitted,
            dropped: self.dropped,
            shed: self.shed,
            expired: self.expired,
            op_failures: self.op_failures,
            quarantine_time: self.quarantine_time,
            governor_transitions: self.governor.as_ref().map_or(0, |g| g.transitions()),
            policy_switches: self.governor.as_ref().map_or(0, |g| g.switches()),
            statics_updates: self.adapt.as_ref().map_or(0, |a| a.statics_updates),
            domain_refreezes: self.adapt.as_ref().map_or(0, |a| a.refreezes),
            estimates: self.adapt.as_ref().map(|a| {
                (0..self.model.unit_count())
                    .map(|u| a.estimate_of(u))
                    .collect()
            }),
            fault_stall_time,
            fault_stall_truncated,
            source_disconnects: source_stats.disconnects,
            source_retry_attempts: source_stats.retry_attempts,
            source_lost_arrivals: source_stats.lost_arrivals,
            sched_points: self.sched.selections(),
            sched_ops: self.sched_ops,
            overhead: self.overhead,
            overhead_time: self.overhead_time,
            busy_time: self.busy_time,
            overload_time: self.overload_time,
            end_time: self.clock,
            avg_pending: if self.clock.is_zero() {
                0.0
            } else {
                self.pending_area / self.clock.as_nanos() as f64
            },
            peak_pending: self.peak_pending,
            // Quarantined tuples are still in flight: they count as pending
            // so conservation holds when a run ends mid-cooldown.
            pending_end: self.sched.queues().pending() + self.parked.len(),
        };
        Ok((report, self.sink, self.metrics))
    }

    /// Emit a snapshot for every cadence boundary the clock has reached.
    /// Snapshots are stamped at the boundary; the state they carry is read
    /// at the first scheduling point at or after it (queue contents are
    /// constant between events, so nothing is missed). The instrument set
    /// is taken out of `self` for the duration because `record_state`
    /// re-borrows the simulator.
    fn sample_telemetry(&mut self) {
        let Some(mut t) = self.telemetry.take() else {
            return;
        };
        while self.clock >= t.next_sample {
            let at = t.next_sample;
            t.next_sample = at + t.cadence;
            self.record_state(&mut t);
            self.metrics.sample(&t.registry.snapshot(at));
        }
        self.telemetry = Some(t);
    }

    /// The closing snapshot, stamped at the run's end time, so the last
    /// sample's counters reconcile exactly with the [`SimReport`].
    fn final_sample(&mut self) {
        let Some(mut t) = self.telemetry.take() else {
            return;
        };
        self.record_state(&mut t);
        self.metrics.sample(&t.registry.snapshot(self.clock));
        self.telemetry = Some(t);
    }

    /// Load every counter and gauge from live simulator state. Summary
    /// instruments are fed incrementally by [`Self::emit`] instead.
    fn record_state(&self, t: &mut EngineTelemetry) {
        let reg = &mut t.registry;
        reg.set_counter(t.arrivals, self.arrivals_injected);
        reg.set_counter(t.emitted, self.emitted);
        reg.set_counter(t.dropped, self.dropped);
        reg.set_counter(t.shed, self.shed);
        reg.set_counter(t.sched_points, self.sched.selections());
        reg.set_counter(t.busy_ns, self.busy_time.as_nanos());
        reg.set_counter(t.overhead_ns, self.overhead_time.as_nanos());
        reg.set_counter(t.overload_ns, self.overload_time.as_nanos());
        reg.set_counter(t.expired, self.expired);
        reg.set_counter(t.op_failures, self.op_failures);
        reg.set_counter(t.quarantine_ns, self.quarantine_time.as_nanos());
        reg.set_counter(
            t.governor_transitions,
            self.governor.as_ref().map_or(0, |g| g.transitions()),
        );
        reg.set_counter(
            t.policy_switches,
            self.governor.as_ref().map_or(0, |g| g.switches()),
        );
        reg.set_counter(
            t.statics_updates,
            self.adapt.as_ref().map_or(0, |a| a.statics_updates),
        );
        reg.set_counter(
            t.domain_refreezes,
            self.adapt.as_ref().map_or(0, |a| a.refreezes),
        );
        reg.set_gauge(t.pending, self.sched.queues().pending() as f64);
        reg.set_gauge(t.peak_pending, self.peak_pending as f64);
        reg.set_gauge(t.governor_mode, f64::from(self.overload.mode.rung()));
        let utilization = if self.clock.is_zero() {
            0.0
        } else {
            (self.busy_time + self.overhead_time).ratio(self.clock)
        };
        reg.set_gauge(t.utilization, utilization);
        for u in 0..t.queue_depth.len() {
            let unit = u as u32;
            reg.set_gauge(t.queue_depth[u], self.sched.queues().len(unit) as f64);
            let age = self.sched.queues().head_arrival(unit).map_or(0.0, |a| {
                self.clock.saturating_since(a).as_nanos() as f64 / 1e9
            });
            reg.set_gauge(t.backlog_age[u], age);
        }
    }

    /// Advance the virtual clock, integrating the pending-tuple count over
    /// the elapsed span (queue contents are constant between events).
    fn advance_clock(&mut self, target: Nanos) {
        debug_assert!(target >= self.clock);
        let span = target.saturating_since(self.clock);
        let pending = self.sched.queues().pending();
        self.pending_area += pending as f64 * span.as_nanos() as f64;
        let watermark = self.cfg.overload.watermark;
        if watermark > 0 && pending >= watermark {
            self.overload_time += span;
            if let Some(g) = self.governor.as_mut() {
                g.overloaded(span);
            }
        }
        self.clock = target;
    }

    /// Apply the governor's decision at every cadence boundary the clock has
    /// reached: move the admission mode, swap the policy through
    /// [`Scheduler::replace_policy`]. One depth serves all.
    fn govern(&mut self) {
        let (now, pending) = (self.clock, self.sched.queues().pending());
        while let Some(d) = self.governor.as_mut().and_then(|g| g.decide(now, pending)) {
            if let Some(to) = d.mode {
                let from = std::mem::replace(&mut self.overload.mode, to);
                if S::ENABLED {
                    // Stamped with the clock, not the (possibly caught-up
                    // past) cadence boundary, so the trace stays monotone.
                    self.trace(TraceEvent::GovernorTransition {
                        at: now,
                        from: from.name(),
                        to: to.name(),
                        pending: pending as u64,
                        share: d.share,
                    });
                }
            }
            let next = match d.switch {
                Some(Switch::Engage(kind)) => kind.build(),
                Some(Switch::Disengage) => self
                    .standby
                    .take()
                    .expect("the governor disengages only after an engage"),
                None => continue,
            };
            let statics = match self.adapt.as_ref() {
                Some(a) => a.current.clone(),
                None => self.model.unit_statics(),
            };
            let to = next.name();
            let prev = self.sched.replace_policy(next, &statics, self.clock);
            let from = prev.name();
            if matches!(d.switch, Some(Switch::Engage(_))) {
                self.standby = Some(prev);
            }
            if S::ENABLED {
                self.trace(TraceEvent::PolicySwitch {
                    at: now,
                    from,
                    to,
                    share: d.share,
                });
            }
        }
    }

    /// Publish re-estimated statics at every adaptation cadence boundary
    /// the clock has reached, and refreeze the policy's priority domain
    /// when the published coordinates have drifted outside the span frozen
    /// at registration (scaled by the configured slack). The estimator
    /// state is taken out of `self` for the duration because publishing
    /// re-borrows the simulator.
    fn adapt_flush(&mut self) {
        let Some(mut a) = self.adapt.take() else {
            return;
        };
        let mut due = false;
        while self.clock >= a.next_flush {
            a.next_flush += a.cfg.cadence;
            due = true;
        }
        if !due {
            self.adapt = Some(a);
            return;
        }
        let mut drifted = false;
        for u in 0..a.current.len() {
            if a.fresh[u] < a.cfg.min_observations {
                // Sparse units keep accumulating across boundaries until
                // they have a publishable window.
                continue;
            }
            a.fresh[u] = 0;
            if a.cfg.mode == AdaptMode::Ewma {
                // One EWMA step per cadence window, fed the window's mean:
                // batching kills the per-execution variance before it can
                // reach the priority domain.
                if let (Some(c), Some(s)) = (a.windowed[u].cost(), a.windowed[u].selectivity()) {
                    a.ewma[u].observe(c, s);
                }
            }
            let estimate = a.estimate_of(u);
            a.windowed[u].reset();
            if !a.cfg.publish || estimate == a.current[u] {
                continue;
            }
            a.current[u] = estimate;
            a.statics_updates += 1;
            self.sched.update_statics(u as u32, &estimate);
            if a.phi_hi > 0.0 {
                let phi = estimate.sanitized_phi();
                if phi > a.phi_hi * a.cfg.refreeze_factor
                    || (phi > 0.0 && phi < a.phi_lo / a.cfg.refreeze_factor)
                {
                    drifted = true;
                }
            }
        }
        if drifted {
            if self.sched.refreeze() {
                a.refreezes += 1;
            }
            // Re-anchor even when the policy declined (static policies
            // have no frozen domain): the span check should not re-fire
            // every flush for the same drift.
            a.reanchor_phi_span();
        }
        self.adapt = Some(a);
    }

    /// Re-admit every quarantined tuple whose cooldown has elapsed. The
    /// returning tuple goes through normal admission, so a still-overloaded
    /// engine may shed it instead of queueing it.
    fn release_parked_due(&mut self) {
        while let Some(Reverse(p)) = self.parked.peek() {
            if p.release > self.clock {
                break;
            }
            let Some(Reverse(p)) = self.parked.pop() else {
                break;
            };
            self.admit(p.unit, p.tuple);
        }
    }

    fn peek_next_arrival(&self) -> Option<Nanos> {
        self.upcoming.peek().map(|Reverse((t, _))| *t)
    }

    fn deliver_due_arrivals(&mut self) {
        while self.arrivals_injected < self.cfg.max_arrivals {
            let Some(&Reverse((t, stream))) = self.upcoming.peek() else {
                break;
            };
            if t > self.clock {
                break;
            }
            self.upcoming.pop();
            if let Some(next) = self.sources[stream].next_arrival() {
                self.upcoming.push(Reverse((next, stream)));
            }
            self.inject(StreamId::new(stream), t);
        }
    }

    fn inject(&mut self, stream: StreamId, at: Nanos) {
        // The arrival's id is its global arrival ordinal: identical across
        // policies, so attribute keys and selectivity coins are a pure
        // function of the workload, never of scheduling decisions.
        let id = TupleId::new(self.arrivals_injected);
        self.arrivals_injected += 1;
        // The §8 extra attribute: uniform in [1,100], shared by every copy.
        let key = exec::arrival_key(self.cfg.seed, id);
        // Routes are read through an index to satisfy the borrow checker;
        // the route table is immutable during simulation.
        let si = stream.index();
        for r in 0..self.model.routes[si].len() {
            let route = self.model.routes[si][r];
            self.admit(route.unit, SimTuple::base(id, at, key, route.alone));
        }
    }

    /// Admission control: every tuple entering a unit queue — source
    /// arrivals, shared-group deferred copies, operator-level handoffs —
    /// goes through here. [`Scheduler::admit`] decides under the live
    /// [`AdmissionMode`] and tells the policy; this counts and traces what
    /// was shed.
    fn admit(&mut self, unit: u32, tuple: SimTuple) {
        match self.sched.admit(self.overload, unit, tuple, self.clock) {
            Admission::Queued => {}
            Admission::Rejected(arrival) => return self.count_shed(unit, arrival),
            Admission::Displaced { victim, shed } => self.count_shed(victim, shed),
        }
        self.peak_pending = self.peak_pending.max(self.sched.queues().pending());
    }

    /// Count and trace one tuple lost to admission control.
    fn count_shed(&mut self, unit: u32, tuple: SimTuple) {
        self.shed += 1;
        if S::ENABLED {
            self.trace(TraceEvent::Shed {
                at: self.clock,
                unit,
                tuple: tuple.id.raw(),
                lineage: tuple.lineage.raw(),
                arrival: tuple.arrival,
            });
        }
    }

    fn next_composite_id(&mut self) -> TupleId {
        let id = TupleId::new(self.composite_counter | (1 << 63));
        self.composite_counter += 1;
        id
    }

    fn execute_unit(&mut self, unit: u32) -> Result<(), EngineError> {
        // `pop` validates the unit id (dense, same space as `model.units`),
        // so the `kind` lookup below cannot be out of range.
        let tuple = self.sched.pop(unit)?;
        let kind = self.model.units[unit as usize].kind;
        self.current_unit = unit;
        // Deadline enforcement: a tuple already past its query's response
        // budget when the scheduler reaches it is expired, not run — the
        // answer would be too stale to matter. Shared units carry tuples for
        // several queries at once and are exempt (per-member deadlines apply
        // downstream at the remainder units).
        if self.any_deadline {
            let query = match kind {
                UnitKind::Leaf { query, .. } => Some(query),
                UnitKind::Remainder { group, member } => {
                    Some(self.model.groups[group].members[member])
                }
                UnitKind::Operator { query, .. } => Some(query),
                UnitKind::Shared { .. } => None,
            };
            if let Some(q) = query {
                if let Some(d) = self.deadlines[q] {
                    let due = tuple.arrival + d;
                    if self.clock > due {
                        self.expired += 1;
                        if S::ENABLED {
                            self.trace(TraceEvent::Expire {
                                at: self.clock,
                                unit,
                                query: q as u32,
                                tuple: tuple.id.raw(),
                                arrival: tuple.arrival,
                                late_by: self.clock - due,
                            });
                        }
                        return Ok(());
                    }
                }
            }
        }
        // Transient operator failure: the entry operator's cost is charged
        // (the work happened), its output is suppressed, and the tuple is
        // quarantined for a cooldown before being retried — or abandoned
        // once retries run out. The draw is a pure function of
        // (tuple, unit, attempt, fault seed): identical across policies.
        if self.cfg.faults.op_failure_prob > 0.0 {
            let key = (unit, tuple.id.raw());
            let attempt = self.fail_attempts.get(&key).copied().unwrap_or(0);
            let roll = det::mix3(
                tuple.id.raw(),
                det::mix2(u64::from(unit), u64::from(attempt)),
                self.cfg.faults.seed ^ 0x00FA_11ED,
            );
            if det::coin(roll, self.cfg.faults.op_failure_prob) {
                let cost = self.entry_cost(kind);
                let at = self.clock;
                self.charge(cost);
                self.op_failures += 1;
                let retrying = attempt < self.cfg.faults.op_failure_retries;
                if S::ENABLED {
                    self.trace(TraceEvent::OpFailure {
                        at,
                        unit,
                        tuple: tuple.id.raw(),
                        cost,
                        attempt,
                        retrying,
                    });
                }
                if retrying {
                    self.fail_attempts.insert(key, attempt + 1);
                    let cooldown = self.cfg.faults.op_failure_cooldown;
                    self.quarantine_time += cooldown;
                    self.parked.push(Reverse(Parked {
                        release: self.clock + cooldown,
                        seq: self.park_seq,
                        unit,
                        tuple,
                    }));
                    self.park_seq += 1;
                } else {
                    self.fail_attempts.remove(&key);
                    self.dropped += 1;
                }
                return Ok(());
            }
            if attempt > 0 {
                self.fail_attempts.remove(&key);
            }
        }
        let (start, busy0, emitted0) = (self.clock, self.busy_time, self.emitted);
        let (tuple_id, tuple_arrival) = (tuple.id, tuple.arrival);
        if S::ENABLED {
            // Buffer the run's Emit/Shed children so the UnitRun — whose
            // cost/output are only known afterwards — still precedes them
            // in the stream.
            debug_assert!(!self.trace_buffering && self.trace_buf.is_empty());
            self.trace_buffering = true;
        }
        match kind {
            UnitKind::Leaf { query, leaf } => {
                let entry = self.model.compiled[query].leaves[leaf.index()].entry;
                self.run_pipeline(query, entry, tuple)?;
            }
            UnitKind::Shared { group } => self.run_shared(group, tuple)?,
            UnitKind::Remainder { group, member } => {
                let query = self.model.groups[group].members[member];
                self.run_pipeline(query, (1, Port::Single), tuple)?;
            }
            UnitKind::Operator { query, op } => self.run_operator_step(query, op, tuple)?,
        }
        if self.adapt.is_some() {
            // One observation per completed unit execution: total charged
            // cost and tuples emitted for this input. Expired and failed
            // tuples return before this point — a suppressed output is not
            // evidence about selectivity.
            let cost = self.busy_time.saturating_since(busy0);
            let produced = self.emitted - emitted0;
            if let Some(a) = self.adapt.as_mut() {
                a.observe(unit, cost, produced as f64);
            }
        }
        if S::ENABLED {
            self.trace_buffering = false;
            self.sink.event(&TraceEvent::UnitRun {
                at: start,
                unit,
                tuple: tuple_id.raw(),
                arrival: tuple_arrival,
                cost: self.busy_time.saturating_since(busy0),
                tuples: self.emitted - emitted0,
            });
            let buf = std::mem::take(&mut self.trace_buf);
            for e in &buf {
                self.sink.event(e);
            }
            self.trace_buf = buf;
            self.trace_buf.clear();
        }
        Ok(())
    }

    /// Charged cost of the unit's *entry* operator: what a transient
    /// failure of the first processing step costs.
    fn entry_cost(&self, kind: UnitKind) -> Nanos {
        match kind {
            UnitKind::Leaf { query, leaf } => {
                let (oi, _) = self.model.compiled[query].leaves[leaf.index()].entry;
                self.ops[query][oi].cost
            }
            UnitKind::Shared { group } => self.group_ops[group].cost,
            UnitKind::Remainder { group, member } => {
                self.ops[self.model.groups[group].members[member]][1].cost
            }
            UnitKind::Operator { query, op } => self.ops[query][op].cost,
        }
    }

    /// Pipelined execution from `entry` to the root (query-level units).
    fn run_pipeline(
        &mut self,
        query: usize,
        entry: (usize, Port),
        tuple: SimTuple,
    ) -> Result<(), EngineError> {
        let mut cursor = Some(entry);
        while let Some((oi, port)) = cursor {
            let op = self.model.compiled[query].ops[oi];
            let downstream = op.downstream;
            match op.kind {
                CompiledOpKind::Unary(_) => {
                    let RunOp { gate, cost } = self.ops[query][oi];
                    self.charge(cost);
                    if !gate.passes(&tuple) {
                        self.dropped += 1;
                        return Ok(());
                    }
                    cursor = downstream;
                }
                CompiledOpKind::Join(spec) => {
                    self.charge(self.ops[query][oi].cost);
                    let side = match port {
                        Port::Left => Side::Left,
                        Port::Right => Side::Right,
                        Port::Single => return Err(EngineError::UnaryPortAtJoin { query, op: oi }),
                    };
                    // Reuse the probe scratch buffer across tuples; it is
                    // taken out of `self` for the duration of the partner
                    // loop because `run_pipeline` re-borrows the simulator.
                    let mut matches = std::mem::take(&mut self.probe_buf);
                    let Some((join_idx, shj)) = self.joins[query].as_mut() else {
                        return Err(EngineError::MissingJoinState { query });
                    };
                    debug_assert_eq!(*join_idx, oi);
                    shj.insert_probe_into(side, &tuple, &mut matches);
                    let mut produced = false;
                    let salt = exec::pair_salt(self.cfg.seed, query, oi);
                    for partner in &matches {
                        if !exec::pair_passes_salted(salt, spec.selectivity, &tuple, partner) {
                            continue;
                        }
                        produced = true;
                        let id = self.next_composite_id();
                        let composite = SimTuple::composite(id, &tuple, partner);
                        match downstream {
                            Some(next) => self.run_pipeline(query, next, composite)?,
                            None => self.emit(query, composite),
                        }
                    }
                    self.probe_buf = matches;
                    if !produced {
                        self.dropped += 1;
                    }
                    return Ok(());
                }
            }
        }
        self.emit(query, tuple);
        Ok(())
    }

    /// §7 shared-operator execution: the shared operator once, then the PDT
    /// members inline and the deferred members' queues.
    fn run_shared(&mut self, group: usize, tuple: SimTuple) -> Result<(), EngineError> {
        // The group model is read through indices rather than cloned: its
        // member lists are heap-backed, and this runs once per shared tuple.
        let n_members = self.model.groups[group].members.len();
        let RunOp { gate, cost } = self.group_ops[group];
        self.charge(cost);
        // The shared operator is physically one operator: one outcome.
        if !gate.passes(&tuple) {
            self.dropped += n_members as u64;
            return Ok(());
        }
        for i in 0..self.model.groups[group].inline_members.len() {
            let pos = self.model.groups[group].inline_members[i];
            let query = self.model.groups[group].members[pos];
            let mut copy = tuple;
            copy.ideal_depart = tuple.arrival + self.ideal_times[query];
            if self.model.compiled[query].ops.len() > 1 {
                self.run_pipeline(query, (1, Port::Single), copy)?;
            } else {
                self.emit(query, copy);
            }
        }
        for i in 0..self.model.groups[group].deferred.len() {
            let (pos, unit) = self.model.groups[group].deferred[i];
            let query = self.model.groups[group].members[pos];
            let mut copy = tuple;
            copy.ideal_depart = tuple.arrival + self.ideal_times[query];
            self.admit(unit, copy);
        }
        Ok(())
    }

    /// Operator-level execution: one operator, one tuple.
    fn run_operator_step(
        &mut self,
        query: usize,
        op: usize,
        tuple: SimTuple,
    ) -> Result<(), EngineError> {
        let compiled_op = self.model.compiled[query].ops[op];
        if let CompiledOpKind::Join(_) = compiled_op.kind {
            return Err(EngineError::UnexpectedJoin { query, op });
        }
        let downstream = compiled_op.downstream;
        let RunOp { gate, cost } = self.ops[query][op];
        self.charge(cost);
        if !gate.passes(&tuple) {
            self.dropped += 1;
            return Ok(());
        }
        match downstream {
            Some((next, _)) => {
                let unit = self.op_units[query][next];
                self.admit(unit, tuple);
            }
            None => self.emit(query, tuple),
        }
        Ok(())
    }

    fn charge(&mut self, cost: Nanos) {
        self.advance_clock(self.clock + cost);
        self.busy_time += cost;
    }

    fn emit(&mut self, query: usize, t: SimTuple) {
        self.emitted += 1;
        let ideal = self.ideal_times[query];
        let response = self.clock.saturating_since(t.arrival);
        // H = 1 + (D_actual − D_ideal)/T (§5.1.2); for single-stream tuples
        // D_ideal = A + T, collapsing to Definition 2's R/T. Under cost
        // miscalibration an execution can beat the nominal ideal; slowdown
        // then clamps at 1 (the tuple was served ideally).
        let slowdown = exec::slowdown(self.clock, t.ideal_depart, ideal);
        self.qos.record(response, slowdown);
        self.classes
            .record_slot(self.class_slots[query], response, slowdown);
        self.histogram.record(slowdown);
        if M::ENABLED {
            if let Some(t) = self.telemetry.as_mut() {
                t.observe_emit(query, response, slowdown);
            }
        }
        if S::ENABLED {
            let unit = self.current_unit;
            self.trace(TraceEvent::Emit {
                at: self.clock,
                unit,
                query: query as u32,
                tuple: t.id.raw(),
                lineage: t.lineage.raw(),
                arrival: t.arrival,
                slowdown,
            });
        }
    }
}
