//! # hcq-runtime — the wall-clock multicore executor
//!
//! Every other crate in this workspace schedules *virtual* time; this one
//! runs the same query plans and the same [`hcq_core::Policy`]
//! implementations on real OS threads against real queue contention.
//!
//! ## Architecture
//!
//! ```text
//!  ingest thread                     worker threads (shards)
//!  ─────────────                     ───────────────────────
//!  pre-generated source arrivals        ┌─ shard 0: routes → Scheduler
//!  (same ids/keys as the            ──► │  inbox Ring (MPMC) of arrivals
//!   simulator's inject), one            ├─ shard 1: routes → Scheduler
//!   push per arrival and shard      ──► │  inbox Ring (MPMC)   ▲
//!   that owns a unit on its stream      └─ ...                 │ steal
//!                                          idle shards ────────┘
//! ```
//!
//! - **Shards**: each schedulable unit is pinned to the worker
//!   `unit % threads`. A shard owns a private [`Scheduler`] (its own policy
//!   instance over its own queues), so the scheduling hot path (enqueue
//!   callbacks, `select`, pop) is single-threaded per shard — the same
//!   step the simulator and the `Dsms` take, replicated per thread. The
//!   shard serves [`Scheduler::held`] before asking [`Scheduler::next`], so
//!   a choice that holds ([`hcq_core::Selection::holds`], the
//!   static-priority policies) is served without asking again until the
//!   `Scheduler` ends the hold: its unit empties or the shard admits
//!   anything. Debug builds ask anyway and assert the same answer.
//! - **Rings**: what crosses a thread boundary is the *source arrival*, once
//!   per shard owning a unit on its stream, through bounded lock-free MPMC
//!   rings ([`ring::Ring`]); the per-query fan-out happens on the owning
//!   shard. A full inbox backpressures ingest rather than growing unboundedly.
//!   The pre-generated schedule, which `run` owns for the whole thread
//!   scope, holds the only copy of each arrival: a ring slot and a queued
//!   copy are each an 8-byte reference to it.
//! - **Work stealing**: a shard with nothing queued locally pops an arrival
//!   from a sibling *inbox* (MPMC pop by a non-owner) and executes the
//!   victim's routes for it directly. Unary pipeline outcomes are pure
//!   functions of the tuple ([`hcq_engine::exec`]), so a stolen execution
//!   emits exactly what the owner would have emitted.
//! - **Admission**: a shard moves each copy of an inbox arrival into its unit
//!   queue through [`Scheduler::admit`] — the same function, hence the same
//!   `Unbounded` / `DropTail` / `QosShed` modes, as the simulator. The mode
//!   is fixed for the run: the closed-loop governor is the simulator's alone.
//! - **Progress**: copies injected (written by ingest alone) minus copies
//!   completed (one counter per shard, written by that shard alone) is the
//!   backlog and, once ingest is done, the exit test
//!   ([`progress::Progress`]).
//!
//! ## Determinism contract (and its limits)
//!
//! The arrival schedule (ids, keys, virtual arrival timestamps) is
//! pre-generated exactly as the simulator's `inject`, and
//! every drop/emit decision is a pure function of `(tuple, operator,
//! seed)`. Therefore, for workloads where nothing is shed, the **multiset
//! of emissions** — total and per-query emitted counts, and the
//! order-insensitive lineage fingerprint — is identical across thread
//! counts, policies, and runs, and identical to the simulator's
//! ([`differential`] proves it). What is *not* deterministic: emission
//! order, wall-clock QoS (response/slowdown), and which tuples are shed
//! once bounded queues actually overflow.

pub mod progress;
pub mod ring;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use hcq_common::{EngineError, HcqError, Nanos, Result, TupleId};
use hcq_core::{Policy, PolicyKind, UnitId};
use hcq_engine::exec::{self, UnaryGate};
use hcq_engine::model::EntryRoute;
use hcq_engine::queues::{Admission, Identified, Queued, Scheduler};
use hcq_engine::{AdmissionMode, OverloadConfig, SimModel, SimTuple, UnitDesc, UnitKind};
use hcq_metrics::{QosAccumulator, QosSummary};
use hcq_plan::{CompiledOpKind, GlobalPlan, StreamRates};
use hcq_streams::ArrivalSource;

use progress::Progress;
use ring::Ring;

/// One source arrival on a routed stream: a pre-generated schedule entry,
/// and the only copy of it there is. Rings carry `&RtArrival`, and so does
/// every unit queue it is fanned out into; [`SimTuple::base`] needs these
/// fields besides the unit's alone-path cost. `ring_ns` is the wall-clock
/// instant (nanoseconds since run start) the arrival entered the rings,
/// which anchors the response-time measurement: ingest stores it
/// (`Relaxed`) before the first push, and each ring slot's Release/Acquire
/// pair orders that store before any shard's (`Relaxed`) load.
#[derive(Debug)]
struct RtArrival {
    stream: u32,
    id: TupleId,
    arrival: Nanos,
    key: u64,
    ring_ns: AtomicU64,
}

impl Queued for &RtArrival {
    fn arrival(&self) -> Nanos {
        self.arrival
    }
}

impl Identified for &RtArrival {
    fn id(&self) -> TupleId {
        self.id
    }
}

/// Wall-clock executor configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker (shard) threads.
    pub threads: usize,
    /// Per-shard inbox ring capacity in source *arrivals* (rounded up to a
    /// power of two): ingest backpressure starts at `ring_capacity ×
    /// fan-out` tuple copies per shard.
    pub ring_capacity: usize,
    /// Admission ladder position and per-unit queue bounds, with the same
    /// semantics as the simulator's [`OverloadConfig`].
    pub overload: OverloadConfig,
    /// Master seed for attribute values and selectivity coins (must match
    /// the simulator's seed for differential runs).
    pub seed: u64,
    /// Total source arrivals to inject (summed over all streams).
    pub max_arrivals: u64,
}

impl RuntimeConfig {
    /// Single-threaded, unbounded-admission run of `max_arrivals` arrivals.
    pub fn new(max_arrivals: u64) -> Self {
        RuntimeConfig {
            threads: 1,
            ring_capacity: 1024,
            overload: OverloadConfig::default(),
            seed: 0,
            max_arrivals,
        }
    }

    /// Set the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bound every unit queue at `capacity` tuples under `mode`.
    pub fn with_admission(mut self, mode: AdmissionMode, capacity: usize) -> Self {
        self.overload.mode = mode;
        self.overload.capacity = capacity;
        self
    }

    /// Set the global pending-tuple watermark for QoS shedding.
    pub fn with_watermark(mut self, watermark: usize) -> Self {
        self.overload.watermark = watermark;
        self
    }
}

/// What a run produced, merged over all shards.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Worker threads the run used.
    pub threads: usize,
    /// Physical source arrivals injected.
    pub arrivals: u64,
    /// Tuple copies entering unit queues (arrivals × per-stream fan-out).
    pub injected: u64,
    /// Root emissions.
    pub emitted: u64,
    /// Tuples dropped by operator predicates.
    pub dropped: u64,
    /// Tuples shed by admission control.
    pub shed: u64,
    /// Tuples executed by a non-owner shard via work stealing.
    pub stolen: u64,
    /// Decisions the policies made (`select` calls) across all shards. A
    /// copy served under a held choice ([`hcq_core::Selection::holds`]) is
    /// not one, so static-priority runs count far fewer than copies.
    pub selections: u64,
    /// Emissions per query — ordering-insensitive, deterministic for
    /// no-shed workloads.
    pub per_query_emitted: Vec<u64>,
    /// Commutative (xor, sum) hash over emitted `(query, lineage)` pairs —
    /// equal iff the emission multisets are equal (up to hash collision).
    pub fingerprint: (u64, u64),
    /// Wall-clock QoS over emissions (response anchored at ring enqueue;
    /// nondeterministic — excluded from differential comparison).
    pub qos: QosSummary,
    /// Wall-clock duration of the run.
    pub wall_ns: u64,
    /// Completed tuple copies (emitted + dropped + shed) per wall second.
    pub tuples_per_sec: f64,
}

impl RuntimeReport {
    /// Tuple conservation: every injected copy was emitted, dropped, or
    /// shed.
    pub fn conserved(&self) -> bool {
        self.injected == self.emitted + self.dropped + self.shed
    }
}

/// What executing a copy in one unit needs, resolved once per run.
struct UnitPath {
    query: usize,
    /// Alone-path cost of the unit's entry route ([`SimTuple::base`]).
    alone: Nanos,
    /// The gate of every operator from the unit's entry to the root.
    gates: Vec<UnaryGate>,
}

/// State shared by the ingest thread and every shard.
struct Shared<'a> {
    model: &'a SimModel,
    inboxes: Vec<Ring<&'a RtArrival>>,
    /// `routes[shard][stream]`: the stream's entry routes into units the
    /// shard owns (`unit % threads == shard`), in model order.
    routes: Vec<Vec<Vec<EntryRoute>>>,
    /// `paths[unit]`: what executing a copy in the unit needs.
    paths: Vec<UnitPath>,
    progress: Progress,
    /// A worker returned an error or panicked; everyone winds down.
    failed: AtomicBool,
    cfg: &'a RuntimeConfig,
    start: Instant,
}

impl<'a> Shared<'a> {
    /// Route tables, unit paths, inboxes and progress counters for
    /// `cfg.threads` shards over `model`, a query-level unary workload; the
    /// clock starts now.
    fn new(model: &'a SimModel, cfg: &'a RuntimeConfig) -> Result<Self, EngineError> {
        let mut alone = vec![Nanos::ZERO; model.unit_count()];
        for route in model.routes.iter().flatten() {
            alone[route.unit as usize] = route.alone;
        }
        let path = |(unit, desc): (usize, &UnitDesc)| {
            let UnitKind::Leaf { query, leaf } = desc.kind else {
                return Err(EngineError::UnknownUnit {
                    unit: unit as UnitId,
                    unit_count: model.unit_count(),
                });
            };
            let cq = &model.compiled[query];
            let mut gates = Vec::new();
            let mut cursor = Some(cq.leaves[leaf.index()].entry);
            while let Some((op, _port)) = cursor {
                let CompiledOpKind::Unary(spec) = cq.ops[op].kind else {
                    return Err(EngineError::UnexpectedJoin { query, op });
                };
                gates.push(UnaryGate::new(cfg.seed, query, op, &spec));
                cursor = cq.ops[op].downstream;
            }
            Ok(UnitPath {
                query,
                alone: alone[unit],
                gates,
            })
        };
        let paths = model
            .units
            .iter()
            .enumerate()
            .map(path)
            .collect::<Result<_, _>>()?;
        let owned_by = |shard: usize| {
            let owned = |r: &&EntryRoute| r.unit as usize % cfg.threads == shard;
            let of_stream =
                |routes: &Vec<EntryRoute>| routes.iter().filter(owned).copied().collect();
            model.routes.iter().map(of_stream).collect()
        };
        Ok(Shared {
            model,
            inboxes: (0..cfg.threads)
                .map(|_| Ring::new(cfg.ring_capacity))
                .collect(),
            routes: (0..cfg.threads).map(owned_by).collect(),
            paths,
            progress: Progress::new(cfg.threads),
            failed: AtomicBool::new(false),
            cfg,
            start: Instant::now(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Raises `failed` on drop unless disarmed — on an `Err` return and on
/// unwind alike, so a panicking worker cannot leave ingest spinning on a full
/// ring or its siblings on the backlog.
struct FailGuard<'a>(Option<&'a AtomicBool>);

impl Drop for FailGuard<'_> {
    fn drop(&mut self) {
        if let Some(failed) = self.0 {
            failed.store(true, Ordering::Release);
        }
    }
}

/// Per-shard tallies, merged into the [`RuntimeReport`] after join.
#[derive(Default)]
struct ShardStats {
    emitted: u64,
    dropped: u64,
    shed: u64,
    stolen: u64,
    selections: u64,
    per_query: Vec<u64>,
    fingerprint: (u64, u64),
    qos: QosAccumulator,
}

/// One shard's scheduling state: a private policy instance over private
/// queues, in a [`Scheduler`]. Only this worker thread touches either.
struct Shard<'a> {
    id: usize,
    sched: Scheduler<&'a RtArrival>,
    /// Virtual watermark: max arrival admitted so far. Policies receive it
    /// as `now`, keeping priority arithmetic in the virtual-time domain the
    /// arrival timestamps live in (see DESIGN §14 for the caveat).
    watermark: Nanos,
    stats: ShardStats,
    shared: &'a Shared<'a>,
}

impl<'a> Shard<'a> {
    fn new(id: usize, policy: Box<dyn Policy>, shared: &'a Shared<'a>) -> Self {
        let mut sched = Scheduler::new(policy);
        sched.register(&shared.model.unit_statics());
        let stats = ShardStats {
            per_query: vec![0; shared.model.compiled.len()],
            ..ShardStats::default()
        };
        Shard {
            id,
            sched,
            watermark: Nanos::ZERO,
            stats,
            shared,
        }
    }

    /// The worker loop: publish progress, drain the inbox (fanning each
    /// arrival out to the owned units on its stream), schedule, execute;
    /// steal when idle; exit when ingest is done and the backlog is zero.
    fn run(mut self) -> Result<ShardStats, EngineError> {
        /// Copies admitted per turn before the policy gets a say.
        const DRAIN_BATCH: usize = 64;
        let shared = self.shared;
        let mut idle_spins: u32 = 0;
        let mut published = 0;
        loop {
            // One store per turn to a line only this shard writes; an idle
            // turn (the only one that can exit) has nothing unpublished.
            let done = self.stats.emitted + self.stats.dropped + self.stats.shed;
            if done != published {
                shared.progress.publish(self.id, done);
                published = done;
            }
            let mut drained = 0;
            while drained < DRAIN_BATCH {
                let Some(arrival) = shared.inboxes[self.id].try_pop() else {
                    break;
                };
                let routes = &shared.routes[self.id][arrival.stream as usize];
                for route in routes {
                    self.admit(route.unit, arrival);
                }
                drained += routes.len();
            }
            if self.sched.queues().pending() > 0 {
                idle_spins = 0;
                self.schedule_once()?;
                continue;
            }
            if drained > 0 {
                idle_spins = 0;
                continue;
            }
            if shared.cfg.threads > 1 && self.try_steal()? {
                idle_spins = 0;
                continue;
            }
            if shared.failed.load(Ordering::Relaxed) || shared.progress.drained() {
                break;
            }
            idle_spins = idle_spins.saturating_add(1);
            if idle_spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        self.stats.selections = self.sched.selections();
        Ok(self.stats)
    }

    /// Move one copy of an arrival into `unit`'s queue: [`Scheduler::admit`]
    /// decides under the configured mode and tells the policy.
    fn admit(&mut self, unit: UnitId, item: &'a RtArrival) {
        let now = self.watermark.max(item.arrival);
        match self.sched.admit(self.shared.cfg.overload, unit, item, now) {
            Admission::Queued => {}
            Admission::Rejected(_) => return self.stats.shed += 1,
            Admission::Displaced { .. } => self.stats.shed += 1,
        }
        self.watermark = now;
    }

    /// One scheduling point: a held unit on its own path (through `next`'s
    /// loop it read slower on `rt_saturate`), else each unit the policy names.
    fn schedule_once(&mut self) -> Result<(), EngineError> {
        let watermark = self.watermark;
        if let Some(unit) = self.sched.held(|| watermark) {
            let item = self.sched.pop(unit)?;
            return self.execute(unit, item);
        }
        for unit in self.sched.next(|| watermark)? {
            let item = self.sched.pop(unit)?;
            self.execute(unit, item)?;
        }
        Ok(())
    }

    /// Pop one arrival from a sibling inbox (MPMC pop by a non-owner) and
    /// execute the victim's share of it — one copy per route the victim owns
    /// on its stream — bypassing both policies.
    fn try_steal(&mut self) -> Result<bool, EngineError> {
        let shared = self.shared;
        // Start from a shard-dependent offset so thieves spread out.
        for off in 1..shared.cfg.threads {
            let victim = (self.id + off) % shared.cfg.threads;
            if let Some(arrival) = shared.inboxes[victim].try_pop() {
                for route in &shared.routes[victim][arrival.stream as usize] {
                    self.stats.stolen += 1;
                    self.execute(route.unit, arrival)?;
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Run one copy of an arrival through `unit`'s unary pipeline to the root.
    fn execute(&mut self, unit: UnitId, item: &RtArrival) -> Result<(), EngineError> {
        let shared = self.shared;
        let path = shared
            .paths
            .get(unit as usize)
            .ok_or(EngineError::UnknownUnit {
                unit,
                unit_count: shared.paths.len(),
            })?;
        let tuple = SimTuple::base(item.id, item.arrival, item.key, path.alone);
        if !path.gates.iter().all(|gate| gate.passes(&tuple)) {
            self.stats.dropped += 1;
            return Ok(());
        }
        // Root emission.
        let query = path.query;
        self.stats.emitted += 1;
        self.stats.per_query[query] += 1;
        self.stats.fingerprint = exec::fold_emission(self.stats.fingerprint, query, tuple.lineage);
        // Wall time since the ring, against an ideal departure one `T` after
        // it: §5.1.2 with the ring entry as the arrival instant.
        let ring_ns = item.ring_ns.load(Ordering::Relaxed);
        let response = Nanos::from_nanos(shared.now_ns().saturating_sub(ring_ns));
        let ideal = shared.model.stats[query].ideal_time;
        self.stats
            .qos
            .record(response, exec::slowdown(response, ideal, ideal));
        Ok(())
    }
}

/// Pre-generate the injection schedule, one entry per source arrival on a
/// routed stream: the same merge over sources, the same global arrival
/// ordinals and keys as the simulator's `inject` (`ring_ns` is stamped at
/// the push). Returns the arrivals drawn alongside.
fn build_schedule(
    model: &SimModel,
    mut sources: Vec<Box<dyn ArrivalSource>>,
    seed: u64,
    max_arrivals: u64,
) -> (u64, Vec<RtArrival>) {
    let mut heap = BinaryHeap::new();
    for (s, src) in sources.iter_mut().enumerate() {
        if let Some(t) = src.next_arrival() {
            heap.push(Reverse((t, s)));
        }
    }
    let mut out = Vec::new();
    let mut injected = 0u64;
    while injected < max_arrivals {
        let Some(Reverse((t, s))) = heap.pop() else {
            break;
        };
        if let Some(next) = sources[s].next_arrival() {
            heap.push(Reverse((next, s)));
        }
        let id = TupleId::new(injected);
        injected += 1;
        let key = exec::arrival_key(seed, id);
        if model.routes.get(s).is_some_and(|r| !r.is_empty()) {
            out.push(RtArrival {
                stream: s as u32,
                id,
                arrival: t,
                key,
                ring_ns: AtomicU64::new(0),
            });
        }
    }
    (injected, out)
}

/// A worker's panic payload as a typed error.
fn worker_panicked(payload: Box<dyn std::any::Any + Send>) -> HcqError {
    let msg = payload.downcast_ref::<String>().map(String::as_str);
    let msg = msg.or(payload.downcast_ref::<&str>().copied());
    HcqError::WorkerPanicked(msg.unwrap_or("(no message)").to_string())
}

/// Execute `plan` on `cfg.threads` OS threads under `kind` scheduling.
///
/// Supports the same workload family the differential harness certifies:
/// query-level scheduling of unary pipelines (no window joins, no shared
/// operators, no per-query deadlines, no fault injection). Anything else is
/// rejected up front.
pub fn run(
    plan: &GlobalPlan,
    rates: &StreamRates,
    sources: Vec<Box<dyn ArrivalSource>>,
    kind: PolicyKind,
    cfg: &RuntimeConfig,
) -> Result<RuntimeReport> {
    run_with(|| kind.build(), plan, rates, sources, cfg)
}

/// [`run`] with each shard's policy instance built by `build` on the shard's
/// own thread.
fn run_with(
    build: impl Fn() -> Box<dyn Policy> + Sync,
    plan: &GlobalPlan,
    rates: &StreamRates,
    sources: Vec<Box<dyn ArrivalSource>>,
    cfg: &RuntimeConfig,
) -> Result<RuntimeReport> {
    if cfg.threads == 0 {
        return Err(HcqError::config("runtime needs at least one thread"));
    }
    if cfg.overload.mode != AdmissionMode::Unbounded && cfg.overload.capacity == 0 {
        return Err(HcqError::config(
            "bounded admission needs a per-unit capacity of at least 1",
        ));
    }
    if plan.queries.iter().any(|q| q.deadline.is_some()) {
        return Err(HcqError::config(
            "the wall-clock runtime does not expire tuples past a query deadline yet",
        ));
    }
    let model = SimModel::build(
        plan,
        rates,
        hcq_engine::SchedulingLevel::Query,
        hcq_core::SharingStrategy::Pdt,
    )?;
    if !model.groups.is_empty() {
        return Err(HcqError::config(
            "the wall-clock runtime does not execute shared-operator groups yet",
        ));
    }
    if model
        .compiled
        .iter()
        .any(|cq| !cq.join_indices().is_empty())
    {
        return Err(HcqError::config(
            "the wall-clock runtime does not execute window joins yet",
        ));
    }
    for (s, routes) in model.routes.iter().enumerate() {
        if !routes.is_empty() && s >= sources.len() {
            return Err(HcqError::config(format!(
                "stream {s} is referenced by the plan but has no source"
            )));
        }
    }

    let (arrivals, schedule) = build_schedule(&model, sources, cfg.seed, cfg.max_arrivals);
    let shared = Shared::new(&model, cfg)?;

    let mut shard_results = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|i| {
                let (shared, build) = (&shared, &build);
                scope.spawn(move || {
                    let mut guard = FailGuard(Some(&shared.failed));
                    let result = Shard::new(i, build(), shared).run();
                    if result.is_ok() {
                        guard.0 = None;
                    }
                    result
                })
            })
            .collect();

        // Ingest: one clock read per arrival, stored before its first push
        // (the push's Release publishes it), one push per shard owning a
        // unit on its stream.
        let mut injected = 0u64;
        'ingest: for arrival in &schedule {
            if shared.failed.load(Ordering::Relaxed) {
                break;
            }
            arrival.ring_ns.store(shared.now_ns(), Ordering::Relaxed);
            for (inbox, routes) in shared.inboxes.iter().zip(&shared.routes) {
                let copies = routes[arrival.stream as usize].len() as u64;
                if copies == 0 {
                    continue;
                }
                injected += copies;
                shared.progress.set_injected(injected);
                while inbox.try_push(arrival).is_err() {
                    if shared.failed.load(Ordering::Relaxed) {
                        // Never pushed: take its copies back out.
                        shared.progress.set_injected(injected - copies);
                        break 'ingest;
                    }
                    std::thread::yield_now();
                }
            }
        }
        shared.progress.finish_ingest();
        shard_results = handles.into_iter().map(|h| h.join()).collect();
    });

    let wall_ns = shared.now_ns().max(1);
    let mut emitted = 0u64;
    let mut dropped = 0u64;
    let mut shed = 0u64;
    let mut stolen = 0u64;
    let mut selections = 0u64;
    let mut per_query = vec![0u64; model.compiled.len()];
    let mut fingerprint = (0u64, 0u64);
    let mut qos = QosAccumulator::new();
    for r in shard_results {
        let s = r.map_err(worker_panicked)?.map_err(HcqError::Engine)?;
        emitted += s.emitted;
        dropped += s.dropped;
        shed += s.shed;
        stolen += s.stolen;
        selections += s.selections;
        for (acc, q) in per_query.iter_mut().zip(&s.per_query) {
            *acc += q;
        }
        fingerprint.0 ^= s.fingerprint.0;
        fingerprint.1 = fingerprint.1.wrapping_add(s.fingerprint.1);
        qos.merge(&s.qos);
    }

    let completed = emitted + dropped + shed;

    Ok(RuntimeReport {
        threads: cfg.threads,
        arrivals,
        injected: shared.progress.injected(),
        emitted,
        dropped,
        shed,
        stolen,
        selections,
        per_query_emitted: per_query,
        fingerprint,
        qos: qos.summary(),
        wall_ns,
        tuples_per_sec: completed as f64 / (wall_ns as f64 / 1e9),
    })
}

pub mod differential {
    //! The runtime ⇄ simulator differential harness.
    //!
    //! For a deterministic no-shed workload the two executors must agree
    //! exactly on the emission multiset; this module runs both and compares
    //! the ordering-insensitive aggregates.

    use super::*;
    use hcq_engine::{simulate_traced, SimConfig, VecTrace};

    /// The ordering-insensitive aggregates both executors must agree on.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Aggregates {
        /// Root emissions.
        pub emitted: u64,
        /// Predicate drops.
        pub dropped: u64,
        /// Admission sheds.
        pub shed: u64,
        /// Emissions per query.
        pub per_query_emitted: Vec<u64>,
        /// Commutative `(xor, sum)` emission-multiset hash.
        pub fingerprint: (u64, u64),
    }

    /// Run the simulator on the identical workload and reduce its trace to
    /// [`Aggregates`].
    pub fn simulator_aggregates(
        plan: &GlobalPlan,
        rates: &StreamRates,
        sources: Vec<Box<dyn ArrivalSource>>,
        kind: PolicyKind,
        cfg: &SimConfig,
    ) -> Result<Aggregates> {
        let queries = plan.queries.len();
        let (report, trace) = simulate_traced(
            plan,
            rates,
            sources,
            kind.build(),
            cfg.clone(),
            VecTrace::new(),
        )?;
        let mut per_query = vec![0u64; queries];
        let mut fingerprint = (0u64, 0u64);
        for ev in &trace.events {
            if let hcq_engine::TraceEvent::Emit { query, lineage, .. } = ev {
                per_query[*query as usize] += 1;
                fingerprint =
                    exec::fold_emission(fingerprint, *query as usize, TupleId::new(*lineage));
            }
        }
        Ok(Aggregates {
            emitted: report.emitted,
            dropped: report.dropped,
            shed: report.shed,
            per_query_emitted: per_query,
            fingerprint,
        })
    }

    /// Reduce a runtime report to the comparable aggregates.
    pub fn runtime_aggregates(report: &RuntimeReport) -> Aggregates {
        Aggregates {
            emitted: report.emitted,
            dropped: report.dropped,
            shed: report.shed,
            per_query_emitted: report.per_query_emitted.clone(),
            fingerprint: report.fingerprint,
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use hcq_check::ContractAudit;
    use hcq_common::Nanos;
    use hcq_core::QueueView;
    use hcq_plan::QueryBuilder;
    use hcq_streams::PoissonSource;
    use std::sync::Arc;

    fn small_plan() -> GlobalPlan {
        plan_of(4)
    }

    /// `queries` unary queries on stream 0, costs and selectivities distinct.
    fn plan_of(queries: u64) -> GlobalPlan {
        let mut plan = GlobalPlan::default();
        for q in 0..queries {
            plan.add_query(
                QueryBuilder::on(hcq_common::StreamId::new(0))
                    .select(Nanos::from_micros(50 + 10 * q), 0.2 + 0.15 * (q % 4) as f64)
                    .project(Nanos::from_micros(20))
                    .build()
                    .unwrap(),
            );
        }
        plan
    }

    fn sources() -> Vec<Box<dyn ArrivalSource>> {
        vec![Box::new(PoissonSource::new(Nanos::from_millis(1), 9))]
    }

    #[test]
    fn runtime_conserves_and_reports() {
        let report = run(
            &small_plan(),
            &StreamRates::none(),
            sources(),
            PolicyKind::Hnr,
            &RuntimeConfig::new(300).with_seed(3),
        )
        .unwrap();
        assert_eq!(report.arrivals, 300);
        assert_eq!(report.injected, 1200, "4 queries on one stream fan out 4x");
        assert!(report.conserved(), "emitted+dropped+shed == injected");
        assert_eq!(report.shed, 0, "unbounded admission sheds nothing");
        assert!(report.emitted > 0);
        assert!(report.tuples_per_sec > 0.0);
    }

    #[test]
    fn emission_multiset_is_thread_count_invariant() {
        let base = run(
            &small_plan(),
            &StreamRates::none(),
            sources(),
            PolicyKind::Bsd,
            &RuntimeConfig::new(400).with_seed(3),
        )
        .unwrap();
        for threads in [2, 4] {
            let multi = run(
                &small_plan(),
                &StreamRates::none(),
                sources(),
                PolicyKind::Bsd,
                &RuntimeConfig::new(400).with_seed(3).with_threads(threads),
            )
            .unwrap();
            assert_eq!(multi.emitted, base.emitted);
            assert_eq!(multi.per_query_emitted, base.per_query_emitted);
            assert_eq!(multi.fingerprint, base.fingerprint);
            assert!(multi.conserved());
        }
    }

    #[test]
    fn droptail_sheds_and_conserves_under_tight_capacity() {
        let report = run(
            &small_plan(),
            &StreamRates::none(),
            sources(),
            PolicyKind::Fcfs,
            &RuntimeConfig::new(500)
                .with_seed(3)
                .with_threads(2)
                .with_admission(AdmissionMode::DropTail, 1),
        )
        .unwrap();
        assert!(report.conserved());
    }

    /// Delegates to FCFS until its `select` budget runs out, then panics.
    struct PanicAfter {
        inner: Box<dyn Policy>,
        selects_left: u32,
    }

    impl Policy for PanicAfter {
        fn name(&self) -> &'static str {
            "panic-after"
        }
        fn on_register(&mut self, units: &[hcq_core::UnitStatics]) {
            self.inner.on_register(units);
        }
        fn on_enqueue(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos, now: Nanos) {
            self.inner.on_enqueue(unit, tuple, arrival, now);
        }
        fn select(
            &mut self,
            queues: &dyn hcq_core::QueueView,
            now: Nanos,
        ) -> Option<hcq_core::Selection> {
            assert!(self.selects_left > 0, "select budget exhausted");
            self.selects_left -= 1;
            self.inner.select(queues, now)
        }
    }

    #[test]
    fn panicking_worker_fails_the_run_instead_of_hanging_it() {
        for threads in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            let runner = std::thread::spawn(move || {
                let build = || -> Box<dyn Policy> {
                    Box::new(PanicAfter {
                        inner: PolicyKind::Fcfs.build(),
                        selects_left: 50,
                    })
                };
                // A ring far smaller than the run: ingest is parked on a
                // full inbox when the worker dies.
                let mut cfg = RuntimeConfig::new(20_000)
                    .with_seed(3)
                    .with_threads(threads);
                cfg.ring_capacity = 4;
                let result = run_with(build, &small_plan(), &StreamRates::none(), sources(), &cfg);
                tx.send(result.map(|r| r.emitted)).ok();
            });
            let result = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{threads} thread(s): run_with hung on a dead worker"));
            runner.join().expect("the run returned");
            let err = result.expect_err("a panicking worker must fail the run");
            assert!(
                matches!(&err, HcqError::WorkerPanicked(m) if m.contains("select budget exhausted")),
                "{threads} thread(s): {err}"
            );
            assert!(err.to_string().starts_with("runtime worker panicked: "));
        }
    }

    #[test]
    fn shards_schedule_by_their_policy() {
        let policies = [
            PolicyKind::Fcfs,
            PolicyKind::RoundRobin,
            PolicyKind::Hnr,
            PolicyKind::Lsf,
            PolicyKind::Bsd,
        ];
        let modes = [
            AdmissionMode::Unbounded,
            AdmissionMode::DropTail,
            AdmissionMode::QosShed,
        ];
        let sheds = Arc::new(AtomicU64::new(0));
        for kind in policies {
            for mode in modes {
                for threads in [1, 2, 4] {
                    // Stolen copies never enter a queue, so stealing
                    // leaves the audit's shadow alone.
                    let build = || -> Box<dyn Policy> {
                        Box::new(ContractAudit::new(kind.build(), Arc::clone(&sheds)))
                    };
                    // Tight bounds, so both bounded rungs shed.
                    let cfg = RuntimeConfig::new(2_000)
                        .with_seed(3)
                        .with_threads(threads)
                        .with_admission(mode, 2)
                        .with_watermark(4);
                    let report =
                        run_with(build, &plan_of(8), &StreamRates::none(), sources(), &cfg)
                            .unwrap_or_else(|e| panic!("{kind:?}/{mode:?}/{threads}t: {e}"));
                    assert!(report.conserved(), "{kind:?}/{mode:?}/{threads}t conserves");
                    assert_eq!(report.injected, 16_000, "{kind:?}/{mode:?}/{threads}t");
                }
            }
        }
        assert!(
            sheds.load(Ordering::Relaxed) > 0,
            "QosShed displaced no tail"
        );
    }

    /// A shard asks its policy once per copy, except while a choice holds:
    /// the static-priority policies serve a backlog in runs, the others
    /// decide every copy. Holding changes no outcome: every run conserves
    /// and emits what the simulator does.
    #[test]
    fn one_decision_per_copy_except_where_a_choice_holds() {
        let arrivals = 20_000;
        for kind in PolicyKind::ALL {
            let cfg = RuntimeConfig::new(arrivals).with_seed(3);
            let report = run(&small_plan(), &StreamRates::none(), sources(), kind, &cfg).unwrap();
            assert!(report.conserved(), "{kind:?} conserves");
            let served = report.emitted + report.dropped;
            if matches!(kind, PolicyKind::Srpt | PolicyKind::Hr | PolicyKind::Hnr) {
                assert!(
                    report.selections < served / 2,
                    "{kind:?}: {} decisions for {served} copies",
                    report.selections
                );
            } else {
                assert_eq!(report.selections, served, "{kind:?}");
            }
            let sim_cfg = hcq_engine::SimConfig::new(arrivals).with_seed(3);
            let sim = differential::simulator_aggregates(
                &small_plan(),
                &StreamRates::none(),
                sources(),
                kind,
                &sim_cfg,
            )
            .unwrap();
            assert_eq!(differential::runtime_aggregates(&report), sim, "{kind:?}");
        }
    }

    /// Every admission ends a hold, whichever unit it feeds: once a
    /// higher-ranked unit has work, a shard still serving its held unit
    /// would run the wrong one (debug builds' oracle fails it first).
    #[test]
    fn an_admission_ends_the_hold() {
        let arrivals: Vec<RtArrival> = (0..3)
            .map(|i| RtArrival {
                stream: 0,
                id: TupleId::new(i),
                arrival: Nanos::from_micros(i),
                key: 0,
                ring_ns: AtomicU64::new(0),
            })
            .collect();
        let model = SimModel::build(
            &plan_of(2),
            &StreamRates::none(),
            hcq_engine::SchedulingLevel::Query,
            hcq_core::SharingStrategy::Pdt,
        )
        .unwrap();
        let cfg = RuntimeConfig::new(0);
        let shared = Shared::new(&model, &cfg).unwrap();
        let mut shard = Shard::new(0, PolicyKind::Hnr.build(), &shared);
        let statics = model.unit_statics();
        let (top, low) = if statics[0].hnr_priority() > statics[1].hnr_priority() {
            (0, 1)
        } else {
            (1, 0)
        };
        shard.admit(low, &arrivals[0]);
        shard.admit(low, &arrivals[1]);
        shard.schedule_once().unwrap();
        assert_eq!(
            shard.sched.held(|| Nanos::ZERO),
            Some(low),
            "HNR's only ready unit holds"
        );
        shard.admit(top, &arrivals[2]);
        assert_eq!(shard.sched.held(|| Nanos::ZERO), None);
        shard.schedule_once().unwrap();
        let queues = shard.sched.queues();
        assert_eq!((queues.len(top), queues.len(low)), (0, 1));
        assert_eq!(shard.sched.selections(), 2);
    }

    #[test]
    fn rejects_unsupported_workloads() {
        let mut plan = GlobalPlan::default();
        plan.add_query(
            QueryBuilder::on(hcq_common::StreamId::new(0))
                .select(Nanos::from_micros(50), 0.5)
                .build()
                .unwrap(),
        );
        // Zero threads.
        assert!(run(
            &plan,
            &StreamRates::none(),
            sources(),
            PolicyKind::Fcfs,
            &RuntimeConfig::new(10).with_threads(0),
        )
        .is_err());
        // Bounded admission with no capacity.
        assert!(run(
            &plan,
            &StreamRates::none(),
            sources(),
            PolicyKind::Fcfs,
            &RuntimeConfig::new(10).with_admission(AdmissionMode::DropTail, 0),
        )
        .is_err());
        // A per-query deadline, which only the simulator enforces.
        let mut late = GlobalPlan::default();
        late.add_query(
            QueryBuilder::on(hcq_common::StreamId::new(0))
                .select(Nanos::from_micros(50), 0.5)
                .with_deadline(Nanos::from_millis(1))
                .build()
                .unwrap(),
        );
        let err = run(
            &late,
            &StreamRates::none(),
            sources(),
            PolicyKind::Fcfs,
            &RuntimeConfig::new(10),
        )
        .unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");
    }
}
