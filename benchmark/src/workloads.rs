//! The six workloads: what one slice of each runs, measures and checks.
//!
//! A slice is one child process: set-up, an untimed 5 % warm-up, the timed
//! part, then the correctness checks. Slices of one run differ in their
//! input index; the run's metric is the median over its slices.

use std::time::Instant;

use hcq_aqsios::{Dsms, DsmsConfig, ManualClock, RuntimePolicy};
use hcq_common::{Nanos, StreamId};
use hcq_core::{Policy, PolicyKind, SharingStrategy};
use hcq_engine::{simulate, SchedulingLevel, SimConfig, SimModel, SimReport};
use hcq_metrics::QosSummary;
use hcq_runtime::{differential, RuntimeConfig};
use hcq_streams::ArrivalSource;

use crate::inputs::{self, DsmsQuery, SimInputs};
use crate::isolated;
use crate::spans::{timed, timer_pair_ns, Boundary, Shared, Span};
use crate::stats::LatencyHistogram;
use crate::wrappers::{BenchClock, TimedPolicy, TimedSource};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    SimHnr,
    SimBsd,
    SimJoin,
    RtSaturate,
    DsmsDrain,
    DsmsOpen,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SimHnr,
        Workload::SimBsd,
        Workload::SimJoin,
        Workload::RtSaturate,
        Workload::DsmsDrain,
        Workload::DsmsOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimHnr => "sim_hnr",
            Workload::SimBsd => "sim_bsd",
            Workload::SimJoin => "sim_join",
            Workload::RtSaturate => "rt_saturate",
            Workload::DsmsDrain => "dsms_drain",
            Workload::DsmsOpen => "dsms_open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark — the `why` of `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimHnr => {
                "simulate, 500 unary queries at 0.9 load, HNR: static-priority selection and the engine loop share the time"
            }
            Workload::SimBsd => {
                "same plan, arrivals and coins as sim_hnr under BSD: the O(q) scheduling point of paper section 6 dominates"
            }
            Workload::SimJoin => {
                "simulate, 100 two-stream window joins, HNR: stateful and emission-heavy, hcq-core is a few percent"
            }
            Workload::RtSaturate => {
                "hcq_runtime::run, 60 queries, one worker plus ingest thread: the only cross-thread path, at saturation"
            }
            Workload::DsmsDrain => {
                "Dsms closed loop on real records, 32 queries: capacity of the third dequeue-run-emit loop, one thread"
            }
            Workload::DsmsOpen => {
                "Dsms open loop, Poisson 50000 records/s on a schedule: latency from due time, as an embedder sees it"
            }
        }
    }

    /// Source arrivals (records for the `Dsms`) in one timed slice.
    pub fn arrivals(self, quick: bool) -> u64 {
        let full = match self {
            Workload::SimHnr => 4_000,
            Workload::SimBsd => 800,
            Workload::SimJoin => 1_000,
            Workload::RtSaturate => 20_000,
            Workload::DsmsDrain => 100_000,
            Workload::DsmsOpen => 50_000,
        };
        if quick {
            full / 20
        } else {
            full
        }
    }

    /// Registered queries.
    pub fn queries(self) -> usize {
        match self {
            Workload::SimHnr | Workload::SimBsd => 500,
            Workload::SimJoin => 100,
            Workload::RtSaturate => 60,
            Workload::DsmsDrain | Workload::DsmsOpen => inputs::DSMS_QUERIES,
        }
    }

    /// Wall seconds budgeted per slice child (set-up, warm-up, timed part and
    /// checks) when `--seconds` is turned into a slice count; a run does the
    /// same work on every host and with every version of the program. All but
    /// one are what a child took on the host the benchmark was sized on;
    /// `rt_saturate`, whose children take 0.65 s, is budgeted low on purpose:
    /// it is the most host-sensitive workload and gets half as many slices
    /// again.
    pub fn nominal_slice_s(self) -> f64 {
        match self {
            Workload::SimHnr => 0.45,
            Workload::SimBsd => 0.50,
            Workload::SimJoin => 0.55,
            Workload::RtSaturate => 0.45,
            Workload::DsmsDrain => 0.65,
            Workload::DsmsOpen => 1.05,
        }
    }

    /// Slices of a full set (`run.sh` without `--seconds`).
    pub fn default_slices(self) -> usize {
        match self {
            Workload::SimBsd | Workload::SimJoin | Workload::RtSaturate => 25,
            _ => 15,
        }
    }

    fn policy(self) -> PolicyKind {
        match self {
            Workload::SimBsd => PolicyKind::Bsd,
            _ => PolicyKind::Hnr,
        }
    }
}

/// Open-loop send rate of `dsms_open`, records per second.
pub const OPEN_RATE: f64 = 50_000.0;
/// Closed-loop batch of `dsms_drain`: records pushed before each drain.
const DRAIN_BATCH: usize = 16;
/// Service time per scheduling decision in the `Dsms` virtual-time replay:
/// `OPEN_RATE` × 32 copies at 35 % utilization.
const REPLAY_DECISION: Nanos = Nanos::from_nanos(219);
/// Records replayed in virtual time for the `Dsms` QoS.
const REPLAY_RECORDS: u64 = 5_000;
/// Arrivals of the virtual-time reference run behind `rt_saturate`'s QoS
/// and of its differential check.
const RT_REFERENCE_ARRIVALS: u64 = 5_000;
/// Backlog rule of `dsms_open`: the drain tail after the last due record
/// and the share of the slice's copies still pending at that moment. A slice
/// over either limit fell behind; the run fails when most of its slices did.
const MAX_DRAIN_TAIL_MS: f64 = 100.0;
const MAX_PENDING_SHARE: f64 = 0.10;

/// What one slice measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SliceOut {
    pub setup_s: f64,
    /// Wall seconds of the timed part.
    pub timed_s: f64,
    /// Copies that reached a final outcome (emitted, dropped by a
    /// predicate, shed) in the timed part.
    pub copies: u64,
    /// Copies the slice put in.
    pub attempted: u64,
    /// Copies shed, expired or missing from the conservation identity; all
    /// of `attempted` when a correctness check failed.
    pub failed: u64,
    pub latency_p50_us: f64,
    pub avg_slowdown: f64,
    pub l2_slowdown: f64,
    pub peak_rss_mb: f64,
    /// Failed correctness checks, in words.
    pub errors: Vec<String>,
    /// `dsms_open`: how far the slice fell behind its schedule, if it broke
    /// the backlog rule. One host stall does that to one slice, a `Dsms` too
    /// slow for the rate to most of them, so the verdict is the run's
    /// (`Runs::backlog_grows`), not the slice's.
    pub behind: Option<String>,
    /// Values that must repeat bit for bit on the same inputs.
    pub exact: Vec<(String, f64)>,
    /// Per-layer samples (diagnostics of an untraced slice, everything of a
    /// traced one).
    pub layers: Vec<(String, Vec<f64>)>,
    pub spans: Vec<Span>,
}

impl SliceOut {
    pub fn throughput_tps(&self) -> f64 {
        self.copies as f64 / self.timed_s
    }

    pub fn ns_per_copy(&self) -> f64 {
        self.timed_s * 1e9 / self.copies.max(1) as f64
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), vec![value]));
    }

    /// Record the repetitions of an isolated cell; returns their median.
    fn layer_reps(&mut self, name: &str, reps: Vec<f64>) -> f64 {
        let median = isolated::median(&reps);
        self.layers.push((name.to_string(), reps));
        median
    }

    fn exact(&mut self, name: &str, value: f64) {
        self.exact.push((name.to_string(), value));
    }

    /// A failed check fails every copy of the slice.
    fn seal(mut self) -> Self {
        if !self.errors.is_empty() {
            self.failed = self.attempted;
        }
        self
    }
}

/// Options of one slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceOpts {
    pub traced: bool,
    pub quick: bool,
}

/// Run slice `input` of `workload`. The once-per-run checks (a second
/// policy, the runtime⇄simulator differential) ride on the untraced slice of
/// input 0.
pub fn run_slice(workload: Workload, seed: u64, input: u64, opts: SliceOpts) -> SliceOut {
    let slice_seed = inputs::slice_seed(seed, input);
    let once_per_run = input == 0 && !opts.traced;
    match workload {
        Workload::SimHnr | Workload::SimBsd | Workload::SimJoin => {
            sim_slice(workload, slice_seed, once_per_run, opts)
        }
        Workload::RtSaturate => rt_slice(slice_seed, once_per_run, opts),
        Workload::DsmsDrain | Workload::DsmsOpen => dsms_slice(workload, slice_seed, opts),
    }
    .seal()
}

/// Set-ups per slice: set-up takes well under a millisecond for most
/// workloads, so each slice sets up several times and reports the median.
const SETUP_REPS: usize = 5;

/// Run `setup` [`SETUP_REPS`] times; the last result and the median seconds.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(setup());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition"),
        isolated::median(&seconds),
    )
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------- simulate

/// Harness-side timers of a traced `simulate` call.
struct SimTrace {
    epoch: Instant,
    enqueue: Shared,
    select: Shared,
    next: Shared,
}

impl SimTrace {
    fn new() -> Self {
        let epoch = Instant::now();
        SimTrace {
            epoch,
            enqueue: Boundary::shared("Policy::on_enqueue", "hcq-core", epoch),
            select: Boundary::shared("Policy::select", "hcq-core", epoch),
            next: Boundary::shared("ArrivalSource::next_arrival", "hcq-streams", epoch),
        }
    }

    fn policy(&self, kind: PolicyKind) -> Box<dyn Policy> {
        Box::new(TimedPolicy {
            inner: kind.build(),
            enqueue: self.enqueue.clone(),
            select: self.select.clone(),
        })
    }

    fn sources(&self, inputs: &SimInputs) -> Vec<Box<dyn ArrivalSource>> {
        inputs
            .sources()
            .into_iter()
            .map(|inner| {
                Box::new(TimedSource {
                    inner,
                    next: self.next.clone(),
                }) as Box<dyn ArrivalSource>
            })
            .collect()
    }
}

fn sim_run(
    inputs: &SimInputs,
    kind: PolicyKind,
    arrivals: u64,
    trace: Option<&SimTrace>,
) -> SimReport {
    let (policy, sources) = match trace {
        Some(t) => (t.policy(kind), t.sources(inputs)),
        None => (kind.build(), inputs.sources()),
    };
    simulate(
        &inputs.workload.plan,
        &inputs.workload.rates,
        sources,
        policy,
        SimConfig::new(arrivals).with_seed(inputs.coin_seed),
    )
    .expect("the generated workload simulates")
}

fn build_model(inputs: &SimInputs) -> SimModel {
    SimModel::build(
        &inputs.workload.plan,
        &inputs.workload.rates,
        SchedulingLevel::Query,
        SharingStrategy::Pdt,
    )
    .expect("the generated plan compiles")
}

fn sim_slice(workload: Workload, slice_seed: u64, once_per_run: bool, opts: SliceOpts) -> SliceOut {
    let arrivals = workload.arrivals(opts.quick);
    let queries = workload.queries();
    let join = workload == Workload::SimJoin;
    let kind = workload.policy();

    let ((inputs, model), setup_s) = timed_setup(|| {
        let inputs = if join {
            SimInputs::multi_stream(slice_seed, queries)
        } else {
            SimInputs::single_stream(slice_seed, queries)
        };
        let model = build_model(&inputs);
        (inputs, model)
    });

    sim_run(&inputs, kind, arrivals / 20, None);

    let trace = opts.traced.then(SimTrace::new);
    let t1 = Instant::now();
    let report = sim_run(&inputs, kind, arrivals, trace.as_ref());
    let timed_s = t1.elapsed().as_secs_f64();

    let outcomes = report.emitted + report.dropped + report.shed;
    let accounted = outcomes + report.expired + report.pending_end as u64;
    // One probe emits many composites, so a join has no fixed copy count to
    // conserve against: there the identity is an empty system at the end.
    let attempted = if join {
        accounted
    } else {
        arrivals * queries as u64
    };
    let mut out = SliceOut {
        setup_s,
        timed_s,
        copies: outcomes,
        attempted,
        failed: report.shed + report.expired + attempted.abs_diff(accounted),
        // A batch executor has no per-tuple wall latency: the wall time one
        // source arrival takes with all its copies.
        latency_p50_us: timed_s * 1e6 / arrivals as f64,
        avg_slowdown: report.qos.avg_slowdown,
        l2_slowdown: report.qos.l2_slowdown,
        peak_rss_mb: peak_rss_mb(),
        ..SliceOut::default()
    };
    out.check(report.arrivals == arrivals, || {
        format!("injected {} of {arrivals} arrivals", report.arrivals)
    });
    out.check(attempted == accounted, || {
        format!("conservation: {attempted} copies in, {accounted} accounted for")
    });
    out.check(report.pending_end == 0, || {
        format!("{} copies still queued after the drain", report.pending_end)
    });
    out.check(report.qos.count == report.emitted, || {
        "QoS recorded for a different number of tuples than were emitted".to_string()
    });
    let reference = (!join).then(|| isolated::unary_reference(&model, inputs.coin_seed, arrivals));
    if let Some(r) = &reference {
        out.check(
            (r.emitted, r.dropped) == (report.emitted, report.dropped),
            || {
                format!(
                    "emitted/dropped {}/{} but the operator coins give {}/{}",
                    report.emitted, report.dropped, r.emitted, r.dropped
                )
            },
        );
    }
    if once_per_run {
        // Policy-independent counts only: a later change to a scheduling
        // decision must not trip these.
        let other = match workload {
            Workload::SimBsd => Some(PolicyKind::Hnr),
            Workload::SimJoin => Some(PolicyKind::Fcfs),
            _ => None,
        };
        if let Some(other) = other {
            let r = sim_run(&inputs, other, arrivals, None);
            out.check(r.emitted == report.emitted, || {
                format!(
                    "{} emitted {} but {} emitted {}",
                    kind.name(),
                    report.emitted,
                    other.name(),
                    r.emitted
                )
            });
        }
    }

    out.exact("emitted", report.emitted as f64);
    out.exact("dropped", report.dropped as f64);
    out.exact("sched_points", report.sched_points as f64);
    out.exact("avg_slowdown", report.qos.avg_slowdown);
    out.exact("l2_slowdown", report.qos.l2_slowdown);
    out.exact("peak_pending", report.peak_pending as f64);
    out.exact("avg_pending", report.avg_pending);
    out.exact("evals_per_point", report.evals_per_sched_point());
    out.exact("ops_per_point", report.ops_per_sched_point());

    if let Some(trace) = trace {
        let copies = outcomes as f64;
        let pair = timer_pair_ns();
        let (enq, sel, next) = (
            trace.enqueue.borrow(),
            trace.select.borrow(),
            trace.next.borrow(),
        );
        out.layer("core.enqueue_ns", enq.ns_per_call(pair));
        out.layer("core.select_ns", sel.ns_per_call(pair));
        out.layer("core.evals_per_point", report.evals_per_sched_point());
        out.layer("core.ops_per_point", report.ops_per_sched_point());
        out.layer("streams.poisson_next_ns", next.ns_per_call(pair));
        out.layer(
            "engine.sched_points_per_copy",
            report.sched_points as f64 / copies,
        );
        out.layer("engine.avg_pending", report.avg_pending);
        out.layer("engine.peak_pending", report.peak_pending as f64);
        out.layer(
            "budget.core",
            (enq.busy_ns_net(pair) + sel.busy_ns_net(pair)) / copies,
        );
        out.layer("budget.streams", next.busy_ns_net(pair) / copies);
        drop((enq, sel, next));

        // What has no trait boundary: timed in isolation on this slice's
        // own plan, multiplied by the operation counts of the run above.
        let queue_pair = out.layer_reps(
            "engine.queues_push_pop_ns",
            isolated::queues_push_pop_ns(model.unit_count()),
        );
        let key = out.layer_reps(
            "engine.exec_arrival_key_ns",
            isolated::arrival_key_ns(inputs.coin_seed),
        );
        let (qos, hist) = isolated::qos_record_ns();
        let qos = out.layer_reps("metrics.qos_record_ns", qos);
        let hist = out.layer_reps("metrics.histogram_record_ns", hist);
        let coin_ns = out.layer_reps(
            "engine.exec_unary_ns",
            isolated::unary_walk_ns(&model, inputs.coin_seed, arrivals.min(1_000)),
        );
        let queued = (arrivals * queries as u64) as f64;
        let coin_calls = match &reference {
            Some(r) => r.coin_calls as f64,
            // A join plan: every queued copy flips its leaf select's coin,
            // every emitted composite its project's.
            None => queued + report.emitted as f64,
        };
        if join {
            let j = isolated::join_ns(&model);
            let insert = out.layer_reps("join.insert_ns", j.insert_ns);
            let probe = out.layer_reps("join.probe_ns", j.probe_ns);
            let expire = out.layer_reps("join.expire_ns", j.expire_ns);
            out.layer("join.matches_per_probe", j.matches_per_probe);
            // Copies that survive their leaf select reach the join; the
            // report does not count them, so this is their expectation.
            let probes = queued * j.mean_select_selectivity;
            out.layer("budget.join", probes * (insert + probe + expire) / copies);
        }
        out.layer(
            "budget.engine",
            (queued * queue_pair + coin_calls * coin_ns + arrivals as f64 * key) / copies,
        );
        out.layer(
            "budget.metrics",
            report.emitted as f64 * (qos + hist) / copies,
        );
        for b in [&trace.enqueue, &trace.select, &trace.next] {
            out.spans.extend(b.borrow_mut().take_spans());
        }
        out.spans.push(slice_span(trace.epoch, t1, timed_s));
    }
    out
}

/// The span every other span of a slice hangs under: the timed part.
fn slice_span(epoch: Instant, start: Instant, timed_s: f64) -> Span {
    let first = start.saturating_duration_since(epoch).as_nanos() as u64;
    let busy = (timed_s * 1e9) as u64;
    Span {
        name: "slice",
        layer: "harness",
        first_start_ns: first,
        last_end_ns: first + busy,
        busy_ns: busy,
        count: 1,
    }
}

// ------------------------------------------------------------- hcq_runtime

fn rt_slice(slice_seed: u64, once_per_run: bool, opts: SliceOpts) -> SliceOut {
    let workload = Workload::RtSaturate;
    let arrivals = workload.arrivals(opts.quick);
    let queries = workload.queries();
    let kind = workload.policy();

    let (inputs, plan_s) = timed_setup(|| SimInputs::single_stream(slice_seed, queries));
    let run = |arrivals: u64, sources: Vec<Box<dyn ArrivalSource>>| {
        hcq_runtime::run(
            &inputs.workload.plan,
            &inputs.workload.rates,
            sources,
            kind,
            &RuntimeConfig::new(arrivals).with_seed(inputs.coin_seed),
        )
        .expect("the generated workload runs")
    };

    run(arrivals / 20, inputs.sources());

    let trace = opts.traced.then(SimTrace::new);
    let sources = match &trace {
        Some(t) => t.sources(&inputs),
        None => inputs.sources(),
    };
    let t1 = Instant::now();
    let report = run(arrivals, sources);
    let total_s = t1.elapsed().as_secs_f64();
    let timed_s = report.wall_ns as f64 / 1e9;

    let attempted = arrivals * queries as u64;
    let outcomes = report.emitted + report.dropped + report.shed;
    let mut out = SliceOut {
        // `run` compiles the model and pre-generates its whole schedule
        // before its own clock starts.
        setup_s: plan_s + (total_s - timed_s).max(0.0),
        timed_s,
        copies: outcomes,
        attempted,
        failed: report.shed + attempted.abs_diff(outcomes),
        latency_p50_us: timed_s * 1e6 / arrivals as f64,
        peak_rss_mb: peak_rss_mb(),
        ..SliceOut::default()
    };
    out.check(report.conserved() && report.injected == attempted, || {
        format!(
            "conservation: {attempted} copies in, {} injected, {outcomes} accounted for",
            report.injected
        )
    });
    let model = build_model(&inputs);
    let reference = isolated::unary_reference(&model, inputs.coin_seed, arrivals);
    out.check(
        (reference.emitted, reference.dropped) == (report.emitted, report.dropped),
        || {
            format!(
                "emitted/dropped {}/{} but the operator coins give {}/{}",
                report.emitted, report.dropped, reference.emitted, reference.dropped
            )
        },
    );

    // The runtime's own QoS is wall-clock and grows with the backlog a
    // saturating ingest builds, so scheduling quality is read off the
    // virtual-time simulator on the same plan, arrivals and coins.
    let reference_arrivals = RT_REFERENCE_ARRIVALS.min(arrivals);
    let virtual_qos = sim_run(&inputs, kind, reference_arrivals, None).qos;
    out.avg_slowdown = virtual_qos.avg_slowdown;
    out.l2_slowdown = virtual_qos.l2_slowdown;
    if once_per_run {
        let rt = differential::runtime_aggregates(&run(reference_arrivals, inputs.sources()));
        let sim = differential::simulator_aggregates(
            &inputs.workload.plan,
            &inputs.workload.rates,
            inputs.sources(),
            kind,
            &SimConfig::new(reference_arrivals).with_seed(inputs.coin_seed),
        )
        .expect("the generated workload simulates");
        out.check(rt == sim, || {
            format!(
                "runtime and simulator disagree on the emission multiset: {}/{:x?} vs {}/{:x?}",
                rt.emitted, rt.fingerprint, sim.emitted, sim.fingerprint
            )
        });
    }

    out.exact("emitted", report.emitted as f64);
    out.exact("dropped", report.dropped as f64);
    out.exact("avg_slowdown", out.avg_slowdown);
    out.exact("l2_slowdown", out.l2_slowdown);
    out.layer("runtime.setup_ms", (total_s - timed_s).max(0.0) * 1e3);
    out.layer(
        "runtime.selections_per_copy",
        report.selections as f64 / outcomes as f64,
    );
    out.layer("runtime.response_avg_ms", report.qos.avg_response_ms);

    if let Some(trace) = trace {
        let copies = outcomes as f64;
        let pair = timer_pair_ns();
        let next = trace.next.borrow();
        out.layer("streams.poisson_next_ns", next.ns_per_call(pair));
        drop(next);
        out.layer_reps("runtime.ring_pair_ns", isolated::ring_pair_ns());
        let ring_hop = out.layer_reps("runtime.ring_xthread_ns", isolated::ring_xthread_ns());
        let queue_pair = isolated::median(&isolated::queues_push_pop_ns(model.unit_count()));
        let coin_ns = isolated::median(&isolated::unary_walk_ns(
            &model,
            inputs.coin_seed,
            arrivals.min(1_000),
        ));
        let qos = isolated::median(&isolated::qos_record_ns().0);
        // `run` builds its policy from the `PolicyKind`, so there is nothing
        // to wrap: the same policy on the same statics, driven in isolation.
        let cycle = isolated::policy_cycle(kind.build(), &model.unit_statics(), 200_000);
        out.layer("budget.runtime", ring_hop);
        out.layer(
            "budget.core",
            isolated::median(&cycle.enqueue_ns)
                + isolated::median(&cycle.select_ns) * report.selections as f64 / copies,
        );
        out.layer(
            "budget.engine",
            queue_pair + reference.coin_calls as f64 * coin_ns / copies,
        );
        out.layer("budget.metrics", report.emitted as f64 * qos / copies);
        out.spans.extend(trace.next.borrow_mut().take_spans());
        out.spans.push(slice_span(trace.epoch, t1, total_s));
    }
    out
}

// ---------------------------------------------------------------- hcq_aqsios

fn new_dsms(queries: &[DsmsQuery], clock: Box<dyn hcq_aqsios::Clock>) -> Dsms {
    let mut dsms = Dsms::new(DsmsConfig::new(RuntimePolicy::Hnr).with_clock(clock))
        .expect("valid Dsms configuration");
    for q in queries {
        dsms.register(q.plan()).expect("valid query plan");
    }
    dsms
}

/// Timers and counters of a `Dsms` driver loop.
struct DsmsRun {
    per_query: Vec<u64>,
    latency: LatencyHistogram,
    /// Open loop: how late each record was pushed.
    lag: LatencyHistogram,
    max_pending: usize,
    pending_at_end_of_schedule: usize,
    /// Nanoseconds on the harness clock.
    started_ns: u64,
    ended_ns: u64,
    push: Option<Shared>,
    run_once: Option<Shared>,
}

impl DsmsRun {
    fn new(queries: usize, traced: Option<Instant>) -> Self {
        DsmsRun {
            per_query: vec![0; queries],
            latency: LatencyHistogram::new(),
            lag: LatencyHistogram::new(),
            max_pending: 0,
            pending_at_end_of_schedule: 0,
            started_ns: 0,
            ended_ns: 0,
            push: traced.map(|e| Boundary::shared("Dsms::push", "hcq-aqsios", e)),
            run_once: traced.map(|e| Boundary::shared("Dsms::run_once", "hcq-aqsios", e)),
        }
    }
}

fn maybe_timed<R>(b: &Option<Shared>, f: impl FnOnce() -> R) -> R {
    match b {
        Some(b) => timed(b, f),
        None => f(),
    }
}

fn stream() -> StreamId {
    StreamId::new(0)
}

/// Closed loop: push a batch, drain it, repeat. Latency is push→emission.
fn drive_closed(
    dsms: &mut Dsms,
    clock: &BenchClock,
    slice_seed: u64,
    seqs: std::ops::Range<u64>,
    run: &mut DsmsRun,
) {
    let records: Vec<_> = seqs.map(|s| inputs::record(slice_seed, s)).collect();
    let mut records = records.into_iter();
    run.started_ns = clock.elapsed_ns();
    loop {
        let mut pushed = 0;
        for r in records.by_ref().take(DRAIN_BATCH) {
            maybe_timed(&run.push, || dsms.push(stream(), r));
            pushed += 1;
        }
        if pushed == 0 {
            break;
        }
        run.max_pending = run.max_pending.max(dsms.pending());
        while let Some(batch) = maybe_timed(&run.run_once, || dsms.run_once()) {
            for e in batch {
                run.per_query[e.query.index()] += 1;
                run.latency.record(e.response.as_nanos());
            }
        }
    }
    run.ended_ns = clock.elapsed_ns();
}

/// Open loop: push every record whose due time has passed, then take one
/// scheduling decision. Latency runs from the *due* time, so a stall of the
/// generator or of the `Dsms` is charged to every record it delays.
fn drive_open(
    dsms: &mut Dsms,
    clock: &BenchClock,
    slice_seed: u64,
    due: &[u64],
    run: &mut DsmsRun,
) {
    let records: Vec<_> = (0..due.len() as u64)
        .map(|s| inputs::record(slice_seed, s))
        .collect();
    let mut records = records.into_iter();
    let start = clock.elapsed_ns();
    run.started_ns = start;
    let mut next = 0;
    loop {
        let now = clock.elapsed_ns() - start;
        while next < due.len() && due[next] <= now {
            run.lag.record(now - due[next]);
            let r = records.next().expect("one record per due time");
            maybe_timed(&run.push, || dsms.push(stream(), r));
            next += 1;
            if next == due.len() {
                run.pending_at_end_of_schedule = dsms.pending();
            }
        }
        run.max_pending = run.max_pending.max(dsms.pending());
        match maybe_timed(&run.run_once, || dsms.run_once()) {
            Some(batch) => {
                for e in batch {
                    run.per_query[e.query.index()] += 1;
                    let seq = e
                        .record
                        .get(1)
                        .expect("projection keeps the sequence number");
                    let due_at = start + due[seq as usize];
                    run.latency
                        .record(e.emitted_at.as_nanos().saturating_sub(due_at));
                }
            }
            None if next == due.len() => break,
            None => std::hint::spin_loop(),
        }
    }
    run.ended_ns = clock.elapsed_ns();
}

/// The `Dsms` QoS in virtual time: the same driver pattern on a manual
/// clock that advances a fixed service time per scheduling decision, so
/// response and slowdown depend on the policy's order alone.
fn dsms_virtual_qos(
    open: bool,
    slice_seed: u64,
    queries: &[DsmsQuery],
    records: u64,
) -> QosSummary {
    let clock = ManualClock::new();
    let mut dsms = new_dsms(queries, Box::new(clock.clone()));
    let drain = |dsms: &mut Dsms| {
        while dsms.run_once().is_some() {
            clock.advance(REPLAY_DECISION);
        }
    };
    if open {
        let due = inputs::open_schedule(slice_seed, records as usize, OPEN_RATE);
        let mut next = 0;
        while next < due.len() {
            let now = hcq_aqsios::Clock::now(&clock).as_nanos();
            if due[next] > now {
                if dsms.pending() > 0 {
                    dsms.run_once();
                    clock.advance(REPLAY_DECISION);
                    continue;
                }
                clock.set(Nanos::from_nanos(due[next]));
            }
            dsms.push(stream(), inputs::record(slice_seed, next as u64));
            next += 1;
        }
        drain(&mut dsms);
    } else {
        for seq in 0..records {
            dsms.push(stream(), inputs::record(slice_seed, seq));
            if (seq + 1) % DRAIN_BATCH as u64 == 0 {
                drain(&mut dsms);
            }
        }
        drain(&mut dsms);
    }
    dsms.stats().qos
}

fn dsms_slice(workload: Workload, slice_seed: u64, opts: SliceOpts) -> SliceOut {
    let open = workload == Workload::DsmsOpen;
    let records = workload.arrivals(opts.quick);
    let fanout = workload.queries() as u64;
    let clock = BenchClock::start();

    let ((queries, mut dsms, due), setup_s) = timed_setup(|| {
        let queries = inputs::dsms_queries(slice_seed);
        let dsms = new_dsms(&queries, Box::new(clock.clone()));
        let due = if open {
            inputs::open_schedule(slice_seed, records as usize, OPEN_RATE)
        } else {
            Vec::new()
        };
        (queries, dsms, due)
    });

    {
        let mut warm = new_dsms(&queries, Box::new(clock.clone()));
        let mut run = DsmsRun::new(queries.len(), None);
        drive_closed(&mut warm, &clock, slice_seed, 0..records / 20, &mut run);
    }

    let epoch = Instant::now();
    let mut run = DsmsRun::new(queries.len(), opts.traced.then_some(epoch));
    let reads0 = clock.reads();
    if open {
        drive_open(&mut dsms, &clock, slice_seed, &due, &mut run);
    } else {
        drive_closed(&mut dsms, &clock, slice_seed, 0..records, &mut run);
    }
    let reads = clock.reads() - reads0;
    let timed_s = (run.ended_ns - run.started_ns) as f64 / 1e9;
    let rss = peak_rss_mb();

    let stats = dsms.stats();
    let attempted = records * fanout;
    let outcomes = stats.emitted + stats.dropped + stats.shed * fanout;
    let virtual_qos = dsms_virtual_qos(open, slice_seed, &queries, REPLAY_RECORDS.min(records));
    let mut out = SliceOut {
        setup_s,
        timed_s,
        copies: outcomes,
        attempted,
        failed: stats.shed * fanout + attempted.abs_diff(outcomes),
        latency_p50_us: run.latency.quantile(0.5) / 1e3,
        avg_slowdown: virtual_qos.avg_slowdown,
        l2_slowdown: virtual_qos.l2_slowdown,
        peak_rss_mb: rss,
        ..SliceOut::default()
    };
    out.check(
        stats.pushed == records
            && (stats.pushed - stats.shed) * fanout == stats.emitted + stats.dropped
            && dsms.pending() == 0,
        || {
            format!(
                "conservation: pushed {} shed {} emitted {} dropped {} pending {}",
                stats.pushed,
                stats.shed,
                stats.emitted,
                stats.dropped,
                dsms.pending()
            )
        },
    );
    let reference = inputs::reference_emissions(slice_seed, &queries, records);
    out.check(run.per_query == reference, || {
        "per-query emission counts differ from the records and thresholds".to_string()
    });
    out.check(run.latency.total() == stats.emitted, || {
        "the Dsms counted a different number of emissions than it returned".to_string()
    });

    out.exact("emitted", stats.emitted as f64);
    out.exact("dropped", stats.dropped as f64);
    out.exact("decisions", stats.decisions as f64);
    out.exact("avg_slowdown", out.avg_slowdown);
    out.exact("l2_slowdown", out.l2_slowdown);
    out.layer(
        "aqsios.clock_reads_per_copy",
        reads as f64 / outcomes.max(1) as f64,
    );
    out.layer("aqsios.max_pending", run.max_pending as f64);
    if open {
        let last_due_ns = run.started_ns + due.last().copied().unwrap_or(0);
        let tail_ms = run.ended_ns.saturating_sub(last_due_ns) as f64 / 1e6;
        let pending_share = run.pending_at_end_of_schedule as f64 / attempted as f64;
        // Keeping up is a matter of speed: a quick run checks outputs only,
        // and must pass in an unoptimized build too.
        let keeps_up = tail_ms <= MAX_DRAIN_TAIL_MS && pending_share <= MAX_PENDING_SHARE;
        if !(opts.quick || keeps_up) {
            out.behind = Some(format!(
                "{tail_ms:.1} ms drain tail, {:.1} % of the copies pending at the end of the schedule",
                100.0 * pending_share
            ));
        }
        out.layer("aqsios.latency_p90_us", run.latency.quantile(0.9) / 1e3);
        out.layer("aqsios.latency_p99_us", run.latency.quantile(0.99) / 1e3);
        out.layer("aqsios.latency_p999_us", run.latency.quantile(0.999) / 1e3);
        out.layer("aqsios.gen_lag_p99_us", run.lag.quantile(0.99) / 1e3);
        out.layer("aqsios.drain_tail_ms", tail_ms);
    }
    if let (Some(push), Some(run_once)) = (&run.push, &run.run_once) {
        let pair = timer_pair_ns();
        let copies = outcomes as f64;
        let (p, r) = (push.borrow(), run_once.borrow());
        out.layer("aqsios.push_ns", p.ns_per_call(pair));
        out.layer("aqsios.run_once_ns", r.ns_per_call(pair));
        if !open {
            // An open loop idles by design, so its wall time per copy is
            // not a sum of layer costs.
            out.layer(
                "budget.aqsios",
                (p.busy_ns_net(pair) + r.busy_ns_net(pair)) / copies,
            );
        }
        drop((p, r));
        out.spans.extend(push.borrow_mut().take_spans());
        out.spans.extend(run_once.borrow_mut().take_spans());
        out.spans.push(slice_span(epoch, epoch, timed_s));
    }
    out
}
