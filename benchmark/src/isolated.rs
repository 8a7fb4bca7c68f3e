//! Layers timed in isolation: what has no trait boundary the harness could
//! wrap (`UnitQueues`, the `exec` coins, the window tables, `QosAccumulator`,
//! `Ring`), plus the cells no workload reaches today (large-q scheduling
//! points, PDT priorities, shedding) and the host probes.
//!
//! Every function returns one value per repetition; callers report the
//! median with its quartiles.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hcq_bench::large_q::{self, SaturatedQueues};
use hcq_common::{det, Nanos, TupleId};
use hcq_core::pdt::SharedRank;
use hcq_core::{
    shared_priority, ClusterConfig, ClusteredBsdPolicy, Policy, PolicyKind, QueueView,
    SharingStrategy, UnitId, UnitStatics,
};
use hcq_engine::queues::UnitQueues;
use hcq_engine::{
    exec, simulate, simulate_monitored, simulate_traced, SchedulingLevel, SimConfig, SimModel,
    SimTuple, UnitKind,
};
use hcq_join::WindowHashTable;
use hcq_metrics::{QosAccumulator, SlowdownHistogram, TelemetryRegistry};
use hcq_plan::CompiledOpKind;
use hcq_runtime::ring::Ring;
use hcq_streams::{ArrivalSource, PoissonSource};

use crate::inputs::{self, SimInputs};
use crate::spans::timer_pair_ns;
use crate::stats::summarize;
use crate::workloads::Workload;
use crate::wrappers::{CountingTelemetry, CountingTrace};

/// Repetitions of every isolated cell.
const REPS: usize = 5;

/// Named samples: one value per repetition.
pub type Samples = Vec<(String, Vec<f64>)>;

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Nanoseconds per call of `f`, once per repetition.
fn reps_ns(iters: u64, mut f: impl FnMut(u64)) -> Vec<f64> {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect()
}

/// Wall milliseconds of `f`, once per repetition.
fn reps_ms<R>(mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

// ------------------------------------------------- on a slice's own plan

/// A tuple as both executors inject it, for the isolated walks.
fn base_tuple(seed: u64, id: u64) -> SimTuple {
    let id = TupleId::new(id);
    SimTuple {
        id,
        arrival: Nanos::ZERO,
        ts: Nanos::ZERO,
        key: exec::arrival_key(seed, id),
        ideal_depart: Nanos::ZERO,
        lineage: id,
    }
}

/// The leaf units stream 0 feeds, with each one's query and entry operator.
fn stream0_entries(model: &SimModel) -> Vec<(UnitId, usize, usize)> {
    model.routes[0]
        .iter()
        .filter_map(|route| match model.units[route.unit as usize].kind {
            UnitKind::Leaf { query, leaf } => Some((
                route.unit,
                query,
                model.compiled[query].leaves[leaf.index()].entry.0,
            )),
            _ => None,
        })
        .collect()
}

/// Whether operator `oi` of `query` is unary, and its spec.
fn unary_spec(model: &SimModel, query: usize, oi: usize) -> Option<hcq_plan::OperatorSpec> {
    match model.compiled[query].ops[oi].kind {
        CompiledOpKind::Unary(spec) => Some(spec),
        CompiledOpKind::Join(_) => None,
    }
}

/// What the operator coins alone say a unary run must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnaryReference {
    pub emitted: u64,
    pub dropped: u64,
    /// `exec::unary_passes` calls made on the way.
    pub coin_calls: u64,
}

/// Walk every copy of arrivals `0..arrivals` on stream 0 through its
/// query's unary operators, stopping at a drop, a join, or the root. Drop
/// and emit outcomes are a pure function of `(tuple, operator, seed)`, so
/// for a unary plan this is the emitted count of any correct executor under
/// any policy.
pub fn unary_reference(model: &SimModel, seed: u64, arrivals: u64) -> UnaryReference {
    let entries = stream0_entries(model);
    let mut r = UnaryReference {
        emitted: 0,
        dropped: 0,
        coin_calls: 0,
    };
    for id in 0..arrivals {
        let tuple = base_tuple(seed, id);
        for &(_, query, entry) in &entries {
            let mut cursor = Some(entry);
            let mut passed = true;
            while let Some(oi) = cursor {
                let Some(spec) = unary_spec(model, query, oi) else {
                    break;
                };
                r.coin_calls += 1;
                if !exec::unary_passes(seed, query, oi, &spec, spec.selectivity, &tuple) {
                    passed = false;
                    break;
                }
                cursor = model.compiled[query].ops[oi]
                    .downstream
                    .map(|(next, _)| next);
            }
            if passed {
                r.emitted += 1;
            } else {
                r.dropped += 1;
            }
        }
    }
    r
}

/// Nanoseconds per `exec::unary_passes` call in that walk.
pub fn unary_walk_ns(model: &SimModel, seed: u64, arrivals: u64) -> Vec<f64> {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let r = black_box(unary_reference(model, seed, arrivals));
            t.elapsed().as_nanos() as f64 / r.coin_calls.max(1) as f64
        })
        .collect()
}

/// One `UnitQueues::push` plus one `pop`, cycling over `units` queues.
pub fn queues_push_pop_ns(units: usize) -> Vec<f64> {
    let mut queues = UnitQueues::new(units);
    let tuple = base_tuple(0, 0);
    reps_ns(1_000_000, |i| {
        let unit = (i.wrapping_mul(7919) % units as u64) as UnitId;
        queues.push(unit, tuple);
        black_box(queues.pop(unit).expect("just pushed"));
    })
}

/// `exec::arrival_key`, per arrival.
pub fn arrival_key_ns(seed: u64) -> Vec<f64> {
    reps_ns(2_000_000, |i| {
        black_box(exec::arrival_key(seed, TupleId::new(i)));
    })
}

/// `QosAccumulator::record` and `SlowdownHistogram::record`, per emission.
pub fn qos_record_ns() -> (Vec<f64>, Vec<f64>) {
    let slowdown = |i: u64| 1.0 + 500.0 * det::unit_f64(det::splitmix64(i));
    let mut acc = QosAccumulator::new();
    let qos = reps_ns(2_000_000, |i| {
        acc.record(Nanos::from_nanos(1_000 + i), slowdown(i));
    });
    let mut hist = SlowdownHistogram::default();
    let hist_ns = reps_ns(2_000_000, |i| hist.record(slowdown(i)));
    black_box((acc.summary(), hist.total()));
    (qos, hist_ns)
}

/// Window-table costs at the occupancy `sim_join` reaches.
pub struct JoinCosts {
    pub insert_ns: Vec<f64>,
    pub probe_ns: Vec<f64>,
    pub expire_ns: Vec<f64>,
    /// Matches one probe returns (every in-window entry of the other side).
    pub matches_per_probe: f64,
    /// Mean leaf-select selectivity over the queries.
    pub mean_select_selectivity: f64,
}

/// `WindowHashTable` insert, range probe and expiry — the three steps of
/// `SymmetricHashJoin::insert_probe_into`, which has no finer public
/// boundary — on a table holding what a `sim_join` window holds on average:
/// `selectivity × window / mean gap` tuples, all in one bucket.
pub fn join_ns(model: &SimModel) -> JoinCosts {
    let mut occupancy = 0.0;
    let mut selectivity = 0.0;
    let mut window_sum = 0u64;
    let mut joins = 0.0;
    for (query, cq) in model.compiled.iter().enumerate() {
        let Some(&oi) = cq.join_indices().first() else {
            continue;
        };
        let CompiledOpKind::Join(join) = cq.ops[oi].kind else {
            continue;
        };
        let select = unary_spec(model, query, cq.leaves[0].entry.0).map_or(1.0, |s| s.selectivity);
        occupancy += select * join.window.ratio(inputs::MEAN_GAP);
        selectivity += select;
        window_sum += join.window.as_nanos();
        joins += 1.0;
    }
    let resident = (occupancy / f64::max(joins, 1.0)).round().max(1.0) as u64;
    let window = Nanos::from_nanos(window_sum / (joins as u64).max(1));
    // Timestamps advance so that `resident` tuples span one window.
    let step = Nanos::from_nanos((window.as_nanos() / resident).max(1));
    let at = |i: u64| Nanos::from_nanos(step.as_nanos() * i);
    let tuple = |i: u64| SimTuple {
        ts: at(i),
        arrival: at(i),
        ..base_tuple(0, i)
    };

    let mut table: WindowHashTable<SimTuple> = WindowHashTable::new();
    for i in 0..resident {
        table.insert(0, at(i), tuple(i));
    }
    let mut next = resident;
    let mut matches = 0u64;
    let mut probes = 0u64;
    let mut out: Vec<SimTuple> = Vec::new();
    let (mut insert_ns, mut probe_ns, mut expire_ns) = (Vec::new(), Vec::new(), Vec::new());
    const ROUNDS: u64 = 2_000;
    for _ in 0..REPS {
        // Steady state: each round inserts one tuple, probes the window
        // ending at it, and expires the one that fell out.
        let (mut ins, mut pro, mut exp) = (0u128, 0u128, 0u128);
        for _ in 0..ROUNDS {
            let now = at(next);
            // The window's lower edge, clamped at time zero.
            let horizon = Nanos::from_nanos(now.as_nanos().saturating_sub(window.as_nanos()));
            let t0 = Instant::now();
            table.insert(0, now, tuple(next));
            let t1 = Instant::now();
            out.clear();
            out.extend(table.range(0, horizon, now).map(|(_, v)| *v));
            let t2 = Instant::now();
            table.expire_before(horizon);
            let t3 = Instant::now();
            ins += (t1 - t0).as_nanos();
            pro += (t2 - t1).as_nanos();
            exp += (t3 - t2).as_nanos();
            matches += out.len() as u64;
            probes += 1;
            next += 1;
        }
        let pair = timer_pair_ns();
        let net = |total: u128| (total as f64 / ROUNDS as f64 - pair).max(0.0);
        insert_ns.push(net(ins));
        probe_ns.push(net(pro));
        expire_ns.push(net(exp));
    }
    JoinCosts {
        insert_ns,
        probe_ns,
        expire_ns,
        matches_per_probe: matches as f64 / probes as f64,
        mean_select_selectivity: selectivity / f64::max(joins, 1.0),
    }
}

/// Uncontended `Ring::try_push` + `try_pop` on one thread.
pub fn ring_pair_ns() -> Vec<f64> {
    let ring: Ring<[u64; 8]> = Ring::new(1024);
    reps_ns(2_000_000, |i| {
        ring.try_push([i; 8]).expect("ring is empty");
        black_box(ring.try_pop());
    })
}

/// One item through the ring between two threads, producer and consumer
/// both spinning: nanoseconds per item at saturation.
pub fn ring_xthread_ns() -> Vec<f64> {
    const ITEMS: u64 = 400_000;
    (0..REPS)
        .map(|_| {
            let ring: Ring<[u64; 8]> = Ring::new(1024);
            let t = Instant::now();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for i in 0..ITEMS {
                        let mut item = [i; 8];
                        while let Err(back) = ring.try_push(item) {
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                });
                let mut got = 0;
                while got < ITEMS {
                    match ring.try_pop() {
                        Some(item) => {
                            black_box(item);
                            got += 1;
                        }
                        None => std::hint::spin_loop(),
                    }
                }
            });
            t.elapsed().as_nanos() as f64 / ITEMS as f64
        })
        .collect()
}

/// Per-call cost of a policy's two hot callbacks.
pub struct PolicyCycle {
    pub enqueue_ns: Vec<f64>,
    pub select_ns: Vec<f64>,
}

/// Drive `policy` over `statics` with every unit always ready: `select`,
/// consume the picked heads, re-arrive them through `on_enqueue` — the
/// large-q fixture's cycle, with the two callbacks timed apart.
pub fn policy_cycle(
    mut policy: Box<dyn Policy>,
    statics: &[UnitStatics],
    points: u64,
) -> PolicyCycle {
    let q = statics.len();
    policy.on_register(statics);
    let mut queues = SaturatedQueues::new(q);
    for u in 0..q as UnitId {
        let arrival = queues.head_arrival(u).expect("saturated");
        policy.on_enqueue(u, TupleId::new(u64::from(u)), arrival, arrival);
    }
    let mut now = Nanos::from_nanos(q as u64 * 1_000 + 1_000_000);
    let mut next_tuple = q as u64;
    let per_rep = (points / REPS as u64).max(1);
    let (mut enqueue_ns, mut select_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut sel, mut enq, mut enqueues) = (0u128, 0u128, 0u64);
        for _ in 0..per_rep {
            let t0 = Instant::now();
            let selection = policy.select(&queues, now).expect("queues stay saturated");
            let t1 = Instant::now();
            sel += (t1 - t0).as_nanos();
            for unit in selection.units {
                queues.refill(unit, now);
                let t2 = Instant::now();
                policy.on_enqueue(unit, TupleId::new(next_tuple), now, now);
                enq += t2.elapsed().as_nanos();
                next_tuple += 1;
                enqueues += 1;
            }
            now += Nanos::from_nanos(1_000);
        }
        let pair = timer_pair_ns();
        select_ns.push((sel as f64 / per_rep as f64 - pair).max(0.0));
        enqueue_ns.push((enq as f64 / enqueues.max(1) as f64 - pair).max(0.0));
    }
    PolicyCycle {
        enqueue_ns,
        select_ns,
    }
}

// ----------------------------------------------- workload-independent cells

/// Every cell that does not depend on a workload's slice: one child process
/// runs them all, once per traced run.
pub fn cells(seed: u64, quick: bool) -> Samples {
    let mut out = Samples::new();
    let mut put = |name: &str, values: Vec<f64>| out.push((name.to_string(), values));
    let slice_seed = inputs::slice_seed(seed, 0);

    put(
        "host.timer_pair_ns",
        (0..REPS).map(|_| timer_pair_ns()).collect(),
    );
    put("host.spin_ref_ns", spin_ref_ns());
    put("host.pingpong_ns", pingpong_ns());

    put(
        "workload.single_stream_build_ms",
        reps_ms(|| SimInputs::single_stream(slice_seed, Workload::SimHnr.queries())),
    );
    put(
        "workload.multi_stream_build_ms",
        reps_ms(|| SimInputs::multi_stream(slice_seed, Workload::SimJoin.queries())),
    );
    let hnr = SimInputs::single_stream(slice_seed, Workload::SimHnr.queries());
    let build = || {
        SimModel::build(
            &hnr.workload.plan,
            &hnr.workload.rates,
            SchedulingLevel::Query,
            SharingStrategy::Pdt,
        )
        .expect("the generated plan compiles")
    };
    put("engine.model_build_ms", reps_ms(build));
    let model = build();
    let statics = model.unit_statics();

    let cbsd = policy_cycle(
        Box::new(ClusteredBsdPolicy::new(ClusterConfig::logarithmic(
            large_q::CLUSTERS,
        ))),
        &statics,
        if quick { 5_000 } else { 100_000 },
    );
    put("core.cbsd_log.select_ns", cbsd.select_ns);
    put("core.pdt_priority_ns", pdt_priority_ns(&statics));
    put("engine.shed_victim_ns", shed_victim_ns(&statics));
    put(
        "metrics.telemetry_snapshot_us",
        telemetry_snapshot_us(statics.len()),
    );

    let mut source = PoissonSource::new(inputs::MEAN_GAP, hnr.source_seeds[0]);
    put(
        "streams.poisson_next_ns",
        reps_ns(1_000_000, |_| {
            black_box(source.next_arrival());
        }),
    );

    let observed = observer_ratios(
        &hnr,
        Workload::SimHnr.arrivals(true) * if quick { 1 } else { 5 },
    );
    put("engine.trace_on_ratio", observed.0);
    put("engine.telemetry_on_ratio", observed.1);

    // The §6 regime no workload reaches: q = 10⁵ registered, all ready.
    let q = if quick { 2_000 } else { 100_000 };
    let mut digests = Vec::new();
    for (name, policy) in large_q::variants() {
        let cell = large_q::run_cell(name, policy, q);
        let key = match name {
            "BSD-Exact" => "bsd",
            "C-BSD-log" => "cbsd_log",
            "C-BSD-logscan" => "cbsd_logscan",
            _ => "cbsd_uni",
        };
        put(
            &format!("core.{key}.point_ns.q100k"),
            vec![cell.ns_per_point],
        );
        if name == "C-BSD-log" {
            put(
                "core.cbsd_log.evals_per_point.q100k",
                vec![cell.evals_per_point],
            );
            put(
                "core.cbsd_log.bytes_per_query.q100k",
                vec![cell.bytes_per_query],
            );
        }
        if name.starts_with("C-BSD-log") {
            digests.push(cell.digest);
        }
    }
    // Recorded, not asserted: ROADMAP 3(b) wants to know whether the Fagin
    // and the scan variant still decide identically.
    put(
        "core.cbsd_log.digest_eq_logscan.q100k",
        vec![f64::from(u8::from(digests[0] == digests[1]))],
    );

    for (name, lines) in loc(&repo_root().join("crates")) {
        put(&format!("loc.{name}"), vec![lines as f64]);
    }
    out
}

/// A fixed dependent ALU chain: nanoseconds per SplitMix64 round. Moves
/// only with the host's speed.
fn spin_ref_ns() -> Vec<f64> {
    let mut x = 1u64;
    let v = reps_ns(20_000_000, |_| x = det::splitmix64(x));
    black_box(x);
    v
}

/// Two threads bouncing one cache line: nanoseconds per round trip. The
/// floor under any cross-thread hand-off on this host.
fn pingpong_ns() -> Vec<f64> {
    const ROUNDS: u64 = 200_000;
    (0..REPS)
        .map(|_| {
            let turn = AtomicU64::new(0);
            let t = Instant::now();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for i in 0..ROUNDS {
                        while turn.load(Ordering::Acquire) != 2 * i + 1 {
                            std::hint::spin_loop();
                        }
                        turn.store(2 * i + 2, Ordering::Release);
                    }
                });
                for i in 0..ROUNDS {
                    turn.store(2 * i + 1, Ordering::Release);
                    while turn.load(Ordering::Acquire) != 2 * i + 2 {
                        std::hint::spin_loop();
                    }
                }
            });
            t.elapsed().as_nanos() as f64 / ROUNDS as f64
        })
        .collect()
}

/// §7 `shared_priority` (PDT, HNR rank) over a 10-member group.
fn pdt_priority_ns(statics: &[UnitStatics]) -> Vec<f64> {
    let shared_cost = Nanos::from_nanos(
        statics[..10]
            .iter()
            .map(|u| u.avg_cost_ns as u64)
            .min()
            .unwrap_or(2)
            / 2,
    );
    reps_ns(200_000, |i| {
        let start = i as usize % (statics.len() - 10);
        black_box(shared_priority(
            &statics[start..start + 10],
            shared_cost,
            SharingStrategy::Pdt,
            SharedRank::Hnr,
        ));
    })
}

/// `exec::shed_victim` over 60 non-empty units.
fn shed_victim_ns(statics: &[UnitStatics]) -> Vec<f64> {
    let priority: Vec<f64> = statics.iter().map(UnitStatics::hnr_priority).collect();
    let nonempty: Vec<UnitId> = (0..60).collect();
    reps_ns(1_000_000, |i| {
        black_box(exec::shed_victim(&nonempty, &priority, (i % 60) as UnitId));
    })
}

/// `TelemetryRegistry::snapshot` over one gauge and one summary per query.
fn telemetry_snapshot_us(queries: usize) -> Vec<f64> {
    let mut reg = TelemetryRegistry::new();
    let gauges: Vec<_> = (0..queries)
        .map(|q| {
            reg.gauge(
                "bench_queue_len",
                "queue length",
                vec![("query", q.to_string())],
            )
        })
        .collect();
    let summaries: Vec<_> = (0..queries)
        .map(|q| reg.summary("bench_slowdown", "slowdown", vec![("query", q.to_string())]))
        .collect();
    reps_ns(200, |i| {
        for (&g, &s) in gauges.iter().zip(&summaries) {
            reg.set_gauge(g, i as f64);
            reg.observe(s, 1.0 + i as f64);
        }
        black_box(reg.snapshot(Nanos::from_nanos(i)));
    })
    .into_iter()
    .map(|ns| ns / 1e3)
    .collect()
}

/// Wall time of `simulate` with a counting trace sink, and with a counting
/// telemetry sink, over the same run with neither.
fn observer_ratios(inputs: &SimInputs, arrivals: u64) -> (Vec<f64>, Vec<f64>) {
    let cfg = || SimConfig::new(arrivals).with_seed(inputs.coin_seed);
    let (plan, rates) = (&inputs.workload.plan, &inputs.workload.rates);
    let policy = || PolicyKind::Hnr.build();
    let secs = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut trace, mut telemetry) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let plain = secs(&mut || {
            black_box(simulate(plan, rates, inputs.sources(), policy(), cfg()).expect("simulates"));
        });
        trace.push(
            secs(&mut || {
                let sink = CountingTrace::default();
                black_box(
                    simulate_traced(plan, rates, inputs.sources(), policy(), cfg(), sink)
                        .expect("simulates"),
                );
            }) / plain,
        );
        telemetry.push(
            secs(&mut || {
                let sink = CountingTelemetry::default();
                black_box(
                    simulate_monitored(plan, rates, inputs.sources(), policy(), cfg(), sink)
                        .expect("simulates"),
                );
            }) / plain,
        );
    }
    (trace, telemetry)
}

/// The repository root: the benchmark package sits directly under it.
pub fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package has a parent directory")
        .to_path_buf()
}

/// Non-test lines per crate under `crates/*/src`, plus `total`: every line
/// outside a `#[cfg(test)]` module (`tests/` directories are not under
/// `src`).
pub fn loc(crates_dir: &Path) -> Vec<(String, u64)> {
    let mut names: Vec<_> = std::fs::read_dir(crates_dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut out: Vec<(String, u64)> = names
        .into_iter()
        .map(|name| {
            let lines = count_dir(&crates_dir.join(&name).join("src"));
            (name, lines)
        })
        .collect();
    out.push(("total".to_string(), out.iter().map(|(_, n)| n).sum()));
    out
}

fn count_dir(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += count_dir(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            total += std::fs::read_to_string(&path).map_or(0, |s| non_test_lines(&s));
        }
    }
    total
}

/// Lines of `source` outside `#[cfg(test)]` (or `#[cfg(all(test, …))]`)
/// modules. A test module ends where its braces balance (braces are matched
/// textually, which holds for this repository's test modules); the
/// attribute line itself is not counted.
pub fn non_test_lines(source: &str) -> u64 {
    let mut count = 0;
    let mut lines = source.lines();
    while let Some(line) = lines.next() {
        let attr = line.trim_start();
        if attr.starts_with("#[cfg(test)]") || attr.starts_with("#[cfg(all(test") {
            // Skip to the module's opening brace, then to its match.
            let mut depth = 0i64;
            let mut opened = false;
            for body in lines.by_ref() {
                for c in body.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                // `#[cfg(test)] use …;` and the like: a single item.
                if (opened && depth <= 0) || (!opened && body.trim_end().ends_with(';')) {
                    break;
                }
            }
        } else {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_modules_are_not_counted() {
        let src = "fn a() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        x();\n    }\n}\nfn b() {}\n";
        // `fn a`, the blank line, `fn b`.
        assert_eq!(non_test_lines(src), 3);
        assert_eq!(non_test_lines("#[cfg(test)]\nuse x::y;\nfn c() {}\n"), 1);
        assert_eq!(
            non_test_lines("#[cfg(all(test, not(loom)))]\nmod t {\n}\nfn d() {}\n"),
            1
        );
    }

    #[test]
    fn loc_counts_this_repository() {
        let counted = loc(&repo_root().join("crates"));
        let names: Vec<&str> = counted.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "aqsios", "bench", "check", "common", "core", "engine", "inspect", "join",
                "metrics", "plan", "repro", "runtime", "streams", "workload", "total"
            ]
        );
        assert!(counted.iter().all(|(_, n)| *n > 0));
    }

    #[test]
    fn unary_reference_matches_the_simulator() {
        let inputs = SimInputs::single_stream(inputs::slice_seed(9, 0), 12);
        let model = SimModel::build(
            &inputs.workload.plan,
            &inputs.workload.rates,
            SchedulingLevel::Query,
            SharingStrategy::Pdt,
        )
        .unwrap();
        let report = simulate(
            &inputs.workload.plan,
            &inputs.workload.rates,
            inputs.sources(),
            PolicyKind::Bsd.build(),
            SimConfig::new(300).with_seed(inputs.coin_seed),
        )
        .unwrap();
        let r = unary_reference(&model, inputs.coin_seed, 300);
        assert_eq!((r.emitted, r.dropped), (report.emitted, report.dropped));
        assert!(r.coin_calls >= 300 * 12);
    }
}
