//! Runtime ⇄ simulator differential: for deterministic no-shed workloads,
//! the wall-clock runtime and the virtual-time simulator must agree
//! **exactly** on the emission multiset — total and per-query emitted
//! counts and the order-insensitive lineage fingerprint — across every
//! policy and every admission-ladder rung.
//!
//! Under tight capacity the two executors shed *different* tuples (wall
//! clocks differ run to run), so there the contract weakens to tuple
//! conservation on both sides; that path is covered separately.

use hcq_common::{Nanos, StreamId};
use hcq_core::{ClusterConfig, PolicyKind};
use hcq_engine::{AdmissionMode, SimConfig};
use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq_runtime::differential::{runtime_aggregates, simulator_aggregates};
use hcq_runtime::{run, RuntimeConfig};
use hcq_streams::{ArrivalSource, PoissonSource};

const ARRIVALS: u64 = hcq_bench::pipeline::ARRIVALS;
const SEED: u64 = 3;
/// Far above any queue depth the reference workload reaches: bounded modes
/// are armed but never fire, so the no-shed determinism contract holds.
const GENEROUS_CAPACITY: usize = 1 << 20;

fn sources() -> Vec<Box<dyn ArrivalSource>> {
    vec![Box::new(PoissonSource::new(
        hcq_bench::pipeline::mean_gap(),
        9,
    ))]
}

const MODES: [AdmissionMode; 3] = [
    AdmissionMode::Unbounded,
    AdmissionMode::DropTail,
    AdmissionMode::QosShed,
];

#[test]
fn runtime_matches_simulator_across_policies_and_admission_modes() {
    let w = hcq_bench::pipeline::workload();
    let extensions = [
        PolicyKind::Lp(2.5),
        PolicyKind::Clustered(ClusterConfig::logarithmic(8)),
    ];
    for kind in hcq_bench::pipeline::POLICIES.into_iter().chain(extensions) {
        for mode in MODES {
            let sim_cfg = SimConfig::new(ARRIVALS)
                .with_seed(SEED)
                .with_admission(mode, GENEROUS_CAPACITY)
                .with_watermark(GENEROUS_CAPACITY);
            let sim = simulator_aggregates(&w.plan, &w.rates, sources(), kind, &sim_cfg)
                .expect("simulator run");
            assert_eq!(
                sim.shed, 0,
                "{kind:?}/{mode:?}: generous capacity must not shed"
            );

            for threads in [1, 2, 4] {
                let rt_cfg = RuntimeConfig::new(ARRIVALS)
                    .with_seed(SEED)
                    .with_threads(threads)
                    .with_admission(mode, GENEROUS_CAPACITY)
                    .with_watermark(GENEROUS_CAPACITY);
                let report = run(&w.plan, &w.rates, sources(), kind, &rt_cfg).expect("runtime run");
                assert!(report.conserved(), "{kind:?}/{mode:?}/{threads}t conserves");
                // Every emission measured its response from the one ring
                // stamp its arrival carries, read by every shard and thief
                // that ran a copy of it.
                let qos = &report.qos;
                assert_eq!(qos.count, report.emitted, "{kind:?}/{mode:?}/{threads}t");
                assert!(qos.avg_response_ms > 0.0, "{kind:?}/{mode:?}/{threads}t");
                assert!(
                    qos.max_response_ms * 1e6 <= report.wall_ns as f64,
                    "{kind:?}/{mode:?}/{threads}t: a response outlasts the run"
                );
                let rt = runtime_aggregates(&report);
                assert_eq!(
                    rt, sim,
                    "{kind:?}/{mode:?}/{threads}t: emission multiset diverged from simulator"
                );
            }
        }
    }
}

#[test]
fn tight_capacity_conserves_on_both_executors() {
    let w = hcq_bench::pipeline::workload();
    let sim_cfg = SimConfig::new(ARRIVALS)
        .with_seed(SEED)
        .with_admission(AdmissionMode::DropTail, 2);
    let sim = simulator_aggregates(&w.plan, &w.rates, sources(), PolicyKind::Hnr, &sim_cfg)
        .expect("simulator run");
    assert!(sim.shed > 0, "capacity 2 must shed in the simulator");

    let rt_cfg = RuntimeConfig::new(ARRIVALS)
        .with_seed(SEED)
        .with_threads(2)
        .with_admission(AdmissionMode::DropTail, 2);
    let report = run(&w.plan, &w.rates, sources(), PolicyKind::Hnr, &rt_cfg).expect("runtime run");
    assert!(report.conserved(), "every injected copy accounted for");
    // Shed decisions depend on wall-clock interleaving; only the
    // conservation identity and the injected totals are comparable.
    assert_eq!(
        report.emitted + report.dropped + report.shed,
        sim.emitted + sim.dropped + sim.shed,
        "both executors account for the same injected copies"
    );
}

#[test]
fn qos_shed_under_pressure_stays_conserved() {
    let w = hcq_bench::pipeline::workload();
    let rt_cfg = RuntimeConfig::new(ARRIVALS)
        .with_seed(SEED)
        .with_threads(2)
        .with_admission(AdmissionMode::QosShed, 2)
        .with_watermark(4);
    let report = run(&w.plan, &w.rates, sources(), PolicyKind::Bsd, &rt_cfg).expect("runtime run");
    assert!(report.conserved());
}

/// `on[s]` unary queries on stream `s`, costs and selectivities all distinct.
fn unary_plan(on: &[u64]) -> GlobalPlan {
    let mut plan = GlobalPlan::default();
    for (s, &queries) in on.iter().enumerate() {
        for q in 0..queries {
            let k = plan.queries.len() as u64;
            plan.add_query(
                QueryBuilder::on(StreamId::new(s))
                    .select(Nanos::from_micros(40 + 15 * k), 0.25 + 0.1 * q as f64)
                    .project(Nanos::from_micros(20))
                    .build()
                    .unwrap(),
            );
        }
    }
    plan
}

/// One Poisson source per stream, different rates and seeds.
fn poisson_sources(streams: usize) -> Vec<Box<dyn ArrivalSource>> {
    (0..streams as u64)
        .map(|s| {
            let gap = Nanos::from_micros(700 + 400 * s);
            Box::new(PoissonSource::new(gap, 9 + s)) as Box<dyn ArrivalSource>
        })
        .collect()
}

/// How many of the first `n` merged arrivals each stream contributes (the
/// executors' merge: earliest first, lower stream index on a tie).
fn arrivals_per_stream(streams: usize, n: u64) -> Vec<u64> {
    let mut sources = poisson_sources(streams);
    let mut next: Vec<_> = sources.iter_mut().map(|s| s.next_arrival()).collect();
    let mut counts = vec![0; streams];
    for _ in 0..n {
        let s = (0..streams).min_by_key(|&s| (next[s], s)).unwrap();
        counts[s] += 1;
        next[s] = sources[s].next_arrival();
    }
    counts
}

/// Run `on` at every thread count against the simulator: conservation, the
/// exact injected total, the emission multiset.
fn assert_partition_invariant(on: &[u64], thread_counts: &[usize]) {
    const N: u64 = 3_000;
    let (plan, rates) = (unary_plan(on), StreamRates::none());
    let sim_cfg = SimConfig::new(N).with_seed(SEED);
    let sim = simulator_aggregates(
        &plan,
        &rates,
        poisson_sources(on.len()),
        PolicyKind::Hnr,
        &sim_cfg,
    )
    .expect("simulator run");
    let per_stream = arrivals_per_stream(on.len(), N);
    assert!(per_stream.iter().all(|&n| n > 0), "{per_stream:?}");
    let injected: u64 = per_stream.iter().zip(on).map(|(n, q)| n * q).sum();
    for &threads in thread_counts {
        let rt_cfg = RuntimeConfig::new(N).with_seed(SEED).with_threads(threads);
        let report = run(
            &plan,
            &rates,
            poisson_sources(on.len()),
            PolicyKind::Hnr,
            &rt_cfg,
        )
        .expect("runtime run");
        assert!(report.conserved(), "{on:?}/{threads}t conserves");
        assert_eq!(report.injected, injected, "{on:?}/{threads}t injected");
        assert!(report.stolen <= report.injected, "{on:?}/{threads}t stolen");
        assert_eq!(
            runtime_aggregates(&report),
            sim,
            "{on:?}/{threads}t: emission multiset diverged from simulator"
        );
    }
}

#[test]
fn two_streams_partition_unevenly_across_shards() {
    // 7 units: 3 and 5 threads do not divide them, and at 5 threads shard 4
    // owns no stream-0 unit while shards 2 and 3 own no stream-1 unit — no
    // arrival of that stream may be pushed to (or counted for) them.
    assert_partition_invariant(&[4, 3], &[1, 2, 3, 5]);
}

#[test]
fn shards_that_own_nothing_only_steal() {
    assert_partition_invariant(&[1], &[4]);
}
