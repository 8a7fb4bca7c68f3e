//! Tier-1 smoke test across the three executors: one small unary plan
//! through the simulator, the wall-clock runtime (1, 2 and 3 threads) and a
//! `Dsms` on real records — all three built on `hcq-engine`'s queue set, its
//! one `admit`, and `hcq-core`'s policy factory. Unbounded, all three emit
//! the same multiset.

use hcq::aqsios::{Cmp, Dsms, DsmsConfig, ManualClock, Predicate, Record, RtOp, RtPlan};
use hcq::common::{Nanos, StreamId, TupleId};
use hcq::core::PolicyKind;
use hcq::engine::{exec, simulate, AdmissionMode, SimConfig};
use hcq::plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq::runtime::differential::{self, Aggregates};
use hcq::runtime::{run, RuntimeConfig};
use hcq::streams::{ArrivalSource, PoissonSource};

const QUERIES: u64 = 4;
const ARRIVALS: u64 = 2_000;
const SEED: u64 = 3;

/// Query `q`'s select: its cost and its selectivity.
fn select(q: u64) -> (Nanos, f64) {
    (Nanos::from_micros(150 + 50 * q), 0.2 + 0.15 * q as f64)
}

fn plan() -> GlobalPlan {
    let mut plan = GlobalPlan::default();
    for q in 0..QUERIES {
        let (cost, s) = select(q);
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(cost, s)
                .project(Nanos::from_micros(50))
                .build()
                .unwrap(),
        );
    }
    plan
}

/// Mean gap 1 ms against 1.1 ms of work per arrival: queues build.
fn sources() -> Vec<Box<dyn ArrivalSource>> {
    vec![Box::new(PoissonSource::new(Nanos::from_millis(1), 9))]
}

#[test]
fn simulator_and_runtime_emit_the_same_multiset_unbounded() {
    let (plan, rates) = (plan(), StreamRates::none());
    let cfg = SimConfig::new(ARRIVALS).with_seed(SEED);
    let sim = simulate(
        &plan,
        &rates,
        sources(),
        PolicyKind::Hnr.build(),
        cfg.clone(),
    )
    .unwrap();
    assert_eq!(sim.arrivals * QUERIES, sim.emitted + sim.dropped);
    assert_eq!((sim.shed, sim.pending_end), (0, 0));
    let want = differential::simulator_aggregates(&plan, &rates, sources(), PolicyKind::Hnr, &cfg)
        .unwrap();
    assert_eq!((want.emitted, want.dropped), (sim.emitted, sim.dropped));
    assert!(want.per_query_emitted.iter().all(|&n| n > 0));
    // 3 threads split the 4 units unevenly.
    for threads in [1, 2, 3] {
        let rt_cfg = RuntimeConfig::new(ARRIVALS)
            .with_seed(SEED)
            .with_threads(threads);
        let rt = run(&plan, &rates, sources(), PolicyKind::Hnr, &rt_cfg).unwrap();
        assert!(rt.conserved(), "{threads} thread(s)");
        assert_eq!(rt.injected, ARRIVALS * QUERIES);
        // Per-query emitted counts and the `fold_emission` fingerprint.
        assert_eq!(
            differential::runtime_aggregates(&rt),
            want,
            "{threads} thread(s)"
        );
    }
}

#[test]
fn simulator_and_runtime_shed_and_conserve_under_drop_tail() {
    let (plan, rates) = (plan(), StreamRates::none());
    let cfg = SimConfig::new(ARRIVALS)
        .with_seed(SEED)
        .with_admission(AdmissionMode::DropTail, 1);
    let sim = simulate(&plan, &rates, sources(), PolicyKind::Hnr.build(), cfg).unwrap();
    assert!(sim.shed > 0);
    assert_eq!(sim.arrivals * QUERIES, sim.emitted + sim.dropped + sim.shed);
    // One worker against a free-running ingest thread: inbox batches
    // overflow the one-slot queues.
    let rt_cfg = RuntimeConfig::new(ARRIVALS)
        .with_seed(SEED)
        .with_admission(AdmissionMode::DropTail, 1);
    let rt = run(&plan, &rates, sources(), PolicyKind::Hnr, &rt_cfg).unwrap();
    assert!(rt.shed > 0);
    assert!(rt.conserved());
}

#[test]
fn dsms_conserves_on_real_records() {
    let clock = ManualClock::new();
    let cfg = DsmsConfig::new(PolicyKind::Hnr)
        .with_clock(Box::new(clock.clone()))
        .with_max_pending(3 * QUERIES as usize);
    let mut dsms = Dsms::new(cfg).unwrap();
    for q in 0..QUERIES as i64 {
        let ops = vec![
            RtOp::select(
                Predicate::new(0, Cmp::Ge, 20 * q),
                Nanos::from_micros(5),
                0.5,
            ),
            RtOp::project(vec![1], Nanos::from_micros(1)),
        ];
        dsms.register(RtPlan::single(StreamId::new(0), ops))
            .unwrap();
    }
    // Bursts of five against room for three fan-outs: the valve sheds.
    let mut emitted = 0;
    for i in 0..200i64 {
        dsms.push(StreamId::new(0), Record::new(vec![i % 100, i]));
        clock.advance(Nanos::from_micros(10));
        if i % 5 == 4 {
            emitted += dsms.run_until_idle().len() as u64;
        }
    }
    let stats = dsms.stats();
    assert_eq!(
        (stats.pushed, stats.emitted, dsms.pending()),
        (200, emitted, 0)
    );
    assert!(stats.shed > 0 && stats.emitted > 0 && stats.dropped > 0);
    assert_eq!(
        stats.pushed * QUERIES,
        stats.emitted + stats.dropped + stats.shed * QUERIES
    );
}

/// The third executor in the differential: a `Dsms` fed each arrival as
/// the record `[key, id]` runs `plan()` as selects `f0 <= round(s·100)`
/// (the simulator's key predicate) and projections to the id, and emits
/// the simulator's multiset.
#[test]
fn dsms_emits_the_simulators_multiset_on_keyed_records() {
    let (plan, rates) = (plan(), StreamRates::none());
    let cfg = SimConfig::new(ARRIVALS).with_seed(SEED);
    let want = differential::simulator_aggregates(&plan, &rates, sources(), PolicyKind::Hnr, &cfg)
        .unwrap();
    let clock = ManualClock::new();
    let cfg = DsmsConfig::new(PolicyKind::Hnr).with_clock(Box::new(clock.clone()));
    let mut dsms = Dsms::new(cfg).unwrap();
    for q in 0..QUERIES {
        let (cost, s) = select(q);
        let threshold = Predicate::new(0, Cmp::Le, (s * 100.0).round() as i64);
        let ops = vec![
            RtOp::select(threshold, cost, s),
            RtOp::project(vec![1], Nanos::from_micros(50)),
        ];
        dsms.register(RtPlan::single(StreamId::new(0), ops))
            .unwrap();
    }
    let mut got = Aggregates {
        emitted: 0,
        dropped: 0,
        shed: 0,
        per_query_emitted: vec![0; QUERIES as usize],
        fingerprint: (0, 0),
    };
    let mut tally = |emissions: &[hcq::aqsios::Emission]| {
        for e in emissions {
            let id = TupleId::new(e.record.fields()[0] as u64);
            got.per_query_emitted[e.query.index()] += 1;
            got.fingerprint = exec::fold_emission(got.fingerprint, e.query.index(), id);
        }
    };
    // One decision per arrival against four copies: queues build.
    for id in 0..ARRIVALS {
        let key = exec::arrival_key(SEED, TupleId::new(id));
        dsms.push(StreamId::new(0), Record::new(vec![key as i64, id as i64]));
        clock.advance(Nanos::from_millis(1));
        tally(&dsms.run_once().unwrap());
    }
    tally(&dsms.run_until_idle());
    let stats = dsms.stats();
    (got.emitted, got.dropped, got.shed) = (stats.emitted, stats.dropped, stats.shed);
    assert_eq!(got, want);
}
