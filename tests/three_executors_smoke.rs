//! Tier-1 smoke test across the three executors: one small unary plan
//! through the simulator, the wall-clock runtime (1, 2 and 3 threads) and a
//! `Dsms` on real records — all three built on `hcq-engine`'s queue set, its
//! one `admit`, and `hcq-core`'s policy factory.

use hcq::aqsios::{Cmp, Dsms, DsmsConfig, ManualClock, Predicate, Record, RtOp, RtPlan};
use hcq::common::{Nanos, StreamId};
use hcq::core::PolicyKind;
use hcq::engine::{simulate, AdmissionMode, SimConfig};
use hcq::plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq::runtime::{differential, run, RuntimeConfig};
use hcq::streams::{ArrivalSource, PoissonSource};

const QUERIES: u64 = 4;
const ARRIVALS: u64 = 2_000;
const SEED: u64 = 3;

fn plan() -> GlobalPlan {
    let mut plan = GlobalPlan::default();
    for q in 0..QUERIES {
        let select_cost = Nanos::from_micros(150 + 50 * q);
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(select_cost, 0.2 + 0.15 * q as f64)
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
