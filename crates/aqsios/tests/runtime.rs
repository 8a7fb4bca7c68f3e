//! End-to-end tests of the online mini-DSMS.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcq_aqsios::{
    Clock, Cmp, Dsms, DsmsConfig, Emission, ManualClock, Predicate, Record, RtJoin, RtOp, RtPlan,
    RuntimePolicy,
};
use hcq_check::{ContractAudit, HoldProbe, Selects};
use hcq_common::{Nanos, StreamId};

fn us(n: u64) -> Nanos {
    Nanos::from_micros(n)
}

fn manual_dsms(policy: RuntimePolicy) -> (Dsms, ManualClock) {
    let clock = ManualClock::new();
    let dsms = Dsms::new(DsmsConfig::new(policy).with_clock(Box::new(clock.clone()))).unwrap();
    (dsms, clock)
}

/// A manual clock that counts its reads.
#[derive(Clone, Default)]
struct CountingClock {
    time: ManualClock,
    reads: Rc<Cell<u64>>,
}

impl Clock for CountingClock {
    fn now(&self) -> Nanos {
        self.reads.set(self.reads.get() + 1);
        self.time.now()
    }
}

/// The clock budget: one read per push and one per emission, none for a
/// `run_once` on empty queues, and one per decision only under a policy
/// whose choice depends on `now` (BSD), never under one that ignores it
/// (HNR).
#[test]
fn clock_reads_per_push_per_emission_and_per_decision_only_when_now_matters() {
    for (policy, reads_per_decision) in [(RuntimePolicy::Hnr, 0), (RuntimePolicy::Bsd, 1)] {
        let clock = CountingClock::default();
        let cfg = DsmsConfig::new(policy).with_clock(Box::new(clock.clone()));
        let mut dsms = Dsms::new(cfg).unwrap();
        // Passes everything, half, nothing.
        for threshold in [0, 50, 200] {
            dsms.register(RtPlan::single(
                StreamId::new(0),
                vec![
                    RtOp::select(Predicate::new(0, Cmp::Ge, threshold), us(2), 0.5),
                    RtOp::project(vec![1], us(1)),
                ],
            ))
            .unwrap();
        }
        assert!(dsms.run_once().is_none());
        assert_eq!(clock.reads.get(), 0, "{policy:?}: run_once on empty queues");
        for v in 0..100 {
            dsms.push(StreamId::new(0), Record::new(vec![v, v]));
            clock.time.advance(us(3));
        }
        assert_eq!(clock.reads.get(), 100, "{policy:?}: one read per push");
        let emitted = dsms.run_until_idle().len() as u64;
        let stats = dsms.stats();
        assert_eq!((emitted, stats.dropped, stats.decisions), (150, 150, 300));
        assert_eq!(
            clock.reads.get(),
            100 + emitted + reads_per_decision * stats.decisions,
            "{policy:?}"
        );
    }
}

/// BSD and LSF priorities grow with the wait, so a decision must see a
/// fresh clock. Query 0 (10 ms) has waited since 0, query 1 (1 ms, the
/// steeper priority) since 1 ms. Decided at once, query 0's longer wait
/// wins; a second later, query 1's slope does. A decision at the instant
/// of the last push would run query 0 both times.
#[test]
fn wait_based_policies_decide_on_a_fresh_clock() {
    for policy in [RuntimePolicy::Bsd, RuntimePolicy::Lsf] {
        for (idle, first) in [(Nanos::ZERO, 0), (Nanos::from_secs(1), 1)] {
            let (mut dsms, clock) = manual_dsms(policy);
            for (stream, cost_ms) in [(0, 10), (1, 1)] {
                let pass = Predicate::new(0, Cmp::Ge, 0);
                let op = RtOp::select(pass, Nanos::from_millis(cost_ms), 1.0);
                dsms.register(RtPlan::single(StreamId::new(stream), vec![op]))
                    .unwrap();
            }
            dsms.push(StreamId::new(0), Record::new(vec![1]));
            clock.advance(Nanos::from_millis(1));
            dsms.push(StreamId::new(1), Record::new(vec![1]));
            clock.advance(idle);
            let pick = dsms.run_once().unwrap()[0].query.index();
            assert_eq!(
                pick, first,
                "{policy:?} deciding {idle} after the last push"
            );
        }
    }
}

/// One probe that matches k = 3 partners emits all three from a single
/// decision, in the join table's order, through the common segment.
#[test]
fn one_probe_emits_every_match_from_one_decision() {
    let (mut dsms, clock) = manual_dsms(RuntimePolicy::Fcfs);
    dsms.register(RtPlan::Join {
        left_stream: StreamId::new(0),
        right_stream: StreamId::new(1),
        left_ops: vec![],
        right_ops: vec![],
        join: RtJoin::new(0, 0, Nanos::from_secs(1)),
        common_ops: vec![RtOp::project(vec![1, 3], us(1))],
    })
    .unwrap();
    for v in 1..=3 {
        dsms.push(StreamId::new(0), Record::new(vec![7, v]));
        clock.advance(us(10));
    }
    assert!(dsms.run_until_idle().is_empty(), "nothing to match yet");
    dsms.push(StreamId::new(1), Record::new(vec![7, 9]));
    let batch = dsms.run_once().unwrap();
    let fields: Vec<&[i64]> = batch.iter().map(|e| e.record.fields()).collect();
    assert_eq!(fields, [[1, 9], [2, 9], [3, 9]]);
    assert!(dsms.run_once().is_none());
}

/// `run_until_idle` is its `run_once` batches end to end, join fan-outs
/// (batches of more than one) included.
#[test]
fn run_until_idle_is_the_concatenation_of_run_once_batches() {
    let loaded = || {
        let (mut dsms, clock) = manual_dsms(RuntimePolicy::Hnr);
        dsms.register(RtPlan::Join {
            left_stream: StreamId::new(0),
            right_stream: StreamId::new(1),
            left_ops: vec![],
            right_ops: vec![],
            join: RtJoin::new(0, 0, Nanos::from_secs(1)),
            common_ops: vec![],
        })
        .unwrap();
        dsms.register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(Predicate::new(1, Cmp::Lt, 5), us(2), 0.5)],
        ))
        .unwrap();
        for v in 0..12i64 {
            dsms.push(
                StreamId::new((v % 3 == 0) as usize),
                Record::new(vec![v % 2, v]),
            );
            clock.advance(us(7));
        }
        dsms
    };
    let whole = loaded().run_until_idle();
    let mut dsms = loaded();
    let (mut parts, mut widest) = (Vec::new(), 0);
    while let Some(batch) = dsms.run_once() {
        widest = widest.max(batch.len());
        parts.extend(batch);
    }
    assert!(widest >= 2, "no join fan-out in the script");
    assert_eq!(whole, parts);
}

#[test]
fn filter_project_pipeline() {
    let (mut dsms, clock) = manual_dsms(RuntimePolicy::Hnr);
    let q = dsms
        .register(RtPlan::single(
            StreamId::new(0),
            vec![
                RtOp::select(Predicate::new(0, Cmp::Ge, 100), us(5), 0.5),
                RtOp::project(vec![1], us(1)),
            ],
        ))
        .unwrap();
    dsms.push(StreamId::new(0), Record::new(vec![150, 7]));
    dsms.push(StreamId::new(0), Record::new(vec![50, 8]));
    dsms.push(StreamId::new(0), Record::new(vec![100, 9]));
    clock.advance(Nanos::from_millis(1));
    let out = dsms.run_until_idle();
    assert_eq!(out.len(), 2);
    assert!(out.iter().all(|e| e.query == q));
    assert_eq!(out[0].record.fields(), &[7]);
    assert_eq!(out[1].record.fields(), &[9]);
    // Arrived at t=0, emitted at t=1ms.
    assert_eq!(out[0].response, Nanos::from_millis(1));
    assert!(out[0].slowdown >= 1.0);
    let stats = dsms.stats();
    assert_eq!(stats.pushed, 3);
    assert_eq!(stats.emitted, 2);
    assert_eq!(stats.dropped, 1);
    assert_eq!(stats.qos.count, 2);
    assert_eq!(dsms.pending(), 0);
}

#[test]
fn hnr_orders_heterogeneous_queries_like_example1() {
    // Q0 expensive+productive, Q1 cheap+selective: HNR must run Q1 first,
    // HR must run Q0 first (the Example 1 contrast, now on real records).
    let register = |dsms: &mut Dsms| {
        dsms.register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(
                Predicate::new(0, Cmp::Ge, 0), // passes everything
                Nanos::from_millis(5),
                1.0,
            )],
        ))
        .unwrap();
        dsms.register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(
                Predicate::new(0, Cmp::Lt, 33),
                Nanos::from_millis(2),
                0.33,
            )],
        ))
        .unwrap();
    };
    for (policy, first_query) in [(RuntimePolicy::Hnr, 1u32), (RuntimePolicy::Hr, 0u32)] {
        let (mut dsms, clock) = manual_dsms(policy);
        register(&mut dsms);
        dsms.push(StreamId::new(0), Record::new(vec![10]));
        clock.advance(us(10));
        let first = dsms.run_once().unwrap();
        assert_eq!(
            first[0].query.index() as u32,
            first_query,
            "{policy:?} ran the wrong query first"
        );
    }
}

#[test]
fn window_equi_join_matches_keys_within_window() {
    let (mut dsms, clock) = manual_dsms(RuntimePolicy::Fcfs);
    dsms.register(RtPlan::Join {
        left_stream: StreamId::new(0),
        right_stream: StreamId::new(1),
        left_ops: vec![],
        right_ops: vec![],
        join: RtJoin::new(0, 0, Nanos::from_millis(100)),
        common_ops: vec![],
    })
    .unwrap();

    // key 7 on the left at t=0.
    dsms.push(StreamId::new(0), Record::new(vec![7, 111]));
    clock.advance(Nanos::from_millis(10));
    // key 7 on the right at t=10ms: inside the window.
    dsms.push(StreamId::new(1), Record::new(vec![7, 222]));
    // key 8: no partner.
    dsms.push(StreamId::new(1), Record::new(vec![8, 333]));
    let out = dsms.run_until_idle();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].record.fields(), &[7, 111, 7, 222]);
    // Composite arrival = the later constituent's arrival (Definition 5).
    assert_eq!(out[0].arrival, Nanos::from_millis(10));

    // A partner outside the window does not match.
    clock.advance(Nanos::from_millis(500));
    dsms.push(StreamId::new(1), Record::new(vec![7, 444]));
    let out = dsms.run_until_idle();
    assert!(out.is_empty(), "stale partner matched: {out:?}");
}

#[test]
fn join_respects_pre_filters() {
    let (mut dsms, clock) = manual_dsms(RuntimePolicy::Hnr);
    dsms.register(RtPlan::Join {
        left_stream: StreamId::new(0),
        right_stream: StreamId::new(1),
        left_ops: vec![RtOp::select(Predicate::new(1, Cmp::Gt, 50), us(2), 0.5)],
        right_ops: vec![],
        join: RtJoin::new(0, 0, Nanos::from_secs(1)),
        common_ops: vec![RtOp::project(vec![0, 1, 3], us(1))],
    })
    .unwrap();
    dsms.push(StreamId::new(0), Record::new(vec![1, 40])); // filtered out
    dsms.push(StreamId::new(0), Record::new(vec![1, 60])); // survives
    clock.advance(us(5));
    dsms.push(StreamId::new(1), Record::new(vec![1, 999]));
    let out = dsms.run_until_idle();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].record.fields(), &[1, 60, 999]);
}

#[test]
fn registration_after_push_is_rejected() {
    let (mut dsms, _clock) = manual_dsms(RuntimePolicy::Fcfs);
    dsms.register(RtPlan::single(
        StreamId::new(0),
        vec![RtOp::select(Predicate::new(0, Cmp::Ge, 0), us(1), 1.0)],
    ))
    .unwrap();
    dsms.push(StreamId::new(0), Record::new(vec![1]));
    let err = dsms
        .register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(Predicate::new(0, Cmp::Ge, 0), us(1), 1.0)],
        ))
        .unwrap_err();
    assert!(err.to_string().contains("before pushing"));
    // After draining, registration works again.
    dsms.run_until_idle();
    assert!(dsms
        .register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(Predicate::new(0, Cmp::Ge, 0), us(1), 1.0)],
        ))
        .is_ok());
}

#[test]
fn adaptive_refresh_tracks_selectivity_drift() {
    // Both queries start with identical estimates; the data make Q0's
    // predicate nearly always pass (expensive per emission) and Q1's almost
    // never. After observation + refresh, HNR must prefer Q1.
    let (mut dsms, clock) = manual_dsms(RuntimePolicy::Hnr);
    let q0 = dsms
        .register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(
                Predicate::new(0, Cmp::Ge, 10), // true for our feed
                Nanos::from_millis(5),
                0.5,
            )],
        ))
        .unwrap();
    let q1 = dsms
        .register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(
                Predicate::new(0, Cmp::Lt, 10), // false for our feed
                Nanos::from_millis(5),
                0.5,
            )],
        ))
        .unwrap();
    // Warm-up: 200 records, all with field ≥ 10.
    for i in 0..200 {
        dsms.push(StreamId::new(0), Record::new(vec![100 + i]));
        clock.advance(us(50));
        dsms.run_until_idle();
    }
    dsms.refresh_priorities().unwrap();
    // Both queries now have a pending tuple; under HNR the low-selectivity
    // (cheap per unit of T... identical costs, lower S ⇒ for equal C̄... )
    // priorities: S/(C̄·T): Q1's S ≈ 0 makes its numerator tiny but its C̄
    // is also tiny... verify via behaviour: HR (rate S/C̄) must now prefer
    // Q0; this asserts the estimates actually moved.
    let (mut hr, hr_clock) = manual_dsms(RuntimePolicy::Hr);
    let _ = (q0, q1);
    let a = hr
        .register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(
                Predicate::new(0, Cmp::Ge, 10),
                Nanos::from_millis(5),
                0.5,
            )],
        ))
        .unwrap();
    let b = hr
        .register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(
                Predicate::new(0, Cmp::Lt, 10),
                Nanos::from_millis(5),
                0.5,
            )],
        ))
        .unwrap();
    for i in 0..200 {
        hr.push(StreamId::new(0), Record::new(vec![100 + i]));
        hr_clock.advance(us(50));
        hr.run_until_idle();
    }
    hr.refresh_priorities().unwrap();
    hr.push(StreamId::new(0), Record::new(vec![100]));
    hr_clock.advance(us(10));
    let first = hr.run_once().unwrap();
    // HR’s rate S/C̄: Q(a) has S→1 (always passes), Q(b) S→~0; with equal
    // costs the productive query wins by a mile.
    assert_eq!(first[0].query, a);
    let _ = b;
}

#[test]
fn auto_refresh_runs_without_panicking() {
    let clock = ManualClock::new();
    let mut dsms = Dsms::new(
        DsmsConfig::new(RuntimePolicy::Bsd)
            .with_clock(Box::new(clock.clone()))
            .with_auto_refresh(10),
    )
    .unwrap();
    dsms.register(RtPlan::single(
        StreamId::new(0),
        vec![RtOp::select(Predicate::new(0, Cmp::Ge, 50), us(3), 0.5)],
    ))
    .unwrap();
    for i in 0..100i64 {
        dsms.push(StreamId::new(0), Record::new(vec![i % 100]));
        clock.advance(us(20));
        dsms.run_until_idle();
    }
    let stats = dsms.stats();
    assert_eq!(stats.pushed, 100);
    assert_eq!(stats.emitted + stats.dropped, 100);
    assert!(stats.decisions >= 100);
}

#[test]
fn fcfs_emits_in_arrival_order_across_queries() {
    let (mut dsms, clock) = manual_dsms(RuntimePolicy::Fcfs);
    for _ in 0..3 {
        dsms.register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(Predicate::new(0, Cmp::Ge, 0), us(1), 1.0)],
        ))
        .unwrap();
    }
    for v in 0..4i64 {
        dsms.push(StreamId::new(0), Record::new(vec![v]));
        clock.advance(us(100));
    }
    let out = dsms.run_until_idle();
    assert_eq!(out.len(), 12);
    // Arrival times never decrease along the emission sequence under FCFS.
    for w in out.windows(2) {
        assert!(w[0].arrival <= w[1].arrival);
    }
}

#[test]
fn introspection_reports_learned_estimates() {
    let (mut dsms, clock) = manual_dsms(RuntimePolicy::Hnr);
    let q = dsms
        .register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(
                Predicate::new(0, Cmp::Lt, 25), // true for ~25% of 0..100
                us(5),
                0.9, // wrong initial estimate
            )],
        ))
        .unwrap();
    // Values stride through 0..100 out of order so the EWMA sees the 25%
    // pass rate interleaved rather than in long runs.
    for i in 0..400i64 {
        dsms.push(StreamId::new(0), Record::new(vec![(i * 37) % 100]));
        clock.advance(Nanos::from_millis(2));
        dsms.run_until_idle();
    }
    let est = dsms.estimates(q).unwrap();
    assert_eq!(est.len(), 1);
    let (_, sel) = est[0];
    assert!(
        (sel - 0.25).abs() < 0.08,
        "learned selectivity {sel}, expected ≈ 0.25"
    );
    // Stream gap was measured at ~2ms.
    let gap = dsms.measured_gap(StreamId::new(0)).unwrap();
    assert!(
        (gap.as_millis_f64() - 2.0).abs() < 0.2,
        "measured gap {gap}"
    );
    assert!(dsms.estimated_ideal_time(q).is_some());
    assert!(dsms.estimates(hcq_common::QueryId::new(9)).is_none());
}

#[test]
fn cql_queries_run_end_to_end() {
    use hcq_aqsios::parse_cql;
    let (mut dsms, clock) = manual_dsms(RuntimePolicy::Hnr);
    let alerts = dsms
        .register(parse_cql("SELECT f1 FROM s0 WHERE f0 >= 500").unwrap())
        .unwrap();
    let joined = dsms
        .register(
            parse_cql("SELECT f0, f3 FROM s0 JOIN s1 ON f1 = f0 WITHIN 1s WHERE s0.f0 >= 100")
                .unwrap(),
        )
        .unwrap();
    // s0 records: (price, merchant); s1 records: (merchant, flag).
    dsms.push(StreamId::new(0), Record::new(vec![700, 4])); // alert + join candidate
    dsms.push(StreamId::new(0), Record::new(vec![50, 4])); // neither
    clock.advance(Nanos::from_millis(5));
    dsms.push(StreamId::new(1), Record::new(vec![4, 1])); // join partner
    let out = dsms.run_until_idle();
    let alert_out: Vec<_> = out.iter().filter(|e| e.query == alerts).collect();
    let join_out: Vec<_> = out.iter().filter(|e| e.query == joined).collect();
    assert_eq!(alert_out.len(), 1);
    assert_eq!(alert_out[0].record.fields(), &[4]);
    assert_eq!(join_out.len(), 1);
    // Composite (700, 4, 4, 1) projected to f0, f3.
    assert_eq!(join_out[0].record.fields(), &[700, 1]);
}

#[test]
fn load_shedding_caps_pending_work() {
    let clock = ManualClock::new();
    let mut dsms = Dsms::new(
        DsmsConfig::new(RuntimePolicy::Fcfs)
            .with_clock(Box::new(clock.clone()))
            .with_max_pending(4),
    )
    .unwrap();
    for _ in 0..2 {
        dsms.register(RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(Predicate::new(0, Cmp::Ge, 0), us(1), 1.0)],
        ))
        .unwrap();
    }
    // Each push fans out to 2 queues; cap 4 admits only the first two.
    for v in 0..5i64 {
        dsms.push(StreamId::new(0), Record::new(vec![v]));
    }
    assert_eq!(dsms.pending(), 4);
    let stats = dsms.stats();
    assert_eq!(stats.pushed, 5);
    assert_eq!(stats.shed, 3);
    // Draining frees capacity for new admissions.
    clock.advance(us(100));
    let out = dsms.run_until_idle();
    assert_eq!(out.len(), 4, "two admitted tuples × two queries");
    dsms.push(StreamId::new(0), Record::new(vec![9]));
    assert_eq!(dsms.pending(), 2);
    assert_eq!(dsms.stats().shed, 3, "no shedding once drained");
}

/// Register the mixed plan: two streams feed two filtering queries each
/// (select, then project) and a window join across both.
fn register_mixed_plan(dsms: &mut Dsms) {
    for q in 0..4u64 {
        dsms.register(RtPlan::single(
            StreamId::new(q as usize % 2),
            vec![
                RtOp::select(
                    Predicate::new(0, Cmp::Ge, 20 * q as i64),
                    us(2 + 3 * q),
                    0.5,
                ),
                RtOp::project(vec![1], us(1 + q)),
            ],
        ))
        .unwrap();
    }
    dsms.register(RtPlan::Join {
        left_stream: StreamId::new(0),
        right_stream: StreamId::new(1),
        left_ops: vec![],
        right_ops: vec![],
        join: RtJoin::new(0, 0, Nanos::from_millis(1)),
        common_ops: vec![],
    })
    .unwrap();
}

/// Record `step` of the mixed plan's input, and its stream.
fn mixed_input(step: u64) -> (StreamId, Record) {
    let stream = StreamId::new((step % 3 % 2) as usize);
    (
        stream,
        Record::new(vec![(step * 37 % 100) as i64, step as i64]),
    )
}

/// 600 pushes, each followed by up to six `run_once`, then a drain:
/// every emission, in order.
fn interleaved_script(dsms: &mut Dsms, clock: &ManualClock) -> Vec<Emission> {
    let mut out = Vec::new();
    for step in 0..600u64 {
        let (stream, record) = mixed_input(step);
        dsms.push(stream, record);
        clock.advance(us(step % 5 + 1));
        for _ in 0..step % 7 {
            let Some(batch) = dsms.run_once() else {
                break;
            };
            out.extend(batch);
        }
    }
    out.extend(dsms.run_until_idle());
    out
}

/// The `Dsms` keeps the executor contract: wrapped in
/// [`ContractAudit`], every policy sees at each decision exactly the queues
/// it was told about (`run_once` serves the unit it selected or the one
/// that holds, every copy a push admits reaches `on_enqueue`), on the
/// mixed plan with pushes interleaved with runs of `run_once`. Under
/// `with_max_pending` the valve sheds whole fan-outs before they are
/// queued, so no shed reaches the policy.
#[test]
fn dsms_serves_what_its_policy_selects() {
    let policies = [
        RuntimePolicy::Fcfs,
        RuntimePolicy::RoundRobin,
        RuntimePolicy::Srpt,
        RuntimePolicy::Hr,
        RuntimePolicy::Hnr,
        RuntimePolicy::Lsf,
        RuntimePolicy::Bsd,
    ];
    for kind in policies {
        for cap in [None, Some(8)] {
            let at = format!("{kind:?}/{cap:?}");
            let sheds = Arc::new(AtomicU64::new(0));
            let clock = ManualClock::new();
            let mut cfg = DsmsConfig::new(kind).with_clock(Box::new(clock.clone()));
            if let Some(cap) = cap {
                cfg = cfg.with_max_pending(cap);
            }
            let audit = ContractAudit::new(kind.build(), Arc::clone(&sheds));
            let mut dsms = Dsms::with_policy(cfg, Box::new(audit)).unwrap();
            register_mixed_plan(&mut dsms);
            interleaved_script(&mut dsms, &clock);
            let stats = dsms.stats();
            assert_eq!(dsms.pending(), 0, "{at}");
            assert_eq!(
                sheds.load(Ordering::Relaxed),
                0,
                "{at}: a shed reached the policy"
            );
            assert_eq!(stats.shed > 0, cap.is_some(), "{at}: the valve sheds");
            assert!(stats.emitted > 0, "{at}");
        }
    }
}

/// A `Dsms` on a manual clock around a [`HoldProbe`] of `kind`.
fn probed_dsms(
    kind: RuntimePolicy,
    cap: Option<usize>,
    refresh: Option<u64>,
    keep_holds: bool,
) -> (Dsms, ManualClock, Arc<Selects>) {
    let clock = ManualClock::new();
    let mut cfg = DsmsConfig::new(kind).with_clock(Box::new(clock.clone()));
    if let Some(cap) = cap {
        cfg = cfg.with_max_pending(cap);
    }
    if let Some(every) = refresh {
        cfg = cfg.with_auto_refresh(every);
    }
    let (probe, selects) = HoldProbe::new(kind.build(), keep_holds);
    let dsms = Dsms::with_policy(cfg, Box::new(probe)).unwrap();
    (dsms, clock, selects)
}

/// The hold changes no emission. Under each static policy, bounded or
/// not, with auto-refresh or without, a `Dsms` that serves held choices
/// and one whose probe clears `holds` emit the same sequence, every field
/// of every emission included, and end with the same statistics.
#[test]
fn a_held_choice_changes_no_emission() {
    for kind in [RuntimePolicy::Srpt, RuntimePolicy::Hr, RuntimePolicy::Hnr] {
        for cap in [None, Some(8)] {
            for refresh in [None, Some(5)] {
                let at = format!("{kind:?}/{cap:?}/{refresh:?}");
                let run = |keep_holds| {
                    let (mut dsms, clock, selects) = probed_dsms(kind, cap, refresh, keep_holds);
                    register_mixed_plan(&mut dsms);
                    let out = interleaved_script(&mut dsms, &clock);
                    (out, dsms.stats(), selects.needed())
                };
                let (held, held_stats, held_selects) = run(true);
                let (asked, asked_stats, asked_selects) = run(false);
                assert!(!held.is_empty(), "{at}");
                assert_eq!(held, asked, "{at}");
                assert_eq!(held_stats, asked_stats, "{at}");
                assert_eq!(asked_selects, asked_stats.decisions, "{at}");
                assert!(held_selects < asked_selects, "{at}: no hold was served");
            }
        }
    }
}

/// Only a static-priority choice skips `select`. Batches of 60 records,
/// each drained before the next: FCFS, RR, LSF and BSD are asked at every
/// decision, SRPT, HR and HNR at most at every second one. Release builds
/// never ask while a hold is live; debug builds ask at every decision and
/// assert the held unit.
#[test]
fn only_static_choices_skip_select() {
    let policies = [
        RuntimePolicy::Fcfs,
        RuntimePolicy::RoundRobin,
        RuntimePolicy::Srpt,
        RuntimePolicy::Hr,
        RuntimePolicy::Hnr,
        RuntimePolicy::Lsf,
        RuntimePolicy::Bsd,
    ];
    for kind in policies {
        let (mut dsms, clock, selects) = probed_dsms(kind, None, None, true);
        register_mixed_plan(&mut dsms);
        for step in 0..600u64 {
            let (stream, record) = mixed_input(step);
            dsms.push(stream, record);
            clock.advance(us(1));
            if step % 60 == 59 {
                dsms.run_until_idle();
            }
        }
        let decisions = dsms.stats().decisions;
        let holds = matches!(
            kind,
            RuntimePolicy::Srpt | RuntimePolicy::Hr | RuntimePolicy::Hnr
        );
        if holds {
            assert!(
                selects.needed() <= decisions / 2,
                "{kind:?}: {} selects for {decisions} decisions",
                selects.needed()
            );
        } else {
            assert_eq!(selects.needed(), decisions, "{kind:?}");
        }
        let asked = if cfg!(debug_assertions) {
            decisions
        } else {
            selects.needed()
        };
        assert_eq!(selects.all(), asked, "{kind:?}");
    }
}
