//! End-to-end simulator tests, including the paper's worked Example 1
//! (Table 1) reproduced exactly.

use hcq_common::{det, Nanos, StreamId};
use hcq_core::{ClusterConfig, ClusteredBsdPolicy, PolicyKind};
use hcq_engine::{
    simulate, simulate_monitored, SchedulingLevel, SimConfig, SimReport, VecTelemetry,
};
use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq_streams::{PoissonSource, TraceReplay};

fn ms(n: u64) -> Nanos {
    Nanos::from_millis(n)
}

/// The key attribute the engine assigns to physical tuple `id` under `seed`
/// (mirrors `Simulator::inject`).
fn key_of(seed: u64, id: u64) -> u64 {
    det::unit_range(det::splitmix64(det::mix2(seed, id)), 1, 100)
}

/// Example 1 needs the middle of three tuples (and only it) to satisfy the
/// selectivity-0.33 predicate `key ≤ 33`.
fn example1_seed() -> u64 {
    (0..10_000u64)
        .find(|&seed| key_of(seed, 0) > 33 && key_of(seed, 1) <= 33 && key_of(seed, 2) > 33)
        .expect("a suitable seed exists in the first 10k")
}

/// Build Example 1 (§3.4): Q1 = one operator (c = 5 ms, s = 1.0); Q2 = one
/// operator (c = 2 ms, s = 0.33); three tuples arrive at t = 0.
fn example1(policy: PolicyKind) -> SimReport {
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .select(ms(5), 1.0)
            .build()
            .unwrap(),
    );
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .select(ms(2), 0.33)
            .build()
            .unwrap(),
    );
    let trace = TraceReplay::from_arrivals(vec![Nanos::ZERO, Nanos::ZERO, Nanos::ZERO]).unwrap();
    simulate(
        &plan,
        &StreamRates::none(),
        vec![Box::new(trace)],
        policy.build(),
        SimConfig::new(3).with_seed(example1_seed()),
    )
    .unwrap()
}

#[test]
fn table1_hr_numbers_exact() {
    let r = example1(PolicyKind::Hr);
    // Paper Table 1: HR gives average response 12.25 ms, slowdown 3.875.
    assert_eq!(r.emitted, 4);
    assert_eq!(r.dropped, 2);
    assert!((r.qos.avg_response_ms - 12.25).abs() < 1e-9, "{r:?}");
    assert!((r.qos.avg_slowdown - 3.875).abs() < 1e-9, "{r:?}");
}

#[test]
fn table1_hnr_numbers_exact() {
    let r = example1(PolicyKind::Hnr);
    // Paper Table 1: HNR gives average response 13.0 ms, slowdown 2.9.
    assert_eq!(r.emitted, 4);
    assert!((r.qos.avg_response_ms - 13.0).abs() < 1e-9, "{r:?}");
    assert!((r.qos.avg_slowdown - 2.9).abs() < 1e-9, "{r:?}");
}

/// A small heterogeneous single-stream workload.
fn small_workload() -> GlobalPlan {
    let mut plan = GlobalPlan::default();
    for i in 0..8u64 {
        let cost = ms(1 << (i % 4));
        let sel = 0.2 + 0.1 * (i % 8) as f64;
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(cost, sel)
                .stored_join(cost, sel)
                .project(cost)
                .build()
                .unwrap(),
        );
    }
    plan
}

fn run_small(policy: PolicyKind, seed: u64) -> SimReport {
    simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(40), 99))],
        policy.build(),
        SimConfig::new(500).with_seed(seed),
    )
    .unwrap()
}

#[test]
fn workload_realization_is_policy_independent() {
    // Every policy must see identical tuple outcomes: emitted and dropped
    // counts agree across all seven policies.
    let reference = run_small(PolicyKind::Fcfs, 5);
    assert!(reference.emitted > 0);
    for kind in PolicyKind::ALL {
        let r = run_small(kind, 5);
        assert_eq!(r.emitted, reference.emitted, "{}", kind.name());
        assert_eq!(r.dropped, reference.dropped, "{}", kind.name());
        assert_eq!(r.arrivals, reference.arrivals, "{}", kind.name());
    }
}

#[test]
fn runs_are_deterministic() {
    let a = run_small(PolicyKind::Bsd, 7);
    let b = run_small(PolicyKind::Bsd, 7);
    assert_eq!(a.qos, b.qos);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.sched_points, b.sched_points);
}

#[test]
fn slowdowns_are_at_least_one() {
    for kind in PolicyKind::ALL {
        let r = run_small(kind, 3);
        assert!(
            r.qos.avg_slowdown >= 1.0,
            "{}: avg slowdown {}",
            kind.name(),
            r.qos.avg_slowdown
        );
        assert!(r.qos.max_slowdown >= r.qos.avg_slowdown);
        assert!(r.qos.l2_slowdown >= r.qos.max_slowdown);
    }
}

#[test]
fn hnr_beats_others_on_avg_slowdown_under_load() {
    // Saturate the system: mean gap 10ms versus ~8 queries whose expected
    // per-arrival cost is several ms.
    let run = |kind: PolicyKind| {
        simulate(
            &small_workload(),
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(12), 4))],
            kind.build(),
            SimConfig::new(2_000).with_seed(1),
        )
        .unwrap()
    };
    let hnr = run(PolicyKind::Hnr);
    let fcfs = run(PolicyKind::Fcfs);
    let rr = run(PolicyKind::RoundRobin);
    assert!(
        hnr.qos.avg_slowdown < fcfs.qos.avg_slowdown,
        "HNR {} vs FCFS {}",
        hnr.qos.avg_slowdown,
        fcfs.qos.avg_slowdown
    );
    assert!(hnr.qos.avg_slowdown < rr.qos.avg_slowdown);
}

#[test]
fn lsf_beats_hnr_on_max_slowdown_under_load() {
    let run = |kind: PolicyKind| {
        simulate(
            &small_workload(),
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(12), 4))],
            kind.build(),
            SimConfig::new(2_000).with_seed(1),
        )
        .unwrap()
    };
    let lsf = run(PolicyKind::Lsf);
    let hnr = run(PolicyKind::Hnr);
    assert!(
        lsf.qos.max_slowdown < hnr.qos.max_slowdown,
        "LSF {} vs HNR {}",
        lsf.qos.max_slowdown,
        hnr.qos.max_slowdown
    );
}

#[test]
fn operator_level_emits_the_same_tuples() {
    let q = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(40), 99))],
        PolicyKind::Hnr.build(),
        SimConfig::new(300).with_seed(2),
    )
    .unwrap();
    let o = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(40), 99))],
        PolicyKind::Hnr.build(),
        SimConfig::new(300)
            .with_seed(2)
            .with_level(SchedulingLevel::Operator),
    )
    .unwrap();
    assert_eq!(q.emitted, o.emitted);
    assert_eq!(q.dropped, o.dropped);
    // Operator-level takes (many) more scheduling points.
    assert!(o.sched_points > q.sched_points);
}

#[test]
fn clustered_bsd_emits_like_exact_bsd() {
    let plan = small_workload();
    let exact = simulate(
        &plan,
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(20), 11))],
        PolicyKind::Bsd.build(),
        SimConfig::new(800).with_seed(6),
    )
    .unwrap();
    for m in [1, 4, 16] {
        let clustered = simulate(
            &plan,
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(20), 11))],
            Box::new(ClusteredBsdPolicy::new(ClusterConfig::logarithmic(m))),
            SimConfig::new(800).with_seed(6),
        )
        .unwrap();
        assert_eq!(clustered.emitted, exact.emitted, "m={m}");
        // Batching collapses scheduling points.
        assert!(clustered.sched_points <= exact.sched_points, "m={m}");
    }
}

#[test]
fn overhead_charging_slows_the_system() {
    let free = run_small(PolicyKind::Bsd, 9);
    let charged = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(40), 99))],
        PolicyKind::Bsd.build(),
        SimConfig::new(500).with_seed(9).with_overhead(true),
    )
    .unwrap();
    assert!(charged.overhead_time > Nanos::ZERO);
    assert!(charged.qos.avg_slowdown >= free.qos.avg_slowdown);
    assert_eq!(charged.emitted, free.emitted, "outcomes unchanged");
}

#[test]
fn join_query_produces_composites() {
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .select(ms(1), 0.8)
            .window_join(
                QueryBuilder::on(StreamId::new(1)).select(ms(1), 0.8),
                ms(2),
                0.5,
                Nanos::from_secs(1),
            )
            .project(ms(1))
            .build()
            .unwrap(),
    );
    let rates = StreamRates::none()
        .with(StreamId::new(0), ms(50))
        .with(StreamId::new(1), ms(50));
    let sources: Vec<Box<dyn hcq_streams::ArrivalSource>> = vec![
        Box::new(PoissonSource::new(ms(50), 21)),
        Box::new(PoissonSource::new(ms(50), 22)),
    ];
    let r = simulate(
        &plan,
        &rates,
        sources,
        PolicyKind::Hnr.build(),
        SimConfig::new(2_000).with_seed(3),
    )
    .unwrap();
    assert!(r.emitted > 100, "emitted {}", r.emitted);
    assert!(r.qos.avg_slowdown >= 1.0);
    // Expected matches per arrival ≈ s_sel²·s_J·(S·V/τ) = 0.64·0.5·(0.8·20)
    // ≈ 5 per surviving arrival; just check the order of magnitude.
    let per_arrival = r.emitted as f64 / r.arrivals as f64;
    assert!(per_arrival > 0.5 && per_arrival < 50.0, "{per_arrival}");
}

#[test]
fn join_emissions_are_policy_independent() {
    let mut counts = Vec::new();
    for kind in [
        PolicyKind::Fcfs,
        PolicyKind::Hnr,
        PolicyKind::Bsd,
        PolicyKind::Lsf,
    ] {
        let mut plan = GlobalPlan::default();
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(ms(1), 0.9)
                .window_join(
                    QueryBuilder::on(StreamId::new(1)).select(ms(1), 0.9),
                    ms(1),
                    0.4,
                    Nanos::from_millis(400),
                )
                .build()
                .unwrap(),
        );
        let rates = StreamRates::none()
            .with(StreamId::new(0), ms(30))
            .with(StreamId::new(1), ms(30));
        let sources: Vec<Box<dyn hcq_streams::ArrivalSource>> = vec![
            Box::new(PoissonSource::new(ms(30), 31)),
            Box::new(PoissonSource::new(ms(30), 32)),
        ];
        let r = simulate(
            &plan,
            &rates,
            sources,
            kind.build(),
            SimConfig::new(1_000).with_seed(8),
        )
        .unwrap();
        counts.push((kind.name(), r.emitted, r.arrivals));
    }
    for w in counts.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{:?}", counts);
        assert_eq!(w[0].2, w[1].2);
    }
}

#[test]
fn sharing_strategies_emit_identical_tuples() {
    use hcq_core::SharingStrategy;
    let build_shared = || {
        let mut plan = GlobalPlan::default();
        let members: Vec<_> = (0..10)
            .map(|i| {
                plan.add_query(
                    QueryBuilder::on(StreamId::new(0))
                        .select(ms(1), 0.5)
                        .stored_join(ms(1 << (i % 4)), 0.3 + 0.07 * i as f64)
                        .project(ms(1))
                        .build()
                        .unwrap(),
                )
            })
            .collect();
        plan.share_first_op(members).unwrap();
        plan
    };
    let mut results = Vec::new();
    for strat in [
        SharingStrategy::Max,
        SharingStrategy::Sum,
        SharingStrategy::Pdt,
    ] {
        let r = simulate(
            &build_shared(),
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(25), 77))],
            PolicyKind::Hnr.build(),
            SimConfig::new(800).with_seed(12).with_sharing(strat),
        )
        .unwrap();
        results.push((strat, r.emitted, r.qos.avg_slowdown));
        assert!(r.emitted > 0);
    }
    assert_eq!(results[0].1, results[1].1);
    assert_eq!(results[1].1, results[2].1);
}

#[test]
fn drain_false_stops_at_last_arrival() {
    let mut cfg = SimConfig::new(200).with_seed(1);
    cfg.drain = false;
    let undrained = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(5), 50))],
        PolicyKind::Fcfs.build(),
        cfg,
    )
    .unwrap();
    let drained = run_small(PolicyKind::Fcfs, 1);
    // Overloaded at 5ms gaps: work remains when injection stops.
    assert!(undrained.emitted < drained.emitted + undrained.arrivals as u64);
    assert!(undrained.end_time > Nanos::ZERO);
}

#[test]
fn per_class_breakdown_covers_all_emissions() {
    let r = run_small(PolicyKind::Hnr, 5);
    assert_eq!(r.classes.overall().count, r.qos.count);
    assert_eq!(r.histogram.total(), r.qos.count);
}

#[test]
fn measured_utilization_tracks_offered_load() {
    // Light load: utilization well below 1.
    let light = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(200), 5))],
        PolicyKind::Fcfs.build(),
        SimConfig::new(500).with_seed(5),
    )
    .unwrap();
    assert!(
        light.measured_utilization() < 0.4,
        "{}",
        light.measured_utilization()
    );
    let heavy = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(12), 5))],
        PolicyKind::Fcfs.build(),
        SimConfig::new(500).with_seed(5),
    )
    .unwrap();
    assert!(heavy.measured_utilization() > light.measured_utilization());
}

#[test]
fn chain_priorities_drop_fastest_filters_first() {
    use hcq_core::StaticPolicy;
    use hcq_engine::SimModel;
    // Query A drops 90% in its first cheap operator; query B keeps
    // everything until an expensive tail. Chain must rank A far above B.
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .select(ms(1), 0.1)
            .project(ms(1))
            .build()
            .unwrap(),
    );
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .project(ms(1))
            .select(ms(10), 0.9)
            .build()
            .unwrap(),
    );
    let model = SimModel::build(
        &plan,
        &StreamRates::none(),
        SchedulingLevel::Query,
        hcq_core::SharingStrategy::Pdt,
    )
    .unwrap();
    let slopes = model.chain_priorities();
    assert_eq!(slopes.len(), 2);
    assert!(
        slopes[0] > 10.0 * slopes[1],
        "chain slopes {slopes:?} should strongly prefer the fast-dropping query"
    );
    // And the custom policy is pluggable end-to-end.
    let r = simulate(
        &plan,
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(30), 1))],
        Box::new(StaticPolicy::custom("Chain", slopes)),
        SimConfig::new(300).with_seed(1),
    )
    .unwrap();
    assert!(r.emitted > 0);
}

#[test]
fn chain_reduces_memory_versus_fcfs_under_load() {
    use hcq_core::StaticPolicy;
    use hcq_engine::SimModel;
    let plan = small_workload();
    let model = SimModel::build(
        &plan,
        &StreamRates::none(),
        SchedulingLevel::Query,
        hcq_core::SharingStrategy::Pdt,
    )
    .unwrap();
    let chain_priorities = model.chain_priorities();
    let run = |policy: Box<dyn hcq_core::Policy>| {
        simulate(
            &plan,
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(12), 4))],
            policy,
            SimConfig::new(2_000).with_seed(1),
        )
        .unwrap()
    };
    let chain = run(Box::new(StaticPolicy::custom("Chain", chain_priorities)));
    let fcfs = run(PolicyKind::Fcfs.build());
    assert!(
        chain.avg_pending < fcfs.avg_pending,
        "Chain {} vs FCFS {}",
        chain.avg_pending,
        fcfs.avg_pending
    );
    assert!(chain.peak_pending <= fcfs.peak_pending);
    assert_eq!(chain.emitted, fcfs.emitted);
}

#[test]
fn memory_accounting_tracks_queue_population() {
    let r = run_small(PolicyKind::Fcfs, 5);
    assert!(r.avg_pending > 0.0);
    assert!(
        r.peak_pending >= 8,
        "peak at least one burst across 8 queries"
    );
    assert!(r.avg_pending <= r.peak_pending as f64);
}

#[test]
fn telemetry_windows_collect_trajectory() {
    let (r, sink) = simulate_monitored(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(40), 99))],
        PolicyKind::Hnr.build(),
        SimConfig::new(500)
            .with_seed(5)
            .with_telemetry_cadence(Nanos::from_secs(1)),
        VecTelemetry::new(),
    )
    .unwrap();
    // Each snapshot drains the slowdown summary: exact count/sum per window.
    let windows: Vec<_> = sink
        .samples
        .iter()
        .map(|s| *s.summary("hcq_slowdown").expect("registered summary"))
        .filter(|w| w.count > 0)
        .collect();
    let total: u64 = windows.iter().map(|w| w.count).sum();
    assert_eq!(total, r.qos.count, "every emission lands in some window");
    assert!(windows.len() > 1, "run spans multiple windows");
    let worst = windows
        .iter()
        .map(|w| w.sum / w.count as f64)
        .fold(0.0, f64::max);
    assert!(worst >= r.qos.avg_slowdown * 0.99);
}

#[test]
fn cost_jitter_zero_is_identical_to_baseline() {
    let base = run_small(PolicyKind::Hnr, 5);
    let zero = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(40), 99))],
        PolicyKind::Hnr.build(),
        SimConfig::new(500).with_seed(5).with_cost_jitter(0.0),
    )
    .unwrap();
    assert_eq!(base.qos, zero.qos);
    assert_eq!(base.end_time, zero.end_time);
}

#[test]
fn cost_jitter_preserves_policy_independence_and_orderings() {
    let run = |kind: PolicyKind| {
        simulate(
            &small_workload(),
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(12), 4))],
            kind.build(),
            SimConfig::new(2_000).with_seed(1).with_cost_jitter(0.3),
        )
        .unwrap()
    };
    let hnr = run(PolicyKind::Hnr);
    let fcfs = run(PolicyKind::Fcfs);
    // Outcomes still agree (jitter is policy-independent) …
    assert_eq!(hnr.emitted, fcfs.emitted);
    assert_eq!(hnr.busy_time, fcfs.busy_time);
    // … and the headline ordering survives ±30% per-execution noise.
    assert!(hnr.qos.avg_slowdown < fcfs.qos.avg_slowdown);
    // Jitter actually changed the timeline relative to the deterministic run.
    let det = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(12), 4))],
        PolicyKind::Hnr.build(),
        SimConfig::new(2_000).with_seed(1),
    )
    .unwrap();
    assert_ne!(det.busy_time, hnr.busy_time);
}

#[test]
fn mid_run_statics_update_crosses_the_policy_boundary() {
    // Two deterministic queries (selectivity 1), one tuple at t = 0.
    // SRPT ranks by 1/T: baseline prefers Q2 (T = 2ms); after the engine
    // installs fresh statics declaring Q1 much shorter, Q1 must run first.
    let build = || {
        let mut plan = GlobalPlan::default();
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(ms(5), 1.0)
                .build()
                .unwrap(),
        );
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(ms(2), 1.0)
                .build()
                .unwrap(),
        );
        let trace = TraceReplay::from_arrivals(vec![Nanos::ZERO]).unwrap();
        hcq_engine::Simulator::new(
            &plan,
            &StreamRates::none(),
            vec![Box::new(trace)],
            PolicyKind::Srpt.build(),
            SimConfig::new(1).with_seed(3),
        )
        .unwrap()
    };
    // Baseline: Q2 (2ms) then Q1 (5ms) -> responses 2ms and 7ms.
    let base = build().run().unwrap();
    assert!((base.qos.avg_response_ms - 4.5).abs() < 1e-9, "{base:?}");
    // Updated: Q1 re-estimated at T = 1ms outranks Q2; execution still costs
    // the plan's 5ms -> responses 5ms and 7ms.
    let mut sim = build();
    sim.update_unit_statics(0, hcq_core::UnitStatics::new(1.0, ms(1), ms(1)));
    let flipped = sim.run().unwrap();
    assert!(
        (flipped.qos.avg_response_ms - 6.0).abs() < 1e-9,
        "{flipped:?}"
    );
    assert_eq!(base.emitted, flipped.emitted);
}

// ---------------------------------------------------------------------------
// Overload governor, deadlines, and the expanded fault model
// ---------------------------------------------------------------------------

use hcq_engine::{AdmissionMode, GovernorConfig};
use hcq_streams::{ArrivalSource, FaultSpec, FaultySource};

/// Work-unit conservation with the expanded fault model: every per-query
/// tuple copy ends in exactly one bucket.
fn assert_conserved(r: &SimReport, queries: u64) {
    assert_eq!(
        r.arrivals * queries,
        r.emitted + r.dropped + r.shed + r.expired + r.pending_end as u64,
        "conservation: {r:?}"
    );
}

fn governor_cfg() -> GovernorConfig {
    GovernorConfig {
        cadence: ms(50),
        min_dwell: ms(200),
        escalate_pending: 48,
        deescalate_pending: 8,
        escalate_share: 0.5,
        deescalate_share: 0.1,
        ..GovernorConfig::default()
    }
}

#[test]
fn disabled_governor_changes_nothing() {
    // `SimConfig::new` leaves the governor disabled; the default config's
    // report must match a run that never mentions the governor at all.
    let base = run_small(PolicyKind::Hnr, 5);
    let r = run_small(PolicyKind::Hnr, 5);
    assert_eq!(base.qos, r.qos);
    assert_eq!(base.end_time, r.end_time);
    assert_eq!(r.governor_transitions, 0);
    assert_eq!(r.expired, 0);
    assert_eq!(r.op_failures, 0);
}

#[test]
fn governor_escalates_under_overload_and_sheds() {
    // 12ms gaps saturate the 8-query workload; the governor must leave
    // Unbounded, and once bounded the run sheds.
    let r = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(12), 4))],
        PolicyKind::Hnr.build(),
        SimConfig::new(2_000)
            .with_seed(1)
            .with_admission(AdmissionMode::Unbounded, 16)
            .with_watermark(32)
            .with_governor(governor_cfg()),
    )
    .unwrap();
    assert!(r.governor_transitions > 0, "{r:?}");
    assert!(r.shed > 0, "an escalated governor must bound the queues");
    assert_conserved(&r, 8);
}

#[test]
fn governor_transition_rate_is_dwell_bounded() {
    let cfg = governor_cfg();
    let r = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(12), 4))],
        PolicyKind::Hnr.build(),
        SimConfig::new(2_000)
            .with_seed(1)
            .with_admission(AdmissionMode::Unbounded, 16)
            .with_watermark(32)
            .with_governor(cfg),
    )
    .unwrap();
    let max = r.end_time.as_nanos() / cfg.min_dwell.as_nanos() + 1;
    assert!(
        r.governor_transitions <= max,
        "{} transitions over {} ns violates the {} ns dwell",
        r.governor_transitions,
        r.end_time.as_nanos(),
        cfg.min_dwell.as_nanos()
    );
}

#[test]
fn governor_runs_are_deterministic() {
    let run = || {
        simulate(
            &small_workload(),
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(12), 4))],
            PolicyKind::Bsd.build(),
            SimConfig::new(2_000)
                .with_seed(7)
                .with_admission(AdmissionMode::Unbounded, 16)
                .with_watermark(32)
                .with_governor(governor_cfg()),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.qos, b.qos);
    assert_eq!(a.governor_transitions, b.governor_transitions);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.end_time, b.end_time);
}

#[test]
fn governor_never_worse_than_worst_static_mode() {
    // Calibrated workload: sustained overload where bounding queues is the
    // right call. The governed run's average slowdown must not exceed the
    // worst static admission mode's (with slack for discretization).
    let run = |cfg: SimConfig| {
        simulate(
            &small_workload(),
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(12), 4))],
            PolicyKind::Hnr.build(),
            cfg,
        )
        .unwrap()
    };
    let governed = run(SimConfig::new(2_000)
        .with_seed(1)
        .with_admission(AdmissionMode::Unbounded, 16)
        .with_watermark(32)
        .with_governor(governor_cfg()));
    let worst = [
        run(SimConfig::new(2_000).with_seed(1)),
        run(SimConfig::new(2_000)
            .with_seed(1)
            .with_admission(AdmissionMode::DropTail, 16)),
        run(SimConfig::new(2_000)
            .with_seed(1)
            .with_admission(AdmissionMode::QosShed, 16)
            .with_watermark(32)),
    ]
    .iter()
    .map(|r| r.qos.avg_slowdown)
    .fold(0.0f64, f64::max);
    assert!(
        governed.qos.avg_slowdown <= worst * 1.05,
        "governed {} vs worst static {}",
        governed.qos.avg_slowdown,
        worst
    );
}

/// Single cheap query so deadline arithmetic is exact: one 5ms operator,
/// selectivity 1, tuples at fixed instants.
fn deadline_plan(deadline: Option<Nanos>) -> GlobalPlan {
    let mut plan = GlobalPlan::default();
    let mut b = QueryBuilder::on(StreamId::new(0)).select(ms(5), 1.0);
    if let Some(d) = deadline {
        b = b.with_deadline(d);
    }
    plan.add_query(b.build().unwrap());
    plan
}

fn run_deadline(deadline: Option<Nanos>, arrivals: Vec<Nanos>) -> SimReport {
    let n = arrivals.len() as u64;
    let trace = TraceReplay::from_arrivals(arrivals).unwrap();
    simulate(
        &deadline_plan(deadline),
        &StreamRates::none(),
        vec![Box::new(trace)],
        PolicyKind::Fcfs.build(),
        SimConfig::new(n).with_seed(1),
    )
    .unwrap()
}

#[test]
fn deadline_expires_stale_tuples() {
    // Three tuples at t = 0 under FCFS run at 0, 5, 10 ms. A 6ms response
    // budget lets the first two start in time; the third is 4ms late.
    let r = run_deadline(Some(ms(6)), vec![Nanos::ZERO; 3]);
    assert_eq!(r.emitted, 2, "{r:?}");
    assert_eq!(r.expired, 1, "{r:?}");
    assert_conserved(&r, 1);
    // No deadline: all three emit.
    let free = run_deadline(None, vec![Nanos::ZERO; 3]);
    assert_eq!(free.emitted, 3);
    assert_eq!(free.expired, 0);
}

#[test]
fn deadline_zero_requires_immediate_service() {
    // Deadline 0: a tuple must be dequeued at its arrival instant. The
    // first tuple starts at t = 0 and survives; the backlogged rest expire.
    let r = run_deadline(Some(Nanos::ZERO), vec![Nanos::ZERO; 4]);
    assert_eq!(r.emitted, 1, "{r:?}");
    assert_eq!(r.expired, 3, "{r:?}");
    assert_conserved(&r, 1);
}

#[test]
fn deadline_equal_to_ideal_time_is_exact_boundary() {
    // Budget == operator cost (5 ms). Tuple 2 dequeues at exactly
    // arrival + 5ms: `clock > due` is false, so it runs; tuple 3 at +10ms
    // expires.
    let r = run_deadline(Some(ms(5)), vec![Nanos::ZERO; 3]);
    assert_eq!(r.emitted, 2, "{r:?}");
    assert_eq!(r.expired, 1, "{r:?}");
    assert_conserved(&r, 1);
}

#[test]
fn all_tuples_expired_is_panic_free() {
    // A huge backlog under deadline 0: everything after the head expires,
    // the run terminates, and conservation still holds.
    let r = run_deadline(Some(Nanos::ZERO), vec![Nanos::ZERO; 64]);
    assert_eq!(r.emitted, 1);
    assert_eq!(r.expired, 63);
    assert_eq!(r.pending_end, 0);
    assert_conserved(&r, 1);
}

#[test]
fn op_failures_charge_time_and_conserve_tuples() {
    let run = |p: f64| {
        simulate(
            &small_workload(),
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(40), 99))],
            PolicyKind::Hnr.build(),
            SimConfig::new(500)
                .with_seed(5)
                .with_op_failures(p, ms(20), 2),
        )
        .unwrap()
    };
    let faulty = run(0.1);
    let clean = run(0.0);
    assert!(faulty.op_failures > 0, "{faulty:?}");
    assert!(faulty.quarantine_time > Nanos::ZERO);
    assert_conserved(&faulty, 8);
    assert_conserved(&clean, 8);
    // Failed runs are charged: busy time exceeds the clean run's.
    assert!(faulty.busy_time > clean.busy_time);
    assert_eq!(clean.op_failures, 0);
}

#[test]
fn op_failure_runs_are_rerun_deterministic() {
    let run = || {
        simulate(
            &small_workload(),
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(40), 99))],
            PolicyKind::Bsd.build(),
            SimConfig::new(500)
                .with_seed(5)
                .with_op_failures(0.15, ms(10), 1),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.op_failures, b.op_failures);
    assert_eq!(a.qos, b.qos);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.quarantine_time, b.quarantine_time);
}

#[test]
fn exhausted_retries_abandon_the_tuple() {
    // p close to 1 with 0 retries: nearly every dequeue fails once and is
    // abandoned (counted dropped), so almost nothing emits — yet the run
    // terminates and conserves.
    let r = simulate(
        &deadline_plan(None),
        &StreamRates::none(),
        vec![Box::new(
            TraceReplay::from_arrivals(vec![Nanos::ZERO; 8]).unwrap(),
        )],
        PolicyKind::Fcfs.build(),
        SimConfig::new(8)
            .with_seed(1)
            .with_op_failures(0.99, ms(5), 0),
    )
    .unwrap();
    assert!(r.op_failures >= 6, "{r:?}");
    assert_eq!(r.pending_end, 0);
    assert_conserved(&r, 1);
}

#[test]
fn stall_windows_reconcile_schedule_with_report() {
    // Satellite: a stall scheduled near the end of injection extends past
    // the final clock; the report must split the scheduled stall time into
    // an observed part and a truncated part that sum to the schedule.
    // Every arrival stalls: the coin rolled for the engine's one-ahead
    // buffered arrival (never injected) guarantees a window past the end.
    let spec = FaultSpec {
        burst_prob: 0.0,
        burst_len: 0,
        burst_spread: Nanos::ZERO,
        stall_prob: 1.0,
        stall_len: Nanos::from_secs(1),
        seed: 13,
    };
    let src = FaultySource::new(PoissonSource::new(ms(40), 99), spec);
    let r = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(src)],
        PolicyKind::Fcfs.build(),
        SimConfig::new(200).with_seed(5),
    )
    .unwrap();
    // Rebuild the schedule independently: an identically-seeded source
    // reports identical decision-time windows. The engine pre-buffers one
    // arrival beyond the 200 it injects, so it rolls 201 stall coins.
    let mut twin = FaultySource::new(PoissonSource::new(ms(40), 99), spec);
    let _ = hcq_streams::collect_arrivals(&mut twin, 201);
    let scheduled = twin.fault_stats().total_window_time();
    assert_eq!(scheduled, Nanos::from_secs(201), "201 coins, all stalls");
    assert_eq!(
        r.fault_stall_time + r.fault_stall_truncated,
        scheduled,
        "schedule/report reconciliation: {r:?}"
    );
    assert!(
        r.fault_stall_truncated > Nanos::ZERO,
        "a 30s stall near the end must outlive the run: {r:?}"
    );
    assert_conserved(&r, 8);
}

#[test]
fn disconnect_source_recovers_through_the_engine() {
    use hcq_streams::{DisconnectSource, DisconnectSpec};
    let spec = DisconnectSpec {
        disconnect_prob: 0.02,
        retry_base: ms(80),
        retry_factor: 2.0,
        retry_jitter: 0.25,
        max_retries: 6,
        reconnect_prob: 0.7,
        seed: 17,
    };
    let src = DisconnectSource::new(PoissonSource::new(ms(40), 99), spec);
    let r = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(src)],
        PolicyKind::Hnr.build(),
        SimConfig::new(500).with_seed(5),
    )
    .unwrap();
    assert!(r.source_disconnects > 0, "{r:?}");
    assert!(r.source_retry_attempts >= r.source_disconnects);
    assert!(r.source_lost_arrivals > 0, "downtime swallows arrivals");
    // Lost arrivals never reached the engine: conservation is over the
    // delivered arrivals only.
    assert_conserved(&r, 8);
    assert!(r.emitted > 0, "the feed comes back after reconnection");
}
