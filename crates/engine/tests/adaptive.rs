//! End-to-end tests for the online statistics estimator and the governor's
//! policy-switching meta-scheduler.

use hcq_common::{Nanos, TupleId};
use hcq_core::{ClusterConfig, PolicyKind};
use hcq_engine::{
    exec, simulate, simulate_traced, AdaptConfig, AdaptMode, AdmissionMode, GovernorConfig,
    SimConfig, SimReport, SimTuple, TraceEvent, VecTrace,
};
use hcq_plan::{GlobalPlan, OperatorSpec, QueryBuilder, StreamRates};
use hcq_streams::{ConstantSource, PoissonSource, TraceReplay};

fn ms(n: u64) -> Nanos {
    Nanos::from_millis(n)
}

/// A small heterogeneous single-stream workload (mirrors the integration
/// suite's).
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

use hcq_common::StreamId;

fn run_with(cfg: SimConfig, policy: Box<dyn hcq_core::Policy>, gap: Nanos) -> SimReport {
    simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(gap, 99))],
        policy,
        cfg,
    )
    .unwrap()
}

fn ewma_adapt() -> AdaptConfig {
    AdaptConfig {
        mode: AdaptMode::Ewma,
        alpha: 0.3,
        cadence: ms(20),
        min_observations: 2,
        refreeze_factor: 1.5,
        publish: true,
    }
}

/// A whole-run observation probe: windowed means, never flushed (the
/// cadence exceeds any run here), never published.
fn probe_adapt() -> AdaptConfig {
    AdaptConfig {
        mode: AdaptMode::Windowed,
        cadence: Nanos::from_millis(1 << 40),
        publish: false,
        ..ewma_adapt()
    }
}

// ---------------------------------------------------------------------------
// Adaptation disabled / observe-only: bit-identical decisions
// ---------------------------------------------------------------------------

#[test]
fn disabled_adaptation_changes_nothing() {
    // `SimConfig::new` leaves adaptation disabled; the default config's
    // report must match a run that never mentions the feature, across a
    // couple of seeds.
    for seed in [3, 5] {
        let base = run_with(
            SimConfig::new(400).with_seed(seed),
            PolicyKind::Hnr.build(),
            ms(40),
        );
        let again = run_with(
            SimConfig::new(400).with_seed(seed),
            PolicyKind::Hnr.build(),
            ms(40),
        );
        assert_eq!(base.qos, again.qos);
        assert_eq!(base.end_time, again.end_time);
        assert_eq!(again.statics_updates, 0);
        assert_eq!(again.domain_refreezes, 0);
        assert_eq!(again.policy_switches, 0);
        assert!(again.estimates.is_none());
    }
}

#[test]
fn observe_only_probe_is_decision_identical() {
    // publish = false: the estimator watches every execution but never
    // feeds the policy, so scheduling is identical to a non-adaptive run —
    // while the report still carries the harvested estimates.
    let plain = run_with(
        SimConfig::new(600)
            .with_seed(11)
            .with_cost_miscalibration(0.5, 42),
        PolicyKind::Bsd.build(),
        ms(30),
    );
    let probed = run_with(
        SimConfig::new(600)
            .with_seed(11)
            .with_cost_miscalibration(0.5, 42)
            .with_adaptation(probe_adapt()),
        PolicyKind::Bsd.build(),
        ms(30),
    );
    assert_eq!(plain.qos, probed.qos);
    assert_eq!(plain.end_time, probed.end_time);
    assert_eq!(plain.emitted, probed.emitted);
    assert_eq!(probed.statics_updates, 0, "observe-only must not publish");
    let est = probed.estimates.expect("probe run reports estimates");
    assert_eq!(est.len(), 8);
    assert!(est.iter().all(|s| s.avg_cost_ns >= 1.0));
}

// ---------------------------------------------------------------------------
// Convergence: estimates approach the measured statics
// ---------------------------------------------------------------------------

/// One query, selectivity 1 (every execution emits exactly one tuple): the
/// only uncertainty is the cost scale miscalibration injects.
fn single_query_plan(cost: Nanos) -> GlobalPlan {
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .select(cost, 1.0)
            .build()
            .unwrap(),
    );
    plan
}

#[test]
fn ewma_estimate_converges_to_the_measured_cost() {
    // The plan says 4 ms; miscalibration makes every execution really cost
    // something else. The EWMA must unlearn the plan value and settle on
    // the mean cost the run measured.
    let r = simulate(
        &single_query_plan(ms(4)),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(20), 7))],
        PolicyKind::Fcfs.build(),
        SimConfig::new(200)
            .with_seed(2)
            .with_cost_miscalibration(0.9, 5)
            .with_adaptation(AdaptConfig {
                publish: false,
                ..ewma_adapt()
            }),
    )
    .unwrap();
    let measured_ms = r.busy_time.as_nanos() as f64 / r.arrivals as f64 / 1e6;
    assert!(
        (measured_ms / 4.0 - 1.0).abs() > 0.1,
        "miscalibration must move the cost: {measured_ms} ms"
    );
    let est = r.estimates.expect("adaptive run reports estimates");
    let cost_ms = est[0].avg_cost_ns / 1e6;
    assert!(
        (cost_ms / measured_ms - 1.0).abs() < 0.01,
        "estimated {cost_ms} ms, measured {measured_ms} ms"
    );
    assert!(
        (est[0].selectivity - 1.0).abs() < 1e-9,
        "unit selectivity is exactly 1: {}",
        est[0].selectivity
    );
}

#[test]
fn windowed_estimates_track_the_active_phase() {
    // A window join whose right stream speeds up at 2 s, from one arrival
    // per 50 ms to one per 10 ms: a left tuple's probe then finds about 10
    // partners in the 100 ms window instead of 2. Windowed estimation with
    // a short cadence forgets the early phase; the final open window of the
    // left leaf sees only the late one.
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .window_join(QueryBuilder::on(StreamId::new(1)), ms(1), 1.0, ms(100))
            .build()
            .unwrap(),
    );
    let slow = (1..=40).map(|i| ms(50) * i);
    let fast = (1..=200).map(|i| ms(2_000) + ms(10) * i);
    let right = TraceReplay::from_arrivals(slow.chain(fast).collect()).unwrap();
    // The plan's statics assume the early phase's rates.
    let rates = StreamRates::none()
        .with(StreamId::new(0), ms(20))
        .with(StreamId::new(1), ms(50));
    let r = simulate(
        &plan,
        &rates,
        vec![Box::new(ConstantSource::new(ms(20))), Box::new(right)],
        PolicyKind::Fcfs.build(),
        SimConfig::new(400)
            .with_seed(2)
            .with_adaptation(AdaptConfig {
                mode: AdaptMode::Windowed,
                cadence: ms(100),
                publish: false,
                ..ewma_adapt()
            }),
    )
    .unwrap();
    let est = r.estimates.expect("adaptive run reports estimates");
    let matches = est[0].selectivity;
    assert!(
        (matches - 10.0).abs() < 1.5,
        "final window should reflect the late phase's ~10 matches per probe, got {matches}"
    );
}

// ---------------------------------------------------------------------------
// Closed loop: adaptive clustered BSD under seeded miscalibration
// ---------------------------------------------------------------------------

fn clustered_bsd() -> Box<dyn hcq_core::Policy> {
    PolicyKind::Clustered(ClusterConfig::logarithmic(3)).build()
}

#[test]
fn adaptive_clustered_bsd_is_never_worse_under_miscalibration() {
    // Heterogeneous per-operator miscalibration (each operator gets its own
    // persistent factor, magnitude 3): the frozen priorities are wrong.
    // Closing the loop must not lose QoS, and the estimator must actually
    // publish along the way.
    let cfg = |adapt: bool| {
        let mut c = SimConfig::new(1_500)
            .with_seed(6)
            .with_cost_miscalibration(3.0, 99);
        if adapt {
            // A damped loop: the EWMA smooths per-cadence window means, so
            // a small alpha trades convergence speed for stability.
            c = c.with_adaptation(AdaptConfig {
                alpha: 0.1,
                cadence: ms(50),
                ..ewma_adapt()
            });
        }
        c
    };
    for gap in [14u64, 20, 25, 30, 40] {
        let stale = run_with(cfg(false), clustered_bsd(), ms(gap));
        let adaptive = run_with(cfg(true), clustered_bsd(), ms(gap));
        assert!(
            adaptive.statics_updates > 0,
            "gap {gap}ms: loop never closed"
        );
        assert!(
            adaptive.qos.avg_slowdown <= stale.qos.avg_slowdown * 1.02,
            "gap {gap}ms: adaptive avg slowdown {:.2} worse than stale {:.2}",
            adaptive.qos.avg_slowdown,
            stale.qos.avg_slowdown
        );
        assert!(
            adaptive.qos.rms_slowdown() <= stale.qos.rms_slowdown() * 1.02,
            "gap {gap}ms: adaptive rms slowdown {:.2} worse than stale {:.2}",
            adaptive.qos.rms_slowdown(),
            stale.qos.rms_slowdown()
        );
    }
}

#[test]
fn adaptive_runs_are_deterministic() {
    let run = || {
        run_with(
            SimConfig::new(1_000)
                .with_seed(9)
                .with_cost_miscalibration(2.0, 17)
                .with_adaptation(ewma_adapt()),
            clustered_bsd(),
            ms(14),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.qos, b.qos);
    assert_eq!(a.statics_updates, b.statics_updates);
    assert_eq!(a.domain_refreezes, b.domain_refreezes);
    assert_eq!(a.end_time, b.end_time);
}

#[test]
fn domain_refreeze_fires_when_estimates_leave_the_frozen_span() {
    // Miscalibration of magnitude 7 scales each operator's real cost by its
    // own factor in [0.01, 8]: re-estimated Φ leave the span frozen at
    // registration, and the engine must ask the policy to refreeze.
    let r = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(40), 99))],
        clustered_bsd(),
        SimConfig::new(800)
            .with_seed(4)
            .with_cost_miscalibration(7.0, 3)
            .with_adaptation(ewma_adapt()),
    )
    .unwrap();
    assert!(r.statics_updates > 0, "{r:?}");
    assert!(r.domain_refreezes > 0, "{r:?}");
}

// ---------------------------------------------------------------------------
// The simulator's operator gates
// ---------------------------------------------------------------------------

/// The gated fixture: one select-then-map query, 1 µs per operator, one
/// arrival every 10 ms (arrival `i` lands at `(i + 1)·10 ms`, so every
/// tuple is served alone), FCFS, 2,000 arrivals, seed 3.
const GATED_N: u64 = 2_000;
const GATED_SEED: u64 = 3;
fn gated_ops() -> [OperatorSpec; 2] {
    let cost = Nanos::from_micros(1);
    [
        OperatorSpec::select(cost, 0.5),
        OperatorSpec::map(cost, 0.9),
    ]
}

fn run_gated() -> SimReport {
    let [select, map] = gated_ops();
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .select(select.cost, select.selectivity)
            .map(map.cost, map.selectivity)
            .build()
            .unwrap(),
    );
    simulate(
        &plan,
        &StreamRates::none(),
        vec![Box::new(ConstantSource::new(ms(10)))],
        PolicyKind::Fcfs.build(),
        SimConfig::new(GATED_N).with_seed(GATED_SEED),
    )
    .unwrap()
}

/// The simulator's gates, built once per run, decide as the reference rule:
/// the gated fixture emits exactly the arrivals a hand walk with
/// `exec::unary_passes` passes through both operators.
#[test]
fn the_gates_decide_as_the_reference_rule() {
    let passes = |i: u64| {
        let id = TupleId::new(i);
        let key = exec::arrival_key(GATED_SEED, id);
        let t = SimTuple::base(id, Nanos::ZERO, key, Nanos::ZERO);
        (gated_ops().iter().enumerate())
            .all(|(op, spec)| exec::unary_passes(GATED_SEED, 0, op, spec, spec.selectivity, &t))
    };
    let walked = (0..GATED_N).filter(|&i| passes(i)).count() as u64;
    let r = run_gated();
    assert_eq!(r.arrivals, GATED_N);
    assert_eq!(r.emitted, walked, "{r:?}");
}

// ---------------------------------------------------------------------------
// Meta-scheduler: policy switching under sustained overload
// ---------------------------------------------------------------------------

fn switching_governor() -> GovernorConfig {
    GovernorConfig {
        cadence: ms(50),
        min_dwell: ms(200),
        escalate_pending: 48,
        deescalate_pending: 8,
        escalate_share: 0.5,
        deescalate_share: 0.1,
        overload_policy: Some(PolicyKind::Lsf),
        switch_share: 0.6,
        return_share: 0.15,
        switch_sustain: 2,
    }
}

#[test]
fn sustained_overload_switches_the_policy() {
    // 12 ms gaps saturate the 8-query workload: the overload share pins at
    // 1, the streak completes, and the meta-scheduler engages LSF.
    let (r, sink) = simulate_traced(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(12), 4))],
        PolicyKind::Hnr.build(),
        SimConfig::new(2_000)
            .with_seed(1)
            .with_admission(AdmissionMode::Unbounded, 16)
            .with_watermark(32)
            .with_governor(switching_governor()),
        VecTrace::new(),
    )
    .unwrap();
    assert!(r.policy_switches > 0, "{r:?}");
    let switches: Vec<_> = sink
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::PolicySwitch {
                from, to, share, ..
            } => Some((from, to, share)),
            _ => None,
        })
        .collect();
    assert_eq!(switches.len() as u64, r.policy_switches);
    assert_eq!(switches[0].0, "HNR");
    assert_eq!(switches[0].1, "LSF");
    assert!(switches[0].2 >= 0.6, "engage share {}", switches[0].2);
    // Work conservation survives the swap (the replayed backlog is neither
    // duplicated nor lost).
    assert_eq!(
        r.arrivals * 8,
        r.emitted + r.dropped + r.shed + r.expired + r.pending_end as u64,
        "conservation across policy switches: {r:?}"
    );
}

#[test]
fn policy_switching_is_deterministic() {
    let run = || {
        run_with(
            SimConfig::new(2_000)
                .with_seed(1)
                .with_admission(AdmissionMode::Unbounded, 16)
                .with_watermark(32)
                .with_governor(switching_governor()),
            PolicyKind::Hnr.build(),
            ms(12),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.qos, b.qos);
    assert_eq!(a.policy_switches, b.policy_switches);
    assert_eq!(a.governor_transitions, b.governor_transitions);
    assert_eq!(a.end_time, b.end_time);
}

#[test]
fn round_trip_switch_resets_the_standby_mirror() {
    // Regression: FCFS mirrors every enqueue in a FIFO. When the
    // meta-scheduler engages LSF and later returns, the standby FCFS is
    // re-registered and the live backlog replayed — if `on_register` kept
    // the pre-switch FIFO entries (as it once did), the replay would
    // double-count them and `select` would pick a unit with an empty
    // queue. Bursty arrivals force the round trip: overload during bursts
    // engages, silence disengages with backlog still queued.
    use hcq_streams::{OnOffConfig, OnOffSource};
    let cfg = OnOffConfig {
        on_gap: ms(2),
        mean_on: ms(300),
        mean_off: ms(500),
        alpha: 1.6,
        max_sojourn_factor: 20.0,
    };
    let mut g = switching_governor();
    g.min_dwell = ms(100);
    g.return_share = 0.2;
    let r = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(OnOffSource::new(cfg, 11))],
        PolicyKind::Fcfs.build(),
        SimConfig::new(3_000)
            .with_seed(3)
            .with_admission(AdmissionMode::Unbounded, 16)
            .with_watermark(32)
            .with_governor(g),
    )
    .unwrap();
    assert!(
        r.policy_switches >= 2,
        "need an engage and a return to exercise the resync: {r:?}"
    );
    assert_eq!(
        r.arrivals * 8,
        r.emitted + r.dropped + r.shed + r.expired + r.pending_end as u64,
        "conservation across the round trip: {r:?}"
    );
}

#[test]
fn switching_to_the_already_running_policy_is_a_no_op() {
    // Base policy == overload policy: the meta-scheduler must not swap a
    // policy for itself, however overloaded the run gets.
    let mut g = switching_governor();
    g.overload_policy = Some(PolicyKind::Hnr);
    let r = run_with(
        SimConfig::new(2_000)
            .with_seed(1)
            .with_admission(AdmissionMode::Unbounded, 16)
            .with_watermark(32)
            .with_governor(g),
        PolicyKind::Hnr.build(),
        ms(12),
    );
    assert_eq!(r.policy_switches, 0, "{r:?}");
}

#[test]
fn governed_adaptive_closed_loop_never_worse_than_worst_static() {
    // The full feedback stack — governor rungs, policy switching, and
    // statistics adaptation — must not lose to the worst static admission
    // mode on a calibrated overloaded workload.
    let governed = run_with(
        SimConfig::new(2_000)
            .with_seed(1)
            .with_admission(AdmissionMode::Unbounded, 16)
            .with_watermark(32)
            .with_governor(switching_governor())
            .with_adaptation(ewma_adapt()),
        PolicyKind::Hnr.build(),
        ms(12),
    );
    let worst = [
        run_with(
            SimConfig::new(2_000).with_seed(1),
            PolicyKind::Hnr.build(),
            ms(12),
        ),
        run_with(
            SimConfig::new(2_000)
                .with_seed(1)
                .with_admission(AdmissionMode::DropTail, 16),
            PolicyKind::Hnr.build(),
            ms(12),
        ),
        run_with(
            SimConfig::new(2_000)
                .with_seed(1)
                .with_admission(AdmissionMode::QosShed, 16)
                .with_watermark(32),
            PolicyKind::Hnr.build(),
            ms(12),
        ),
    ]
    .iter()
    .map(|r| r.qos.avg_slowdown)
    .fold(0.0f64, f64::max);
    assert!(
        governed.qos.avg_slowdown <= worst * 1.05,
        "closed loop {} vs worst static {}",
        governed.qos.avg_slowdown,
        worst
    );
}

// ---------------------------------------------------------------------------
// Governor de-escalation: complete-window gate (regression)
// ---------------------------------------------------------------------------

#[test]
fn deescalation_waits_for_a_complete_window() {
    // One 200 ms query, six tuples at the start, cadence == min_dwell ==
    // 50 ms: the first execution overshoots four decision boundaries. The
    // first caught-up boundary sees the accrued overload and escalates; the
    // trailing boundaries see an empty window *at the same clock*. Before
    // the complete-window gate they read that empty window as calm and
    // de-escalated on the spot — an escalate/de-escalate flap within one
    // batch. Pin: a de-escalation never shares its clock stamp with the
    // transition it reverses, and only fires a full cadence after it.
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .select(ms(200), 1.0)
            .build()
            .unwrap(),
    );
    let g = GovernorConfig {
        cadence: ms(50),
        min_dwell: ms(50),
        escalate_pending: 100,
        deescalate_pending: 8,
        escalate_share: 0.5,
        deescalate_share: 0.1,
        ..GovernorConfig::default()
    };
    let (r, sink) = simulate_traced(
        &plan,
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(5), 3))],
        PolicyKind::Fcfs.build(),
        SimConfig::new(6)
            .with_seed(1)
            .with_admission(AdmissionMode::Unbounded, 32)
            .with_watermark(4)
            .with_governor(g),
        VecTrace::new(),
    )
    .unwrap();
    let transitions: Vec<(Nanos, &str, &str)> = sink
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::GovernorTransition { at, from, to, .. } => Some((at, from, to)),
            _ => None,
        })
        .collect();
    assert!(
        !transitions.is_empty(),
        "the accrued overload must escalate: {r:?}"
    );
    assert_eq!(transitions[0].1, "Unbounded");
    assert_eq!(transitions[0].2, "DropTail");
    for w in transitions.windows(2) {
        let (prev_at, _, prev_to) = w[0];
        let (at, from, _) = w[1];
        if from == prev_to && at == prev_at {
            panic!("flap: transition out of {from} at the same instant it was entered");
        }
        assert!(
            at.saturating_since(prev_at) >= ms(50),
            "transitions {prev_at:?} -> {at:?} closer than one cadence"
        );
    }
}
