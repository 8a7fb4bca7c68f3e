//! End-to-end tests for the online statistics estimator, the drifting
//! statics fault model, and the governor's policy-switching meta-scheduler.

use hcq_common::Nanos;
use hcq_core::{ClusterConfig, PolicyKind};
use hcq_engine::{
    simulate, simulate_traced, AdaptConfig, AdaptMode, AdmissionMode, DriftStep, GovernorConfig,
    SimConfig, SimReport, TraceEvent, VecTrace,
};
use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq_streams::PoissonSource;

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
        enabled: true,
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
        enabled: true,
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
// Convergence: estimates approach the true (drifted/miscalibrated) statics
// ---------------------------------------------------------------------------

/// One query, selectivity 1 (every execution emits exactly one tuple), no
/// jitter: the only uncertainty is the cost scale we inject.
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
fn ewma_estimate_converges_to_the_true_cost() {
    // The plan says 4 ms; a drift step in force from t = 0 makes every
    // execution really cost 8 ms. The EWMA must unlearn the plan value.
    let r = simulate(
        &single_query_plan(ms(4)),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(20), 7))],
        PolicyKind::Fcfs.build(),
        SimConfig::new(200)
            .with_seed(2)
            .with_drift(vec![DriftStep {
                at: Nanos::ZERO,
                cost_factor: 2.0,
                selectivity_factor: 1.0,
            }])
            .with_adaptation(AdaptConfig {
                publish: false,
                ..ewma_adapt()
            }),
    )
    .unwrap();
    let est = r.estimates.expect("adaptive run reports estimates");
    let cost_ms = est[0].avg_cost_ns / 1e6;
    assert!(
        (cost_ms - 8.0).abs() < 0.08,
        "estimated {cost_ms} ms, true 8 ms"
    );
    assert!(
        (est[0].selectivity - 1.0).abs() < 1e-9,
        "unit selectivity is exactly 1: {}",
        est[0].selectivity
    );
}

#[test]
fn windowed_estimates_track_the_active_phase() {
    // On-off drift: 4 ms until 2 s, then 12 ms. Windowed estimation with a
    // short cadence forgets the early phase; the final open window sees
    // only the late one.
    let r = simulate(
        &single_query_plan(ms(4)),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(20), 7))],
        PolicyKind::Fcfs.build(),
        SimConfig::new(400)
            .with_seed(2)
            .with_drift(vec![DriftStep {
                at: Nanos::from_millis(2_000),
                cost_factor: 3.0,
                selectivity_factor: 1.0,
            }])
            .with_adaptation(AdaptConfig {
                mode: AdaptMode::Windowed,
                cadence: ms(100),
                publish: false,
                ..ewma_adapt()
            }),
    )
    .unwrap();
    let est = r.estimates.expect("adaptive run reports estimates");
    let cost_ms = est[0].avg_cost_ns / 1e6;
    assert!(
        (cost_ms - 12.0).abs() < 0.5,
        "final window should reflect the 12 ms phase, got {cost_ms} ms"
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
    // A 100x cost drift pushes every re-estimated Φ far outside the span
    // frozen at registration; the engine must ask the policy to refreeze.
    let r = simulate(
        &small_workload(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(40), 99))],
        clustered_bsd(),
        SimConfig::new(800)
            .with_seed(4)
            .with_drift(vec![DriftStep {
                at: Nanos::ZERO,
                cost_factor: 100.0,
                selectivity_factor: 1.0,
            }])
            .with_adaptation(ewma_adapt()),
    )
    .unwrap();
    assert!(r.statics_updates > 0, "{r:?}");
    assert!(r.domain_refreezes > 0, "{r:?}");
}

// ---------------------------------------------------------------------------
// Drifting statics as a fault model
// ---------------------------------------------------------------------------

#[test]
fn drift_changes_the_workload_realization() {
    let base = run_with(
        SimConfig::new(500).with_seed(5),
        PolicyKind::Hnr.build(),
        ms(40),
    );
    // Doubling every cost mid-run must cost virtual time.
    let slowed = run_with(
        SimConfig::new(500).with_seed(5).with_drift(vec![DriftStep {
            at: Nanos::from_millis(1_000),
            cost_factor: 2.0,
            selectivity_factor: 1.0,
        }]),
        PolicyKind::Hnr.build(),
        ms(40),
    );
    assert!(slowed.busy_time > base.busy_time, "{slowed:?}");
    // Zeroing selectivity mid-run must suppress emissions after the step.
    let muted = run_with(
        SimConfig::new(500).with_seed(5).with_drift(vec![DriftStep {
            at: Nanos::from_millis(1_000),
            cost_factor: 1.0,
            selectivity_factor: 0.0,
        }]),
        PolicyKind::Hnr.build(),
        ms(40),
    );
    assert!(muted.emitted < base.emitted, "{muted:?}");
    assert!(muted.emitted > 0, "pre-drift phase still emits");
}

#[test]
fn drift_preserves_work_conservation() {
    for kind in PolicyKind::ALL {
        let r = run_with(
            SimConfig::new(400).with_seed(8).with_drift(vec![
                DriftStep {
                    at: Nanos::from_millis(500),
                    cost_factor: 2.5,
                    selectivity_factor: 0.6,
                },
                DriftStep {
                    at: Nanos::from_millis(4_000),
                    cost_factor: 0.5,
                    selectivity_factor: 1.4,
                },
            ]),
            kind.build(),
            ms(40),
        );
        assert_eq!(
            r.arrivals * 8,
            r.emitted + r.dropped + r.shed + r.expired + r.pending_end as u64,
            "conservation under drift for {}: {r:?}",
            kind.name()
        );
    }
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
