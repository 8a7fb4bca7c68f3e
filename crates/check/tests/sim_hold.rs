//! The simulator serves a held static-priority choice without asking the
//! policy, charging and tracing the point at the policy's `reask`. Against
//! the same run whose [`HoldProbe`] clears every hold, so that the
//! simulator asks at every point, nothing may move but the number of
//! `select` calls: not a report field, not a trace event.
//!
//! Only release builds skip `select` at a held point; debug builds ask
//! anyway to check the hold. CI runs this file with `--release`.

use hcq_check::HoldProbe;
use hcq_common::{Nanos, StreamId};
use hcq_core::{ClusterConfig, PolicyKind};
use hcq_engine::{
    simulate_traced, AdaptConfig, AdmissionMode, GovernorConfig, SimConfig, SimReport, TraceEvent,
    VecTrace,
};
use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq_streams::PoissonSource;

fn ms(n: u64) -> Nanos {
    Nanos::from_millis(n)
}

/// Eight select → stored join → project queries on one stream, costs and
/// selectivities distinct, so the static priorities rank them apart and
/// adaptation re-prices them.
fn plan() -> GlobalPlan {
    let mut plan = GlobalPlan::default();
    for i in 0..8u64 {
        let cost = ms(1 << (i % 4));
        let sel = 0.2 + 0.1 * i as f64;
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

/// What a run adds to the base configuration.
#[derive(Debug, Clone, Copy)]
enum Extra {
    None,
    /// Statics re-estimated and published every 20 ms.
    Adapt,
    /// The governor walks the admission ladder and swaps in LSF.
    Govern,
}

fn config(overhead: bool, mode: AdmissionMode, extra: Extra) -> SimConfig {
    let cfg = SimConfig::new(1_500)
        .with_seed(7)
        .with_overhead(overhead)
        .with_admission(mode, 6)
        .with_watermark(24);
    match extra {
        Extra::None => cfg,
        Extra::Adapt => cfg.with_adaptation(AdaptConfig {
            cadence: ms(20),
            ..AdaptConfig::default()
        }),
        Extra::Govern => cfg.with_governor(GovernorConfig {
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
        }),
    }
}

/// One traced run of `kind` behind a probe that keeps or clears its holds:
/// the report, the trace, and the probe's (all, needed) `select` counts.
fn run(kind: PolicyKind, cfg: SimConfig, keep_holds: bool) -> (SimReport, VecTrace, (u64, u64)) {
    let (probe, selects) = HoldProbe::new(kind.build(), keep_holds);
    let (report, trace) = simulate_traced(
        &plan(),
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(16), 11))],
        Box::new(probe),
        cfg,
        VecTrace::new(),
    )
    .unwrap();
    (report, trace, (selects.all(), selects.needed()))
}

const MODES: [AdmissionMode; 3] = [
    AdmissionMode::Unbounded,
    AdmissionMode::DropTail,
    AdmissionMode::QosShed,
];

const EXTRAS: [Extra; 3] = [Extra::None, Extra::Adapt, Extra::Govern];

#[test]
fn a_held_point_changes_nothing_but_the_select_count() {
    for kind in [PolicyKind::Srpt, PolicyKind::Hr, PolicyKind::Hnr] {
        for overhead in [false, true] {
            for mode in MODES {
                for extra in EXTRAS {
                    let at = format!("{}/overhead {overhead}/{mode:?}/{extra:?}", kind.name());
                    let cfg = config(overhead, mode, extra);
                    let (held, held_trace, held_selects) = run(kind, cfg.clone(), true);
                    let (asked, asked_trace, asked_selects) = run(kind, cfg, false);
                    assert_eq!(format!("{held:?}"), format!("{asked:?}"), "{at}");
                    assert!(
                        held_trace.events == asked_trace.events,
                        "{at}: the traces differ"
                    );
                    let points = held_trace
                        .events
                        .iter()
                        .filter(|e| matches!(e, TraceEvent::SchedulingPoint { .. }))
                        .count() as u64;
                    assert_eq!(points, held.sched_points, "{at}");
                    match extra {
                        Extra::None => {}
                        Extra::Adapt => assert!(held.statics_updates > 0, "{at}: no update"),
                        Extra::Govern => assert!(held.policy_switches > 0, "{at}: no swap"),
                    }
                    if mode != AdmissionMode::Unbounded {
                        assert!(held.shed > 0, "{at}: nothing shed");
                    }
                    // The asking run never holds; outside a governor's LSF
                    // spell its probe is asked at every point.
                    assert_eq!(asked_selects.0, asked_selects.1, "{at}");
                    if held.policy_switches == 0 {
                        assert_eq!(asked_selects.0, asked.sched_points, "{at}");
                    }
                    let fewer = if cfg!(debug_assertions) {
                        held_selects.1 < asked_selects.1
                    } else {
                        held_selects.0 < asked_selects.0
                    };
                    assert!(fewer, "{at}: no hold was served");
                }
            }
        }
    }
}

#[test]
fn a_policy_that_never_holds_is_asked_at_every_point() {
    let kinds = [
        PolicyKind::Fcfs,
        PolicyKind::RoundRobin,
        PolicyKind::Bsd,
        PolicyKind::Lsf,
        PolicyKind::Clustered(ClusterConfig::logarithmic(3)),
    ];
    for kind in kinds {
        for mode in MODES {
            for extra in [Extra::None, Extra::Adapt] {
                let at = format!("{}/{mode:?}/{extra:?}", kind.name());
                let (report, _, (all, needed)) = run(kind, config(true, mode, extra), true);
                assert_eq!(
                    (all, needed),
                    (report.sched_points, report.sched_points),
                    "{at}"
                );
            }
        }
    }
}
