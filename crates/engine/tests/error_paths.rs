//! Configuration-error paths: the engine must reject unusable setups with
//! actionable messages rather than misbehave — and runtime contract
//! violations (queue misuse, broken policies) must come back as typed
//! [`EngineError`]s, never panics.

use hcq_common::{EngineError, HcqError, Nanos, StreamId, TupleId};
use hcq_core::{Policy, PolicyKind, QueueView, Selection, UnitId, UnitStatics};
use hcq_engine::queues::UnitQueues;
use hcq_engine::{simulate, AdmissionMode, GovernorConfig, SimConfig, SimTuple};
use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq_streams::{PoissonSource, TraceReplay};

fn ms(n: u64) -> Nanos {
    Nanos::from_millis(n)
}

#[test]
fn empty_plan_rejected() {
    let err = simulate(
        &GlobalPlan::default(),
        &StreamRates::none(),
        vec![],
        PolicyKind::Fcfs.build(),
        SimConfig::new(10),
    )
    .unwrap_err();
    assert!(err.to_string().contains("no queries"));
}

#[test]
fn missing_source_rejected() {
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(1)) // stream 1 but only source 0 given
            .select(ms(1), 0.5)
            .build()
            .unwrap(),
    );
    let err = simulate(
        &plan,
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(1), 0))],
        PolicyKind::Fcfs.build(),
        SimConfig::new(10),
    )
    .unwrap_err();
    assert!(err.to_string().contains("M1"), "{err}");
    assert!(err.to_string().contains("no source"), "{err}");
}

#[test]
fn join_without_rates_rejected() {
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .window_join(
                QueryBuilder::on(StreamId::new(1)),
                ms(1),
                0.5,
                Nanos::from_secs(1),
            )
            .build()
            .unwrap(),
    );
    let sources: Vec<Box<dyn hcq_streams::ArrivalSource>> = vec![
        Box::new(PoissonSource::new(ms(1), 0)),
        Box::new(PoissonSource::new(ms(1), 1)),
    ];
    let err = simulate(
        &plan,
        &StreamRates::none(), // <- no τ for the join's occupancy estimate
        sources,
        PolicyKind::Hnr.build(),
        SimConfig::new(10),
    )
    .unwrap_err();
    assert!(err.to_string().contains("inter-arrival"), "{err}");
}

#[test]
fn invalid_sharing_rejected_at_simulation() {
    let mut plan = GlobalPlan::default();
    let a = plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .select(ms(1), 0.5)
            .build()
            .unwrap(),
    );
    // Manually corrupt the sharing structure (bypasses share_first_op's
    // checks) to prove validation happens again at build time.
    plan.sharing.push(hcq_plan::SharedSelect {
        stream: StreamId::new(0),
        op: hcq_plan::OperatorSpec::select(ms(2), 0.5), // wrong cost
        members: vec![a],
    });
    let err = simulate(
        &plan,
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(1), 0))],
        PolicyKind::Hnr.build(),
        SimConfig::new(10),
    )
    .unwrap_err();
    assert!(err.to_string().contains("sharing"), "{err}");
}

#[test]
fn zero_arrival_budget_is_a_clean_noop() {
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .select(ms(1), 0.5)
            .build()
            .unwrap(),
    );
    let r = simulate(
        &plan,
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(1), 0))],
        PolicyKind::Bsd.build(),
        SimConfig::new(0),
    )
    .unwrap();
    assert_eq!(r.arrivals, 0);
    assert_eq!(r.emitted, 0);
    assert_eq!(r.sched_points, 0);
    assert_eq!(r.end_time, Nanos::ZERO);
}

fn base_tuple(id: u64) -> SimTuple {
    SimTuple {
        id: TupleId::new(id),
        arrival: Nanos::ZERO,
        ts: Nanos::ZERO,
        key: 1,
        ideal_depart: ms(1),
        lineage: TupleId::new(id),
    }
}

fn tiny_plan() -> GlobalPlan {
    let mut plan = GlobalPlan::default();
    plan.add_query(
        QueryBuilder::on(StreamId::new(0))
            .map(ms(2), 1.0)
            .build()
            .unwrap(),
    );
    plan
}

#[test]
fn popping_an_empty_queue_is_a_typed_error() {
    let mut q = UnitQueues::new(3);
    q.push(1, base_tuple(0));
    assert_eq!(q.pop(0), Err(EngineError::EmptyQueuePop { unit: 0 }));
    assert!(q.pop(1).is_ok());
    assert_eq!(q.pop(1), Err(EngineError::EmptyQueuePop { unit: 1 }));
}

#[test]
fn popping_an_unknown_unit_is_a_typed_error() {
    let mut q = UnitQueues::<SimTuple>::new(2);
    assert_eq!(
        q.pop(9),
        Err(EngineError::UnknownUnit {
            unit: 9,
            unit_count: 2
        })
    );
}

/// A policy that answers "nothing to run" despite pending work.
struct SilentPolicy;

impl Policy for SilentPolicy {
    fn name(&self) -> &'static str {
        "silent"
    }
    fn on_register(&mut self, _units: &[UnitStatics]) {}
    fn on_enqueue(&mut self, _unit: UnitId, _tuple: TupleId, _arrival: Nanos, _now: Nanos) {}
    fn select(&mut self, _queues: &dyn QueueView, _now: Nanos) -> Option<Selection> {
        None
    }
}

#[test]
fn policy_returning_no_selection_surfaces_as_engine_error() {
    let arrivals = vec![ms(1), ms(2)];
    let err = simulate(
        &tiny_plan(),
        &StreamRates::none(),
        vec![Box::new(TraceReplay::from_arrivals(arrivals).unwrap())],
        Box::new(SilentPolicy),
        SimConfig::new(2),
    )
    .unwrap_err();
    match err {
        HcqError::Engine(EngineError::NoSelection { pending }) => assert!(pending > 0),
        other => panic!("expected NoSelection, got {other}"),
    }
}

/// A policy that dequeues the same unit twice per decision, hitting an
/// empty queue on the second pop (contract violation).
struct DoubleSelectPolicy;

impl Policy for DoubleSelectPolicy {
    fn name(&self) -> &'static str {
        "double-select"
    }
    fn on_register(&mut self, _units: &[UnitStatics]) {}
    fn on_enqueue(&mut self, _unit: UnitId, _tuple: TupleId, _arrival: Nanos, _now: Nanos) {}
    fn select(&mut self, queues: &dyn QueueView, _now: Nanos) -> Option<Selection> {
        let unit = queues.nonempty()[0];
        let mut sel = Selection::one(unit, 0);
        sel.units.push(unit);
        Some(sel)
    }
}

#[test]
fn selecting_an_empty_queue_surfaces_as_engine_error() {
    // One pending tuple, but the policy schedules its unit twice.
    let err = simulate(
        &tiny_plan(),
        &StreamRates::none(),
        vec![Box::new(TraceReplay::from_arrivals(vec![ms(1)]).unwrap())],
        Box::new(DoubleSelectPolicy),
        SimConfig::new(1),
    )
    .unwrap_err();
    match err {
        HcqError::Engine(EngineError::EmptyQueuePop { unit }) => assert_eq!(unit, 0),
        other => panic!("expected EmptyQueuePop, got {other}"),
    }
}

#[test]
fn unusable_admission_configs_are_rejected() {
    let governed = |escalate_pending, deescalate_pending, deescalate_share| {
        // Assigned directly, as a fuzz scenario sets it, not through the
        // builder: the simulator itself must refuse it.
        let mut cfg = SimConfig::new(2).with_admission(AdmissionMode::Unbounded, 4);
        cfg.governor = Some(GovernorConfig {
            escalate_pending,
            deescalate_pending,
            deescalate_share,
            ..GovernorConfig::default()
        });
        cfg
    };
    let unusable = [
        // Bounded modes without a capacity.
        SimConfig::new(2).with_admission(AdmissionMode::DropTail, 0),
        SimConfig::new(2).with_admission(AdmissionMode::QosShed, 0),
        // Governors without a hysteresis band, which flap once per dwell.
        governed(10, 10, 0.1),
        governed(10, 2, 0.5),
    ];
    for cfg in unusable {
        let (mode, governor) = (cfg.overload.mode, cfg.governor);
        let err = simulate(
            &tiny_plan(),
            &StreamRates::none(),
            vec![Box::new(PoissonSource::new(ms(1), 0))],
            PolicyKind::Fcfs.build(),
            cfg,
        )
        .unwrap_err();
        assert!(
            matches!(err, HcqError::InvalidConfig(_)),
            "expected InvalidConfig for {mode:?} / {governor:?}, got {err}"
        );
    }
}

#[test]
fn engine_errors_convert_into_hcq_error() {
    let e: HcqError = EngineError::EmptyQueuePop { unit: 4 }.into();
    assert!(e.to_string().contains("unit 4"), "{e}");
    assert!(std::error::Error::source(&e).is_some());
}
