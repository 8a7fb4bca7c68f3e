//! End-to-end reconciliation: run seeded traced simulations, parse the JSONL
//! stream back, and prove the inspector's derived numbers agree with the
//! run's own [`SimReport`] — field for field, not approximately. Every span's
//! waterfall must decompose exactly (wait + governed + quarantine + service
//! == response), and the replayed QoS accumulator must land on bit-identical
//! summary statistics.

use hcq_common::{Nanos, StreamId};
use hcq_core::{ClusterConfig, ClusteredBsdPolicy, PolicyKind};
use hcq_engine::{
    simulate_traced, AdmissionMode, GovernorConfig, JsonlTrace, SimConfig, SimReport,
};
use hcq_inspect::{parse_stream, reconcile, reconstruct, starvation, waterfalls, TraceLog};
use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq_streams::{PoissonSource, TraceReplay};

fn ms(n: u64) -> Nanos {
    Nanos::from_millis(n)
}

/// The golden-trace fixture: four heterogeneous queries, burst arrivals,
/// QoS shedding, overhead charging, cost miscalibration.
fn golden_like() -> (SimReport, TraceLog) {
    let mut plan = GlobalPlan::default();
    for i in 0..4u64 {
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(ms(1 << i), 0.3 + 0.2 * i as f64)
                .project(ms(1))
                .build()
                .unwrap(),
        );
    }
    let mut arrivals = vec![Nanos::ZERO; 5];
    arrivals.extend((0..5).map(|i| ms(40 + 20 * i)));
    let n = arrivals.len() as u64;
    let cfg = SimConfig::new(n)
        .with_seed(17)
        .with_admission(AdmissionMode::QosShed, 2)
        .with_watermark(6)
        .with_overhead(true)
        .with_cost_miscalibration(0.25, 99);
    run(&plan, arrivals_source(arrivals), cfg)
}

/// The full fault surface: op failures (quarantine), per-query deadlines
/// (expiries), and an enabled governor (mode transitions → governed waits,
/// plus policy switches when overload sustains).
fn faulty_governed() -> (SimReport, TraceLog) {
    let mut plan = GlobalPlan::default();
    for i in 0..6u64 {
        let b = QueryBuilder::on(StreamId::new(0))
            .select(ms(1 + i), 0.4 + 0.1 * (i % 4) as f64)
            .project(ms(1));
        let b = if i % 2 == 0 {
            b.with_deadline(ms(30 + 10 * i))
        } else {
            b
        };
        plan.add_query(b.build().unwrap());
    }
    let governor = GovernorConfig {
        cadence: ms(25),
        min_dwell: ms(50),
        escalate_pending: 24,
        deescalate_pending: 4,
        escalate_share: 0.4,
        deescalate_share: 0.1,
        ..GovernorConfig::default()
    };
    let cfg = SimConfig::new(400)
        .with_seed(23)
        .with_admission(AdmissionMode::Unbounded, 8)
        .with_watermark(16)
        .with_governor(governor)
        .with_op_failures(0.08, ms(5), 2)
        .with_overhead(true);
    run(&plan, Box::new(PoissonSource::new(ms(4), 7)), cfg)
}

fn arrivals_source(arrivals: Vec<Nanos>) -> Box<dyn hcq_streams::ArrivalSource> {
    Box::new(TraceReplay::from_arrivals(arrivals).unwrap())
}

fn run(
    plan: &GlobalPlan,
    source: Box<dyn hcq_streams::ArrivalSource>,
    cfg: SimConfig,
) -> (SimReport, TraceLog) {
    let (report, sink) = simulate_traced(
        plan,
        &StreamRates::none(),
        vec![source],
        Box::new(ClusteredBsdPolicy::new(ClusterConfig::logarithmic(3))),
        cfg,
        JsonlTrace::new(Vec::new()),
    )
    .unwrap();
    let bytes = sink.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let log = parse_stream(&text).unwrap();
    (report, log)
}

fn assert_reconciles(report: &SimReport, log: &TraceLog, label: &str) {
    // Every reconstructed span decomposes exactly.
    let spans = reconstruct(log).unwrap();
    let w = waterfalls(&spans);
    assert_eq!(
        w.conserved_spans,
        w.total_spans,
        "{label}: {} of {} spans fail conservation",
        w.total_spans - w.conserved_spans,
        w.total_spans,
    );
    assert!(w.total_spans > 0, "{label}: fixture produced no spans");

    // Field-for-field agreement with the run's own report.
    let rec = reconcile(log, report);
    assert!(
        rec.all_ok(),
        "{label}: trace does not reconcile with SimReport:\n{}",
        rec.failures()
            .into_iter()
            .map(|c| format!(
                "  {}: trace={} report={}\n",
                c.field, c.from_trace, c.from_report
            ))
            .collect::<String>(),
    );
}

#[test]
fn golden_fixture_reconciles_field_for_field() {
    let (report, log) = golden_like();
    assert!(report.shed > 0, "fixture must shed");
    assert!(report.emitted > 0, "fixture must emit");
    assert_reconciles(&report, &log, "golden-like");
}

#[test]
fn faulty_governed_fixture_reconciles_field_for_field() {
    let (report, log) = faulty_governed();
    assert!(report.op_failures > 0, "fixture must fail operators");
    assert!(report.expired > 0, "fixture must expire tuples");
    assert!(
        report.governor_transitions > 0,
        "fixture must exercise the governor"
    );
    assert_reconciles(&report, &log, "faulty-governed");
}

#[test]
fn every_policy_reconciles_on_the_golden_workload() {
    // The decomposition must not depend on which policy made the decisions.
    for kind in [
        PolicyKind::Fcfs,
        PolicyKind::Hr,
        PolicyKind::Hnr,
        PolicyKind::Lsf,
        PolicyKind::Bsd,
    ] {
        let mut plan = GlobalPlan::default();
        for i in 0..4u64 {
            plan.add_query(
                QueryBuilder::on(StreamId::new(0))
                    .select(ms(1 << i), 0.5)
                    .build()
                    .unwrap(),
            );
        }
        let mut arrivals = vec![Nanos::ZERO; 4];
        arrivals.extend((0..6).map(|i| ms(15 * i)));
        let n = arrivals.len() as u64;
        let (report, sink) = simulate_traced(
            &plan,
            &StreamRates::none(),
            vec![arrivals_source(arrivals)],
            kind.build(),
            SimConfig::new(n)
                .with_seed(5)
                .with_admission(AdmissionMode::QosShed, 3)
                .with_watermark(8),
            JsonlTrace::new(Vec::new()),
        )
        .unwrap();
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let log = parse_stream(&text).unwrap();
        assert_reconciles(&report, &log, &format!("{kind:?}"));
    }
}

#[test]
fn starvation_detector_runs_on_real_traces() {
    // Smoke the detector on a real trace: it must not panic and its shares
    // must sum to 1 over the units it saw.
    let (_, log) = golden_like();
    let s = starvation(&log, None);
    assert!(!s.units.is_empty());
    let sel: f64 = s.units.iter().map(|u| u.selection_share).sum();
    let dem: f64 = s.units.iter().map(|u| u.demand_share).sum();
    assert!((sel - 1.0).abs() < 1e-9, "selection shares sum to {sel}");
    assert!((dem - 1.0).abs() < 1e-9, "demand shares sum to {dem}");
}
