//! Tier-1 smoke test for the emission path of stateful plans: window-join
//! probes, the pair coin, the unary tail run per composite and everything
//! `emit` writes (QoS sums, per-class breakdown, slowdown histogram, trace).
//! Every pinned value was captured on the commit before the emission path
//! was rewritten; floats are pinned by `to_bits()`.

use hcq::common::{det, Nanos, StreamId};
use hcq::core::PolicyKind;
use hcq::engine::{simulate, simulate_traced, SimConfig, TraceEvent, VecTrace};
use hcq::plan::{GlobalPlan, QueryBuilder, QueryTag, StreamRates};
use hcq::streams::{ArrivalSource, PoissonSource};
use hcq::workload::{multi_stream, MultiStreamConfig};

const SEED: u64 = 11;
const GAP: Nanos = Nanos::from_millis(10);

/// Everything one run's emissions wrote, as exact bits.
#[derive(Debug, PartialEq)]
struct Pins {
    emitted: u64,
    dropped: u64,
    /// `avg_slowdown`, `l2_slowdown`, `max_slowdown`.
    slowdown_bits: [u64; 3],
    class_count: usize,
    /// Fold over `classes.summaries()` in order: tag, count and the bits of
    /// every float field of every class.
    classes_digest: u64,
    /// Non-empty `(bucket_low, count)` pairs.
    histogram: Vec<(f64, u64)>,
    /// Fold over the `Emit` events in stream order: unit, query, tuple id,
    /// lineage, departure instant and slowdown bits.
    emits_digest: u64,
}

fn fold(acc: u64, words: &[u64]) -> u64 {
    words.iter().fold(acc, |acc, &w| det::mix2(acc, w))
}

fn sources() -> Vec<Box<dyn ArrivalSource>> {
    vec![
        Box::new(PoissonSource::new(GAP, SEED)),
        Box::new(PoissonSource::new(GAP, SEED + 1)),
    ]
}

/// Run traced, check the trace's shape against the report, check the plain
/// run reports the same bits, and reduce both to [`Pins`].
fn run(plan: &GlobalPlan, rates: &StreamRates, kind: PolicyKind, arrivals: u64) -> Pins {
    let cfg = SimConfig::new(arrivals).with_seed(SEED);
    let (report, trace) = simulate_traced(
        plan,
        rates,
        sources(),
        kind.build(),
        cfg.clone(),
        VecTrace::new(),
    )
    .unwrap();
    let plain = simulate(plan, rates, sources(), kind.build(), cfg).unwrap();
    assert_eq!(
        (plain.emitted, plain.dropped),
        (report.emitted, report.dropped)
    );
    assert_eq!(
        plain.qos.l2_slowdown.to_bits(),
        report.qos.l2_slowdown.to_bits()
    );
    assert_eq!(plain.histogram.buckets(), report.histogram.buckets());
    assert_eq!(report.pending_end, 0, "the run drains");
    assert_eq!(report.histogram.total(), report.emitted);
    assert_eq!(report.classes.overall().count, report.emitted);

    // Every `Emit` follows the `UnitRun` that produced it, is attributed to
    // that run's unit, and the run's `tuples` counts exactly its emits.
    let (mut emits, mut emits_digest) = (0u64, 0u64);
    // The unit of the last `UnitRun` and how many of its emits are due.
    let (mut run_unit, mut due) = (None, 0u64);
    for e in &trace.events {
        match *e {
            TraceEvent::UnitRun { unit, tuples, .. } => {
                assert_eq!(due, 0, "a run ended short of its announced emits");
                (run_unit, due) = (Some(unit), tuples);
            }
            TraceEvent::Emit {
                at,
                unit,
                query,
                tuple,
                lineage,
                slowdown,
                ..
            } => {
                assert_eq!(Some(unit), run_unit, "Emit outside its UnitRun");
                assert!(due > 0, "more Emits than the UnitRun announced");
                due -= 1;
                emits += 1;
                emits_digest = fold(
                    emits_digest,
                    &[
                        u64::from(unit),
                        u64::from(query),
                        tuple,
                        lineage,
                        at.as_nanos(),
                        slowdown.to_bits(),
                    ],
                );
            }
            _ => {}
        }
    }
    assert_eq!(due, 0);
    assert_eq!(emits, report.emitted);

    let classes_digest = report
        .classes
        .summaries()
        .iter()
        .fold(0u64, |acc, (tag, s)| {
            fold(
                acc,
                &[
                    u64::from(tag.cost_class),
                    u64::from(tag.selectivity_bucket),
                    s.count,
                    s.avg_response_ms.to_bits(),
                    s.max_response_ms.to_bits(),
                    s.avg_slowdown.to_bits(),
                    s.max_slowdown.to_bits(),
                    s.l2_slowdown.to_bits(),
                ],
            )
        });
    Pins {
        emitted: report.emitted,
        dropped: report.dropped,
        slowdown_bits: [
            report.qos.avg_slowdown.to_bits(),
            report.qos.l2_slowdown.to_bits(),
            report.qos.max_slowdown.to_bits(),
        ],
        class_count: report.classes.class_count(),
        classes_digest,
        histogram: report.histogram.buckets(),
        emits_digest,
    }
}

fn paper_plan(kind: PolicyKind) -> Pins {
    let w = multi_stream(&MultiStreamConfig {
        queries: 8,
        cost_classes: 5,
        utilization: 0.9,
        mean_gap: GAP,
        window_range: (Nanos::from_millis(200), Nanos::from_secs(1)),
        seed: SEED,
    })
    .unwrap();
    run(&w.plan, &w.rates, kind, 400)
}

/// The §8 multi-stream population (`σ ⋈ σ → π`), in miniature, under the
/// static-priority and the arrival-order policy.
#[test]
fn multi_stream_emissions_are_pinned() {
    assert_eq!(
        paper_plan(PolicyKind::Hnr),
        Pins {
            emitted: 51_098,
            dropped: 1_317,
            slowdown_bits: [
                4630740039111492068,
                4669879618894054123,
                4648475454913889162
            ],
            class_count: 8,
            classes_digest: 17973710956921205551,
            histogram: vec![
                (1.0, 748),
                (2.0, 2_185),
                (4.0, 7_457),
                (8.0, 12_732),
                (16.0, 10_879),
                (32.0, 9_228),
                (64.0, 3_841),
                (128.0, 3_597),
                (256.0, 336),
                (512.0, 95),
            ],
            emits_digest: 9353515987420309481,
        }
    );
    assert_eq!(
        paper_plan(PolicyKind::Fcfs),
        Pins {
            emitted: 51_098,
            dropped: 1_317,
            slowdown_bits: [
                4642523615945087764,
                4681843662086303180,
                4660316105251141869
            ],
            class_count: 8,
            classes_digest: 4941568858886032747,
            histogram: vec![
                (1.0, 659),
                (2.0, 1_340),
                (4.0, 2_614),
                (8.0, 4_431),
                (16.0, 6_124),
                (32.0, 7_457),
                (64.0, 7_674),
                (128.0, 7_184),
                (256.0, 6_390),
                (512.0, 4_728),
                (1024.0, 2_102),
                (2048.0, 395),
            ],
            emits_digest: 8405975155191490519,
        }
    );
}

fn tag(cost_class: u8, selectivity_bucket: u8) -> QueryTag {
    QueryTag {
        cost_class,
        selectivity_bucket,
    }
}

fn join_of_selects(window_ms: u64) -> QueryBuilder {
    let c = Nanos::from_micros(40);
    QueryBuilder::on(StreamId::new(0))
        .select(c, 0.8)
        .window_join(
            QueryBuilder::on(StreamId::new(1)).select(c, 0.8),
            c,
            0.3,
            Nanos::from_millis(window_ms),
        )
}

/// Q0 ends at the join (composites emit with no tail); Q1 runs a select
/// with s < 1 and a project on every composite, so `dropped` counts
/// composites as well as fruitless probes.
#[test]
fn root_join_and_filtering_tail_are_pinned() {
    let mut plan = GlobalPlan::default();
    plan.add_query(join_of_selects(300).tag(tag(0, 3)).build().unwrap());
    plan.add_query(
        join_of_selects(500)
            .select(Nanos::from_micros(20), 0.5)
            .project(Nanos::from_micros(10))
            .tag(tag(1, 5))
            .build()
            .unwrap(),
    );
    let rates = StreamRates::none()
        .with(StreamId::new(0), GAP)
        .with(StreamId::new(1), GAP);
    assert_eq!(
        run(&plan, &rates, PolicyKind::Hnr, 600),
        Pins {
            emitted: 6_063,
            dropped: 2_901,
            slowdown_bits: [
                4610042454042485797,
                4639232692877349693,
                4619033279746314882
            ],
            class_count: 2,
            classes_digest: 14261781817567132189,
            histogram: vec![(1.0, 4_215), (2.0, 1_764), (4.0, 84)],
            emits_digest: 888272656526947528,
        }
    );
}
