//! The JSONL contract between engine and inspector, as bytes: for every
//! `TraceEvent` variant and arbitrary field values, the line the engine
//! renders parses back (through [`hcq_inspect::event::parse_line`]) to an
//! event that renders to the same line — `render(parse(render(e))) ==
//! render(e)` through the single writer. Integer fields round-trip textually
//! (composite tuple ids above 2^53 would corrupt through f64), finite floats
//! because Rust's `{}` formatting is shortest-round-trip, and names because
//! the writer escapes them.

use hcq_common::Nanos;
use hcq_engine::TraceEvent;
use hcq_inspect::event::{parse_line, Line};
use proptest::prelude::*;

/// One event as a trace-file line.
fn render<S: AsRef<str>>(ev: &TraceEvent<S>) -> String {
    let mut bytes = Vec::new();
    ev.write_jsonl(&mut bytes)
        .expect("Vec<u8> writes cannot fail");
    String::from_utf8(bytes).expect("trace lines are UTF-8")
}

/// Policy, admission-mode and fault names, including ones only
/// `StaticPolicy::custom` could produce.
const NAMES: [&str; 6] = [
    "BSD-Logarithmic",
    "DropTail",
    "cost_miscalibration",
    "a\"b\\c",
    "line\nbreak\ttab",
    "λ/µ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_variant_rerenders_to_the_bytes_it_was_parsed_from(
        (at, arrival, cost, tuple) in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (lineage, n, m) in (any::<u64>(), any::<u64>(), any::<u64>()),
        (unit, query, attempt, retrying) in (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()),
        (x, share) in (1.0f64..=1e9, 0.0f64..=1.0),
        (from, to) in (0usize..NAMES.len(), 0usize..NAMES.len()),
    ) {
        let (at, arrival, cost) = (Nanos(at), Nanos(arrival), Nanos(cost));
        // Composite ids have the top bit set — well above 2^53.
        let composite = tuple | (1 << 63);
        let (from, to) = (NAMES[from], NAMES[to]);
        let events = [
            TraceEvent::SchedulingPoint {
                at,
                candidates_scanned: n,
                priority_evals: m,
                comparisons: lineage,
                cluster_ops: tuple,
                heap_ops: n ^ m,
                charged: cost,
            },
            TraceEvent::UnitRun { at, unit, tuple, arrival, cost, tuples: n },
            TraceEvent::Emit {
                at, unit, query, tuple: composite, lineage, arrival, slowdown: x,
            },
            TraceEvent::Shed { at, unit, tuple: composite, lineage, arrival },
            TraceEvent::Fault { at, kind: from, magnitude: x },
            TraceEvent::Expire { at, unit, query, tuple, arrival, late_by: cost },
            TraceEvent::GovernorTransition { at, from, to, pending: n, share },
            TraceEvent::PolicySwitch { at, from, to, share },
            TraceEvent::OpFailure { at, unit, tuple, cost, attempt, retrying },
        ];
        for ev in &events {
            let line = render(ev);
            match parse_line(line.trim_end()) {
                Ok(Line::Event(parsed)) => prop_assert_eq!(
                    render(&parsed), line.clone(), "parsed as {:?}", parsed
                ),
                other => prop_assert!(false, "{line} classified as {other:?}"),
            }
        }
    }
}
