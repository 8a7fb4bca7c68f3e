//! The JSONL stream reader.
//!
//! Events are the engine's own [`TraceEvent`], owned (`TraceEvent<String>`):
//! the wire format — type tags and field names — lives beside the renderer
//! in `hcq_engine::trace`, and this module only classifies lines.
//!
//! A trace file may interleave non-event lines: `repro monitor` telemetry
//! snapshots (`"type":"telemetry"`) and future event types. [`parse_stream`]
//! tolerates both, counting rather than failing, so inspect keeps working
//! across trace-schema growth; anything that is not a JSON object with a
//! string `type` is a hard error.

use hcq_engine::TraceEvent;

/// One classified trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A scheduler event.
    Event(TraceEvent<String>),
    /// A `repro monitor` telemetry snapshot (tolerated, not analyzed here).
    Telemetry,
    /// A JSON object with an unrecognized `type` (tolerated for forward
    /// compatibility); carries the type tag.
    Unknown(String),
}

/// A fully parsed trace stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Scheduler events, in stream order.
    pub events: Vec<TraceEvent<String>>,
    /// Interleaved telemetry snapshot lines skipped.
    pub telemetry_lines: usize,
    /// Lines with an unrecognized `type` tag skipped.
    pub unknown_lines: usize,
}

/// Parse one JSONL line into an event, a tolerated non-event, or an error.
pub fn parse_line(line: &str) -> Result<Line, String> {
    Ok(match TraceEvent::parse_line(line)? {
        Ok(ev) => Line::Event(ev),
        Err(ty) if ty == "telemetry" => Line::Telemetry,
        Err(ty) => Line::Unknown(ty),
    })
}

/// Parse a whole JSONL trace. Empty lines are skipped; a malformed line
/// fails the parse with its 1-based line number.
pub fn parse_stream(text: &str) -> Result<TraceLog, String> {
    let mut log = TraceLog::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))? {
            Line::Event(ev) => log.events.push(ev),
            Line::Telemetry => log.telemetry_lines += 1,
            Line::Unknown(_) => log.unknown_lines += 1,
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcq_common::Nanos;

    #[test]
    fn parses_an_emit_line() {
        let line = "{\"type\":\"emit\",\"at\":1011,\"unit\":2,\"query\":2,\
                    \"tuple\":7,\"lineage\":7,\"arrival\":4,\"slowdown\":1.5}";
        assert_eq!(
            parse_line(line).unwrap(),
            Line::Event(TraceEvent::Emit {
                at: Nanos(1011),
                unit: 2,
                query: 2,
                tuple: 7,
                lineage: 7,
                arrival: Nanos(4),
                slowdown: 1.5,
            })
        );
    }

    #[test]
    fn composite_ids_survive_exactly() {
        let id = (1u64 << 63) | 3;
        let line = format!(
            "{{\"type\":\"shed\",\"at\":5,\"unit\":0,\"tuple\":{id},\
             \"lineage\":{id},\"arrival\":1}}"
        );
        match parse_line(&line).unwrap() {
            Line::Event(TraceEvent::Shed { tuple, lineage, .. }) => {
                assert_eq!(tuple, id);
                assert_eq!(lineage, id);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn tolerates_telemetry_and_unknown_types() {
        let text = "{\"type\":\"telemetry\",\"at\":0,\"seq\":0,\"metrics\":[]}\n\
                    \n\
                    {\"type\":\"sched_point\",\"at\":5,\"candidates\":1,\"evals\":1,\
                    \"comparisons\":0,\"cluster_ops\":0,\"heap_ops\":0,\"charged\":0}\n\
                    {\"type\":\"wormhole\",\"at\":9}\n";
        let log = parse_stream(text).unwrap();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.telemetry_lines, 1);
        assert_eq!(log.unknown_lines, 1);
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let text = "{\"type\":\"shed\",\"at\":5,\"unit\":0,\"tuple\":1,\
                    \"lineage\":1,\"arrival\":0}\n{\"type\":\"shed\"}\n";
        let err = parse_stream(text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn missing_type_is_an_error() {
        assert!(parse_line("{\"at\":1}").is_err());
        assert!(parse_line("[1,2]").is_err());
    }
}
