//! Perfetto / Chrome trace-event export.
//!
//! Renders a parsed trace as the JSON object form of the Trace Event
//! Format (`{"displayTimeUnit":"ns","traceEvents":[...]}`), which
//! ui.perfetto.dev and chrome://tracing open directly. Layout:
//!
//! - **tid 0, "scheduler"**: one complete (`ph:"X"`) slice per scheduling
//!   point with `dur` = charged overhead, plus instants for sheds, failed
//!   attempts, governor transitions, policy switches, and faults.
//! - **tid 1+q, "query q"**: one complete slice per emitted span covering
//!   the winning run (`run_start → emit`, never overlapping — the simulator
//!   is single-threaded), an async `b`/`e` pair covering the whole
//!   `arrival → emit` response keyed by lineage id, and instants for
//!   expiries.
//!
//! Timestamps are microseconds (the format's fixed unit) with the
//! nanosecond remainder as three fixed decimals, so virtual-time precision
//! survives the unit change. [`validate`] re-parses rendered output with
//! the workspace's strict JSON parser and checks the schema — the CI smoke job's
//! "serde round-trip".

use hcq_engine::TraceEvent;

use crate::event::TraceLog;
use crate::json::{self, quoted, JsonValue};
use crate::span::{reconstruct, Outcome};

/// Virtual ns → trace-event µs with exact ns remainder.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// `x` under the codec's float rule (`null` when non-finite).
fn float(x: f64) -> String {
    let mut out = String::new();
    json::write_f64(&mut out, x);
    out
}

/// Render a parsed trace as Perfetto-compatible trace-event JSON.
pub fn render(log: &TraceLog) -> Result<String, String> {
    let spans = reconstruct(log)?;
    let mut queries: Vec<u32> = log
        .events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Emit { query, .. } | TraceEvent::Expire { query, .. } => Some(*query),
            _ => None,
        })
        .collect();
    queries.sort_unstable();
    queries.dedup();

    let mut events: Vec<String> = Vec::new();
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"hcq-sim\"}}"
            .to_string(),
    );
    events.push(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"scheduler\"}}"
            .to_string(),
    );
    for q in &queries {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"query {q}\"}}}}",
            q + 1
        ));
    }

    for ev in &log.events {
        match ev {
            TraceEvent::SchedulingPoint {
                at,
                priority_evals: evals,
                charged,
                ..
            } => events.push(format!(
                "{{\"name\":\"sched\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{},\
                 \"dur\":{},\"args\":{{\"evals\":{evals}}}}}",
                us(at.as_nanos()),
                us(charged.as_nanos()),
            )),
            TraceEvent::Shed {
                at, unit, tuple, ..
            } => events.push(format!(
                "{{\"name\":\"shed\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\
                 \"ts\":{},\"args\":{{\"unit\":{unit},\"tuple\":{tuple}}}}}",
                us(at.as_nanos()),
            )),
            TraceEvent::OpFailure {
                at,
                unit,
                tuple,
                attempt,
                ..
            } => events.push(format!(
                "{{\"name\":\"op_failure\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\
                 \"ts\":{},\"args\":{{\"unit\":{unit},\"tuple\":{tuple},\"attempt\":{attempt}}}}}",
                us(at.as_nanos()),
            )),
            TraceEvent::GovernorTransition { at, from, to, .. } => events.push(format!(
                "{{\"name\":\"governor\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\
                 \"ts\":{},\"args\":{{\"from\":{},\"to\":{}}}}}",
                us(at.as_nanos()),
                quoted(from),
                quoted(to),
            )),
            TraceEvent::PolicySwitch { at, from, to, .. } => events.push(format!(
                "{{\"name\":\"policy_switch\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\
                 \"ts\":{},\"args\":{{\"from\":{},\"to\":{}}}}}",
                us(at.as_nanos()),
                quoted(from),
                quoted(to),
            )),
            TraceEvent::Fault {
                at,
                kind,
                magnitude,
            } => events.push(format!(
                "{{\"name\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\
                 \"ts\":{},\"args\":{{\"kind\":{},\"magnitude\":{}}}}}",
                us(at.as_nanos()),
                quoted(kind),
                float(*magnitude),
            )),
            TraceEvent::Expire {
                at,
                query,
                tuple,
                late_by,
                ..
            } => events.push(format!(
                "{{\"name\":\"expire\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"args\":{{\"tuple\":{tuple},\"late_by\":{}}}}}",
                query + 1,
                us(at.as_nanos()),
                late_by.as_nanos(),
            )),
            _ => {}
        }
    }

    for s in &spans.spans {
        if s.outcome != Outcome::Emitted {
            continue;
        }
        let q = s.query.expect("emitted spans carry a query");
        let tid = q + 1;
        // The whole response as an async pair keyed by lineage...
        events.push(format!(
            "{{\"name\":\"tuple\",\"cat\":\"lineage\",\"ph\":\"b\",\"id\":\"{:x}\",\
             \"pid\":1,\"tid\":{tid},\"ts\":{},\"args\":{{\"lineage\":{},\
             \"wait\":{},\"governed\":{},\"quarantine\":{}}}}}",
            s.lineage,
            us(s.arrival),
            s.lineage,
            s.wait,
            s.governed,
            s.quarantine,
        ));
        events.push(format!(
            "{{\"name\":\"tuple\",\"cat\":\"lineage\",\"ph\":\"e\",\"id\":\"{:x}\",\
             \"pid\":1,\"tid\":{tid},\"ts\":{}}}",
            s.lineage,
            us(s.end),
        ));
        // ...and the winning run as a complete slice.
        events.push(format!(
            "{{\"name\":\"service\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\
             \"dur\":{},\"args\":{{\"tuple\":{},\"slowdown\":{}}}}}",
            us(s.run_start),
            us(s.end - s.run_start),
            s.tuple,
            float(s.slowdown),
        ));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    Ok(out)
}

/// Schema statistics from a validated export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfettoStats {
    /// Total trace events.
    pub events: usize,
    /// Named tracks (thread_name metadata records).
    pub tracks: usize,
    /// Complete (`ph:"X"`) slices.
    pub complete: usize,
    /// Matched async begin/end pairs.
    pub async_pairs: usize,
    /// Instant events.
    pub instants: usize,
}

/// Parse rendered trace-event JSON back and check it against the format's
/// schema: required top-level shape, required fields per phase type, and
/// balanced async begin/end pairs per (category, id).
pub fn validate(text: &str) -> Result<PerfettoStats, String> {
    let v = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if v.get("displayTimeUnit").and_then(JsonValue::as_str) != Some("ns") {
        return Err("missing displayTimeUnit:\"ns\"".to_string());
    }
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stats = PerfettoStats {
        events: events.len(),
        ..PerfettoStats::default()
    };
    let mut open_async: Vec<(String, String)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing ph"))?;
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing name"))?;
        if e.get("pid").and_then(JsonValue::as_u64).is_none() {
            return Err(ctx("missing integer pid"));
        }
        let ts_ok = e.get("ts").and_then(JsonValue::as_f64).is_some();
        match ph {
            "M" => {
                if !matches!(name, "process_name" | "thread_name") {
                    return Err(ctx("metadata name must be process_name/thread_name"));
                }
                if e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(JsonValue::as_str)
                    .is_none()
                {
                    return Err(ctx("metadata needs args.name"));
                }
                if name == "thread_name" {
                    stats.tracks += 1;
                }
            }
            "X" => {
                if !ts_ok || e.get("dur").and_then(JsonValue::as_f64).is_none() {
                    return Err(ctx("complete event needs numeric ts and dur"));
                }
                stats.complete += 1;
            }
            "i" => {
                if !ts_ok {
                    return Err(ctx("instant event needs numeric ts"));
                }
                stats.instants += 1;
            }
            "b" | "e" => {
                if !ts_ok {
                    return Err(ctx("async event needs numeric ts"));
                }
                let id = e
                    .get("id")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| ctx("async event needs string id"))?
                    .to_string();
                let cat = e
                    .get("cat")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| ctx("async event needs cat"))?
                    .to_string();
                if ph == "b" {
                    open_async.push((cat, id));
                } else {
                    let pos = open_async
                        .iter()
                        .rposition(|(c, d)| *c == cat && *d == id)
                        .ok_or_else(|| ctx("async end with no open begin"))?;
                    open_async.remove(pos);
                    stats.async_pairs += 1;
                }
            }
            other => return Err(ctx(&format!("unsupported ph \"{other}\""))),
        }
    }
    if !open_async.is_empty() {
        return Err(format!("{} async begin(s) never closed", open_async.len()));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_stream;

    fn sample_log() -> TraceLog {
        parse_stream(
            &[
                r#"{"type":"fault","at":0,"kind":"cost_miscalibration","magnitude":0.4}"#,
                r#"{"type":"sched_point","at":5,"candidates":3,"evals":3,"comparisons":3,"cluster_ops":1,"heap_ops":2,"charged":6}"#,
                r#"{"type":"unit_run","at":11,"unit":2,"tuple":7,"arrival":4,"cost":1000,"tuples":1}"#,
                r#"{"type":"emit","at":1011,"unit":2,"query":2,"tuple":7,"lineage":7,"arrival":4,"slowdown":1.5}"#,
                r#"{"type":"shed","at":1011,"unit":0,"tuple":9,"lineage":9,"arrival":6}"#,
                r#"{"type":"expire","at":1500,"unit":1,"query":1,"tuple":8,"arrival":5,"late_by":250}"#,
                r#"{"type":"governor","at":2000,"from":"DropTail","to":"QosShed","pending":40,"share":0.75}"#,
                r#"{"type":"policy_switch","at":2100,"from":"BSD-Logarithmic","to":"LSF","share":0.8}"#,
                r#"{"type":"op_failure","at":2200,"unit":3,"tuple":12,"cost":900,"attempt":0,"retrying":true}"#,
            ]
            .join("\n"),
        )
        .unwrap()
    }

    #[test]
    fn renders_and_validates() {
        let text = render(&sample_log()).unwrap();
        let stats = validate(&text).unwrap();
        // scheduler + query 1 + query 2 tracks.
        assert_eq!(stats.tracks, 3);
        // sched X + service X.
        assert_eq!(stats.complete, 2);
        assert_eq!(stats.async_pairs, 1);
        // shed, expire, governor, policy_switch, op_failure, fault.
        assert_eq!(stats.instants, 6);
    }

    #[test]
    fn microsecond_timestamps_keep_ns_precision() {
        assert_eq!(us(1011), "1.011");
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000_000_007), "1000000.007");
    }

    #[test]
    fn validate_rejects_malformed_exports() {
        assert!(validate("[]").is_err());
        assert!(validate("{\"displayTimeUnit\":\"ns\"}").is_err());
        let no_ph = r#"{"displayTimeUnit":"ns","traceEvents":[{"name":"x"}]}"#;
        assert!(validate(no_ph).is_err());
        let unclosed = r#"{"displayTimeUnit":"ns","traceEvents":[
            {"name":"t","cat":"c","ph":"b","id":"1","pid":1,"tid":0,"ts":0.0}
        ]}"#;
        assert!(validate(unclosed).unwrap_err().contains("never closed"));
    }

    #[test]
    fn empty_trace_renders_a_valid_header() {
        let text = render(&TraceLog::default()).unwrap();
        let stats = validate(&text).unwrap();
        assert_eq!(stats.tracks, 1); // scheduler only
        assert_eq!(stats.complete, 0);
    }
}
