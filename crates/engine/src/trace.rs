//! Scheduling-event tracing.
//!
//! The simulator is generic over a [`TraceSink`] that receives one typed
//! [`TraceEvent`] per scheduler-visible action: a scheduling decision with
//! its itemized work counters, each unit execution with its virtual cost,
//! every root emission, every shed tuple, and active fault injections. The
//! default sink is [`NoTrace`], whose `ENABLED = false` lets the compiler
//! eliminate every event-construction site from the monomorphized loop —
//! tracing costs nothing unless a run asks for it, and a traced run makes
//! *identical* scheduling decisions (events observe, never steer).
//!
//! Timestamps are virtual [`Nanos`], so a trace is a pure function of
//! (workload, policy, config): byte-identical across processes, hosts, and
//! `--jobs` counts. That determinism is load-bearing — the golden-trace test
//! pins the full JSONL stream of a small workload.
//!
//! This module is also the one home of the JSONL wire format — the nine
//! `type` tags and their field names: [`TraceEvent::write_jsonl`] renders a
//! line and [`TraceEvent::parse_line`] reads it back, so offline analysis
//! (`hcq-inspect`) works on the same type the engine emits.
//!
//! Not to be confused with `hcq_streams::TraceReplay`, which *replays* a
//! recorded arrival schedule into the simulator; this module records what
//! the scheduler did with it.

use std::io::{self, Write};

use hcq_common::json::{self, JsonValue};
use hcq_common::Nanos;

/// One scheduler-visible event. `S` is the type of the five name fields:
/// the engine emits `&'static str` (so events stay `Copy` and allocation
/// free); a trace parsed back from JSONL owns them as `String`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent<S = &'static str> {
    /// A scheduling decision, with the §6 work counters the policy reported
    /// and the virtual time charged for it (0 unless overhead charging on).
    SchedulingPoint {
        /// Virtual time of the decision.
        at: Nanos,
        /// Ready candidates (units / clusters / list positions) inspected.
        candidates_scanned: u64,
        /// Dynamic priority computations.
        priority_evals: u64,
        /// Priority comparisons.
        comparisons: u64,
        /// Cluster maintenance since the previous decision.
        cluster_ops: u64,
        /// Heap / ordered-index operations.
        heap_ops: u64,
        /// Virtual time charged as scheduling overhead (§9.2).
        charged: Nanos,
    },
    /// One unit execution: the selected unit ran its head tuple (pipelined
    /// to the root), costing `cost` of virtual time and emitting `tuples`
    /// root outputs.
    UnitRun {
        /// Virtual time the execution started.
        at: Nanos,
        /// The executed unit.
        unit: u32,
        /// The head tuple's id.
        tuple: u64,
        /// The head tuple's system arrival time (`at − arrival` is the queue
        /// wait the tuple had accrued when selected).
        arrival: Nanos,
        /// Operator time charged while running this unit.
        cost: Nanos,
        /// Root emissions produced by this execution.
        tuples: u64,
    },
    /// A tuple left a query root.
    Emit {
        /// Virtual departure time.
        at: Nanos,
        /// The unit whose execution produced the emission.
        unit: u32,
        /// The emitting query.
        query: u32,
        /// The emitted tuple's id (composite ids have the top bit set).
        tuple: u64,
        /// The stable lineage id: the base arrival this emission's response
        /// time is measured against (composites inherit the later-arriving
        /// constituent's lineage).
        lineage: u64,
        /// The tuple's system arrival time (`at − arrival` is the response
        /// time the QoS accumulator recorded).
        arrival: Nanos,
        /// The tuple's slowdown `H` (≥ 1).
        slowdown: f64,
    },
    /// The overload manager shed a tuple (rejected at admission or
    /// displaced from a queue tail) without executing it.
    Shed {
        /// Virtual time of the shed.
        at: Nanos,
        /// The unit whose queue lost the tuple.
        unit: u32,
        /// The shed tuple's id.
        tuple: u64,
        /// The shed tuple's stable lineage id.
        lineage: u64,
        /// The shed tuple's system arrival time.
        arrival: Nanos,
    },
    /// A fault injection active for this run (reported once at start).
    Fault {
        /// Virtual time (always 0 for run-scoped faults).
        at: Nanos,
        /// Fault family, e.g. `"cost_miscalibration"`.
        kind: S,
        /// The fault's configured magnitude.
        magnitude: f64,
    },
    /// A tuple expired at dequeue: its queueing delay already exceeded its
    /// query's deadline, so it was discarded instead of executed.
    Expire {
        /// Virtual time of the expiry (the scheduling decision's instant).
        at: Nanos,
        /// The unit whose head tuple expired.
        unit: u32,
        /// The deadline-bearing query.
        query: u32,
        /// The expired tuple's id.
        tuple: u64,
        /// The expired tuple's system arrival time.
        arrival: Nanos,
        /// How far past the deadline the tuple already was.
        late_by: Nanos,
    },
    /// The overload governor moved the admission mode one ladder step.
    GovernorTransition {
        /// Virtual time at which the transition took effect (the decision
        /// itself is paced on cadence boundaries, which the clock may have
        /// overshot while the engine was busy).
        at: Nanos,
        /// Admission mode before the transition.
        from: S,
        /// Admission mode after the transition.
        to: S,
        /// Total pending tuples observed at the decision.
        pending: u64,
        /// Fraction of the last cadence window spent above the watermark.
        share: f64,
    },
    /// The governor's meta-scheduler swapped the running policy (base →
    /// overload policy, or back).
    PolicySwitch {
        /// Virtual time at which the switch took effect.
        at: Nanos,
        /// Policy name before the switch.
        from: S,
        /// Policy name after the switch.
        to: S,
        /// Overload share of the window that completed the streak.
        share: f64,
    },
    /// A transient operator failure: the execution was charged, its output
    /// suppressed, and the tuple quarantined (or abandoned when retries ran
    /// out).
    OpFailure {
        /// Virtual time of the failed execution.
        at: Nanos,
        /// The unit whose execution failed.
        unit: u32,
        /// The tuple whose run was lost.
        tuple: u64,
        /// Operator time charged for the failed attempt (counted in
        /// `busy_time` even though the output was suppressed).
        cost: Nanos,
        /// Zero-based attempt number that failed.
        attempt: u32,
        /// False when retries were exhausted and the tuple was abandoned.
        retrying: bool,
    },
}

/// Receiver of [`TraceEvent`]s.
///
/// The simulator is monomorphized per sink; `ENABLED = false` (as on
/// [`NoTrace`]) turns every `if S::ENABLED { … }` emission site into dead
/// code, so the untraced simulator binary is unchanged by this layer.
pub trait TraceSink {
    /// Whether this sink observes events at all. Sinks that do must leave
    /// the default `true`.
    const ENABLED: bool = true;

    /// Observe one event. Events arrive in a deterministic order: faults,
    /// then per scheduling point the `SchedulingPoint` event followed by a
    /// `UnitRun` per selected unit, each immediately followed by the
    /// `Emit`/`Shed` events its execution produced.
    fn event(&mut self, event: &TraceEvent);
}

/// The default sink: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    const ENABLED: bool = false;

    fn event(&mut self, _event: &TraceEvent) {}
}

/// Collects events in memory — the test-suite sink.
#[derive(Debug, Default)]
pub struct VecTrace {
    /// Every event, in emission order.
    pub events: Vec<TraceEvent>,
}

impl VecTrace {
    /// An empty collector.
    pub fn new() -> Self {
        VecTrace::default()
    }
}

impl TraceSink for VecTrace {
    fn event(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

/// Streams events as JSON Lines: one self-describing object per line, in
/// emission order. Integer fields are exact; `slowdown`/`magnitude` use
/// Rust's shortest-roundtrip float formatting, which is platform-independent
/// — the whole stream is byte-deterministic.
#[derive(Debug)]
pub struct JsonlTrace<W: Write> {
    writer: W,
    /// First write error, if any (subsequent events are dropped).
    error: Option<io::Error>,
}

impl<W: Write> JsonlTrace<W> {
    /// Wrap a writer. Consider a `BufWriter` for file targets.
    pub fn new(writer: W) -> Self {
        JsonlTrace {
            writer,
            error: None,
        }
    }

    /// Flush and return the writer, surfacing any deferred write error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<S: AsRef<str>> TraceEvent<S> {
    /// Render the event as one JSONL line, newline included. Integer fields
    /// are exact and floats use Rust's shortest-roundtrip formatting; the
    /// name fields go through [`json::quoted`], so any policy name yields a
    /// line [`parse_line`](TraceEvent::parse_line) reads back.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            TraceEvent::SchedulingPoint {
                at,
                candidates_scanned,
                priority_evals,
                comparisons,
                cluster_ops,
                heap_ops,
                charged,
            } => writeln!(
                w,
                "{{\"type\":\"sched_point\",\"at\":{},\"candidates\":{},\"evals\":{},\
                 \"comparisons\":{},\"cluster_ops\":{},\"heap_ops\":{},\"charged\":{}}}",
                at.as_nanos(),
                candidates_scanned,
                priority_evals,
                comparisons,
                cluster_ops,
                heap_ops,
                charged.as_nanos(),
            ),
            TraceEvent::UnitRun {
                at,
                unit,
                tuple,
                arrival,
                cost,
                tuples,
            } => writeln!(
                w,
                "{{\"type\":\"unit_run\",\"at\":{},\"unit\":{},\"tuple\":{},\
                 \"arrival\":{},\"cost\":{},\"tuples\":{}}}",
                at.as_nanos(),
                unit,
                tuple,
                arrival.as_nanos(),
                cost.as_nanos(),
                tuples,
            ),
            TraceEvent::Emit {
                at,
                unit,
                query,
                tuple,
                lineage,
                arrival,
                slowdown,
            } => writeln!(
                w,
                "{{\"type\":\"emit\",\"at\":{},\"unit\":{},\"query\":{},\
                 \"tuple\":{},\"lineage\":{},\"arrival\":{},\"slowdown\":{}}}",
                at.as_nanos(),
                unit,
                query,
                tuple,
                lineage,
                arrival.as_nanos(),
                slowdown,
            ),
            TraceEvent::Shed {
                at,
                unit,
                tuple,
                lineage,
                arrival,
            } => writeln!(
                w,
                "{{\"type\":\"shed\",\"at\":{},\"unit\":{},\"tuple\":{},\
                 \"lineage\":{},\"arrival\":{}}}",
                at.as_nanos(),
                unit,
                tuple,
                lineage,
                arrival.as_nanos(),
            ),
            TraceEvent::Fault {
                at,
                kind,
                magnitude,
            } => writeln!(
                w,
                "{{\"type\":\"fault\",\"at\":{},\"kind\":{},\"magnitude\":{}}}",
                at.as_nanos(),
                json::quoted(kind.as_ref()),
                magnitude,
            ),
            TraceEvent::Expire {
                at,
                unit,
                query,
                tuple,
                arrival,
                late_by,
            } => writeln!(
                w,
                "{{\"type\":\"expire\",\"at\":{},\"unit\":{},\"query\":{},\
                 \"tuple\":{},\"arrival\":{},\"late_by\":{}}}",
                at.as_nanos(),
                unit,
                query,
                tuple,
                arrival.as_nanos(),
                late_by.as_nanos(),
            ),
            TraceEvent::GovernorTransition {
                at,
                from,
                to,
                pending,
                share,
            } => writeln!(
                w,
                "{{\"type\":\"governor\",\"at\":{},\"from\":{},\"to\":{},\
                 \"pending\":{},\"share\":{}}}",
                at.as_nanos(),
                json::quoted(from.as_ref()),
                json::quoted(to.as_ref()),
                pending,
                share,
            ),
            TraceEvent::PolicySwitch {
                at,
                from,
                to,
                share,
            } => writeln!(
                w,
                "{{\"type\":\"policy_switch\",\"at\":{},\"from\":{},\"to\":{},\
                 \"share\":{}}}",
                at.as_nanos(),
                json::quoted(from.as_ref()),
                json::quoted(to.as_ref()),
                share,
            ),
            TraceEvent::OpFailure {
                at,
                unit,
                tuple,
                cost,
                attempt,
                retrying,
            } => writeln!(
                w,
                "{{\"type\":\"op_failure\",\"at\":{},\"unit\":{},\"tuple\":{},\
                 \"cost\":{},\"attempt\":{},\"retrying\":{}}}",
                at.as_nanos(),
                unit,
                tuple,
                cost.as_nanos(),
                attempt,
                retrying,
            ),
        }
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field \"{key}\""))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field \"{key}\" is not a u64"))
}

fn ns_field(v: &JsonValue, key: &str) -> Result<Nanos, String> {
    u64_field(v, key).map(Nanos)
}

fn u32_field(v: &JsonValue, key: &str) -> Result<u32, String> {
    u64_field(v, key)?
        .try_into()
        .map_err(|_| format!("field \"{key}\" exceeds u32"))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field \"{key}\" is not a number"))
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field \"{key}\" is not a string"))?
        .to_string())
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field \"{key}\" is not a bool"))
}

impl TraceEvent<String> {
    /// Parse one line [`write_jsonl`](TraceEvent::write_jsonl) rendered.
    ///
    /// A trace file may interleave lines of other types (`repro monitor`
    /// telemetry snapshots, future event types): a JSON object whose string
    /// `type` is not one of the nine event tags comes back as `Ok(Err(tag))`
    /// for the caller to count or reject. Anything else — not an object, no
    /// string `type`, a missing or mistyped field — is the outer `Err`.
    /// Number text is kept verbatim, so composite tuple ids above 2^53
    /// survive exactly.
    pub fn parse_line(line: &str) -> Result<Result<Self, String>, String> {
        let v = &json::parse(line).map_err(|e| e.to_string())?;
        let ty = v
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or("object has no string \"type\" field")?;
        Ok(Ok(match ty {
            "sched_point" => TraceEvent::SchedulingPoint {
                at: ns_field(v, "at")?,
                candidates_scanned: u64_field(v, "candidates")?,
                priority_evals: u64_field(v, "evals")?,
                comparisons: u64_field(v, "comparisons")?,
                cluster_ops: u64_field(v, "cluster_ops")?,
                heap_ops: u64_field(v, "heap_ops")?,
                charged: ns_field(v, "charged")?,
            },
            "unit_run" => TraceEvent::UnitRun {
                at: ns_field(v, "at")?,
                unit: u32_field(v, "unit")?,
                tuple: u64_field(v, "tuple")?,
                arrival: ns_field(v, "arrival")?,
                cost: ns_field(v, "cost")?,
                tuples: u64_field(v, "tuples")?,
            },
            "emit" => TraceEvent::Emit {
                at: ns_field(v, "at")?,
                unit: u32_field(v, "unit")?,
                query: u32_field(v, "query")?,
                tuple: u64_field(v, "tuple")?,
                lineage: u64_field(v, "lineage")?,
                arrival: ns_field(v, "arrival")?,
                slowdown: f64_field(v, "slowdown")?,
            },
            "shed" => TraceEvent::Shed {
                at: ns_field(v, "at")?,
                unit: u32_field(v, "unit")?,
                tuple: u64_field(v, "tuple")?,
                lineage: u64_field(v, "lineage")?,
                arrival: ns_field(v, "arrival")?,
            },
            "fault" => TraceEvent::Fault {
                at: ns_field(v, "at")?,
                kind: str_field(v, "kind")?,
                magnitude: f64_field(v, "magnitude")?,
            },
            "expire" => TraceEvent::Expire {
                at: ns_field(v, "at")?,
                unit: u32_field(v, "unit")?,
                query: u32_field(v, "query")?,
                tuple: u64_field(v, "tuple")?,
                arrival: ns_field(v, "arrival")?,
                late_by: ns_field(v, "late_by")?,
            },
            "governor" => TraceEvent::GovernorTransition {
                at: ns_field(v, "at")?,
                from: str_field(v, "from")?,
                to: str_field(v, "to")?,
                pending: u64_field(v, "pending")?,
                share: f64_field(v, "share")?,
            },
            "policy_switch" => TraceEvent::PolicySwitch {
                at: ns_field(v, "at")?,
                from: str_field(v, "from")?,
                to: str_field(v, "to")?,
                share: f64_field(v, "share")?,
            },
            "op_failure" => TraceEvent::OpFailure {
                at: ns_field(v, "at")?,
                unit: u32_field(v, "unit")?,
                tuple: u64_field(v, "tuple")?,
                cost: ns_field(v, "cost")?,
                attempt: u32_field(v, "attempt")?,
                retrying: bool_field(v, "retrying")?,
            },
            other => return Ok(Err(other.to_string())),
        }))
    }
}

impl<W: Write> TraceSink for JsonlTrace<W> {
    fn event(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = event.write_jsonl(&mut self.writer) {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Fault {
                at: Nanos::ZERO,
                kind: "cost_miscalibration",
                magnitude: 0.4,
            },
            TraceEvent::SchedulingPoint {
                at: Nanos(5),
                candidates_scanned: 3,
                priority_evals: 3,
                comparisons: 3,
                cluster_ops: 1,
                heap_ops: 2,
                charged: Nanos(6),
            },
            TraceEvent::UnitRun {
                at: Nanos(11),
                unit: 2,
                tuple: 7,
                arrival: Nanos(4),
                cost: Nanos(1000),
                tuples: 1,
            },
            TraceEvent::Emit {
                at: Nanos(1011),
                unit: 2,
                query: 2,
                tuple: 7,
                lineage: 7,
                arrival: Nanos(4),
                slowdown: 1.5,
            },
            TraceEvent::Shed {
                at: Nanos(1011),
                unit: 0,
                tuple: 9,
                lineage: 9,
                arrival: Nanos(6),
            },
            TraceEvent::Expire {
                at: Nanos(1500),
                unit: 1,
                query: 1,
                tuple: 8,
                arrival: Nanos(5),
                late_by: Nanos(250),
            },
            TraceEvent::GovernorTransition {
                at: Nanos(2000),
                from: "DropTail",
                to: "QosShed",
                pending: 40,
                share: 0.75,
            },
            TraceEvent::PolicySwitch {
                at: Nanos(2100),
                from: "BSD-Logarithmic",
                to: "LSF",
                share: 0.8,
            },
            TraceEvent::OpFailure {
                at: Nanos(2200),
                unit: 3,
                tuple: 12,
                cost: Nanos(900),
                attempt: 0,
                retrying: true,
            },
        ]
    }

    /// One event as its trace-file line, newline included.
    fn render<S: AsRef<str>>(ev: &TraceEvent<S>) -> String {
        let mut bytes = Vec::new();
        ev.write_jsonl(&mut bytes).unwrap();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn jsonl_renders_one_line_per_event() {
        let mut sink = JsonlTrace::new(Vec::new());
        for e in sample_events() {
            sink.event(&e);
        }
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9);
        assert_eq!(
            lines[0],
            "{\"type\":\"fault\",\"at\":0,\"kind\":\"cost_miscalibration\",\"magnitude\":0.4}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"sched_point\",\"at\":5,\"candidates\":3,\"evals\":3,\
             \"comparisons\":3,\"cluster_ops\":1,\"heap_ops\":2,\"charged\":6}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"unit_run\",\"at\":11,\"unit\":2,\"tuple\":7,\
             \"arrival\":4,\"cost\":1000,\"tuples\":1}"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"emit\",\"at\":1011,\"unit\":2,\"query\":2,\"tuple\":7,\
             \"lineage\":7,\"arrival\":4,\"slowdown\":1.5}"
        );
        assert_eq!(
            lines[4],
            "{\"type\":\"shed\",\"at\":1011,\"unit\":0,\"tuple\":9,\"lineage\":9,\"arrival\":6}"
        );
        assert_eq!(
            lines[5],
            "{\"type\":\"expire\",\"at\":1500,\"unit\":1,\"query\":1,\"tuple\":8,\
             \"arrival\":5,\"late_by\":250}"
        );
        assert_eq!(
            lines[6],
            "{\"type\":\"governor\",\"at\":2000,\"from\":\"DropTail\",\"to\":\"QosShed\",\
             \"pending\":40,\"share\":0.75}"
        );
        assert_eq!(
            lines[7],
            "{\"type\":\"policy_switch\",\"at\":2100,\"from\":\"BSD-Logarithmic\",\
             \"to\":\"LSF\",\"share\":0.8}"
        );
        assert_eq!(
            lines[8],
            "{\"type\":\"op_failure\",\"at\":2200,\"unit\":3,\"tuple\":12,\
             \"cost\":900,\"attempt\":0,\"retrying\":true}"
        );
        // The parser is the writer's inverse on every variant.
        for line in lines {
            let parsed = TraceEvent::parse_line(line).unwrap().unwrap();
            assert_eq!(render(&parsed).trim_end(), line);
        }
    }

    #[test]
    fn names_are_escaped_so_any_policy_name_parses_back() {
        // `StaticPolicy::custom` accepts any name; it reaches the trace as
        // `PolicySwitch::from`.
        let ev = TraceEvent::PolicySwitch {
            at: Nanos(7),
            from: "a\"b\\c",
            to: "LSF",
            share: 0.5,
        };
        let text = render(&ev);
        let parsed = TraceEvent::parse_line(text.trim_end()).unwrap().unwrap();
        assert_eq!(
            parsed,
            TraceEvent::PolicySwitch {
                at: Nanos(7),
                from: "a\"b\\c".to_string(),
                to: "LSF".to_string(),
                share: 0.5,
            }
        );
        assert_eq!(render(&parsed), text);
    }

    #[test]
    fn other_types_are_handed_back_and_malformed_lines_rejected() {
        assert_eq!(
            TraceEvent::parse_line("{\"type\":\"telemetry\",\"at\":0}"),
            Ok(Err("telemetry".to_string()))
        );
        assert!(TraceEvent::parse_line("{\"at\":1}").is_err());
        assert!(TraceEvent::parse_line("{\"type\":\"shed\",\"at\":1}").is_err());
        let wide = "{\"type\":\"shed\",\"at\":1,\"unit\":4294967296,\"tuple\":1,\
                    \"lineage\":1,\"arrival\":0}";
        let err = TraceEvent::parse_line(wide).unwrap_err();
        assert!(err.contains("exceeds u32"), "{err}");
    }

    #[test]
    fn vec_trace_collects_in_order() {
        let mut sink = VecTrace::new();
        for e in sample_events() {
            sink.event(&e);
        }
        assert_eq!(sink.events, sample_events());
    }

    #[test]
    fn no_trace_is_disabled() {
        const { assert!(!NoTrace::ENABLED) };
        const { assert!(VecTrace::ENABLED) };
        const { assert!(<JsonlTrace<Vec<u8>> as TraceSink>::ENABLED) };
    }

    #[test]
    fn jsonl_write_error_is_deferred_to_finish() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlTrace::new(Failing);
        sink.event(&TraceEvent::Shed {
            at: Nanos(1),
            unit: 0,
            tuple: 0,
            lineage: 0,
            arrival: Nanos(0),
        });
        // Further events are dropped silently; finish surfaces the error.
        sink.event(&TraceEvent::Shed {
            at: Nanos(2),
            unit: 0,
            tuple: 1,
            lineage: 1,
            arrival: Nanos(0),
        });
        assert!(sink.finish().is_err());
    }
}
