//! Live telemetry sampling.
//!
//! The simulator is generic over a [`MetricsSink`] that receives one
//! [`TelemetrySnapshot`] per sampling cadence
//! ([`crate::SimConfig::telemetry_cadence`] of virtual time): cumulative
//! engine counters (arrivals, emissions, drops, sheds, scheduling points,
//! busy/overhead/overload nanoseconds), instantaneous gauges (pending
//! tuples, utilization, per-unit queue depth and backlog age), and windowed
//! QoS summaries (slowdown and response-time quantiles, aggregate and
//! per-query, covering the span since the previous snapshot).
//!
//! The hook mirrors [`crate::trace::TraceSink`] exactly: the default
//! [`NoTelemetry`] has `ENABLED = false`, so every sampling site — and the
//! registry itself, which is only built for enabled sinks — is compiled out
//! of the unmonitored simulator. A monitored run makes identical scheduling
//! decisions and produces an identical [`crate::SimReport`] (telemetry
//! observes, never steers), and the final snapshot's counters reconcile
//! exactly with the report.
//!
//! Sampling is driven by virtual time, so a snapshot stream is a pure
//! function of (workload, policy, config) — byte-identical across
//! processes, hosts, and `--jobs` counts. Snapshots are stamped at the
//! cadence boundary they cover; the engine reads its state at the first
//! scheduling point at or after that boundary (state between events is
//! constant, so nothing is missed). A final snapshot stamped at the run's
//! end time always follows.

use std::io::{self, Write};

use hcq_common::Nanos;
use hcq_metrics::{InstrumentId, TelemetryRegistry, TelemetrySnapshot};

use crate::config::SimConfig;
use crate::report::SimReport;

/// A counter: its name, its help text, and the count it reads from the
/// simulator's books.
type Counter = (&'static str, &'static str, fn(&SimReport) -> u64);

/// Every engine counter, in registration order. The simulator counts into
/// its [`SimReport`] and each sample loads these from it, so the final
/// snapshot's counters equal the report's by construction.
const COUNTERS: [Counter; 15] = [
    ("hcq_arrivals_total", "Source tuples injected", |r| {
        r.arrivals
    }),
    ("hcq_emitted_total", "Tuples emitted at query roots", |r| {
        r.emitted
    }),
    (
        "hcq_dropped_total",
        "Tuples dropped by operator predicates",
        |r| r.dropped,
    ),
    (
        "hcq_shed_total",
        "Tuples shed by overload management",
        |r| r.shed,
    ),
    ("hcq_sched_points_total", "Scheduling decisions", |r| {
        r.overhead.sched_points
    }),
    (
        "hcq_busy_time_ns_total",
        "Virtual nanoseconds spent executing operators",
        |r| r.busy_time.as_nanos(),
    ),
    (
        "hcq_sched_overhead_ns_total",
        "Virtual nanoseconds charged as scheduling overhead",
        |r| r.overhead_time.as_nanos(),
    ),
    (
        "hcq_overload_time_ns_total",
        "Virtual nanoseconds spent at or above the overload watermark",
        |r| r.overload_time.as_nanos(),
    ),
    (
        "hcq_expired_total",
        "Tuples expired at dequeue past their query deadline",
        |r| r.expired,
    ),
    (
        "hcq_op_failures_total",
        "Transient operator failures (run charged, output suppressed)",
        |r| r.op_failures,
    ),
    (
        "hcq_quarantine_time_ns_total",
        "Virtual nanoseconds of tuple quarantine after operator failures",
        |r| r.quarantine_time.as_nanos(),
    ),
    (
        "hcq_governor_transitions_total",
        "Admission-mode transitions taken by the overload governor",
        |r| r.governor_transitions,
    ),
    (
        "hcq_policy_switches_total",
        "Policy switches taken by the governor's meta-scheduler",
        |r| r.policy_switches,
    ),
    (
        "hcq_statics_updates_total",
        "Re-estimated statics publications forwarded to the policy",
        |r| r.statics_updates,
    ),
    (
        "hcq_domain_refreezes_total",
        "Priority-domain refreezes acknowledged by the policy",
        |r| r.domain_refreezes,
    ),
];

/// Receiver of [`TelemetrySnapshot`]s.
///
/// The simulator is monomorphized per sink; `ENABLED = false` (as on
/// [`NoTelemetry`]) turns every sampling site into dead code, so the
/// unmonitored simulator binary is unchanged by this layer.
pub trait MetricsSink {
    /// Whether this sink observes snapshots at all. Sinks that do must
    /// leave the default `true`.
    const ENABLED: bool = true;

    /// Observe one snapshot. Snapshots arrive in virtual-time order; every
    /// timestamp except the final one is a multiple of the cadence.
    fn sample(&mut self, snapshot: &TelemetrySnapshot);
}

/// The default sink: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTelemetry;

impl MetricsSink for NoTelemetry {
    const ENABLED: bool = false;

    fn sample(&mut self, _snapshot: &TelemetrySnapshot) {}
}

/// Collects snapshots in memory — the test-suite and exhibit sink.
#[derive(Debug, Default)]
pub struct VecTelemetry {
    /// Every snapshot, in sampling order.
    pub samples: Vec<TelemetrySnapshot>,
}

impl VecTelemetry {
    /// An empty collector.
    pub fn new() -> Self {
        VecTelemetry::default()
    }
}

impl MetricsSink for VecTelemetry {
    fn sample(&mut self, snapshot: &TelemetrySnapshot) {
        self.samples.push(snapshot.clone());
    }
}

/// Streams snapshots as JSON Lines — one self-describing
/// `{"type":"telemetry",…}` object per line, interleavable with the
/// scheduling trace's JSONL. Byte-deterministic, like the trace.
#[derive(Debug)]
pub struct JsonlTelemetry<W: Write> {
    writer: W,
    /// First write error, if any (subsequent snapshots are dropped).
    error: Option<io::Error>,
}

impl<W: Write> JsonlTelemetry<W> {
    /// Wrap a writer. Consider a `BufWriter` for file targets.
    pub fn new(writer: W) -> Self {
        JsonlTelemetry {
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

impl<W: Write> MetricsSink for JsonlTelemetry<W> {
    fn sample(&mut self, snapshot: &TelemetrySnapshot) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.writer, "{}", snapshot.to_jsonl()) {
            self.error = Some(e);
        }
    }
}

/// The engine's instrument set: registered once per monitored run, updated
/// from live simulator state at each sample. Only built when the sink's
/// `ENABLED` is true, so unmonitored runs never allocate it.
pub(crate) struct EngineTelemetry {
    pub registry: TelemetryRegistry,
    pub cadence: Nanos,
    /// Next cadence boundary to stamp a snapshot at.
    pub next_sample: Nanos,
    /// One id per [`COUNTERS`] row, in the same order.
    counters: Vec<InstrumentId>,
    pub pending: InstrumentId,
    pub peak_pending: InstrumentId,
    pub utilization: InstrumentId,
    pub governor_mode: InstrumentId,
    /// `hcq_queue_depth{unit=…}`, indexed by unit id.
    pub queue_depth: Vec<InstrumentId>,
    /// `hcq_backlog_age_seconds{unit=…}`, indexed by unit id.
    pub backlog_age: Vec<InstrumentId>,
    slowdown: InstrumentId,
    response_ns: InstrumentId,
    /// `hcq_query_slowdown{query=…}`, indexed by query.
    query_slowdown: Vec<InstrumentId>,
    /// `hcq_query_response_ns{query=…}`, indexed by query.
    query_response: Vec<InstrumentId>,
}

impl EngineTelemetry {
    /// Register the full instrument set for `n_units` schedulable units and
    /// `n_queries` queries. Families are registered contiguously (the
    /// exporters' grouping convention).
    pub fn new(n_units: usize, n_queries: usize, cfg: &SimConfig) -> Self {
        // A zero cadence would loop forever at the first sample point.
        let cadence = cfg.telemetry_cadence.max(Nanos(1));
        let mut reg = TelemetryRegistry::new();
        let counters = (COUNTERS.iter())
            .map(|&(name, help, _)| reg.counter(name, help, vec![]))
            .collect();
        let pending = reg.gauge(
            "hcq_pending_tuples",
            "Tuples pending across all queues",
            vec![],
        );
        let peak_pending = reg.gauge(
            "hcq_peak_pending_tuples",
            "Highest pending-tuple count seen so far",
            vec![],
        );
        let utilization = reg.gauge(
            "hcq_utilization",
            "Fraction of virtual time spent busy or on charged overhead",
            vec![],
        );
        let governor_mode = reg.gauge(
            "hcq_governor_mode",
            "Current admission mode (0 Unbounded, 1 DropTail, 2 QosShed)",
            vec![],
        );
        let fault = reg.gauge(
            "hcq_fault_cost_miscalibration",
            "Configured cost-miscalibration magnitude (0 = none)",
            vec![],
        );
        let queue_depth = (0..n_units)
            .map(|u| {
                reg.gauge(
                    "hcq_queue_depth",
                    "Tuples queued at the unit",
                    vec![("unit", u.to_string())],
                )
            })
            .collect();
        let backlog_age = (0..n_units)
            .map(|u| {
                reg.gauge(
                    "hcq_backlog_age_seconds",
                    "Virtual age of the unit's oldest queued tuple",
                    vec![("unit", u.to_string())],
                )
            })
            .collect();
        let slowdown = reg.summary(
            "hcq_slowdown",
            "Slowdown of emissions in the window",
            vec![],
        );
        let response_ns = reg.summary(
            "hcq_response_ns",
            "Response time (ns) of emissions in the window",
            vec![],
        );
        let query_slowdown = (0..n_queries)
            .map(|q| {
                reg.summary(
                    "hcq_query_slowdown",
                    "Per-query slowdown of emissions in the window",
                    vec![("query", q.to_string())],
                )
            })
            .collect();
        let query_response = (0..n_queries)
            .map(|q| {
                reg.summary(
                    "hcq_query_response_ns",
                    "Per-query response time (ns) of emissions in the window",
                    vec![("query", q.to_string())],
                )
            })
            .collect();
        reg.set_gauge(fault, cfg.faults.cost_miscalibration);
        EngineTelemetry {
            registry: reg,
            cadence,
            next_sample: cadence,
            counters,
            pending,
            peak_pending,
            utilization,
            governor_mode,
            queue_depth,
            backlog_age,
            slowdown,
            response_ns,
            query_slowdown,
            query_response,
        }
    }

    /// Load every counter from the books.
    pub fn load_counters(&mut self, report: &SimReport) {
        for (&id, (_, _, read)) in self.counters.iter().zip(&COUNTERS) {
            self.registry.set_counter(id, read(report));
        }
    }

    /// Record one emission into the aggregate and per-query summaries.
    pub fn observe_emit(&mut self, query: usize, response: Nanos, slowdown: f64) {
        self.registry.observe(self.slowdown, slowdown);
        self.registry.observe(self.query_slowdown[query], slowdown);
        let response_ns = response.as_nanos() as f64;
        self.registry.observe(self.response_ns, response_ns);
        self.registry
            .observe(self.query_response[query], response_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at: u64, seq: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            at: Nanos(at),
            seq,
            metrics: Vec::new(),
        }
    }

    #[test]
    fn no_telemetry_is_disabled() {
        const { assert!(!NoTelemetry::ENABLED) };
        const { assert!(VecTelemetry::ENABLED) };
        const { assert!(<JsonlTelemetry<Vec<u8>> as MetricsSink>::ENABLED) };
    }

    #[test]
    fn vec_telemetry_collects_in_order() {
        let mut sink = VecTelemetry::new();
        sink.sample(&snap(10, 1));
        sink.sample(&snap(20, 2));
        assert_eq!(sink.samples.len(), 2);
        assert_eq!(sink.samples[0].at, Nanos(10));
        assert_eq!(sink.samples[1].seq, 2);
    }

    #[test]
    fn jsonl_telemetry_writes_one_line_per_snapshot() {
        let mut sink = JsonlTelemetry::new(Vec::new());
        sink.sample(&snap(5, 1));
        let bytes = sink.finish().unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "{\"type\":\"telemetry\",\"at\":5,\"seq\":1,\"metrics\":[]}\n"
        );
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
        let mut sink = JsonlTelemetry::new(Failing);
        sink.sample(&snap(1, 1));
        sink.sample(&snap(2, 2)); // dropped silently after the first error
        assert!(sink.finish().is_err());
    }

    #[test]
    fn engine_telemetry_registers_contiguous_families() {
        let telem = EngineTelemetry::new(3, 2, &SimConfig::new(10));
        let snap = {
            let mut t = telem;
            t.registry.snapshot(Nanos(1))
        };
        // Families must be contiguous for the Prometheus renderer.
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name).collect();
        let mut closed: Vec<&str> = Vec::new();
        let mut current = "";
        for n in names {
            if n != current {
                assert!(!closed.contains(&n), "family {n} interleaves");
                if !current.is_empty() {
                    closed.push(current);
                }
                current = n;
            }
        }
        assert_eq!(
            snap.get("hcq_queue_depth", &[("unit", "2")]),
            Some(&hcq_metrics::MetricValue::Gauge(0.0))
        );
        assert!(snap.get("hcq_query_slowdown", &[("query", "1")]).is_some());
    }
}
