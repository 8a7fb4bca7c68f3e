//! Typed telemetry instruments and point-in-time snapshots.
//!
//! A [`TelemetryRegistry`] holds three instrument kinds:
//!
//! * **counters** — monotonically non-decreasing `u64` totals (arrivals,
//!   emissions, sheds, virtual nanoseconds of busy time),
//! * **gauges** — instantaneous `f64` state (queue depth, backlog age,
//!   utilization),
//! * **summaries** — *windowed* quantile summaries backed by a
//!   [`SlowdownHistogram`]: each [`TelemetryRegistry::snapshot`] reports
//!   p50/p95/p99 estimates plus the exact count/sum/max of the observations
//!   made since the previous snapshot, then resets the window.
//!
//! A snapshot is plain data ([`TelemetrySnapshot`]) so exporters — the
//! Prometheus text renderer in [`crate::prometheus`] and the JSONL stream
//! via [`TelemetrySnapshot::to_jsonl`] — need no access to the live
//! registry. Everything is deterministic: instruments render in
//! registration order, label pairs in insertion order, and floats with
//! Rust's shortest-roundtrip formatting, so a snapshot stream is a pure
//! function of the observations that produced it.

use std::fmt::Write as _;
use std::sync::Arc;

use hcq_common::{json, Nanos};

use crate::histogram::SlowdownHistogram;

/// Handle to one registered instrument. Cheap to copy; only valid for the
/// registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrumentId(u32);

/// The three instrument kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// Monotonically non-decreasing total.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Windowed quantile summary (drained by each snapshot).
    Summary,
}

impl InstrumentKind {
    /// Lower-case kind name, as rendered in exports.
    pub fn name(self) -> &'static str {
        match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Summary => "summary",
        }
    }
}

/// Windowed observation aggregate behind a summary instrument.
#[derive(Debug, Clone)]
struct WindowedSummary {
    hist: SlowdownHistogram,
    sum: f64,
    max: f64,
}

impl WindowedSummary {
    fn new() -> Self {
        WindowedSummary {
            hist: SlowdownHistogram::default(),
            sum: 0.0,
            max: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        self.hist.record(value);
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Summarize and reset the window.
    fn drain(&mut self) -> SummaryValue {
        let value = SummaryValue {
            count: self.hist.total(),
            sum: self.sum,
            p50: self.hist.quantile(0.5),
            p95: self.hist.quantile(0.95),
            p99: self.hist.quantile(0.99),
            max: self.max,
        };
        *self = WindowedSummary::new();
        value
    }
}

/// Current value of one instrument.
#[derive(Debug, Clone)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Summary(WindowedSummary),
}

struct Instrument {
    name: &'static str,
    help: &'static str,
    // Shared with every snapshot's [`MetricSample`]: snapshotting a few
    // hundred labelled instruments per cadence tick must not re-allocate
    // the label sets each time.
    labels: Arc<[(&'static str, String)]>,
    value: Value,
}

/// A registry of typed instruments. See the module docs.
#[derive(Default)]
pub struct TelemetryRegistry {
    instruments: Vec<Instrument>,
    seq: u64,
}

impl TelemetryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TelemetryRegistry::default()
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.instruments.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.instruments.is_empty()
    }

    fn register(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
        value: Value,
    ) -> InstrumentId {
        let id = InstrumentId(self.instruments.len() as u32);
        self.instruments.push(Instrument {
            name,
            help,
            labels: labels.into(),
            value,
        });
        id
    }

    /// Register a counter. Instruments sharing a `name` (one per label set)
    /// must be registered contiguously — exporters group samples by family.
    pub fn counter(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> InstrumentId {
        self.register(name, help, labels, Value::Counter(0))
    }

    /// Register a gauge (same contiguity rule as [`Self::counter`]).
    pub fn gauge(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> InstrumentId {
        self.register(name, help, labels, Value::Gauge(0.0))
    }

    /// Register a windowed summary (same contiguity rule as
    /// [`Self::counter`]).
    pub fn summary(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> InstrumentId {
        self.register(name, help, labels, Value::Summary(WindowedSummary::new()))
    }

    /// Set a counter to its new (monotonically non-decreasing) total.
    pub fn set_counter(&mut self, id: InstrumentId, total: u64) {
        match &mut self.instruments[id.0 as usize].value {
            Value::Counter(c) => {
                debug_assert!(total >= *c, "counter moved backwards: {total} < {c}");
                *c = total;
            }
            _ => debug_assert!(false, "set_counter on a non-counter instrument"),
        }
    }

    /// Set a gauge.
    pub fn set_gauge(&mut self, id: InstrumentId, value: f64) {
        match &mut self.instruments[id.0 as usize].value {
            Value::Gauge(g) => *g = value,
            _ => debug_assert!(false, "set_gauge on a non-gauge instrument"),
        }
    }

    /// Record one observation into a summary's current window.
    pub fn observe(&mut self, id: InstrumentId, value: f64) {
        match &mut self.instruments[id.0 as usize].value {
            Value::Summary(s) => s.observe(value),
            _ => debug_assert!(false, "observe on a non-summary instrument"),
        }
    }

    /// Take a snapshot stamped `at`: counters and gauges are read, summary
    /// windows are drained (summarized and reset). The snapshot sequence
    /// number increments per call.
    pub fn snapshot(&mut self, at: Nanos) -> TelemetrySnapshot {
        self.seq += 1;
        let metrics = self
            .instruments
            .iter_mut()
            .map(|inst| MetricSample {
                name: inst.name,
                help: inst.help,
                labels: Arc::clone(&inst.labels),
                value: match &mut inst.value {
                    Value::Counter(c) => MetricValue::Counter(*c),
                    Value::Gauge(g) => MetricValue::Gauge(*g),
                    Value::Summary(s) => MetricValue::Summary(s.drain()),
                },
            })
            .collect();
        TelemetrySnapshot {
            at,
            seq: self.seq,
            metrics,
        }
    }
}

/// One window of a summary instrument, as reported by a snapshot.
///
/// Quantiles are [`SlowdownHistogram`] estimates (lower bucket edges, so
/// values below 1.0 report as 1.0); `count`, `sum` and `max` are exact.
/// An empty window reports all zeros.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryValue {
    /// Observations in the window.
    pub count: u64,
    /// Exact sum of the window's observations.
    pub sum: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Exact maximum of the window's observations.
    pub max: f64,
}

/// Value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Drained summary window.
    Summary(SummaryValue),
}

/// One metric in a snapshot: family name, help text, label pairs, value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric family name (e.g. `hcq_queue_depth`).
    pub name: &'static str,
    /// One-line description, rendered as the Prometheus `# HELP` text.
    pub help: &'static str,
    /// Label pairs in registration order, shared with the registry (cloning
    /// a snapshot or taking one is a refcount bump per sample, not a
    /// re-allocation of every label set).
    pub labels: Arc<[(&'static str, String)]>,
    /// The sampled value.
    pub value: MetricValue,
}

impl MetricSample {
    /// The sample's instrument kind.
    pub fn kind(&self) -> InstrumentKind {
        match self.value {
            MetricValue::Counter(_) => InstrumentKind::Counter,
            MetricValue::Gauge(_) => InstrumentKind::Gauge,
            MetricValue::Summary(_) => InstrumentKind::Summary,
        }
    }
}

/// A point-in-time view of every instrument, in registration order.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Virtual time of the sample.
    pub at: Nanos,
    /// 1-based snapshot ordinal within the producing registry.
    pub seq: u64,
    /// Every instrument's sample.
    pub metrics: Vec<MetricSample>,
}

impl TelemetrySnapshot {
    /// Look up a metric by family name and exact label pairs.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| {
                m.name == name
                    && m.labels.len() == labels.len()
                    && m.labels
                        .iter()
                        .zip(labels)
                        .all(|((ak, av), (bk, bv))| ak == bk && av == bv)
            })
            .map(|m| &m.value)
    }

    /// The value of an unlabeled counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name, &[]) {
            Some(&MetricValue::Counter(c)) => Some(c),
            _ => None,
        }
    }

    /// The value of an unlabeled gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name, &[]) {
            Some(&MetricValue::Gauge(g)) => Some(g),
            _ => None,
        }
    }

    /// The window of an unlabeled summary, if present.
    pub fn summary(&self, name: &str) -> Option<&SummaryValue> {
        match self.get(name, &[]) {
            Some(MetricValue::Summary(s)) => Some(s),
            _ => None,
        }
    }

    /// Render the snapshot as one JSON Lines object (no trailing newline):
    /// `{"type":"telemetry","at":…,"seq":…,"metrics":[…]}` — the same
    /// self-describing one-object-per-line convention as the scheduling
    /// trace, so PR-3 trace tooling can interleave both streams. Byte-
    /// deterministic: field order is fixed, and every string and float is
    /// written by [`hcq_common::json`] (non-finite values render as `null`).
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"telemetry\",\"at\":{},\"seq\":{},\"metrics\":[",
            self.at.as_nanos(),
            self.seq
        );
        let w = &mut out;
        for (i, m) in self.metrics.iter().enumerate() {
            w.push_str(if i > 0 { ",{\"name\":" } else { "{\"name\":" });
            json::write_str(w, m.name);
            for (j, (k, v)) in m.labels.iter().enumerate() {
                w.push_str(if j > 0 { "," } else { ",\"labels\":{" });
                json::write_str(w, k);
                w.push(':');
                json::write_str(w, v);
            }
            if !m.labels.is_empty() {
                w.push('}');
            }
            write!(w, ",\"kind\":\"{}\",\"value\":", m.kind().name()).unwrap();
            match &m.value {
                MetricValue::Counter(c) => write!(w, "{c}").unwrap(),
                MetricValue::Gauge(g) => json::write_f64(w, *g),
                MetricValue::Summary(s) => {
                    write!(w, "{{\"count\":{}", s.count).unwrap();
                    let floats = [s.sum, s.p50, s.p95, s.p99, s.max];
                    for (key, x) in ["sum", "p50", "p95", "p99", "max"].iter().zip(floats) {
                        write!(w, ",\"{key}\":").unwrap();
                        json::write_f64(w, x);
                    }
                    w.push('}');
                }
            }
            w.push('}');
        }
        w.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> (TelemetryRegistry, InstrumentId, InstrumentId, InstrumentId) {
        let mut reg = TelemetryRegistry::new();
        let c = reg.counter("hcq_emitted_total", "Tuples emitted", vec![]);
        let g = reg.gauge(
            "hcq_queue_depth",
            "Pending tuples",
            vec![("unit", "0".into())],
        );
        let s = reg.summary("hcq_slowdown", "Windowed slowdown", vec![]);
        (reg, c, g, s)
    }

    #[test]
    fn counters_gauges_and_summaries_round_trip() {
        let (mut reg, c, g, s) = sample_registry();
        assert_eq!(reg.len(), 3);
        reg.set_counter(c, 7);
        reg.set_gauge(g, 2.5);
        reg.observe(s, 1.0);
        reg.observe(s, 3.0);
        let snap = reg.snapshot(Nanos::from_millis(10));
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.counter("hcq_emitted_total"), Some(7));
        assert_eq!(
            snap.get("hcq_queue_depth", &[("unit", "0")]),
            Some(&MetricValue::Gauge(2.5))
        );
        let sv = snap.summary("hcq_slowdown").unwrap();
        assert_eq!(sv.count, 2);
        assert_eq!(sv.sum, 4.0);
        assert_eq!(sv.max, 3.0);
    }

    #[test]
    fn snapshot_drains_summary_windows() {
        let (mut reg, _, _, s) = sample_registry();
        reg.observe(s, 2.0);
        let first = reg.snapshot(Nanos(1));
        assert_eq!(first.summary("hcq_slowdown").unwrap().count, 1);
        // The window reset: a second snapshot with no observations is empty.
        let second = reg.snapshot(Nanos(2));
        let sv = second.summary("hcq_slowdown").unwrap();
        assert_eq!(sv.count, 0);
        assert_eq!(sv.sum, 0.0);
        assert_eq!(sv.max, 0.0);
        assert_eq!(sv.p95, 0.0);
        assert_eq!(second.seq, 2);
    }

    #[test]
    fn summary_quantiles_come_from_the_histogram() {
        let mut reg = TelemetryRegistry::new();
        let s = reg.summary("x", "", vec![]);
        for i in 1..=100 {
            reg.observe(s, i as f64);
        }
        let snap = reg.snapshot(Nanos(1));
        let sv = snap.summary("x").unwrap();
        assert_eq!(sv.p50, 32.0); // median 50 lies in [32, 64)
        assert_eq!(sv.p99, 64.0);
        assert_eq!(sv.max, 100.0); // max is exact, not bucketed
    }

    #[test]
    fn lookup_misses_return_none() {
        let (mut reg, ..) = sample_registry();
        let snap = reg.snapshot(Nanos(1));
        assert!(snap.get("absent", &[]).is_none());
        assert!(snap.get("hcq_queue_depth", &[("unit", "9")]).is_none());
        assert!(snap.counter("hcq_queue_depth").is_none(), "kind mismatch");
        assert!(snap.gauge("hcq_emitted_total").is_none(), "kind mismatch");
    }

    #[test]
    fn jsonl_is_one_self_describing_object() {
        let (mut reg, c, g, s) = sample_registry();
        reg.set_counter(c, 5);
        reg.set_gauge(g, 1.5);
        reg.observe(s, 2.0);
        let line = reg.snapshot(Nanos(1000)).to_jsonl();
        assert_eq!(
            line,
            "{\"type\":\"telemetry\",\"at\":1000,\"seq\":1,\"metrics\":[\
             {\"name\":\"hcq_emitted_total\",\"kind\":\"counter\",\"value\":5},\
             {\"name\":\"hcq_queue_depth\",\"labels\":{\"unit\":\"0\"},\"kind\":\"gauge\",\"value\":1.5},\
             {\"name\":\"hcq_slowdown\",\"kind\":\"summary\",\"value\":\
             {\"count\":1,\"sum\":2,\"p50\":2,\"p95\":2,\"p99\":2,\"max\":2}}]}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn jsonl_is_deterministic_across_identical_registries() {
        let build = || {
            let (mut reg, c, g, s) = sample_registry();
            reg.set_counter(c, 3);
            reg.set_gauge(g, 0.25);
            reg.observe(s, 1.75);
            reg.snapshot(Nanos(77)).to_jsonl()
        };
        assert_eq!(build(), build());
    }

    /// Regression: label values used to get three ad-hoc escapes, names and
    /// label keys none, and floats a bare `{}` — so a tab in a label or a NaN
    /// gauge produced a line the workspace's own strict parser rejected.
    #[test]
    fn every_rendered_line_parses_back_to_the_same_strings_and_null() {
        let ascii: Vec<String> = ('\u{0}'..='\u{7f}').map(|c| format!("a{c}b")).collect();
        let all: String = ('\u{0}'..='\u{7f}').collect();
        for value in ascii.iter().chain([&all]) {
            for x in [1.5, -2.5e-7, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut reg = TelemetryRegistry::new();
                let g = reg.gauge("g\t\"n\"", "h", vec![("k\\\n", value.clone())]);
                let s = reg.summary("s", "", vec![]);
                reg.set_gauge(g, x);
                reg.observe(s, x);
                let line = reg.snapshot(Nanos(5)).to_jsonl();
                let doc = json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line:?}"));
                let metrics = doc.get("metrics").and_then(|m| m.as_arr()).unwrap();
                let gauge = &metrics[0];
                assert_eq!(gauge.get("name").unwrap().as_str(), Some("g\t\"n\""));
                let labels = gauge.get("labels").unwrap().as_obj().unwrap();
                assert_eq!(labels.len(), 1);
                assert_eq!(labels[0].0, "k\\\n");
                assert_eq!(labels[0].1.as_str(), Some(value.as_str()));
                let got = gauge.get("value").unwrap();
                let sum = metrics[1].get("value").unwrap().get("sum").unwrap();
                for v in [got, sum] {
                    if x.is_finite() {
                        assert_eq!(v.as_f64().map(f64::to_bits), Some(x.to_bits()));
                    } else {
                        assert_eq!(v, &json::JsonValue::Null, "{x} in {line}");
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "counter moved backwards"))]
    fn counters_must_not_decrease() {
        let (mut reg, c, ..) = sample_registry();
        reg.set_counter(c, 5);
        reg.set_counter(c, 4);
        // Release builds skip the debug assertion; make the test vacuous.
        #[cfg(debug_assertions)]
        unreachable!();
    }
}
