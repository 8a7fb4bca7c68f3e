//! Per-query latency waterfalls and SimReport reconciliation.
//!
//! A waterfall is the per-query rollup of reconstructed spans: how much of
//! the query's total response time went to plain queue wait, governor-
//! induced wait, quarantine, and service, plus nearest-rank response and
//! slowdown percentiles. The totals are integer nanoseconds summed from
//! spans that each conserve exactly, so the whole table reconciles against
//! the run's `SimReport` — [`reconcile`] checks that field-for-field,
//! replaying the emission stream through the same `QosAccumulator` the
//! engine used (same Kahan summation, same order ⇒ bit-identical floats).

use hcq_engine::{SimReport, TraceEvent};
use hcq_metrics::QosAccumulator;

use crate::event::TraceLog;
use crate::span::{Outcome, SpanLog};

/// One query's waterfall rollup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryWaterfall {
    /// The query id.
    pub query: u32,
    /// Emitted spans rolled up.
    pub emitted: u64,
    /// Expired spans attributed to this query.
    pub expired: u64,
    /// Component totals over emitted spans, ns.
    pub wait: u64,
    /// Governor-induced wait total, ns.
    pub governed: u64,
    /// Quarantine total, ns.
    pub quarantine: u64,
    /// Service total, ns.
    pub service: u64,
    /// Response-time percentiles (nearest-rank) over emitted spans, ns.
    pub p50_response: u64,
    /// 95th percentile response, ns.
    pub p95_response: u64,
    /// 99th percentile response, ns.
    pub p99_response: u64,
    /// Maximum response, ns.
    pub max_response: u64,
    /// Slowdown percentiles over emitted spans.
    pub p50_slowdown: f64,
    /// 95th percentile slowdown.
    pub p95_slowdown: f64,
    /// 99th percentile slowdown.
    pub p99_slowdown: f64,
    /// Maximum slowdown.
    pub max_slowdown: f64,
}

impl QueryWaterfall {
    /// Total response time over emitted spans, ns.
    pub fn response(&self) -> u64 {
        self.wait + self.governed + self.quarantine + self.service
    }
}

/// The full waterfall analysis of one trace.
#[derive(Debug, Clone, Default)]
pub struct Waterfalls {
    /// Per-query rollups, sorted by query id.
    pub per_query: Vec<QueryWaterfall>,
    /// All spans reconstructed (emitted + shed + expired).
    pub total_spans: usize,
    /// Spans whose components re-sum to their response exactly.
    pub conserved_spans: usize,
    /// Shed spans (unit-scoped; not part of any query rollup).
    pub shed_spans: usize,
}

impl Waterfalls {
    /// The CI-greppable conservation line.
    pub fn conservation_line(&self) -> String {
        format!(
            "waterfall conservation: {}/{} spans decompose exactly \
             (wait + governed + quarantine + service == response)",
            self.conserved_spans, self.total_spans
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (p in (0, 100]).
fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Roll reconstructed spans up into per-query waterfalls.
pub fn waterfalls(spans: &SpanLog) -> Waterfalls {
    let mut per_query: Vec<QueryWaterfall> = Vec::new();
    let mut responses: Vec<Vec<u64>> = Vec::new();
    let mut slowdowns: Vec<Vec<f64>> = Vec::new();
    let mut conserved = 0;
    let mut shed_spans = 0;
    let row = |per_query: &mut Vec<QueryWaterfall>,
               responses: &mut Vec<Vec<u64>>,
               slowdowns: &mut Vec<Vec<f64>>,
               q: u32|
     -> usize {
        match per_query.binary_search_by_key(&q, |w| w.query) {
            Ok(i) => i,
            Err(i) => {
                per_query.insert(
                    i,
                    QueryWaterfall {
                        query: q,
                        ..QueryWaterfall::default()
                    },
                );
                responses.insert(i, Vec::new());
                slowdowns.insert(i, Vec::new());
                i
            }
        }
    };
    for s in &spans.spans {
        if s.conserves() {
            conserved += 1;
        }
        match s.outcome {
            Outcome::Emitted => {
                let q = s.query.expect("emitted spans carry a query");
                let i = row(&mut per_query, &mut responses, &mut slowdowns, q);
                let w = &mut per_query[i];
                w.emitted += 1;
                w.wait += s.wait;
                w.governed += s.governed;
                w.quarantine += s.quarantine;
                w.service += s.service;
                responses[i].push(s.response());
                slowdowns[i].push(s.slowdown);
            }
            Outcome::Expired => {
                let q = s.query.expect("expired spans carry a query");
                let i = row(&mut per_query, &mut responses, &mut slowdowns, q);
                per_query[i].expired += 1;
            }
            Outcome::Shed => shed_spans += 1,
        }
    }
    for (i, w) in per_query.iter_mut().enumerate() {
        responses[i].sort_unstable();
        slowdowns[i].sort_unstable_by(f64::total_cmp);
        w.p50_response = percentile(&responses[i], 50.0).unwrap_or(0);
        w.p95_response = percentile(&responses[i], 95.0).unwrap_or(0);
        w.p99_response = percentile(&responses[i], 99.0).unwrap_or(0);
        w.max_response = responses[i].last().copied().unwrap_or(0);
        w.p50_slowdown = percentile(&slowdowns[i], 50.0).unwrap_or(0.0);
        w.p95_slowdown = percentile(&slowdowns[i], 95.0).unwrap_or(0.0);
        w.p99_slowdown = percentile(&slowdowns[i], 99.0).unwrap_or(0.0);
        w.max_slowdown = slowdowns[i].last().copied().unwrap_or(0.0);
    }
    Waterfalls {
        per_query,
        total_spans: spans.spans.len(),
        conserved_spans: conserved,
        shed_spans,
    }
}

/// Render the waterfall table as fixed-width text (byte-deterministic).
pub fn render(w: &Waterfalls) -> String {
    let mut out = String::new();
    out.push_str(
        "query  emitted  expired  p50_ms    p95_ms    p99_ms    \
         wait%   gov%    quar%   serv%   p99_slowdown\n",
    );
    for q in &w.per_query {
        let total = q.response().max(1) as f64;
        let pct = |v: u64| 100.0 * v as f64 / total;
        out.push_str(&format!(
            "{:<6} {:<8} {:<8} {:<9.3} {:<9.3} {:<9.3} {:<7.1} {:<7.1} {:<7.1} {:<7.1} {:.2}\n",
            q.query,
            q.emitted,
            q.expired,
            q.p50_response as f64 * 1e-6,
            q.p95_response as f64 * 1e-6,
            q.p99_response as f64 * 1e-6,
            pct(q.wait),
            pct(q.governed),
            pct(q.quarantine),
            pct(q.service),
            q.p99_slowdown,
        ));
    }
    out.push_str(&w.conservation_line());
    out.push('\n');
    out
}

/// One reconciliation check: a field name, the trace-derived value, the
/// report's value, and whether they matched exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// SimReport field name.
    pub field: String,
    /// Value recomputed from the trace.
    pub from_trace: String,
    /// Value in the SimReport.
    pub from_report: String,
    /// Exact match?
    pub ok: bool,
}

/// The result of reconciling a trace against its run's `SimReport`.
#[derive(Debug, Clone, Default)]
pub struct Reconciliation {
    /// Every field compared.
    pub checks: Vec<Check>,
}

impl Reconciliation {
    /// True when every field matched exactly.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The fields that failed.
    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }
}

/// Recompute `SimReport` counters from the trace and compare field-for-field.
///
/// Covers every counter the trace can reproduce: event counts, busy and
/// overhead time, and the full QoS summary (replayed through the engine's
/// own `QosAccumulator`, so float aggregates must match to the bit).
/// Counters with no trace-side signal (arrivals, dropped-by-filter,
/// avg_pending) are out of scope.
pub fn reconcile(log: &TraceLog, report: &SimReport) -> Reconciliation {
    let mut r = Reconciliation::default();
    let mut push = |field: &str, trace: String, rep: String| {
        let ok = trace == rep;
        r.checks.push(Check {
            field: field.to_string(),
            from_trace: trace,
            from_report: rep,
            ok,
        });
    };

    let mut emits = 0u64;
    let mut sheds = 0u64;
    let mut expires = 0u64;
    let mut failures = 0u64;
    let mut sched_points = 0u64;
    let mut governor = 0u64;
    let mut switches = 0u64;
    let mut busy = 0u64;
    let mut overhead = 0u64;
    let mut candidates = 0u64;
    let mut evals = 0u64;
    let mut comparisons = 0u64;
    let mut cluster_ops = 0u64;
    let mut heap_ops = 0u64;
    let mut qos = QosAccumulator::new();
    for ev in &log.events {
        match ev {
            TraceEvent::Emit {
                at,
                arrival,
                slowdown,
                ..
            } => {
                emits += 1;
                qos.record(at.saturating_since(*arrival), *slowdown);
            }
            TraceEvent::Shed { .. } => sheds += 1,
            TraceEvent::Expire { .. } => expires += 1,
            TraceEvent::OpFailure { cost, .. } => {
                failures += 1;
                busy += cost.as_nanos();
            }
            TraceEvent::UnitRun { cost, .. } => busy += cost.as_nanos(),
            TraceEvent::SchedulingPoint {
                charged,
                candidates_scanned,
                priority_evals,
                comparisons: cmp,
                cluster_ops: cl,
                heap_ops: h,
                ..
            } => {
                sched_points += 1;
                overhead += charged.as_nanos();
                candidates += candidates_scanned;
                evals += priority_evals;
                comparisons += cmp;
                cluster_ops += cl;
                heap_ops += h;
            }
            TraceEvent::GovernorTransition { .. } => governor += 1,
            TraceEvent::PolicySwitch { .. } => switches += 1,
            TraceEvent::Fault { .. } => {}
        }
    }

    push("emitted", emits.to_string(), report.emitted.to_string());
    push("shed", sheds.to_string(), report.shed.to_string());
    push("expired", expires.to_string(), report.expired.to_string());
    push(
        "op_failures",
        failures.to_string(),
        report.op_failures.to_string(),
    );
    push(
        "sched_points",
        sched_points.to_string(),
        report.sched_points.to_string(),
    );
    push(
        "governor_transitions",
        governor.to_string(),
        report.governor_transitions.to_string(),
    );
    push(
        "policy_switches",
        switches.to_string(),
        report.policy_switches.to_string(),
    );
    push(
        "busy_time",
        busy.to_string(),
        report.busy_time.as_nanos().to_string(),
    );
    push(
        "overhead_time",
        overhead.to_string(),
        report.overhead_time.as_nanos().to_string(),
    );
    push(
        "overhead.candidates_scanned",
        candidates.to_string(),
        report.overhead.candidates_scanned.to_string(),
    );
    push(
        "overhead.priority_evals",
        evals.to_string(),
        report.overhead.priority_evals.to_string(),
    );
    push(
        "overhead.comparisons",
        comparisons.to_string(),
        report.overhead.comparisons.to_string(),
    );
    push(
        "overhead.cluster_ops",
        cluster_ops.to_string(),
        report.overhead.cluster_ops.to_string(),
    );
    push(
        "overhead.heap_ops",
        heap_ops.to_string(),
        report.overhead.heap_ops.to_string(),
    );

    // QoS: same accumulator, same record order ⇒ floats must be identical
    // to the bit. Compare the exact shortest-roundtrip rendering.
    let s = qos.summary();
    let f = |x: f64| format!("{x}");
    push(
        "qos.count",
        s.count.to_string(),
        report.qos.count.to_string(),
    );
    push(
        "qos.avg_response_ms",
        f(s.avg_response_ms),
        f(report.qos.avg_response_ms),
    );
    push(
        "qos.max_response_ms",
        f(s.max_response_ms),
        f(report.qos.max_response_ms),
    );
    push(
        "qos.avg_slowdown",
        f(s.avg_slowdown),
        f(report.qos.avg_slowdown),
    );
    push(
        "qos.max_slowdown",
        f(s.max_slowdown),
        f(report.qos.max_slowdown),
    );
    push(
        "qos.l2_slowdown",
        f(s.l2_slowdown),
        f(report.qos.l2_slowdown),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_stream;
    use crate::span::reconstruct;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 95.0), Some(95));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&[7u64], 50.0), Some(7));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
    }

    #[test]
    fn rollup_sums_components_per_query() {
        let l = parse_stream(
            &[
                r#"{"type":"unit_run","at":10,"unit":0,"tuple":1,"arrival":0,"cost":5,"tuples":1}"#,
                r#"{"type":"emit","at":15,"unit":0,"query":2,"tuple":1,"lineage":1,"arrival":0,"slowdown":1.5}"#,
                r#"{"type":"unit_run","at":20,"unit":0,"tuple":2,"arrival":5,"cost":5,"tuples":1}"#,
                r#"{"type":"emit","at":25,"unit":0,"query":2,"tuple":2,"lineage":2,"arrival":5,"slowdown":2.0}"#,
                r#"{"type":"expire","at":30,"unit":1,"query":7,"tuple":3,"arrival":4,"late_by":6}"#,
            ]
            .join("\n"),
        )
        .unwrap();
        let w = waterfalls(&reconstruct(&l).unwrap());
        assert_eq!(w.total_spans, 3);
        assert_eq!(w.conserved_spans, 3);
        assert_eq!(w.per_query.len(), 2);
        let q2 = &w.per_query[0];
        assert_eq!((q2.query, q2.emitted), (2, 2));
        // waits 10 and 15, services 5 and 5.
        assert_eq!((q2.wait, q2.service), (25, 10));
        assert_eq!(q2.response(), 35);
        assert_eq!(q2.max_response, 20);
        assert_eq!(q2.max_slowdown, 2.0);
        let q7 = &w.per_query[1];
        assert_eq!((q7.query, q7.emitted, q7.expired), (7, 0, 1));
        assert!(w
            .conservation_line()
            .contains("3/3 spans decompose exactly"));
        let text = render(&w);
        assert!(text.contains("waterfall conservation: 3/3"));
    }
}
