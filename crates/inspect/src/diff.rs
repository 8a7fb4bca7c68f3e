//! Run-vs-run decision diffing.
//!
//! Two traces of the same workload under different configurations (policy A
//! vs B, static vs governed, adaptive on vs off) are aligned at scheduling-
//! point granularity: the k-th decision in each trace is the k-th
//! `SchedulingPoint`, and its outcome is the ordered list of units the
//! scheduler consumed before the next decision (runs, expiries, and failed
//! attempts — everything that dequeued a head tuple). The first index where
//! the outcomes differ is the first divergent decision; everything after it
//! is downstream of that choice. Virtual times are reported but not
//! compared — costs differ across runs, decision *ordinals* are the stable
//! axis.
//!
//! The per-query QoS delta table then quantifies what the divergence bought:
//! emitted counts and mean/max slowdown per query in each run, side by side.

use hcq_engine::TraceEvent;

use crate::event::TraceLog;

/// One scheduling decision and the units it consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Zero-based decision ordinal.
    pub ordinal: u64,
    /// Virtual time of the decision, ns.
    pub at: u64,
    /// Units dequeued before the next decision, in order.
    pub units: Vec<u32>,
}

/// Extract the decision sequence from a trace.
pub fn decisions(log: &TraceLog) -> Vec<Decision> {
    let mut out: Vec<Decision> = Vec::new();
    for ev in &log.events {
        match ev {
            TraceEvent::SchedulingPoint { at, .. } => out.push(Decision {
                ordinal: out.len() as u64,
                at: at.as_nanos(),
                units: Vec::new(),
            }),
            TraceEvent::UnitRun { unit, .. }
            | TraceEvent::Expire { unit, .. }
            | TraceEvent::OpFailure { unit, .. } => {
                if let Some(d) = out.last_mut() {
                    d.units.push(*unit);
                }
            }
            _ => {}
        }
    }
    out
}

/// The first decision where two runs chose differently.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Zero-based ordinal of the divergent decision.
    pub ordinal: u64,
    /// Virtual time of that decision in run A, ns.
    pub at_a: u64,
    /// Virtual time in run B, ns.
    pub at_b: u64,
    /// Units run A consumed at that decision.
    pub units_a: Vec<u32>,
    /// Units run B consumed.
    pub units_b: Vec<u32>,
}

/// One query's QoS in both runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryDelta {
    /// The query id.
    pub query: u32,
    /// Emissions in run A.
    pub emitted_a: u64,
    /// Emissions in run B.
    pub emitted_b: u64,
    /// Mean slowdown in run A.
    pub avg_slowdown_a: f64,
    /// Mean slowdown in run B.
    pub avg_slowdown_b: f64,
    /// Max slowdown in run A.
    pub max_slowdown_a: f64,
    /// Max slowdown in run B.
    pub max_slowdown_b: f64,
}

/// The full diff of two runs.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Scheduling points in run A.
    pub points_a: u64,
    /// Scheduling points in run B.
    pub points_b: u64,
    /// The first divergent decision (None when one run's decision sequence
    /// is a prefix of the other's — including identical runs).
    pub divergence: Option<Divergence>,
    /// Per-query QoS side by side, sorted by query id.
    pub queries: Vec<QueryDelta>,
}

fn per_query_qos(log: &TraceLog, out: &mut Vec<QueryDelta>, side_a: bool) {
    for ev in &log.events {
        if let TraceEvent::Emit {
            query, slowdown, ..
        } = ev
        {
            let i = match out.binary_search_by_key(query, |d| d.query) {
                Ok(i) => i,
                Err(i) => {
                    out.insert(
                        i,
                        QueryDelta {
                            query: *query,
                            ..QueryDelta::default()
                        },
                    );
                    i
                }
            };
            let d = &mut out[i];
            // Accumulate the sum in avg_* and divide at the end.
            if side_a {
                d.emitted_a += 1;
                d.avg_slowdown_a += slowdown;
                d.max_slowdown_a = d.max_slowdown_a.max(*slowdown);
            } else {
                d.emitted_b += 1;
                d.avg_slowdown_b += slowdown;
                d.max_slowdown_b = d.max_slowdown_b.max(*slowdown);
            }
        }
    }
}

/// Diff two parsed traces (A = baseline, B = candidate).
pub fn diff(a: &TraceLog, b: &TraceLog) -> DiffReport {
    let da = decisions(a);
    let db = decisions(b);
    let mut divergence = None;
    for (x, y) in da.iter().zip(db.iter()) {
        if x.units != y.units {
            divergence = Some(Divergence {
                ordinal: x.ordinal,
                at_a: x.at,
                at_b: y.at,
                units_a: x.units.clone(),
                units_b: y.units.clone(),
            });
            break;
        }
    }
    let mut queries = Vec::new();
    per_query_qos(a, &mut queries, true);
    per_query_qos(b, &mut queries, false);
    for d in &mut queries {
        if d.emitted_a > 0 {
            d.avg_slowdown_a /= d.emitted_a as f64;
        }
        if d.emitted_b > 0 {
            d.avg_slowdown_b /= d.emitted_b as f64;
        }
    }
    DiffReport {
        points_a: da.len() as u64,
        points_b: db.len() as u64,
        divergence,
        queries,
    }
}

fn units_str(units: &[u32]) -> String {
    if units.is_empty() {
        "-".to_string()
    } else {
        units
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Render the diff as fixed-width text.
pub fn render(r: &DiffReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "decision points: {} (A) vs {} (B)\n",
        r.points_a, r.points_b
    ));
    match &r.divergence {
        Some(d) => out.push_str(&format!(
            "first divergent decision: #{} — A@{}ns ran unit(s) {}, B@{}ns ran unit(s) {}\n",
            d.ordinal,
            d.at_a,
            units_str(&d.units_a),
            d.at_b,
            units_str(&d.units_b),
        )),
        None => out.push_str("no divergent decision (one run prefixes the other)\n"),
    }
    out.push_str(
        "query  emitted_A  emitted_B  avg_slowdown_A  avg_slowdown_B  \
         max_slowdown_A  max_slowdown_B\n",
    );
    for q in &r.queries {
        out.push_str(&format!(
            "{:<6} {:<10} {:<10} {:<15.3} {:<15.3} {:<15.3} {:.3}\n",
            q.query,
            q.emitted_a,
            q.emitted_b,
            q.avg_slowdown_a,
            q.avg_slowdown_b,
            q.max_slowdown_a,
            q.max_slowdown_b,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_stream;

    fn trace(selections: &[(u64, u32)], emits: &[(u32, f64)]) -> TraceLog {
        let mut lines = Vec::new();
        for (at, unit) in selections {
            lines.push(format!(
                r#"{{"type":"sched_point","at":{at},"candidates":1,"evals":1,"comparisons":0,"cluster_ops":0,"heap_ops":0,"charged":0}}"#
            ));
            lines.push(format!(
                r#"{{"type":"unit_run","at":{at},"unit":{unit},"tuple":1,"arrival":0,"cost":10,"tuples":0}}"#
            ));
        }
        for (i, (query, slowdown)) in emits.iter().enumerate() {
            lines.push(format!(
                r#"{{"type":"unit_run","at":900,"unit":{query},"tuple":{i},"arrival":0,"cost":10,"tuples":1}}"#
            ));
            lines.push(format!(
                r#"{{"type":"emit","at":901,"unit":{query},"query":{query},"tuple":{i},"lineage":{i},"arrival":0,"slowdown":{slowdown}}}"#
            ));
        }
        parse_stream(&lines.join("\n")).unwrap()
    }

    #[test]
    fn finds_first_divergent_decision() {
        let a = trace(&[(10, 0), (20, 1), (30, 2)], &[]);
        let b = trace(&[(10, 0), (25, 2), (30, 2)], &[]);
        let r = diff(&a, &b);
        let d = r.divergence.clone().expect("runs diverge");
        assert_eq!(d.ordinal, 1);
        assert_eq!((d.at_a, d.at_b), (20, 25));
        assert_eq!(
            (d.units_a.as_slice(), d.units_b.as_slice()),
            (&[1u32][..], &[2u32][..])
        );
        assert!(render(&r).contains("first divergent decision: #1"));
    }

    #[test]
    fn identical_runs_do_not_diverge() {
        let a = trace(&[(10, 0), (20, 1)], &[(0, 1.5)]);
        let b = trace(&[(10, 0), (20, 1)], &[(0, 2.5)]);
        let r = diff(&a, &b);
        assert!(r.divergence.is_none());
        assert_eq!(r.queries.len(), 1);
        let q = &r.queries[0];
        assert_eq!((q.emitted_a, q.emitted_b), (1, 1));
        assert_eq!((q.avg_slowdown_a, q.avg_slowdown_b), (1.5, 2.5));
    }

    #[test]
    fn pre_decision_events_are_ignored() {
        // A unit_run before any sched_point (never produced by the engine)
        // must not panic.
        let log = parse_stream(
            r#"{"type":"unit_run","at":5,"unit":0,"tuple":1,"arrival":0,"cost":10,"tuples":0}"#,
        )
        .unwrap();
        assert!(decisions(&log).is_empty());
    }
}
