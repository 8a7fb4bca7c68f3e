//! Span reconstruction: from a flat event stream to one span per tuple
//! outcome, with the response time decomposed into disjoint components.
//!
//! The engine guarantees stream structure (see `TraceSink::event` docs):
//! each `UnitRun` is immediately followed by the `Emit`/`Shed` events its
//! execution produced, so an emission belongs to the nearest preceding
//! `UnitRun` — positional association, no ids needed. Ids still matter for
//! the quarantine component: a failed attempt leaves an `OpFailure` keyed by
//! `(unit, tuple)`, and the eventual successful run of the same key closes
//! the gap.
//!
//! Decomposition of an emitted span (arrival `a`, first attempt `f`, run
//! start `r`, emission `e`):
//!
//! - `service`    = `e − r` — executing the winning run.
//! - `quarantine` = `r − f` — failed-attempt charges plus cooldown parking
//!   (zero when the first attempt succeeded, i.e. `f == r`).
//! - `governed`   = overlap of `[a, f)` with windows where the governor had
//!   moved the admission mode off the run's baseline — wait the overload
//!   response induced.
//! - `wait`       = `(f − a) − governed` — plain queue wait.
//!
//! The four sum to `e − a` exactly, in integer nanoseconds — the waterfall
//! conservation property `repro inspect` prints and CI greps. Shed and
//! expired tuples get the same treatment with `service = 0` and the event's
//! own timestamp closing the span.
//!
//! One honest caveat: for a composite (join) emission whose probing tuple
//! failed before its partner arrived, `f` can precede `a` (the composite's
//! Definition-5 arrival is the max over constituents). `f` is clamped to
//! `a`; the pre-arrival failure time folds into `quarantine`.

use std::collections::HashMap;

use hcq_engine::TraceEvent;

use crate::event::TraceLog;

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Reached a query root.
    Emitted,
    /// Shed by the overload manager.
    Shed,
    /// Expired at dequeue past its deadline.
    Expired,
}

/// One tuple's reconstructed lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// How the span ended.
    pub outcome: Outcome,
    /// The emitting/expiring query (None for sheds, which are unit-scoped).
    pub query: Option<u32>,
    /// The unit that closed the span.
    pub unit: u32,
    /// The closing tuple id (composite for join outputs).
    pub tuple: u64,
    /// The lineage id (Emit/Shed carry it; expires fall back to `tuple`).
    pub lineage: u64,
    /// System arrival, ns.
    pub arrival: u64,
    /// Start of the winning run (== `end` for sheds/expires), ns.
    pub run_start: u64,
    /// Span close: emission, shed, or expiry time, ns.
    pub end: u64,
    /// Slowdown `H` for emissions, 0 otherwise.
    pub slowdown: f64,
    /// Plain queue wait, ns.
    pub wait: u64,
    /// Governor-induced wait, ns.
    pub governed: u64,
    /// Failed attempts + cooldown parking, ns.
    pub quarantine: u64,
    /// Winning-run execution time, ns.
    pub service: u64,
}

impl Span {
    /// Total response time, ns.
    pub fn response(&self) -> u64 {
        self.end - self.arrival
    }

    /// Whether the components re-sum to the response exactly.
    pub fn conserves(&self) -> bool {
        self.wait + self.governed + self.quarantine + self.service == self.response()
    }
}

/// The reconstructed view of one trace.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    /// One span per Emit/Shed/Expire event, in stream order.
    pub spans: Vec<Span>,
    /// Half-open windows `[start, end)` where the admission mode was off its
    /// baseline (the last window may be open to `u64::MAX`).
    pub governed_windows: Vec<(u64, u64)>,
}

/// Total overlap of `[lo, hi)` with the governed windows.
fn governed_overlap(windows: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut total = 0;
    for &(s, e) in windows {
        let s = s.max(lo);
        let e = e.min(hi);
        if s < e {
            total += e - s;
        }
    }
    total
}

/// Reconstruct spans from a parsed trace. Errors on streams that violate
/// the engine's ordering contract (an emission with no preceding run).
pub fn reconstruct(log: &TraceLog) -> Result<SpanLog, String> {
    // Pass 1: governed windows. Baseline = the `from` of the first
    // transition (a governed run starts on its configured rung; every
    // departure from it is governor-induced).
    let mut governed_windows = Vec::new();
    let mut baseline: Option<&str> = None;
    let mut open: Option<u64> = None;
    for ev in &log.events {
        if let TraceEvent::GovernorTransition { at, from, to, .. } = ev {
            let base = *baseline.get_or_insert(from.as_str());
            match (open, to.as_str() != base) {
                (None, true) => open = Some(at.as_nanos()),
                (Some(s), false) => {
                    governed_windows.push((s, at.as_nanos()));
                    open = None;
                }
                _ => {}
            }
        }
    }
    if let Some(s) = open {
        governed_windows.push((s, u64::MAX));
    }

    // Pass 2: first failed-attempt time per (unit, tuple).
    let mut first_failure: HashMap<(u32, u64), u64> = HashMap::new();
    for ev in &log.events {
        if let TraceEvent::OpFailure {
            at, unit, tuple, ..
        } = ev
        {
            first_failure
                .entry((*unit, *tuple))
                .or_insert(at.as_nanos());
        }
    }

    // Pass 3: spans.
    let mut spans = Vec::new();
    let mut last_run: Option<(u64, u32, u64)> = None; // (at, unit, tuple)
    for (i, ev) in log.events.iter().enumerate() {
        match ev {
            TraceEvent::UnitRun {
                at, unit, tuple, ..
            } => last_run = Some((at.as_nanos(), *unit, *tuple)),
            TraceEvent::Emit {
                at,
                unit,
                query,
                tuple,
                lineage,
                arrival,
                slowdown,
            } => {
                let (at, arrival) = (at.as_nanos(), arrival.as_nanos());
                let (run_at, run_unit, run_tuple) = last_run
                    .ok_or_else(|| format!("event {i}: emit with no preceding unit_run"))?;
                if run_unit != *unit {
                    return Err(format!(
                        "event {i}: emit on unit {unit} but last run was unit {run_unit}"
                    ));
                }
                let f = first_failure
                    .get(&(run_unit, run_tuple))
                    .copied()
                    .unwrap_or(run_at)
                    .clamp(arrival, run_at);
                let governed = governed_overlap(&governed_windows, arrival, f);
                spans.push(Span {
                    outcome: Outcome::Emitted,
                    query: Some(*query),
                    unit: *unit,
                    tuple: *tuple,
                    lineage: *lineage,
                    arrival,
                    run_start: run_at,
                    end: at,
                    slowdown: *slowdown,
                    wait: (f - arrival) - governed,
                    governed,
                    quarantine: run_at - f,
                    service: at - run_at,
                });
            }
            TraceEvent::Shed {
                at,
                unit,
                tuple,
                lineage,
                arrival,
            } => {
                let (at, arrival) = (at.as_nanos(), arrival.as_nanos());
                let f = first_failure
                    .get(&(*unit, *tuple))
                    .copied()
                    .unwrap_or(at)
                    .clamp(arrival, at);
                let governed = governed_overlap(&governed_windows, arrival, f);
                spans.push(Span {
                    outcome: Outcome::Shed,
                    query: None,
                    unit: *unit,
                    tuple: *tuple,
                    lineage: *lineage,
                    arrival,
                    run_start: at,
                    end: at,
                    slowdown: 0.0,
                    wait: (f - arrival) - governed,
                    governed,
                    quarantine: at - f,
                    service: 0,
                });
            }
            TraceEvent::Expire {
                at,
                unit,
                query,
                tuple,
                arrival,
                ..
            } => {
                let (at, arrival) = (at.as_nanos(), arrival.as_nanos());
                let f = first_failure
                    .get(&(*unit, *tuple))
                    .copied()
                    .unwrap_or(at)
                    .clamp(arrival, at);
                let governed = governed_overlap(&governed_windows, arrival, f);
                spans.push(Span {
                    outcome: Outcome::Expired,
                    query: Some(*query),
                    unit: *unit,
                    tuple: *tuple,
                    lineage: *tuple,
                    arrival,
                    run_start: at,
                    end: at,
                    slowdown: 0.0,
                    wait: (f - arrival) - governed,
                    governed,
                    quarantine: at - f,
                    service: 0,
                });
            }
            _ => {}
        }
    }
    Ok(SpanLog {
        spans,
        governed_windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_stream;

    fn log(lines: &[&str]) -> TraceLog {
        parse_stream(&lines.join("\n")).unwrap()
    }

    #[test]
    fn emit_decomposes_into_wait_and_service() {
        let l = log(&[
            r#"{"type":"sched_point","at":0,"candidates":1,"evals":1,"comparisons":0,"cluster_ops":0,"heap_ops":0,"charged":0}"#,
            r#"{"type":"unit_run","at":50,"unit":1,"tuple":3,"arrival":10,"cost":25,"tuples":1}"#,
            r#"{"type":"emit","at":75,"unit":1,"query":0,"tuple":3,"lineage":3,"arrival":10,"slowdown":2.0}"#,
        ]);
        let s = &reconstruct(&l).unwrap().spans[0];
        assert_eq!(s.outcome, Outcome::Emitted);
        assert_eq!(
            (s.wait, s.governed, s.quarantine, s.service),
            (40, 0, 0, 25)
        );
        assert_eq!(s.response(), 65);
        assert!(s.conserves());
    }

    #[test]
    fn failed_attempts_become_quarantine() {
        let l = log(&[
            r#"{"type":"op_failure","at":30,"unit":1,"tuple":3,"cost":5,"attempt":0,"retrying":true}"#,
            r#"{"type":"unit_run","at":90,"unit":1,"tuple":3,"arrival":10,"cost":25,"tuples":1}"#,
            r#"{"type":"emit","at":115,"unit":1,"query":0,"tuple":3,"lineage":3,"arrival":10,"slowdown":2.0}"#,
        ]);
        let s = &reconstruct(&l).unwrap().spans[0];
        // wait 10→30, quarantine 30→90, service 90→115.
        assert_eq!(
            (s.wait, s.governed, s.quarantine, s.service),
            (20, 0, 60, 25)
        );
        assert!(s.conserves());
    }

    #[test]
    fn governed_windows_split_the_wait() {
        let l = log(&[
            r#"{"type":"governor","at":20,"from":"Unbounded","to":"DropTail","pending":9,"share":0.9}"#,
            r#"{"type":"governor","at":40,"from":"DropTail","to":"Unbounded","pending":1,"share":0.1}"#,
            r#"{"type":"unit_run","at":60,"unit":0,"tuple":1,"arrival":0,"cost":10,"tuples":1}"#,
            r#"{"type":"emit","at":70,"unit":0,"query":0,"tuple":1,"lineage":1,"arrival":0,"slowdown":1.0}"#,
        ]);
        let out = reconstruct(&l).unwrap();
        assert_eq!(out.governed_windows, vec![(20, 40)]);
        let s = &out.spans[0];
        assert_eq!(
            (s.wait, s.governed, s.quarantine, s.service),
            (40, 20, 0, 10)
        );
        assert!(s.conserves());
    }

    #[test]
    fn governed_window_left_open_at_stream_end() {
        let l = log(&[
            r#"{"type":"governor","at":20,"from":"Unbounded","to":"QosShed","pending":9,"share":0.9}"#,
            r#"{"type":"shed","at":50,"unit":2,"tuple":8,"lineage":8,"arrival":30}"#,
        ]);
        let out = reconstruct(&l).unwrap();
        assert_eq!(out.governed_windows, vec![(20, u64::MAX)]);
        let s = &out.spans[0];
        assert_eq!(s.outcome, Outcome::Shed);
        // The whole 30→50 wait fell inside the governed window.
        assert_eq!((s.wait, s.governed, s.quarantine, s.service), (0, 20, 0, 0));
        assert!(s.conserves());
    }

    #[test]
    fn expire_is_all_wait() {
        let l = log(&[
            r#"{"type":"expire","at":90,"unit":1,"query":3,"tuple":4,"arrival":10,"late_by":30}"#,
        ]);
        let s = &reconstruct(&l).unwrap().spans[0];
        assert_eq!(s.outcome, Outcome::Expired);
        assert_eq!(s.query, Some(3));
        assert_eq!((s.wait, s.governed, s.quarantine, s.service), (80, 0, 0, 0));
        assert!(s.conserves());
    }

    #[test]
    fn composite_arrival_after_probe_failure_clamps() {
        // Probe (tuple 3) fails at 30; partner arrives later so the
        // composite's arrival (70) postdates the failure. f clamps to a.
        let l = log(&[
            r#"{"type":"op_failure","at":30,"unit":1,"tuple":3,"cost":5,"attempt":0,"retrying":true}"#,
            r#"{"type":"unit_run","at":90,"unit":1,"tuple":3,"arrival":10,"cost":25,"tuples":1}"#,
            r#"{"type":"emit","at":115,"unit":1,"query":0,"tuple":9223372036854775811,"lineage":5,"arrival":70,"slowdown":1.0}"#,
        ]);
        let s = &reconstruct(&l).unwrap().spans[0];
        assert_eq!(
            (s.wait, s.governed, s.quarantine, s.service),
            (0, 0, 20, 25)
        );
        assert!(s.conserves());
    }

    #[test]
    fn emit_without_run_is_contract_violation() {
        let l = log(&[
            r#"{"type":"emit","at":75,"unit":1,"query":0,"tuple":3,"lineage":3,"arrival":10,"slowdown":2.0}"#,
        ]);
        assert!(reconstruct(&l).is_err());
    }
}
