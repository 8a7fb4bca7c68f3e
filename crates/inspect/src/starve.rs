//! Starvation and anomaly detection.
//!
//! The paper's §5 pathology — FCFS letting one expensive query starve the
//! cheap ones (or HR starving the expensive one) — shows up in a trace as
//! head tuples that sat runnable through many scheduling decisions before
//! being selected. This module surfaces it three ways:
//!
//! - **Episodes**: every selection (run or expiry) whose head-of-queue wait
//!   exceeded a threshold *while the scheduler was making other decisions*
//!   (at least one `SchedulingPoint` fell inside the wait — a wait with no
//!   intervening decision is idleness or a burst, not starvation). The
//!   default threshold is 10× the median positive wait, floored at 1 ms, so
//!   it adapts to the workload's natural queueing scale.
//! - **Selection share vs demand share** per unit: the fraction of
//!   selections a unit received against the fraction of selection-eligible
//!   work (runs + sheds + expiries + failed attempts) it presented. A
//!   strongly negative skew is a unit the policy systematically passed over.
//!   (True priority shares would need the statics table, which the trace
//!   deliberately does not carry; demand share is the observable proxy.)
//! - **Longest-wait timeline**: per unit, the maximum observed head wait.

use hcq_engine::TraceEvent;

use crate::event::TraceLog;

/// Per-unit selection accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitShare {
    /// The unit.
    pub unit: u32,
    /// Times the scheduler ran this unit.
    pub selections: u64,
    /// Selection-eligible work the unit presented (runs + sheds + expiries
    /// + failed attempts).
    pub demand: u64,
    /// Fraction of all selections.
    pub selection_share: f64,
    /// Fraction of all demand.
    pub demand_share: f64,
    /// `selection_share − demand_share`; strongly negative = passed over.
    pub skew: f64,
    /// Longest observed head-of-queue wait, ns.
    pub max_wait: u64,
    /// Starvation episodes flagged on this unit.
    pub flagged: u64,
}

/// One flagged starvation episode.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// The starved unit.
    pub unit: u32,
    /// The waiting head tuple.
    pub tuple: u64,
    /// Its arrival, ns.
    pub arrival: u64,
    /// When it was finally selected (run or expired), ns.
    pub selected_at: u64,
    /// The wait, ns.
    pub wait: u64,
    /// Scheduling decisions taken while it waited.
    pub points_missed: u64,
    /// True when the wait ended in expiry rather than a run.
    pub expired: bool,
}

/// The full starvation analysis.
#[derive(Debug, Clone, Default)]
pub struct Starvation {
    /// The wait threshold used, ns.
    pub threshold: u64,
    /// Median positive head wait the threshold derives from, ns.
    pub median_wait: u64,
    /// Per-unit accounting, sorted by unit id.
    pub units: Vec<UnitShare>,
    /// Flagged episodes, longest wait first, capped at [`MAX_EPISODES`].
    pub episodes: Vec<Episode>,
    /// Total episodes flagged (may exceed `episodes.len()`).
    pub flagged_total: u64,
}

/// Cap on reported episodes (the per-unit `flagged` counters are exact).
pub const MAX_EPISODES: usize = 20;

/// Run the detector. `threshold` overrides the adaptive default (ns).
pub fn starvation(log: &TraceLog, threshold: Option<u64>) -> Starvation {
    // Selection instants: UnitRun and Expire consume the head tuple.
    // Sheds and failed attempts count as demand but not selection-with-wait
    // (a shed head never got selected; a failed attempt's wait ends at the
    // retry's UnitRun).
    let mut sched_points: Vec<u64> = Vec::new();
    for ev in &log.events {
        if let TraceEvent::SchedulingPoint { at, .. } = ev {
            sched_points.push(at.as_nanos());
        }
    }

    struct Sel {
        unit: u32,
        tuple: u64,
        arrival: u64,
        at: u64,
        expired: bool,
    }
    let mut selections: Vec<Sel> = Vec::new();
    let mut units: Vec<UnitShare> = Vec::new();
    let unit_row = |units: &mut Vec<UnitShare>, u: u32| -> usize {
        match units.binary_search_by_key(&u, |r| r.unit) {
            Ok(i) => i,
            Err(i) => {
                units.insert(
                    i,
                    UnitShare {
                        unit: u,
                        ..UnitShare::default()
                    },
                );
                i
            }
        }
    };
    for ev in &log.events {
        match ev {
            TraceEvent::UnitRun {
                at,
                unit,
                tuple,
                arrival,
                ..
            } => {
                let i = unit_row(&mut units, *unit);
                units[i].selections += 1;
                units[i].demand += 1;
                selections.push(Sel {
                    unit: *unit,
                    tuple: *tuple,
                    arrival: arrival.as_nanos(),
                    at: at.as_nanos(),
                    expired: false,
                });
            }
            TraceEvent::Expire {
                at,
                unit,
                tuple,
                arrival,
                ..
            } => {
                let i = unit_row(&mut units, *unit);
                units[i].selections += 1;
                units[i].demand += 1;
                selections.push(Sel {
                    unit: *unit,
                    tuple: *tuple,
                    arrival: arrival.as_nanos(),
                    at: at.as_nanos(),
                    expired: true,
                });
            }
            TraceEvent::Shed { unit, .. } | TraceEvent::OpFailure { unit, .. } => {
                let i = unit_row(&mut units, *unit);
                units[i].demand += 1;
            }
            _ => {}
        }
    }

    // Adaptive threshold: 10× the median positive wait, floored at 1 ms.
    let mut waits: Vec<u64> = selections
        .iter()
        .map(|s| s.at.saturating_sub(s.arrival))
        .filter(|&w| w > 0)
        .collect();
    waits.sort_unstable();
    let median_wait = if waits.is_empty() {
        0
    } else {
        waits[waits.len() / 2]
    };
    let threshold = threshold.unwrap_or_else(|| (median_wait.saturating_mul(10)).max(1_000_000));

    let total_selections: u64 = units.iter().map(|u| u.selections).sum();
    let total_demand: u64 = units.iter().map(|u| u.demand).sum();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut flagged_total = 0u64;
    for s in &selections {
        let wait = s.at.saturating_sub(s.arrival);
        let i = unit_row(&mut units, s.unit);
        units[i].max_wait = units[i].max_wait.max(wait);
        if wait < threshold {
            continue;
        }
        // Decisions strictly inside (arrival, at]: the scheduler was active
        // and chose someone else (the closing decision itself included).
        let lo = sched_points.partition_point(|&p| p <= s.arrival);
        let hi = sched_points.partition_point(|&p| p <= s.at);
        let points_missed = (hi - lo) as u64;
        if points_missed == 0 {
            continue;
        }
        flagged_total += 1;
        units[i].flagged += 1;
        episodes.push(Episode {
            unit: s.unit,
            tuple: s.tuple,
            arrival: s.arrival,
            selected_at: s.at,
            wait,
            points_missed,
            expired: s.expired,
        });
    }
    episodes.sort_by(|a, b| {
        b.wait
            .cmp(&a.wait)
            .then(a.arrival.cmp(&b.arrival))
            .then(a.unit.cmp(&b.unit))
    });
    episodes.truncate(MAX_EPISODES);

    for u in &mut units {
        u.selection_share = if total_selections == 0 {
            0.0
        } else {
            u.selections as f64 / total_selections as f64
        };
        u.demand_share = if total_demand == 0 {
            0.0
        } else {
            u.demand as f64 / total_demand as f64
        };
        u.skew = u.selection_share - u.demand_share;
    }

    Starvation {
        threshold,
        median_wait,
        units,
        episodes,
        flagged_total,
    }
}

/// Render the starvation report as fixed-width text.
pub fn render(s: &Starvation) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "starvation: {} episode(s) flagged (threshold {:.3} ms = max(10x median wait {:.3} ms, 1 ms))\n",
        s.flagged_total,
        s.threshold as f64 * 1e-6,
        s.median_wait as f64 * 1e-6,
    ));
    if !s.episodes.is_empty() {
        out.push_str("unit   tuple                 wait_ms    points_missed  outcome\n");
        for e in &s.episodes {
            out.push_str(&format!(
                "{:<6} {:<21} {:<10.3} {:<14} {}\n",
                e.unit,
                e.tuple,
                e.wait as f64 * 1e-6,
                e.points_missed,
                if e.expired { "expired" } else { "ran" },
            ));
        }
    }
    out.push_str("unit   selections  demand  sel_share  dem_share  skew      max_wait_ms\n");
    for u in &s.units {
        out.push_str(&format!(
            "{:<6} {:<11} {:<7} {:<10.4} {:<10.4} {:<+9.4} {:.3}\n",
            u.unit,
            u.selections,
            u.demand,
            u.selection_share,
            u.demand_share,
            u.skew,
            u.max_wait as f64 * 1e-6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_stream;

    #[test]
    fn flags_long_waits_with_missed_points() {
        // Unit 1's tuple waits 50ms across 3 decisions; unit 0 served fast.
        let ms = |n: u64| n * 1_000_000;
        let lines = [
            format!(
                r#"{{"type":"sched_point","at":{},"candidates":2,"evals":2,"comparisons":1,"cluster_ops":0,"heap_ops":0,"charged":0}}"#,
                ms(1)
            ),
            format!(
                r#"{{"type":"unit_run","at":{},"unit":0,"tuple":1,"arrival":0,"cost":1000,"tuples":1}}"#,
                ms(1)
            ),
            format!(
                r#"{{"type":"sched_point","at":{},"candidates":2,"evals":2,"comparisons":1,"cluster_ops":0,"heap_ops":0,"charged":0}}"#,
                ms(2)
            ),
            format!(
                r#"{{"type":"unit_run","at":{},"unit":0,"tuple":2,"arrival":{},"cost":1000,"tuples":1}}"#,
                ms(2),
                ms(1)
            ),
            format!(
                r#"{{"type":"sched_point","at":{},"candidates":2,"evals":2,"comparisons":1,"cluster_ops":0,"heap_ops":0,"charged":0}}"#,
                ms(50)
            ),
            format!(
                r#"{{"type":"unit_run","at":{},"unit":1,"tuple":3,"arrival":0,"cost":1000,"tuples":1}}"#,
                ms(50)
            ),
            // A shed on unit 1: demand the policy never served.
            format!(
                r#"{{"type":"shed","at":{},"unit":1,"tuple":4,"lineage":4,"arrival":0}}"#,
                ms(50)
            ),
        ];
        let log = parse_stream(&lines.join("\n")).unwrap();
        let s = starvation(&log, None);
        // median positive wait: waits are 1ms, 1ms, 50ms → median 1ms;
        // threshold max(10ms, 1ms) = 10ms.
        assert_eq!(s.threshold, ms(10));
        assert_eq!(s.flagged_total, 1);
        assert_eq!(s.episodes.len(), 1);
        let e = &s.episodes[0];
        assert_eq!((e.unit, e.tuple, e.wait), (1, 3, ms(50)));
        assert_eq!(e.points_missed, 3);
        let u1 = s.units.iter().find(|u| u.unit == 1).unwrap();
        assert_eq!(u1.flagged, 1);
        assert_eq!(u1.max_wait, ms(50));
        assert!(u1.skew < 0.0);
        assert!(render(&s).contains("1 episode(s) flagged"));
    }

    #[test]
    fn no_flag_without_intervening_decisions() {
        // A 50ms wait with zero scheduling points inside is idleness.
        let lines = [
            r#"{"type":"unit_run","at":50000000,"unit":1,"tuple":3,"arrival":0,"cost":1000,"tuples":1}"#,
        ];
        let log = parse_stream(&lines.join("\n")).unwrap();
        let s = starvation(&log, Some(1_000_000));
        assert_eq!(s.flagged_total, 0);
    }

    #[test]
    fn empty_trace_is_quiet() {
        let s = starvation(&TraceLog::default(), None);
        assert_eq!(s.flagged_total, 0);
        assert!(s.units.is_empty());
        assert_eq!(s.threshold, 1_000_000);
    }
}
