//! Greedy scenario shrinking and replayable artifacts.
//!
//! When a scenario violates an invariant, replaying the raw generated case
//! is a poor debugging start: six queries, hundreds of arrivals, a fault
//! schedule. [`shrink`] applies a fixed sequence of simplifying
//! transformations — halve the query set, halve the arrivals, drop trailing
//! operators, strip faults and admission bounds, flatten the source — and
//! keeps each one only if the scenario *still fails*, iterating to a fixed
//! point. The result is written as a `fuzz-repro-<seed>-<case>.json`
//! artifact (the scenario document of [`crate::scenario`] plus the observed
//! violations) that `crates/check/tests/replay.rs` re-runs forever after.

use crate::invariants::Violation;
use crate::scenario::{FaultPlan, Scenario, SourceKind};
use hcq_common::json::{self, JsonValue};

/// One shrinking transformation: returns a strictly simpler candidate, or
/// `None` when it no longer applies.
type Transform = fn(&Scenario) -> Option<Scenario>;

fn halve_queries(s: &Scenario) -> Option<Scenario> {
    if s.queries.len() <= 1 {
        return None;
    }
    let mut t = s.clone();
    t.queries.truncate(s.queries.len().div_ceil(2));
    Some(t)
}

fn drop_last_query(s: &Scenario) -> Option<Scenario> {
    if s.queries.len() <= 1 {
        return None;
    }
    let mut t = s.clone();
    t.queries.pop();
    Some(t)
}

fn halve_arrivals(s: &Scenario) -> Option<Scenario> {
    if s.arrivals <= 1 {
        return None;
    }
    let mut t = s.clone();
    t.arrivals = (s.arrivals / 2).max(1);
    Some(t)
}

fn decrement_arrivals(s: &Scenario) -> Option<Scenario> {
    // Fine-grained follow-up to halving: halving stops one doubling above
    // the failure threshold; stepping by one finds the exact floor.
    if s.arrivals <= 1 {
        return None;
    }
    let mut t = s.clone();
    t.arrivals -= 1;
    Some(t)
}

fn drop_trailing_op(s: &Scenario) -> Option<Scenario> {
    // Trim the deepest query by one operator (every query keeps ≥ 1 op so
    // the plan stays valid).
    let (idx, len) = s
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| (i, q.ops.len()))
        .max_by_key(|&(_, len)| len)?;
    if len <= 1 {
        return None;
    }
    let mut t = s.clone();
    t.queries[idx].ops.pop();
    Some(t)
}

fn strip_faults(s: &Scenario) -> Option<Scenario> {
    if s.faults.is_none() {
        return None;
    }
    let mut t = s.clone();
    t.faults = FaultPlan::default();
    Some(t)
}

fn unbound_admission(s: &Scenario) -> Option<Scenario> {
    if s.admission.mode == 0 {
        return None;
    }
    let mut t = s.clone();
    t.admission.mode = 0;
    Some(t)
}

fn flatten_source(s: &Scenario) -> Option<Scenario> {
    if s.source == SourceKind::Constant {
        return None;
    }
    let mut t = s.clone();
    t.source = SourceKind::Constant;
    Some(t)
}

fn calm_costs(s: &Scenario) -> Option<Scenario> {
    if s.cost_miscalibration == 0.0 {
        return None;
    }
    let mut t = s.clone();
    t.cost_miscalibration = 0.0;
    Some(t)
}

fn single_cluster(s: &Scenario) -> Option<Scenario> {
    if s.clusters <= 1 {
        return None;
    }
    let mut t = s.clone();
    t.clusters = 1;
    Some(t)
}

fn disable_adaptation(s: &Scenario) -> Option<Scenario> {
    if !s.adapt.enabled {
        return None;
    }
    let mut t = s.clone();
    t.adapt = Default::default();
    Some(t)
}

const TRANSFORMS: &[Transform] = &[
    halve_queries,
    drop_last_query,
    halve_arrivals,
    decrement_arrivals,
    drop_trailing_op,
    strip_faults,
    unbound_admission,
    flatten_source,
    calm_costs,
    single_cluster,
    disable_adaptation,
];

/// Greedily shrink `scenario` while `still_fails` holds, to a fixed point.
///
/// `still_fails` is typically `|s| !check_scenario(s).is_empty()`; it is
/// re-evaluated on every candidate, so shrinking costs a bounded number of
/// full invariant runs (each transformation strictly reduces a finite
/// measure — query count, op count, arrivals, or an enabled knob).
pub fn shrink(scenario: &Scenario, still_fails: &dyn Fn(&Scenario) -> bool) -> Scenario {
    let mut current = scenario.clone();
    loop {
        let mut progressed = false;
        for transform in TRANSFORMS {
            while let Some(candidate) = transform(&current) {
                if still_fails(&candidate) {
                    current = candidate;
                    progressed = true;
                } else {
                    break;
                }
            }
        }
        if !progressed {
            return current;
        }
    }
}

/// Canonical artifact file name for a failing case.
pub fn artifact_name(seed: u64, case: u64) -> String {
    format!("fuzz-repro-{seed}-{case}.json")
}

/// Render the artifact document: the scenario plus the violations that
/// condemned it (informational — replay re-derives them).
pub fn render_artifact(scenario: &Scenario, violations: &[Violation]) -> String {
    let mut doc = scenario.to_json();
    if let JsonValue::Obj(pairs) = &mut doc {
        pairs.push((
            "violations".into(),
            JsonValue::Arr(
                violations
                    .iter()
                    .map(|v| JsonValue::Str(v.to_string()))
                    .collect(),
            ),
        ));
    }
    let mut text = doc.to_string();
    text.push('\n');
    text
}

/// Parse an artifact document back into its scenario (the `violations`
/// field, and any other unknown field, is ignored). The document must be
/// strict JSON: a malformed number (`+4`, `1.`) or a duplicated key is
/// refused with its byte offset rather than guessed at.
pub fn parse_artifact(text: &str) -> Result<Scenario, String> {
    let doc = json::parse(text).map_err(|e| format!("artifact is not valid JSON: {e}"))?;
    Scenario::from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn shrinks_to_a_minimal_failing_scenario() {
        let original = Scenario::generate(17, 0);
        // Synthetic predicate: "fails whenever there are at least 2 arrivals
        // or a fault schedule" — the shrinker must reach exactly that floor.
        let fails = |s: &Scenario| s.arrivals >= 2;
        let minimal = shrink(&original, &fails);
        assert_eq!(minimal.arrivals, 2);
        assert_eq!(minimal.queries.len(), 1);
        assert_eq!(minimal.queries[0].ops.len(), 1);
        assert!(minimal.faults.is_none());
        assert_eq!(minimal.admission.mode, 0);
        assert_eq!(minimal.source, SourceKind::Constant);
        assert_eq!(minimal.clusters, 1);
        assert!(!minimal.adapt.enabled, "adaptation must shrink away");
        // Identity is preserved for replay.
        assert_eq!(minimal.seed, original.seed);
        assert_eq!(minimal.case, original.case);
    }

    #[test]
    fn shrinking_never_accepts_a_passing_candidate() {
        let original = Scenario::generate(17, 1);
        let queries = original.queries.len();
        // Predicate pins the query count: no transformation that changes it
        // may be accepted.
        let fails = move |s: &Scenario| s.queries.len() == queries;
        let minimal = shrink(&original, &fails);
        assert_eq!(minimal.queries.len(), queries);
    }

    #[test]
    fn artifacts_round_trip() {
        let s = Scenario::generate(4, 2);
        let v = vec![Violation {
            policy: "HNR".into(),
            invariant: "conservation",
            detail: "1 ≠ 2".into(),
        }];
        let text = render_artifact(&s, &v);
        assert!(text.contains("conservation"));
        let back = parse_artifact(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(artifact_name(4, 2), "fuzz-repro-4-2.json");
    }
}
