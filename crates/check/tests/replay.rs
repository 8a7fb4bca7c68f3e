//! Regression replay of checked-in fuzz artifacts, plus an end-to-end drill
//! of the fail → shrink → artifact → replay pipeline.
//!
//! Every `tests/artifacts/fuzz-repro-*.json` file is a minimized scenario
//! that once exposed (or guards against re-introducing) a real bug — the
//! degenerate clustered-BSD priority domain, the zero-cost priority
//! blow-up. Replaying them runs the full invariant suite under every policy
//! and must come back clean forever after.

use std::path::Path;

use hcq_check::{parse_artifact, render_artifact, replay, shrink, Scenario, Violation};

fn artifact_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/artifacts")
}

#[test]
fn checked_in_artifacts_replay_clean() {
    let mut replayed = 0;
    let mut entries: Vec<_> = std::fs::read_dir(artifact_dir())
        .expect("tests/artifacts exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let scenario = parse_artifact(&text)
            .unwrap_or_else(|e| panic!("{}: unparseable artifact: {e}", path.display()));
        let violations = replay(&scenario);
        assert!(
            violations.is_empty(),
            "{} no longer replays clean:\n{}",
            path.display(),
            violations
                .iter()
                .map(|v| format!("  {v}\n"))
                .collect::<String>()
        );
        replayed += 1;
    }
    assert!(
        replayed >= 2,
        "expected the checked-in artifacts, found {replayed}"
    );
}

#[test]
fn broken_invariant_shrinks_to_a_replayable_artifact() {
    // End-to-end drill of the failure pipeline with a synthetic "invariant":
    // the predicate plays the role of a checker that any scenario with ≥ 2
    // queries or ≥ 8 arrivals violates. The shrinker must reduce the case
    // to that exact boundary, and the rendered artifact must replay — i.e.
    // parse back into the identical scenario and pass the real suite.
    let original = Scenario::generate(99, 5);
    assert!(original.arrivals >= 8, "seed chosen so the predicate fires");
    let fails = |s: &Scenario| s.queries.len() >= 2 || s.arrivals >= 8;
    let minimal = shrink(&original, &fails);
    assert!(fails(&minimal), "shrinking must preserve the failure");
    assert_eq!(minimal.queries.len(), 1);
    assert_eq!(minimal.arrivals, 8);
    assert!(minimal.faults.is_none());

    let violations = vec![Violation {
        policy: "HNR".into(),
        invariant: "synthetic",
        detail: "drill".into(),
    }];
    let text = render_artifact(&minimal, &violations);
    let back = parse_artifact(&text).expect("artifact parses");
    assert_eq!(back, minimal, "artifact round-trips the minimized scenario");
    // The minimized scenario is an ordinary valid scenario: the real
    // invariant suite accepts it.
    assert!(replay(&back).is_empty());
}

/// The replayer's parser is the workspace's strict one: a malformed number
/// or a duplicated key is refused with its byte offset, not guessed at.
#[test]
fn malformed_numbers_and_duplicate_keys_are_refused_with_an_offset() {
    let text = std::fs::read_to_string(artifact_dir().join("fuzz-repro-4242-0.json")).unwrap();
    assert!(parse_artifact(&text).is_ok());

    let plus = text.replace("\"arrivals\":4", "\"arrivals\":+4");
    assert_ne!(plus, text);
    let offset = plus.find("+4").unwrap();
    let err = parse_artifact(&plus).unwrap_err();
    assert!(err.contains(&format!("at byte {offset}")), "{err}");

    let dup = text.replace("\"seed\":\"4242\"", "\"seed\":\"4242\",\"seed\":\"7\"");
    assert_ne!(dup, text);
    let err = parse_artifact(&dup).unwrap_err();
    assert!(
        err.contains("duplicate key \"seed\"") && err.contains("at byte"),
        "{err}"
    );

    for (from, to) in [("\"sel\":1.0", "\"sel\":1."), ("\"sel\":1.0", "\"sel\":.5")] {
        let bad = text.replace(from, to);
        assert_ne!(bad, text);
        assert!(parse_artifact(&bad).is_err(), "accepted {to}");
    }
}

/// Artifacts the previous writer produced spelled integer fields as
/// integer-valued floats (`"arrivals":4.0`); they still replay.
#[test]
fn integer_fields_spelled_as_floats_still_parse() {
    let text = std::fs::read_to_string(artifact_dir().join("fuzz-repro-4242-0.json")).unwrap();
    let legacy = text
        .replace("\"arrivals\":4", "\"arrivals\":4.0")
        .replace("\"kind\":0", "\"kind\":0.0")
        .replace("\"clusters\":8", "\"clusters\":8.0");
    assert_ne!(legacy, text);
    assert_eq!(
        parse_artifact(&legacy).unwrap(),
        parse_artifact(&text).unwrap()
    );
    let fractional = text.replace("\"arrivals\":4", "\"arrivals\":4.5");
    assert!(parse_artifact(&fractional).is_err());
}
