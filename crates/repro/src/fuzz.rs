//! `repro fuzz`: the CLI face of the `hcq-check` invariant fuzzer.
//!
//! Sweeps `--cases` seeded scenarios (engine-level invariant suite plus the
//! policy-level degenerate-statics drill) under every scheduling policy,
//! prints a digest that is byte-identical at any `--jobs` count, and writes
//! a minimized `fuzz-repro-<seed>-<case>.json` artifact into `--out` for
//! every failing case. `repro fuzz --replay FILE` re-runs one artifact
//! instead of sweeping.

use std::path::Path;

use hcq_check::{parse_artifact, replay, run_fuzz, FuzzConfig, FuzzOutcome};

use crate::harness::ExpConfig;

/// Outcome summary of a fuzz sweep, as printed by the CLI.
pub struct FuzzSummary {
    /// The sweep outcome.
    pub outcome: FuzzOutcome,
    /// True when every case was clean.
    pub clean: bool,
}

/// Run the sweep: `cases` scenarios under `cfg.seed`, `cfg.jobs` workers,
/// artifacts into `cfg.out_dir`. Without `force`, an existing
/// `fuzz-repro-*.json` artifact is never overwritten — the sweep fails
/// with `AlreadyExists` instead of clobbering repro evidence.
pub fn fuzz(cfg: &ExpConfig, cases: u64, force: bool) -> std::io::Result<FuzzSummary> {
    let fuzz_cfg = FuzzConfig {
        seed: cfg.seed,
        cases,
        jobs: cfg.jobs.max(1),
        artifact_dir: Some(cfg.out_dir.clone()),
        force,
    };
    let outcome = run_fuzz(&fuzz_cfg)?;
    let failures = outcome.failures();
    println!(
        "fuzz: seed {} cases {} jobs {} -> digest {}",
        cfg.seed, cases, fuzz_cfg.jobs, outcome.digest
    );
    for r in outcome.results.iter().filter(|r| !r.violations.is_empty()) {
        println!("case {} FAILED:", r.case);
        for v in &r.violations {
            println!("  {v}");
        }
    }
    for path in &outcome.artifacts {
        println!("minimized artifact: {}", path.display());
    }
    if failures == 0 {
        println!("all {cases} cases clean");
    } else {
        println!("{failures} of {cases} cases failed");
    }
    Ok(FuzzSummary {
        clean: failures == 0,
        outcome,
    })
}

/// Replay a single artifact file; returns `true` when it is clean.
pub fn fuzz_replay(path: &Path) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read {}: {e}", path.display());
            return false;
        }
    };
    let scenario = match parse_artifact(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: unparseable artifact: {e}", path.display());
            return false;
        }
    };
    let violations = replay(&scenario);
    if violations.is_empty() {
        println!("{}: replay clean", path.display());
        true
    } else {
        println!("{}: replay FAILED:", path.display());
        for v in &violations {
            println!("  {v}");
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_clean_and_jobs_invariant() {
        let dir = std::env::temp_dir().join(format!("hcq-fuzz-test-{}", std::process::id()));
        let mut cfg = ExpConfig {
            out_dir: dir.clone(),
            seed: 1,
            jobs: 1,
            ..ExpConfig::default()
        };
        let a = fuzz(&cfg, 3, false).unwrap();
        cfg.jobs = 3;
        let b = fuzz(&cfg, 3, false).unwrap();
        assert!(a.clean && b.clean);
        assert_eq!(a.outcome.digest, b.outcome.digest);
        assert!(a.outcome.artifacts.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn replay_accepts_checked_in_artifacts_and_refuses_lax_json() {
        let artifact = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../check/tests/artifacts/fuzz-repro-4242-0.json");
        assert!(fuzz_replay(&artifact));
        let dir = std::env::temp_dir().join(format!("hcq-fuzz-strict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = std::fs::read_to_string(&artifact).unwrap();
        for (name, from, to) in [
            ("plus.json", "\"arrivals\":4", "\"arrivals\":+4"),
            (
                "dup.json",
                "\"seed\":\"4242\"",
                "\"seed\":\"4242\",\"seed\":\"1\"",
            ),
        ] {
            let bad = dir.join(name);
            std::fs::write(&bad, text.replace(from, to)).unwrap();
            assert!(!fuzz_replay(&bad), "{name} must be refused");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
