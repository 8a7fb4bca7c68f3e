//! The fuzz sweep: generate → check → shrink → artifact.
//!
//! [`run_fuzz`] drives `cases` scenarios derived from one seed through the
//! check layers — the engine-level invariant suite ([`crate::invariants`]),
//! the policy-level degenerate-statics drill ([`crate::policyfuzz`]), and
//! the estimator differential oracle ([`crate::estimator`]) —
//! optionally across a thread pool. Work distribution is a shared atomic
//! cursor (identical to the repro harness's pattern, but dependency-free:
//! `hcq-repro` depends on this crate, not the other way around), and results
//! are keyed by case index, so the outcome — including the run digest — is
//! **byte-identical for every `--jobs` value**. The digest itself is an
//! FNV-1a fold over every per-policy report fingerprint in case order;
//! comparing two digests compares tens of thousands of counters and
//! bit-exact floats at once.
//!
//! A failing case is shrunk ([`mod@crate::shrink`]) against the engine-level
//! suite and written as a replayable `fuzz-repro-<seed>-<case>.json`
//! artifact; policy-level failures replay from the `(seed, case)` identity
//! the artifact preserves, so one file reproduces either kind.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::estimator::fuzz_estimators;
use crate::incremental::fuzz_incremental;
use crate::invariants::{check_scenario, check_scenario_full, Violation};
use crate::policyfuzz::fuzz_policies;
use crate::scenario::Scenario;
use crate::shrink::{artifact_name, render_artifact, shrink};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed: case `i` is `Scenario::generate(seed, i)`.
    pub seed: u64,
    /// Number of cases to sweep.
    pub cases: u64,
    /// Worker threads (1 = sequential; the outcome is identical either way).
    pub jobs: usize,
    /// Where failing-case artifacts are written (`None` = don't write).
    pub artifact_dir: Option<PathBuf>,
    /// Overwrite an existing artifact file instead of refusing. A replay
    /// artifact someone is still debugging should not be silently replaced
    /// by a re-run; the CLI surfaces this as `repro fuzz --force`.
    pub force: bool,
}

impl FuzzConfig {
    /// A sequential sweep of `cases` cases under `seed`, writing no
    /// artifacts.
    pub fn new(seed: u64, cases: u64) -> Self {
        FuzzConfig {
            seed,
            cases,
            jobs: 1,
            artifact_dir: None,
            force: false,
        }
    }
}

/// One case's outcome.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case index under the sweep seed.
    pub case: u64,
    /// Violations from both check layers (empty = clean).
    pub violations: Vec<Violation>,
    /// Per-policy report fingerprints from the engine-level suite.
    pub fingerprints: Vec<(String, String)>,
    /// The minimized scenario, present only when the case failed.
    pub minimized: Option<Scenario>,
}

/// The sweep outcome.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Per-case results in case order (independent of `jobs`).
    pub results: Vec<CaseResult>,
    /// FNV-1a digest over every fingerprint, in case order. Two sweeps with
    /// the same seed/cases must produce the same digest at any `jobs`.
    pub digest: String,
    /// Artifacts written for failing cases.
    pub artifacts: Vec<PathBuf>,
}

impl FuzzOutcome {
    /// Total failing cases.
    pub fn failures(&self) -> usize {
        self.results
            .iter()
            .filter(|r| !r.violations.is_empty())
            .count()
    }
}

/// Check one case through both layers.
fn run_case(seed: u64, case: u64) -> CaseResult {
    let scenario = Scenario::generate(seed, case);
    let engine = check_scenario_full(&scenario);
    let mut violations = engine.violations;
    violations.extend(fuzz_policies(seed, case));
    violations.extend(fuzz_incremental(seed, case));
    violations.extend(fuzz_estimators(seed, case));
    let minimized = if violations.is_empty() {
        None
    } else {
        // Shrink against the engine-level suite when that is what failed;
        // a policy-level-only failure keeps the scenario as-is (its
        // `(seed, case)` identity is what replays the statics drill).
        Some(shrink(&scenario, &|s| !check_scenario(s).is_empty()))
    };
    CaseResult {
        case,
        violations,
        fingerprints: engine.fingerprints,
        minimized,
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Run the sweep.
pub fn run_fuzz(cfg: &FuzzConfig) -> std::io::Result<FuzzOutcome> {
    let jobs = cfg.jobs.max(1);
    let mut slots: Vec<Option<CaseResult>> = Vec::new();
    slots.resize_with(cfg.cases as usize, || None);
    if jobs == 1 {
        for case in 0..cfg.cases {
            slots[case as usize] = Some(run_case(cfg.seed, case));
        }
    } else {
        let next = AtomicU64::new(0);
        {
            let shared = Mutex::new(&mut slots);
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| loop {
                        let case = next.fetch_add(1, Ordering::Relaxed);
                        if case >= cfg.cases {
                            return;
                        }
                        let result = run_case(cfg.seed, case);
                        shared.lock().expect("result slots")[case as usize] = Some(result);
                    });
                }
            });
        }
    }
    let results: Vec<CaseResult> = slots
        .into_iter()
        .map(|r| r.expect("every case indexed"))
        .collect();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for r in &results {
        for (policy, fp) in &r.fingerprints {
            digest = fnv1a(policy.as_bytes(), digest);
            digest = fnv1a(fp.as_bytes(), digest);
        }
    }
    let digest = format!("{digest:016x}");
    let mut artifacts = Vec::new();
    if let Some(dir) = &cfg.artifact_dir {
        for r in &results {
            if let Some(minimized) = &r.minimized {
                artifacts.push(write_artifact(dir, minimized, &r.violations, cfg.force)?);
            }
        }
    }
    Ok(FuzzOutcome {
        results,
        digest,
        artifacts,
    })
}

/// Write one failing case's artifact; returns its path. Unless `force` is
/// set, an existing artifact at the same path is left untouched and the
/// write fails with `AlreadyExists` — repro artifacts are evidence, and a
/// re-run must not clobber one mid-investigation.
pub fn write_artifact(
    dir: &Path,
    scenario: &Scenario,
    violations: &[Violation],
    force: bool,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(artifact_name(scenario.seed, scenario.case));
    if !force && path.exists() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!(
                "{} already exists; pass --force to overwrite",
                path.display()
            ),
        ));
    }
    std::fs::write(&path, render_artifact(scenario, violations))?;
    Ok(path)
}

/// Replay a scenario (typically parsed from an artifact) through both check
/// layers, exactly as the sweep would.
pub fn replay(scenario: &Scenario) -> Vec<Violation> {
    let mut violations = check_scenario(scenario);
    violations.extend(fuzz_policies(scenario.seed, scenario.case));
    violations.extend(fuzz_incremental(scenario.seed, scenario.case));
    violations.extend(fuzz_estimators(scenario.seed, scenario.case));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_digest_is_jobs_invariant() {
        let mut seq = FuzzConfig::new(13, 6);
        seq.jobs = 1;
        let mut par = FuzzConfig::new(13, 6);
        par.jobs = 4;
        let a = run_fuzz(&seq).unwrap();
        let b = run_fuzz(&par).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.case, y.case);
            assert_eq!(x.fingerprints, y.fingerprints);
        }
        assert_eq!(a.failures(), 0, "seed 13 sweep should be clean");
    }

    #[test]
    fn replay_matches_sweep_for_generated_cases() {
        let s = Scenario::generate(13, 2);
        assert!(replay(&s).is_empty());
    }

    #[test]
    fn artifact_writes_refuse_to_clobber_without_force() {
        let dir = std::env::temp_dir().join(format!("hcq_artifact_guard_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let scenario = Scenario::generate(13, 2);
        let first = write_artifact(&dir, &scenario, &[], false).unwrap();
        std::fs::write(&first, "hand-edited repro").unwrap();
        // A second sweep hitting the same (seed, case) must not clobber the
        // artifact someone is debugging...
        let err = write_artifact(&dir, &scenario, &[], false).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("--force"));
        assert_eq!(
            std::fs::read_to_string(&first).unwrap(),
            "hand-edited repro"
        );
        // ...until force is given.
        let again = write_artifact(&dir, &scenario, &[], true).unwrap();
        assert_eq!(again, first);
        assert_ne!(
            std::fs::read_to_string(&first).unwrap(),
            "hand-edited repro"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
