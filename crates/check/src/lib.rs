//! Deterministic fuzzing and invariant checking for the hcq stack.
//!
//! The simulator's headline claim is *determinism*: every policy faces the
//! identical workload realization, byte-for-byte, at any parallelism. That
//! claim — and the numeric edge cases the scheduling formulas are exposed
//! to (zero costs, zero/NaN selectivities, degenerate priority domains) —
//! deserve an adversary. This crate is that adversary:
//!
//! * [`audit`] — [`ContractAudit`], a policy wrapper that checks at every
//!   `select` that the executor's queues match what the policy was told
//!   (run through the simulator here, through the runtime's shards in
//!   `hcq-runtime`'s tests).
//! * [`hold`] — [`HoldProbe`], a policy wrapper that passes holds on or
//!   clears them and counts `select` calls: an executor that holds against
//!   the same executor asking at every decision.
//! * [`scenario`] — seeded random workloads: query plans with extreme
//!   costs/selectivities, bursty and stalling sources, every admission
//!   mode, engine-side fault injection. Pure functions of
//!   `(seed, case index)`, serialized as `hcq-fuzz-v1` JSON artifacts.
//! * [`invariants`] — the machine-checkable suite run under **every**
//!   policy: tuple conservation per admission mode, monotone virtual time,
//!   QoS sanity, virtual-time accounting, bit-exact determinism,
//!   instrumentation inertness, telemetry reconciliation.
//! * [`policyfuzz`] — drives policies directly, over the executors' own
//!   [`hcq_core::UnitQueues`], with statics that plan validation would
//!   reject (exact-zero times, NaN selectivity) and holds
//!   clustered BSD to its §6.2.1 `ε = (Φ_max/Φ_min)^(1/m)` approximation
//!   bound against the exact BSD argmax.
//! * [`estimator`] — differential oracle for the online statistics
//!   estimators: a from-scratch closed-form EWMA and incremental-mean
//!   window reference checked sample-by-sample against production, plus a
//!   seeded-miscalibration convergence property.
//! * [`incremental`] — differential sequences over the large-q maintenance
//!   API (enqueues, fan-outs, selects, statics updates, sheds and
//!   refreezes): after any mutation stream, the incrementally-maintained
//!   clustered BSD must drain byte-identically to a from-scratch rebuild of
//!   the same state.
//! * [`mod@shrink`] — greedy minimization of failing scenarios to replayable
//!   `fuzz-repro-<seed>-<case>.json` artifacts.
//! * [`runner`] — the sweep: a jobs-invariant parallel map whose digest
//!   folds every per-policy report fingerprint, so one string comparison
//!   certifies byte-determinism across `--jobs` counts.
//!
//! The CLI entry point is `repro fuzz --seed N --cases K`; failing cases
//! land as artifacts that `crates/check/tests/replay.rs` re-runs as
//! regression tests forever after.

pub mod audit;
pub mod estimator;
pub mod hold;
pub mod incremental;
pub mod invariants;
pub mod policyfuzz;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use audit::ContractAudit;
pub use estimator::fuzz_estimators;
pub use hold::{HoldProbe, Selects};
pub use incremental::fuzz_incremental;
pub use invariants::{check_scenario, check_scenario_full, fingerprint, ScenarioCheck, Violation};
pub use policyfuzz::fuzz_policies;
pub use runner::{replay, run_fuzz, write_artifact, CaseResult, FuzzConfig, FuzzOutcome};
pub use scenario::{AdaptPlan, AdmissionPlan, FaultPlan, OpSpec, QuerySpec, Scenario, SourceKind};
pub use shrink::{artifact_name, parse_artifact, render_artifact, shrink};
