//! The machine-checkable invariant suite.
//!
//! Every generated [`Scenario`] is run under **all** scheduling policies —
//! the paper's seven ([`PolicyKind::ALL`]) plus clustered BSD under both §6
//! splitting strategies — and each run is held to the invariants below.
//! A failure is a [`Violation`] naming the policy, the invariant, and a
//! human-readable detail; the caller ([`crate::runner`]) shrinks the
//! scenario to a minimal artifact.
//!
//! | invariant | statement |
//! |---|---|
//! | `engine-ok` | the engine returns a report, not an [`hcq_common::EngineError`] wedge |
//! | `conservation` | `arrivals × queries = emitted + dropped + shed + expired + pending` (single-stream unary plans: every admitted copy meets exactly one fate; quarantined tuples count as pending) |
//! | `no-shed-unbounded` | `shed = 0` under [`AdmissionMode::Unbounded`] with the governor off |
//! | `governor-dwell` | mode transitions ≤ `end_time / min_dwell + 1` when governed; 0 otherwise |
//! | `monotone-time` | trace-event timestamps never decrease; the final clock bounds them |
//! | `qos-sane` | responses/slowdowns are finite, non-negative, slowdowns ≥ 1, max ≥ avg, emission count matches |
//! | `accounting` | `busy + charged overhead ≤ end_time`; pending peak ≥ mean |
//! | `adapt-sane` | disabled adaptation leaves no estimator trace; an observe-only probe is decision-identical to a non-adaptive run; no policy switches without the meta-scheduler |
//! | `determinism` | two identical runs produce bit-identical reports |
//! | `instrumentation-inert` | traced and monitored runs report exactly what the plain run reports |
//! | `telemetry-reconciles` | the final telemetry snapshot's counters equal the report's |
//!
//! The clustered-BSD ε-bound (§6.2) needs per-decision wait times, so it is
//! checked at the policy layer in [`crate::policyfuzz`], not here.

use hcq_common::det;
use hcq_core::{ClusterConfig, Clustering, PolicyKind};
use hcq_engine::{
    simulate, simulate_monitored, simulate_traced, AdmissionMode, SimReport, TraceEvent,
    VecTelemetry, VecTrace,
};
use hcq_plan::StreamRates;

use crate::scenario::Scenario;

/// One invariant failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The policy under which the invariant broke.
    pub policy: String,
    /// Stable invariant identifier (see the module table).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.policy, self.invariant, self.detail)
    }
}

/// Clustered BSD at `m` clusters as the check layers run it: logarithmic
/// with Fagin pruning and batching, logarithmic as a plain scan, uniform.
pub(crate) fn cluster_variants(m: usize) -> [ClusterConfig; 3] {
    let log = ClusterConfig::logarithmic(m);
    let scan = ClusterConfig {
        use_fagin: false,
        batch: false,
        ..log
    };
    [log, scan, ClusterConfig::uniform(m)]
}

/// Every policy a scenario is checked under: the paper's seven plus
/// clustered BSD with both §6 splitting strategies.
pub(crate) fn roster(clusters: usize) -> Vec<PolicyKind> {
    let [log, _, uni] = cluster_variants(clusters.max(1));
    let clustered = [log, uni].map(PolicyKind::Clustered);
    PolicyKind::ALL.into_iter().chain(clustered).collect()
}

/// The name a violation and a fingerprint carry: the paper's name for its
/// seven, `C-BSD-{log,logscan,uni}{m}` for clustered BSD at `m` clusters.
pub(crate) fn label(kind: PolicyKind) -> String {
    match kind {
        PolicyKind::Clustered(c) => {
            let split = match (c.clustering, c.use_fagin) {
                (Clustering::Uniform, _) => "uni",
                (Clustering::Logarithmic, true) => "log",
                (Clustering::Logarithmic, false) => "logscan",
            };
            format!("C-BSD-{split}{}", c.clusters)
        }
        kind => kind.name().to_string(),
    }
}

/// Bit-exact fingerprint of a report: every counter, clock, and QoS figure,
/// floats rendered through their IEEE-754 bit patterns. Two reports with
/// equal fingerprints are behaviorally identical runs.
pub fn fingerprint(report: &SimReport) -> String {
    // The estimates vector (adaptive runs only) folds to one FNV-1a hash of
    // its IEEE-754 bit patterns; 0 marks "no estimator ran". It is the LAST
    // token: the probe-inertness check compares everything before it.
    let mut est = 0u64;
    if let Some(estimates) = &report.estimates {
        est = det::FNV_OFFSET;
        for s in estimates {
            for x in [s.selectivity, s.avg_cost_ns, s.ideal_time_ns] {
                est = det::fnv1a(&x.to_bits().to_le_bytes(), est);
            }
        }
    }
    let b = |x: f64| format!("{:016x}", x.to_bits());
    format!(
        "a{} e{} d{} s{} x{} of{} qt{} gt{} ft{} fx{} dc{} ra{} la{} sp{} so{} cs{} pe{} cm{} co{} ho{} ot{} bt{} ov{} et{} pk{} pd{} ap{} qc{} qr{} qR{} qs{} qS{} ql{} ps{} su{} dr{} es{:016x}",
        report.arrivals,
        report.emitted,
        report.dropped,
        report.shed,
        report.expired,
        report.op_failures,
        report.quarantine_time.as_nanos(),
        report.governor_transitions,
        report.fault_stall_time.as_nanos(),
        report.fault_stall_truncated.as_nanos(),
        report.source_disconnects,
        report.source_retry_attempts,
        report.source_lost_arrivals,
        report.sched_points,
        report.sched_ops,
        report.overhead.candidates_scanned,
        report.overhead.priority_evals,
        report.overhead.comparisons,
        report.overhead.cluster_ops,
        report.overhead.heap_ops,
        report.overhead_time.as_nanos(),
        report.busy_time.as_nanos(),
        report.overload_time.as_nanos(),
        report.end_time.as_nanos(),
        report.peak_pending,
        report.pending_end,
        b(report.avg_pending),
        report.qos.count,
        b(report.qos.avg_response_ms),
        b(report.qos.max_response_ms),
        b(report.qos.avg_slowdown),
        b(report.qos.max_slowdown),
        b(report.qos.l2_slowdown),
        report.policy_switches,
        report.statics_updates,
        report.domain_refreezes,
        est,
    )
}

/// Fingerprint minus the trailing estimates fold: the *decision* behavior
/// of a run. An observe-only adaptive probe must match the plain run here
/// while legitimately differing in the harvested estimates.
fn behavior_fingerprint(report: &SimReport) -> String {
    let fp = fingerprint(report);
    fp[..fp
        .rfind(" es")
        .expect("fingerprint ends in the estimates fold")]
        .to_string()
}

/// Outcome of one scenario's full check: any violations, plus the per-policy
/// reference fingerprints (used by [`crate::runner`] to assert byte-identical
/// sweeps across `--jobs` counts).
#[derive(Debug, Clone, Default)]
pub struct ScenarioCheck {
    /// All invariant failures, in roster order.
    pub violations: Vec<Violation>,
    /// `(policy name, report fingerprint)` for every policy that produced a
    /// report.
    pub fingerprints: Vec<(String, String)>,
}

/// Run `scenario` under every policy and collect all invariant violations.
///
/// An empty return means the scenario is clean. See [`check_scenario_full`]
/// for the variant that also exposes report fingerprints.
pub fn check_scenario(scenario: &Scenario) -> Vec<Violation> {
    check_scenario_full(scenario).violations
}

/// Run the full invariant suite and keep the per-policy fingerprints.
///
/// The scenario must compile to a valid plan (generated and shrunk
/// scenarios always do); a plan rejection is reported as a violation rather
/// than a panic so artifacts from future schema versions degrade gracefully.
pub fn check_scenario_full(scenario: &Scenario) -> ScenarioCheck {
    let mut check = ScenarioCheck::default();
    let plan = match scenario.plan() {
        Ok(p) => p,
        Err(e) => {
            check.violations.push(Violation {
                policy: "-".into(),
                invariant: "plan-valid",
                detail: format!("scenario does not compile to a plan: {e}"),
            });
            return check;
        }
    };
    let rates = StreamRates::none();
    for kind in roster(scenario.clusters) {
        check_policy(scenario, &plan, &rates, kind, &mut check);
    }
    check
}

fn check_policy(
    scenario: &Scenario,
    plan: &hcq_plan::GlobalPlan,
    rates: &StreamRates,
    kind: PolicyKind,
    check: &mut ScenarioCheck,
) {
    let name = label(kind);
    let violations = &mut check.violations;
    let fail = |violations: &mut Vec<Violation>, invariant: &'static str, detail: String| {
        violations.push(Violation {
            policy: name.to_string(),
            invariant,
            detail,
        });
    };

    // Plain run: the reference behavior.
    let plain = simulate(
        plan,
        rates,
        vec![scenario.source()],
        kind.build(),
        scenario.config(),
    );
    let plain = match plain {
        Ok(r) => r,
        Err(e) => {
            fail(violations, "engine-ok", format!("engine error: {e}"));
            return;
        }
    };
    let reference = fingerprint(&plain);
    check
        .fingerprints
        .push((name.to_string(), reference.clone()));

    // Determinism: an identical rerun must be bit-identical.
    match simulate(
        plan,
        rates,
        vec![scenario.source()],
        kind.build(),
        scenario.config(),
    ) {
        Ok(second) => {
            let fp = fingerprint(&second);
            if fp != reference {
                fail(
                    violations,
                    "determinism",
                    format!("rerun diverged:\n  first  {reference}\n  second {fp}"),
                );
            }
        }
        Err(e) => fail(violations, "determinism", format!("rerun errored: {e}")),
    }

    // Conservation: single-stream unary-only plans admit exactly one fate
    // per (arrival × query) copy — emitted, dropped, shed, expired, or
    // still pending (queued or quarantined) at the end.
    let copies = plain.arrivals * scenario.queries.len() as u64;
    let accounted =
        plain.emitted + plain.dropped + plain.shed + plain.expired + plain.pending_end as u64;
    if copies != accounted {
        fail(
            violations,
            "conservation",
            format!(
                "{} arrivals × {} queries = {} copies, but emitted {} + dropped {} + shed {} + expired {} + pending {} = {}",
                plain.arrivals,
                scenario.queries.len(),
                copies,
                plain.emitted,
                plain.dropped,
                plain.shed,
                plain.expired,
                plain.pending_end,
                accounted
            ),
        );
    }
    // An enabled governor may escalate an unbounded base mode into a
    // shedding one, so the no-shed invariant only binds without it.
    if scenario.admission.mode() == AdmissionMode::Unbounded
        && !scenario.governor.enabled
        && plain.shed != 0
    {
        fail(
            violations,
            "no-shed-unbounded",
            format!("{} tuples shed under unbounded queues", plain.shed),
        );
    }
    // Governor anti-flapping: the minimum dwell bounds the transition rate.
    if scenario.governor.enabled {
        let max = plain.end_time.as_nanos() / scenario.governor.min_dwell_ns.max(1) + 1;
        if plain.governor_transitions > max {
            fail(
                violations,
                "governor-dwell",
                format!(
                    "{} transitions over {} ns exceeds the {} ns dwell bound of {}",
                    plain.governor_transitions,
                    plain.end_time.as_nanos(),
                    scenario.governor.min_dwell_ns,
                    max
                ),
            );
        }
    } else if plain.governor_transitions != 0 {
        fail(
            violations,
            "governor-dwell",
            format!(
                "{} transitions with the governor disabled",
                plain.governor_transitions
            ),
        );
    }

    // Adaptive-layer sanity: a disabled feature must leave no trace in the
    // report, and an observe-only probe must not steer.
    if !scenario.adapt.enabled {
        if plain.statics_updates != 0 || plain.domain_refreezes != 0 {
            fail(
                violations,
                "adapt-sane",
                format!(
                    "{} statics updates / {} refreezes with adaptation disabled",
                    plain.statics_updates, plain.domain_refreezes
                ),
            );
        }
        if plain.estimates.is_some() {
            fail(
                violations,
                "adapt-sane",
                "estimates harvested with adaptation disabled".into(),
            );
        }
    } else {
        if plain.estimates.is_none() {
            fail(
                violations,
                "adapt-sane",
                "adaptive run reported no estimates".into(),
            );
        }
        if !scenario.adapt.publish {
            if plain.statics_updates != 0 {
                fail(
                    violations,
                    "adapt-sane",
                    format!(
                        "{} statics updates from an observe-only probe",
                        plain.statics_updates
                    ),
                );
            }
            // The probe watches every execution but never feeds the policy:
            // scheduling must be bit-identical to a non-adaptive run.
            let mut disabled = scenario.clone();
            disabled.adapt = Default::default();
            match simulate(
                plan,
                rates,
                vec![disabled.source()],
                kind.build(),
                disabled.config(),
            ) {
                Ok(r) => {
                    let (probe, plain_fp) =
                        (behavior_fingerprint(&plain), behavior_fingerprint(&r));
                    if probe != plain_fp {
                        fail(
                            violations,
                            "adapt-sane",
                            format!(
                                "observe-only probe steered the run:\n  probed {probe}\n  plain  {plain_fp}"
                            ),
                        );
                    }
                }
                Err(e) => fail(
                    violations,
                    "engine-ok",
                    format!("probe-off rerun errored: {e}"),
                ),
            }
        }
    }
    if !(scenario.governor.enabled && scenario.governor.switch_policy) && plain.policy_switches != 0
    {
        fail(
            violations,
            "adapt-sane",
            format!(
                "{} policy switches with the meta-scheduler disabled",
                plain.policy_switches
            ),
        );
    }

    // QoS sanity.
    let q = &plain.qos;
    if q.count != plain.emitted {
        fail(
            violations,
            "qos-sane",
            format!(
                "qos counted {} emissions, report says {}",
                q.count, plain.emitted
            ),
        );
    }
    for (label, value) in [
        ("avg_response_ms", q.avg_response_ms),
        ("max_response_ms", q.max_response_ms),
        ("avg_slowdown", q.avg_slowdown),
        ("max_slowdown", q.max_slowdown),
        ("l2_slowdown", q.l2_slowdown),
    ] {
        if !value.is_finite() || value < 0.0 {
            fail(violations, "qos-sane", format!("{label} = {value}"));
        }
    }
    if q.count > 0 && (q.avg_slowdown < 1.0 || q.max_slowdown < 1.0) {
        fail(
            violations,
            "qos-sane",
            format!(
                "slowdown below 1 (avg {}, max {})",
                q.avg_slowdown, q.max_slowdown
            ),
        );
    }
    if q.max_response_ms + 1e-9 < q.avg_response_ms || q.max_slowdown + 1e-9 < q.avg_slowdown {
        fail(
            violations,
            "qos-sane",
            format!(
                "max below avg (response {} < {}, slowdown {} < {})",
                q.max_response_ms, q.avg_response_ms, q.max_slowdown, q.avg_slowdown
            ),
        );
    }

    // Virtual-time accounting.
    let charged = plain.busy_time + plain.overhead_time;
    if charged > plain.end_time {
        fail(
            violations,
            "accounting",
            format!(
                "busy {} + overhead {} exceeds end_time {}",
                plain.busy_time, plain.overhead_time, plain.end_time
            ),
        );
    }
    if plain.avg_pending > plain.peak_pending as f64 + 1e-9 || plain.avg_pending < 0.0 {
        fail(
            violations,
            "accounting",
            format!(
                "avg_pending {} outside [0, peak {}]",
                plain.avg_pending, plain.peak_pending
            ),
        );
    }

    // Traced run: timestamps are monotone, instrumentation is inert.
    match simulate_traced(
        plan,
        rates,
        vec![scenario.source()],
        kind.build(),
        scenario.config(),
        VecTrace::new(),
    ) {
        Ok((report, trace)) => {
            let fp = fingerprint(&report);
            if fp != reference {
                fail(
                    violations,
                    "instrumentation-inert",
                    format!("tracing changed the run:\n  plain  {reference}\n  traced {fp}"),
                );
            }
            let mut last = hcq_common::Nanos::ZERO;
            for (i, ev) in trace.events.iter().enumerate() {
                let at = event_time(ev);
                if at < last {
                    fail(
                        violations,
                        "monotone-time",
                        format!("event {i} at {at} after {last}"),
                    );
                    break;
                }
                last = at;
            }
            if last > report.end_time {
                fail(
                    violations,
                    "monotone-time",
                    format!("last event at {last} beyond end_time {}", report.end_time),
                );
            }
        }
        Err(e) => fail(violations, "engine-ok", format!("traced run errored: {e}")),
    }

    // Monitored run: telemetry is inert and its final snapshot reconciles.
    match simulate_monitored(
        plan,
        rates,
        vec![scenario.source()],
        kind.build(),
        scenario.config(),
        VecTelemetry::new(),
    ) {
        Ok((report, telemetry)) => {
            let fp = fingerprint(&report);
            if fp != reference {
                fail(
                    violations,
                    "instrumentation-inert",
                    format!(
                        "telemetry changed the run:\n  plain     {reference}\n  monitored {fp}"
                    ),
                );
            }
            match telemetry.samples.last() {
                None => fail(
                    violations,
                    "telemetry-reconciles",
                    "monitored run produced no snapshots".into(),
                ),
                Some(snap) => {
                    for (counter, expect) in [
                        ("hcq_arrivals_total", report.arrivals),
                        ("hcq_emitted_total", report.emitted),
                        ("hcq_dropped_total", report.dropped),
                        ("hcq_shed_total", report.shed),
                        ("hcq_expired_total", report.expired),
                        ("hcq_op_failures_total", report.op_failures),
                        (
                            "hcq_governor_transitions_total",
                            report.governor_transitions,
                        ),
                        ("hcq_sched_points_total", report.sched_points),
                    ] {
                        let got = snap.counter(counter);
                        if got != Some(expect) {
                            fail(
                                violations,
                                "telemetry-reconciles",
                                format!("{counter} = {got:?}, report says {expect}"),
                            );
                        }
                    }
                }
            }
        }
        Err(e) => fail(
            violations,
            "engine-ok",
            format!("monitored run errored: {e}"),
        ),
    }
}

/// Timestamp of any trace event.
fn event_time(ev: &TraceEvent) -> hcq_common::Nanos {
    match ev {
        TraceEvent::SchedulingPoint { at, .. }
        | TraceEvent::UnitRun { at, .. }
        | TraceEvent::Emit { at, .. }
        | TraceEvent::Shed { at, .. }
        | TraceEvent::Fault { at, .. }
        | TraceEvent::Expire { at, .. }
        | TraceEvent::GovernorTransition { at, .. }
        | TraceEvent::PolicySwitch { at, .. }
        | TraceEvent::OpFailure { at, .. } => *at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_paper_policies_plus_clustering() {
        let labels: Vec<String> = roster(4).into_iter().map(label).collect();
        assert_eq!(
            labels,
            [
                "FCFS",
                "RR",
                "SRPT",
                "HR",
                "HNR",
                "LSF",
                "BSD",
                "C-BSD-log4",
                "C-BSD-uni4"
            ]
        );
        assert_eq!(label(roster(0)[7]), "C-BSD-log1");
        assert_eq!(
            cluster_variants(3).map(|c| label(PolicyKind::Clustered(c))),
            ["C-BSD-log3", "C-BSD-logscan3", "C-BSD-uni3"]
        );
    }

    #[test]
    fn small_generated_scenarios_are_clean() {
        // A handful of fixed cases as an inline smoke of the full suite —
        // the real sweep lives behind `repro fuzz`.
        for case in 0..4 {
            let s = Scenario::generate(11, case);
            let violations = check_scenario(&s);
            assert!(
                violations.is_empty(),
                "case {case} violated:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  {v}\n"))
                    .collect::<String>()
            );
        }
    }

    #[test]
    fn broken_invariant_is_detected() {
        // Sanity-check the checker itself: force an impossible conservation
        // target by lying about the query count.
        let mut s = Scenario::generate(11, 0);
        s.queries.push(crate::scenario::QuerySpec::default());
        // An empty query can't build a plan; expect plan-valid to fire.
        let violations = check_scenario(&s);
        assert!(!violations.is_empty());
    }

    #[test]
    fn governed_qos_never_worse_than_worst_static_mode_when_calibrated() {
        // Calibrated overload workloads (no miscalibration/jitter/faults,
        // utilization > 1): the governor's average slowdown must not exceed
        // the worst static admission mode's, with 5% discretization slack.
        // Scoped to calibrated scenarios — under arbitrary fuzz dimensions
        // the comparison is not a theorem.
        use crate::scenario::{AdmissionPlan, GovernorPlan};
        use hcq_engine::simulate;
        use hcq_plan::StreamRates;
        for case in 0..6u64 {
            let mut s = Scenario::generate(29, case);
            s.cost_miscalibration = 0.0;
            s.cost_jitter = 0.0;
            s.faults = Default::default();
            s.op_failures = Default::default();
            s.disconnect = Default::default();
            s.deadline_ns = None;
            // Sustained overload: halve the gap.
            s.mean_gap_ns = (s.mean_gap_ns / 2).max(1);
            // Floor at Unbounded so the ladder is fully available, matching
            // the static alternatives below.
            s.admission = AdmissionPlan {
                mode: 0,
                capacity: 0,
                watermark: 0,
            };
            s.governor = GovernorPlan {
                enabled: true,
                cadence_ns: s.mean_gap_ns.saturating_mul(s.arrivals / 64).max(1),
                min_dwell_ns: s.mean_gap_ns.saturating_mul(s.arrivals / 16).max(1),
                escalate_pending: 32,
                deescalate_pending: 8,
                capacity: 8,
                watermark: 16,
                switch_policy: false,
            };
            let run = |s: &Scenario| {
                simulate(
                    &s.plan().unwrap(),
                    &StreamRates::none(),
                    vec![s.source()],
                    hcq_core::PolicyKind::Hnr.build(),
                    s.config(),
                )
                .unwrap()
                .qos
                .avg_slowdown
            };
            let governed = run(&s);
            let mut worst = 0.0f64;
            for admission in [
                AdmissionPlan {
                    mode: 0,
                    capacity: 0,
                    watermark: 0,
                },
                AdmissionPlan {
                    mode: 1,
                    capacity: 8,
                    watermark: 0,
                },
                AdmissionPlan {
                    mode: 2,
                    capacity: 8,
                    watermark: 16,
                },
            ] {
                let mut stat = s.clone();
                stat.governor = GovernorPlan::default();
                stat.admission = admission;
                worst = worst.max(run(&stat));
            }
            assert!(
                governed <= worst * 1.05,
                "case {case}: governed {governed} vs worst static {worst}"
            );
        }
    }

    #[test]
    fn adaptive_governed_qos_never_worse_when_calibrated() {
        // The closed loop closed twice over: governor AND online estimator
        // active on a calibrated overload workload. With nothing to learn
        // (statics start true and stay true), publishing re-estimates must
        // not lose QoS against the worst static admission mode either —
        // adaptation riding along cannot make the governed bound fail.
        use crate::scenario::{AdaptPlan, AdmissionPlan, GovernorPlan};
        use hcq_engine::simulate;
        use hcq_plan::StreamRates;
        for case in 0..4u64 {
            let mut s = Scenario::generate(31, case);
            s.cost_miscalibration = 0.0;
            s.cost_jitter = 0.0;
            s.faults = Default::default();
            s.op_failures = Default::default();
            s.disconnect = Default::default();
            s.deadline_ns = None;
            s.drift = Vec::new();
            s.mean_gap_ns = (s.mean_gap_ns / 2).max(1);
            s.admission = AdmissionPlan {
                mode: 0,
                capacity: 0,
                watermark: 0,
            };
            s.governor = GovernorPlan {
                enabled: true,
                cadence_ns: s.mean_gap_ns.saturating_mul(s.arrivals / 64).max(1),
                min_dwell_ns: s.mean_gap_ns.saturating_mul(s.arrivals / 16).max(1),
                escalate_pending: 32,
                deescalate_pending: 8,
                capacity: 8,
                watermark: 16,
                switch_policy: false,
            };
            s.adapt = AdaptPlan {
                enabled: true,
                mode: 0,
                alpha: 0.1,
                cadence_ns: s.mean_gap_ns.saturating_mul(s.arrivals / 32).max(1),
                min_observations: 2,
                publish: true,
            };
            let run = |s: &Scenario| {
                simulate(
                    &s.plan().unwrap(),
                    &StreamRates::none(),
                    vec![s.source()],
                    hcq_core::PolicyKind::Hnr.build(),
                    s.config(),
                )
                .unwrap()
                .qos
                .avg_slowdown
            };
            let adaptive = run(&s);
            let mut worst = 0.0f64;
            for admission in [
                AdmissionPlan {
                    mode: 0,
                    capacity: 0,
                    watermark: 0,
                },
                AdmissionPlan {
                    mode: 1,
                    capacity: 8,
                    watermark: 0,
                },
                AdmissionPlan {
                    mode: 2,
                    capacity: 8,
                    watermark: 16,
                },
            ] {
                let mut stat = s.clone();
                stat.governor = GovernorPlan::default();
                stat.adapt = AdaptPlan::default();
                stat.admission = admission;
                worst = worst.max(run(&stat));
            }
            assert!(
                adaptive <= worst * 1.05,
                "case {case}: adaptive governed {adaptive} vs worst static {worst}"
            );
        }
    }
}
