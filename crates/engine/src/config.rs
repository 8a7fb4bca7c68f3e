//! Simulation configuration.

use hcq_common::{HcqError, Nanos, Result};
use hcq_core::SharingStrategy;

use crate::governor::GovernorConfig;

/// Where scheduling points fall (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingLevel {
    /// Non-preemptive: a scheduling point occurs when a *query* finishes a
    /// tuple; execution pipelines whole leaf-to-root segments. This is the
    /// level every §9 experiment uses.
    Query,
    /// Preemptive: a scheduling point after every *operator* execution; each
    /// operator has its own queue and is a schedulable unit. Supported for
    /// join-free, sharing-free workloads.
    Operator,
}

/// What happens when a tuple arrives at a full unit queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    /// Queues grow without bound (the paper's assumption and the default):
    /// no tuple is ever refused, and behavior is bit-identical to an engine
    /// without overload management.
    #[default]
    Unbounded,
    /// Per-unit hard bound: an arrival at a full queue is discarded. Cheap
    /// and local, but blind to QoS — a high-priority query sheds as readily
    /// as a low-priority one.
    DropTail,
    /// QoS-aware shedding: when the arriving unit's queue is full *and*
    /// total pending load is at or above the watermark, the engine sheds
    /// the tail tuple of the unit with the lowest static HNR priority
    /// `S/(C̄·T)` — sacrificing the tuple whose processing would contribute
    /// least to slowdown QoS (the Chain drop-rate intuition applied to
    /// admission). The arriving tuple itself is shed when its own unit is
    /// the least valuable. Individual queues may transiently exceed
    /// `capacity` below the watermark; total load stays bounded.
    QosShed,
}

impl AdmissionMode {
    /// Position on the ladder `Unbounded → DropTail → QosShed` the governor
    /// walks: 0 is the most permissive, each rung up sheds more aggressively.
    pub fn rung(self) -> u8 {
        self as u8
    }

    /// The mode at `rung` (anything past the top rung is `QosShed`).
    pub fn from_rung(rung: u8) -> Self {
        [Self::Unbounded, Self::DropTail, Self::QosShed][usize::from(rung.min(2))]
    }

    /// Stable mode name for trace events.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionMode::Unbounded => "Unbounded",
            AdmissionMode::DropTail => "DropTail",
            AdmissionMode::QosShed => "QosShed",
        }
    }
}

/// Bounded-queue / load-shedding configuration (off by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadConfig {
    /// Admission decision at a full queue.
    pub mode: AdmissionMode,
    /// Per-unit queue capacity (tuples). Ignored under
    /// [`AdmissionMode::Unbounded`]; must be ≥ 1 otherwise, and whenever a
    /// governor may escalate to a bounded mode.
    pub capacity: usize,
    /// Global pending-tuple threshold: at or above it the engine accrues
    /// time-in-overload (a governor's overload share), and
    /// [`AdmissionMode::QosShed`] arms its shedder. `0` disables both (no
    /// overload accounting, shedding armed whenever a queue fills).
    pub watermark: usize,
}

impl OverloadConfig {
    /// Check the admission rule as every executor does: a bounded mode
    /// needs a per-unit capacity of at least 1.
    pub fn validate(&self) -> Result<()> {
        if self.mode != AdmissionMode::Unbounded && self.capacity == 0 {
            return Err(HcqError::config(format!(
                "admission mode {:?} requires a per-unit capacity of at least 1",
                self.mode
            )));
        }
        Ok(())
    }
}

/// Deterministic fault injection (engine side). Source-side faults — bursts
/// and stalls — live in `hcq_streams::FaultySource`; this knob covers the
/// engine-internal failure mode: the calibrated per-operator cost `C̄_x`
/// being wrong at run time while policies keep prioritizing on the stale
/// statics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Maximum relative cost misestimation `m`: each operator's *actual*
    /// per-execution cost is its nominal cost scaled by a persistent factor
    /// drawn deterministically from `[1−m, 1+m]` (a pure function of the
    /// operator and `seed` — identical across policies, so miscalibrated
    /// runs remain comparable). `0` disables.
    pub cost_miscalibration: f64,
    /// Seed for the fault draws, independent of the workload seed so fault
    /// scenarios can vary while the workload realization stays fixed.
    pub seed: u64,
    /// Per-execution probability of a transient operator failure: the run is
    /// charged its full virtual-time cost but the output is suppressed, and
    /// the tuple is quarantined for [`FaultConfig::op_failure_cooldown`]
    /// before being retried (a pure function of tuple/unit/attempt/`seed`,
    /// so identical across policies). `0` disables.
    pub op_failure_prob: f64,
    /// Quarantine length after a transient operator failure; the tuple is
    /// re-admitted once the cooldown elapses.
    pub op_failure_cooldown: Nanos,
    /// Retries after the first failure before the tuple is abandoned
    /// (counted as dropped). `0` means one attempt total.
    pub op_failure_retries: u32,
}

/// How the adaptive layer folds execution observations into estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptMode {
    /// Exponentially-weighted moving average over per-cadence *window
    /// means* with smoothing factor [`AdaptConfig::alpha`]: one EWMA step
    /// per publication window, fed the window's mean observation. Batching
    /// first kills the per-execution variance (a tuple dropped by the entry
    /// operator costs far less than one that runs the full pipeline) before
    /// smoothing across windows. The default.
    #[default]
    Ewma,
    /// Tumbling-window means, reset at every publication cadence: each
    /// window sees only its own phase (right for on/off workloads), at the
    /// price of higher variance within one.
    Windowed,
}

/// Online statistics adaptation (§10 "dynamic environment"), attached with
/// [`SimConfig::with_adaptation`].
///
/// The engine observes every unit execution's charged cost and
/// root emissions — the same quantities the `UnitRun` trace event reports —
/// and folds them into per-unit estimators. Every [`AdaptConfig::cadence`]
/// of virtual time, units with at least [`AdaptConfig::min_observations`]
/// fresh samples get their statics re-published through the policy's
/// `on_statics_update` path (O(1) per unit for clustered BSD), and when a
/// published `Φ` drifts outside the policy's frozen priority domain by more
/// than [`AdaptConfig::refreeze_factor`], the engine asks the policy to
/// refreeze the domain. Without it ([`SimConfig::adapt`] `None`) the engine
/// carries no estimator state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Estimate shape: EWMA or tumbling-window means.
    pub mode: AdaptMode,
    /// EWMA smoothing factor in (0, 1] (weight of the newest window mean);
    /// ignored under [`AdaptMode::Windowed`].
    pub alpha: f64,
    /// Virtual-time interval between publications (must be positive).
    pub cadence: Nanos,
    /// Minimum fresh samples a unit needs before its estimate is published
    /// at a cadence boundary — keeps one noisy execution from repricing a
    /// unit.
    pub min_observations: u64,
    /// Slack ratio on the frozen `Φ` domain before a refreeze is requested:
    /// published `Φ` outside `[lo/f, hi·f]` triggers one. Must be ≥ 1; the
    /// paper-faithful "never refreeze" is `f64::INFINITY`.
    pub refreeze_factor: f64,
    /// When false, estimates are maintained but never published to the
    /// policy — an observe-only probe whose scheduling is bit-identical to
    /// a non-adaptive run (used to measure true statics under faults, and
    /// as an ablation).
    pub publish: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            mode: AdaptMode::Ewma,
            alpha: 0.2,
            cadence: Nanos::from_millis(50),
            min_observations: 2,
            refreeze_factor: 1.5,
            publish: true,
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scheduling granularity.
    pub level: SchedulingLevel,
    /// Priority strategy for §7 shared-operator groups (ignored when the
    /// plan declares no sharing).
    pub sharing: SharingStrategy,
    /// Charge `ops_counted × c_min` of virtual time per scheduling point,
    /// `c_min` being the cost of the cheapest operator in the query plans
    /// (§9.2's accounting). Off by default: the policy-comparison figures
    /// (5–12) treat scheduling as free, as the paper does.
    pub charge_overhead: bool,
    /// Total source arrivals to inject (summed over all streams).
    pub max_arrivals: u64,
    /// Keep processing queued work after the last arrival.
    pub drain: bool,
    /// Master seed for attribute values and selectivity coins.
    pub seed: u64,
    /// Bounded queues and load shedding (default: unbounded, no shedding).
    pub overload: OverloadConfig,
    /// Deterministic engine-side fault injection (default: none).
    pub faults: FaultConfig,
    /// Closed-loop admission-mode governor (default: `None`, ungoverned).
    pub governor: Option<GovernorConfig>,
    /// Online statistics adaptation (default: `None`, none).
    pub adapt: Option<AdaptConfig>,
    /// Virtual-time cadence between telemetry snapshots (default 100 ms).
    /// Only read when a run is monitored (a [`crate::MetricsSink`] with
    /// `ENABLED = true` is attached); otherwise no sampling happens at all.
    pub telemetry_cadence: Nanos,
}

impl SimConfig {
    /// Query-level, PDT sharing, no overhead charging, draining, seed 0.
    pub fn new(max_arrivals: u64) -> Self {
        SimConfig {
            level: SchedulingLevel::Query,
            sharing: SharingStrategy::Pdt,
            charge_overhead: false,
            max_arrivals,
            drain: true,
            seed: 0,
            overload: OverloadConfig::default(),
            faults: FaultConfig::default(),
            governor: None,
            adapt: None,
            telemetry_cadence: Nanos::from_millis(100),
        }
    }

    /// Bound every unit queue at `capacity` tuples under `mode`.
    pub fn with_admission(mut self, mode: AdmissionMode, capacity: usize) -> Self {
        self.overload.mode = mode;
        self.overload.capacity = capacity;
        self
    }

    /// Set the global pending-tuple watermark (overload accounting starts,
    /// and QoS shedding arms, at this total load).
    pub fn with_watermark(mut self, watermark: usize) -> Self {
        self.overload.watermark = watermark;
        self
    }

    /// Enable persistent per-operator cost misestimation: each operator's
    /// actual cost is scaled by a deterministic factor from `[1−m, 1+m]`,
    /// drawn from `fault_seed`. `m` up to (exclusive) 8 is accepted — past
    /// `m = 1` the low side of the draw would go non-positive, so realized
    /// factors clamp to a 1% floor (the high side reaches `1+m`, i.e. up to
    /// 4× actual cost at `m = 3`); for `m < 1` behavior is unchanged from
    /// the historical [0, 1) range.
    pub fn with_cost_miscalibration(mut self, m: f64, fault_seed: u64) -> Self {
        assert!(
            (0.0..8.0).contains(&m),
            "miscalibration must be in [0, 8), got {m}"
        );
        self.faults.cost_miscalibration = m;
        self.faults.seed = fault_seed;
        self
    }

    /// Enable transient operator failures: each execution fails with
    /// probability `p` (in [0, 1)), charging its cost but suppressing
    /// output; the tuple is quarantined for `cooldown` and retried up to
    /// `retries` times before being abandoned. Draws are keyed on
    /// `FaultConfig::seed` (set it via [`SimConfig::with_cost_miscalibration`]
    /// or directly).
    pub fn with_op_failures(mut self, p: f64, cooldown: Nanos, retries: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "op-failure probability must be in [0, 1), got {p}"
        );
        assert!(
            p == 0.0 || !cooldown.is_zero(),
            "op-failure cooldown must be positive when failures are enabled"
        );
        self.faults.op_failure_prob = p;
        self.faults.op_failure_cooldown = cooldown;
        self.faults.op_failure_retries = retries;
        self
    }

    /// Attach the closed-loop overload governor. The simulator checks it
    /// against [`SimConfig::overload`] with [`GovernorConfig::validate`]
    /// when it is built.
    pub fn with_governor(mut self, governor: GovernorConfig) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Attach online statistics adaptation. The simulator refuses, when it
    /// is built, a cadence that is not positive, an alpha outside (0, 1] and
    /// a refreeze slack below 1.
    pub fn with_adaptation(mut self, adapt: AdaptConfig) -> Self {
        self.adapt = Some(adapt);
        self
    }

    /// Set the telemetry sampling cadence (virtual time; must be positive).
    pub fn with_telemetry_cadence(mut self, cadence: Nanos) -> Self {
        assert!(!cadence.is_zero(), "telemetry cadence must be positive");
        self.telemetry_cadence = cadence;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style scheduling level override.
    pub fn with_level(mut self, level: SchedulingLevel) -> Self {
        self.level = level;
        self
    }

    /// Builder-style sharing strategy override.
    pub fn with_sharing(mut self, sharing: SharingStrategy) -> Self {
        self.sharing = sharing;
        self
    }

    /// Enable §9.2 overhead charging.
    pub fn with_overhead(mut self, charge: bool) -> Self {
        self.charge_overhead = charge;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = SimConfig::new(100);
        assert_eq!(c.level, SchedulingLevel::Query);
        assert_eq!(c.sharing, SharingStrategy::Pdt);
        assert!(!c.charge_overhead);
        assert!(c.drain);
        assert_eq!(c.max_arrivals, 100);
        assert_eq!(c.overload.mode, AdmissionMode::Unbounded);
        assert_eq!(c.overload.capacity, 0);
        assert_eq!(c.overload.watermark, 0);
        assert_eq!(c.faults.cost_miscalibration, 0.0);
        assert_eq!(c.faults.op_failure_prob, 0.0);
        assert!(c.governor.is_none());
        assert_eq!(c.telemetry_cadence, Nanos::from_millis(100));
    }

    #[test]
    fn admission_ladder_round_trips() {
        let ladder = [
            AdmissionMode::Unbounded,
            AdmissionMode::DropTail,
            AdmissionMode::QosShed,
        ];
        for (rung, mode) in ladder.into_iter().enumerate() {
            assert_eq!(mode.rung(), rung as u8);
            assert_eq!(AdmissionMode::from_rung(rung as u8), mode);
            assert_eq!(mode.name(), format!("{mode:?}"));
        }
    }

    #[test]
    fn telemetry_cadence_builder() {
        let c = SimConfig::new(1).with_telemetry_cadence(Nanos::from_millis(250));
        assert_eq!(c.telemetry_cadence, Nanos::from_millis(250));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_telemetry_cadence_rejected() {
        let _ = SimConfig::new(1).with_telemetry_cadence(Nanos::ZERO);
    }

    #[test]
    fn overload_and_fault_builders() {
        let c = SimConfig::new(1)
            .with_admission(AdmissionMode::QosShed, 16)
            .with_watermark(200)
            .with_cost_miscalibration(0.5, 99)
            .with_op_failures(0.1, Nanos::from_millis(5), 3);
        assert_eq!(c.overload.mode, AdmissionMode::QosShed);
        assert_eq!(c.overload.capacity, 16);
        assert_eq!(c.overload.watermark, 200);
        assert_eq!(c.faults.cost_miscalibration, 0.5);
        assert_eq!(c.faults.seed, 99);
        assert_eq!(c.faults.op_failure_prob, 0.1);
        assert_eq!(c.faults.op_failure_cooldown, Nanos::from_millis(5));
        assert_eq!(c.faults.op_failure_retries, 3);
    }

    #[test]
    fn adaptation_defaults_off() {
        let c = SimConfig::new(10);
        assert!(c.adapt.is_none());
    }

    #[test]
    fn adaptation_builder() {
        let c = SimConfig::new(10).with_adaptation(AdaptConfig {
            alpha: 0.3,
            cadence: Nanos::from_millis(20),
            ..AdaptConfig::default()
        });
        let adapt = c.adapt.expect("attached");
        assert_eq!(adapt.alpha, 0.3);
        assert_eq!(adapt.mode, AdaptMode::Ewma);
        assert!(adapt.publish);
    }

    #[test]
    fn wide_miscalibration_is_accepted() {
        let c = SimConfig::new(1).with_cost_miscalibration(3.0, 5);
        assert_eq!(c.faults.cost_miscalibration, 3.0);
    }

    #[test]
    #[should_panic(expected = "miscalibration")]
    fn absurd_miscalibration_is_rejected() {
        let _ = SimConfig::new(1).with_cost_miscalibration(8.0, 5);
    }

    #[test]
    fn builders() {
        let c = SimConfig::new(1)
            .with_seed(9)
            .with_level(SchedulingLevel::Operator)
            .with_sharing(SharingStrategy::Max)
            .with_overhead(true);
        assert_eq!(c.seed, 9);
        assert_eq!(c.level, SchedulingLevel::Operator);
        assert_eq!(c.sharing, SharingStrategy::Max);
        assert!(c.charge_overhead);
    }
}
