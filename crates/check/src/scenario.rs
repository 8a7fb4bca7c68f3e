//! Seeded random scenarios and the `hcq-fuzz-v2` artifact format.
//!
//! A [`Scenario`] is a complete, self-contained description of one fuzz
//! case: the query plans (operator kinds, costs, selectivities), the arrival
//! process and its fault schedule, the admission mode, and every simulator
//! knob the invariant suite varies. Scenarios are generated as a pure
//! function of `(fuzz seed, case index)` via the workspace's SplitMix64
//! mixers — no RNG state, so any case can be regenerated in isolation — and
//! serialize to a small JSON document so a failing case shrinks to an
//! artifact that a regression test replays byte-for-byte.
//!
//! Generation deliberately over-samples the degenerate corners the
//! satellite bugfixes guard: near-zero (1 ns) operator costs, selectivities
//! at both extremes of the plan layer's `(0, 1]` validity interval, single
//! -query plans (collapsing the clustered-BSD priority domain to a point),
//! bursty/stalling sources, and bounded queues under every admission mode.
//! v2 adds the robustness dimensions: the closed-loop overload governor,
//! per-query deadlines (including the degenerate deadline-0 corner),
//! transient operator failures, and source disconnect/reconnect schedules.
//! v1 artifacts parse with all of those off, so historical regression
//! artifacts keep replaying unchanged. The adaptive dimensions — the online
//! statistics estimator (including its observe-only probe form) and the
//! governor's policy-switching meta-scheduler — are optional keys under the
//! same schema: artifacts written before they existed parse with them off.
//! An artifact that sets a simulator feature that no longer exists (a
//! non-zero `cost_jitter`, a non-empty `drift`) is refused by name rather
//! than replayed as a different scenario; their neutral values still parse.
//! Exact-zero costs and NaN statics cannot pass plan validation, so those
//! live in the policy-level fuzzer ([`crate::policyfuzz`]) instead.

use hcq_common::json::JsonValue;
use hcq_common::{det, Nanos, Result, StreamId};
use hcq_core::PolicyKind;
use hcq_engine::{AdaptConfig, AdaptMode, AdmissionMode, GovernorConfig, SimConfig};
use hcq_plan::{GlobalPlan, QueryBuilder};
use hcq_streams::{
    ArrivalSource, ConstantSource, DisconnectSource, DisconnectSpec, FaultSpec, FaultySource,
    OnOffSource, PoissonSource,
};

/// Artifact schema identifier (current version).
pub const SCHEMA: &str = "hcq-fuzz-v2";

/// The original schema. v1 artifacts lack the governor, deadline,
/// op-failure, and disconnect dimensions; they parse with those disabled,
/// so historical regression artifacts keep replaying byte-for-byte.
pub const SCHEMA_V1: &str = "hcq-fuzz-v1";

/// One operator in a generated query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpec {
    /// Operator kind: 0 = select, 1 = stored join, 2 = project, 3 = map.
    pub kind: u8,
    /// Per-tuple cost in nanoseconds (≥ 1; the plan layer rejects 0).
    pub cost_ns: u64,
    /// Selectivity in `(0, 1]` (ignored for project, which passes through).
    pub sel: f64,
}

/// One single-stream query (a chain of unary operators).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuerySpec {
    /// Leaf-to-root operator chain.
    pub ops: Vec<OpSpec>,
}

/// Arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Deterministic constant gaps.
    Constant,
    /// Memoryless Poisson arrivals.
    Poisson,
    /// Markov-modulated ON/OFF bursts (the paper's traffic class).
    OnOff,
}

/// Source-side fault schedule (all-zero = no faults).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-arrival probability of opening a burst.
    pub burst_prob: f64,
    /// Extra arrivals injected per burst.
    pub burst_len: u32,
    /// Burst arrivals spread over this window (ns).
    pub burst_spread_ns: u64,
    /// Per-arrival probability of a source stall.
    pub stall_prob: f64,
    /// Stall length (ns).
    pub stall_len_ns: u64,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.burst_prob == 0.0 && self.stall_prob == 0.0
    }
}

/// Admission policy for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPlan {
    /// 0 = unbounded, 1 = drop-tail, 2 = QoS shed.
    pub mode: u8,
    /// Per-unit queue capacity (ignored when unbounded).
    pub capacity: usize,
    /// Global pending watermark (0 = disabled).
    pub watermark: usize,
}

impl AdmissionPlan {
    /// The engine-side admission mode.
    pub fn mode(&self) -> AdmissionMode {
        match self.mode {
            1 => AdmissionMode::DropTail,
            2 => AdmissionMode::QosShed,
            _ => AdmissionMode::Unbounded,
        }
    }
}

/// Closed-loop governor knobs (all-zero = disabled). Hysteresis shares stay
/// at the engine defaults; the fuzzer varies the structural knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorPlan {
    /// Master switch.
    pub enabled: bool,
    /// Decision cadence (ns).
    pub cadence_ns: u64,
    /// Minimum dwell between transitions (ns).
    pub min_dwell_ns: u64,
    /// Escalate at this total pending depth.
    pub escalate_pending: usize,
    /// De-escalate at or below this depth.
    pub deescalate_pending: usize,
    /// Per-unit capacity for the bounded rungs, if admission sets none.
    pub capacity: usize,
    /// Overload watermark for the share signal, if admission sets none.
    pub watermark: usize,
    /// Meta-scheduler: switch to LSF under sustained overload (hysteresis
    /// shares stay at the engine defaults).
    pub switch_policy: bool,
}

/// Transient operator-failure schedule (all-zero = disabled).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpFailurePlan {
    /// Per-execution failure probability.
    pub prob: f64,
    /// Quarantine cooldown (ns).
    pub cooldown_ns: u64,
    /// Retries after the first failure.
    pub retries: u32,
}

/// Online statistics adaptation knobs (disabled by default; artifacts
/// written before the dimension existed parse with it off).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdaptPlan {
    /// Master switch.
    pub enabled: bool,
    /// 0 = EWMA over window means, 1 = tumbling-window means.
    pub mode: u8,
    /// EWMA smoothing factor in (0, 1].
    pub alpha: f64,
    /// Publication cadence (ns).
    pub cadence_ns: u64,
    /// Minimum fresh samples per published window.
    pub min_observations: u64,
    /// False = observe-only probe (estimates harvested, decisions
    /// untouched) — the engine must then behave bit-identically to a
    /// non-adaptive run, which the invariant suite checks.
    pub publish: bool,
}

/// Source disconnect/reconnect schedule (zero prob = disabled).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DisconnectPlan {
    /// Per-base-arrival disconnect probability.
    pub prob: f64,
    /// First retry delay (ns).
    pub retry_base_ns: u64,
    /// Maximum reconnection attempts.
    pub max_retries: u32,
    /// Per-attempt reconnection probability.
    pub reconnect_prob: f64,
}

/// A complete fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// `(fuzz seed, case index)` identity this scenario was generated from
    /// (kept through shrinking so artifacts name their origin).
    pub seed: u64,
    /// Case index under `seed`.
    pub case: u64,
    /// The registered queries.
    pub queries: Vec<QuerySpec>,
    /// Mean inter-arrival gap (ns).
    pub mean_gap_ns: u64,
    /// Source arrivals to inject.
    pub arrivals: u64,
    /// Arrival process shape.
    pub source: SourceKind,
    /// Source-side fault schedule.
    pub faults: FaultPlan,
    /// Admission mode and bounds.
    pub admission: AdmissionPlan,
    /// Cluster count `m` for the clustered-BSD run.
    pub clusters: usize,
    /// Simulator master seed (selectivity coins, attribute values).
    pub sim_seed: u64,
    /// Engine-side persistent cost miscalibration (0 = calibrated).
    pub cost_miscalibration: f64,
    /// Closed-loop overload governor (disabled by default; v1 artifacts).
    pub governor: GovernorPlan,
    /// Per-query response deadline applied to every query (`None` = no
    /// deadlines; `Some(0)` is valid and means "must start at arrival").
    pub deadline_ns: Option<u64>,
    /// Transient operator-failure schedule.
    pub op_failures: OpFailurePlan,
    /// Source disconnect/reconnect schedule.
    pub disconnect: DisconnectPlan,
    /// Online statistics adaptation (disabled by default).
    pub adapt: AdaptPlan,
}

/// Pick a cost: mostly µs-scale, over-sampling the 1 ns near-zero corner.
fn gen_cost(h: u64) -> u64 {
    if det::coin(det::mix2(h, 1), 0.15) {
        1 // near-zero: the smallest cost plan validation admits
    } else {
        // Log-uniform over [1 µs, 1 ms).
        let exp = det::unit_f64(det::mix2(h, 2)) * 3.0;
        (1_000.0 * 10f64.powf(exp)) as u64
    }
}

/// Pick a selectivity in `(0, 1]`, over-sampling both extremes.
fn gen_sel(h: u64) -> f64 {
    let r = det::unit_f64(det::mix2(h, 3));
    if r < 0.2 {
        1.0
    } else if r < 0.35 {
        1e-6
    } else {
        0.05 + 0.95 * det::unit_f64(det::mix2(h, 4))
    }
}

impl Scenario {
    /// Deterministically generate case `case` of fuzz run `seed`.
    pub fn generate(seed: u64, case: u64) -> Scenario {
        let base = det::mix2(det::splitmix64(seed ^ 0x6863_715f_6675_7a7a), case);
        let n_queries = det::unit_range(det::mix2(base, 10), 1, 6) as usize;
        let mut queries = Vec::with_capacity(n_queries);
        let mut total_cost: u64 = 0;
        for q in 0..n_queries {
            let qh = det::mix2(base, 100 + q as u64);
            let n_ops = det::unit_range(det::mix2(qh, 1), 1, 4) as usize;
            let mut ops = Vec::with_capacity(n_ops);
            let mut carry = 1.0; // expected tuples reaching this operator
            for o in 0..n_ops {
                let oh = det::mix2(qh, 1_000 + o as u64);
                let kind = det::unit_range(det::mix2(oh, 5), 0, 3) as u8;
                let cost_ns = gen_cost(oh);
                let sel = if kind == 2 { 1.0 } else { gen_sel(oh) };
                total_cost += (cost_ns as f64 * carry).ceil() as u64;
                carry *= sel;
                ops.push(OpSpec { kind, cost_ns, sel });
            }
            queries.push(QuerySpec { ops });
        }
        // Calibrate the gap so utilization lands in [0.3, 1.5] — both
        // underload and sustained overload get exercised.
        let util = 0.3 + 1.2 * det::unit_f64(det::mix2(base, 11));
        let mean_gap_ns = ((total_cost as f64 / util).ceil() as u64).max(1);
        let arrivals = det::unit_range(det::mix2(base, 12), 50, 400);
        let source = match det::unit_range(det::mix2(base, 13), 0, 2) {
            0 => SourceKind::Constant,
            1 => SourceKind::Poisson,
            _ => SourceKind::OnOff,
        };
        let fh = det::mix2(base, 14);
        let faults = match det::unit_range(fh, 0, 3) {
            0 | 1 => FaultPlan::default(),
            2 => FaultPlan {
                burst_prob: 0.02 + 0.08 * det::unit_f64(det::mix2(fh, 1)),
                burst_len: det::unit_range(det::mix2(fh, 2), 2, 20) as u32,
                burst_spread_ns: mean_gap_ns.max(1),
                ..FaultPlan::default()
            },
            _ => FaultPlan {
                stall_prob: 0.01 + 0.04 * det::unit_f64(det::mix2(fh, 3)),
                stall_len_ns: mean_gap_ns.saturating_mul(det::unit_range(det::mix2(fh, 4), 5, 50)),
                ..FaultPlan::default()
            },
        };
        let ah = det::mix2(base, 15);
        let admission = match det::unit_range(ah, 0, 3) {
            0 | 1 => AdmissionPlan {
                mode: 0,
                capacity: 0,
                watermark: 0,
            },
            mode_pick => {
                let capacity = det::unit_range(det::mix2(ah, 1), 1, 16) as usize;
                let watermark = if det::coin(det::mix2(ah, 2), 0.5) {
                    0
                } else {
                    capacity * n_queries
                };
                AdmissionPlan {
                    mode: if mode_pick == 2 { 1 } else { 2 },
                    capacity,
                    watermark,
                }
            }
        };
        let clusters = det::unit_range(det::mix2(base, 16), 1, 8) as usize;
        let cost_miscalibration = if det::coin(det::mix2(base, 17), 0.3) {
            0.5 * det::unit_f64(det::mix2(base, 18))
        } else {
            0.0
        };
        // Robustness dimensions (salts ≥ 22): governor, deadlines, operator
        // failures, and source disconnects, each off most of the time so
        // plain scenarios stay the common case.
        let gh = det::mix2(base, 22);
        let governor = if det::coin(gh, 0.3) {
            let run_ns = mean_gap_ns.saturating_mul(arrivals).max(1);
            let cadence_ns = (run_ns / 64).max(1);
            let escalate = det::unit_range(det::mix2(gh, 2), 8, 64) as usize;
            GovernorPlan {
                enabled: true,
                cadence_ns,
                min_dwell_ns: cadence_ns
                    .saturating_mul(det::unit_range(det::mix2(gh, 1), 2, 8))
                    .max(1),
                escalate_pending: escalate,
                deescalate_pending: escalate / 4,
                capacity: det::unit_range(det::mix2(gh, 3), 1, 16) as usize,
                watermark: (escalate / 2).max(1),
                switch_policy: det::coin(det::mix2(gh, 4), 0.3),
            }
        } else {
            GovernorPlan::default()
        };
        let dh = det::mix2(base, 26);
        let deadline_ns = if det::coin(dh, 0.25) {
            if det::coin(det::mix2(dh, 1), 0.15) {
                Some(0) // the degenerate "must start at arrival" corner
            } else {
                Some(mean_gap_ns.saturating_mul(det::unit_range(det::mix2(dh, 2), 1, 60)))
            }
        } else {
            None
        };
        let oh = det::mix2(base, 28);
        let op_failures = if det::coin(oh, 0.25) {
            OpFailurePlan {
                prob: 0.02 + 0.1 * det::unit_f64(det::mix2(oh, 1)),
                cooldown_ns: mean_gap_ns
                    .saturating_mul(det::unit_range(det::mix2(oh, 2), 1, 20))
                    .max(1),
                retries: det::unit_range(det::mix2(oh, 3), 0, 3) as u32,
            }
        } else {
            OpFailurePlan::default()
        };
        let run_ns = mean_gap_ns.saturating_mul(arrivals).max(1);
        let eh = det::mix2(base, 32);
        let adapt = if det::coin(eh, 0.25) {
            AdaptPlan {
                enabled: true,
                mode: if det::coin(det::mix2(eh, 1), 0.3) {
                    1
                } else {
                    0
                },
                alpha: 0.05 + 0.45 * det::unit_f64(det::mix2(eh, 2)),
                cadence_ns: (run_ns / det::unit_range(det::mix2(eh, 3), 8, 64)).max(1),
                min_observations: det::unit_range(det::mix2(eh, 4), 1, 4),
                // Mostly closed-loop; sometimes the observe-only probe whose
                // bit-identity to a plain run the invariant suite asserts.
                publish: !det::coin(det::mix2(eh, 5), 0.2),
            }
        } else {
            AdaptPlan::default()
        };
        let xh = det::mix2(base, 30);
        let disconnect = if det::coin(xh, 0.2) {
            DisconnectPlan {
                prob: 0.002 + 0.02 * det::unit_f64(det::mix2(xh, 1)),
                retry_base_ns: mean_gap_ns
                    .saturating_mul(det::unit_range(det::mix2(xh, 2), 1, 10))
                    .max(1),
                max_retries: det::unit_range(det::mix2(xh, 3), 1, 6) as u32,
                reconnect_prob: 0.3 + 0.7 * det::unit_f64(det::mix2(xh, 4)),
            }
        } else {
            DisconnectPlan::default()
        };
        Scenario {
            seed,
            case,
            queries,
            mean_gap_ns,
            arrivals,
            source,
            faults,
            admission,
            clusters,
            sim_seed: det::mix2(base, 21),
            cost_miscalibration,
            governor,
            deadline_ns,
            op_failures,
            disconnect,
            adapt,
        }
    }

    /// Compile the query specs into a validated [`GlobalPlan`].
    pub fn plan(&self) -> Result<GlobalPlan> {
        let mut plan = GlobalPlan::default();
        for q in &self.queries {
            let mut b = QueryBuilder::on(StreamId::new(0));
            for op in &q.ops {
                let cost = Nanos::from_nanos(op.cost_ns);
                b = match op.kind {
                    0 => b.select(cost, op.sel),
                    1 => b.stored_join(cost, op.sel),
                    2 => b.project(cost),
                    _ => b.map(cost, op.sel),
                };
            }
            if let Some(d) = self.deadline_ns {
                b = b.with_deadline(Nanos::from_nanos(d));
            }
            plan.add_query(b.build()?);
        }
        Ok(plan)
    }

    /// Build the arrival source (with the fault schedule layered on).
    pub fn source(&self) -> Box<dyn ArrivalSource> {
        let gap = Nanos::from_nanos(self.mean_gap_ns.max(1));
        let seed = det::mix2(self.sim_seed, 0xa21);
        let spec = if self.faults.is_none() {
            None
        } else {
            Some(FaultSpec {
                burst_prob: self.faults.burst_prob,
                burst_len: self.faults.burst_len,
                burst_spread: Nanos::from_nanos(self.faults.burst_spread_ns),
                stall_prob: self.faults.stall_prob,
                stall_len: Nanos::from_nanos(self.faults.stall_len_ns),
                seed: det::mix2(self.sim_seed, 0xfa17),
            })
        };
        macro_rules! wrap {
            ($src:expr) => {
                match spec {
                    Some(s) => Box::new(FaultySource::new($src, s)) as Box<dyn ArrivalSource>,
                    None => Box::new($src) as Box<dyn ArrivalSource>,
                }
            };
        }
        let src = match self.source {
            SourceKind::Constant => wrap!(ConstantSource::new(gap)),
            SourceKind::Poisson => wrap!(PoissonSource::new(gap, seed)),
            SourceKind::OnOff => wrap!(OnOffSource::lbl_like(gap, seed)),
        };
        if self.disconnect.prob > 0.0 {
            Box::new(DisconnectSource::new(
                src,
                DisconnectSpec {
                    disconnect_prob: self.disconnect.prob,
                    retry_base: Nanos::from_nanos(self.disconnect.retry_base_ns),
                    retry_factor: 2.0,
                    retry_jitter: 0.25,
                    max_retries: self.disconnect.max_retries,
                    reconnect_prob: self.disconnect.reconnect_prob,
                    seed: det::mix2(self.sim_seed, 0xd15c),
                },
            ))
        } else {
            src
        }
    }

    /// Build the simulator configuration.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.arrivals);
        cfg.seed = self.sim_seed;
        cfg.overload.mode = self.admission.mode();
        cfg.overload.capacity = self.admission.capacity;
        cfg.overload.watermark = self.admission.watermark;
        cfg.faults.cost_miscalibration = self.cost_miscalibration;
        cfg.faults.seed = det::mix2(self.sim_seed, 0xc057);
        cfg.faults.op_failure_prob = self.op_failures.prob;
        cfg.faults.op_failure_cooldown = Nanos::from_nanos(self.op_failures.cooldown_ns);
        cfg.faults.op_failure_retries = self.op_failures.retries;
        if self.governor.enabled {
            let g = &self.governor;
            // The plan's capacity and watermark fill an unset admission
            // bound. A bounded base needs its own capacity, so it gets none.
            if cfg.overload.mode == AdmissionMode::Unbounded && cfg.overload.capacity == 0 {
                cfg.overload.capacity = g.capacity;
            }
            if cfg.overload.watermark == 0 {
                cfg.overload.watermark = g.watermark;
            }
            cfg.governor = Some(GovernorConfig {
                cadence: Nanos::from_nanos(g.cadence_ns),
                min_dwell: Nanos::from_nanos(g.min_dwell_ns),
                escalate_pending: g.escalate_pending,
                deescalate_pending: g.deescalate_pending,
                overload_policy: g.switch_policy.then_some(PolicyKind::Lsf),
                ..GovernorConfig::default()
            });
        }
        if self.adapt.enabled {
            cfg.adapt = AdaptConfig {
                enabled: true,
                mode: if self.adapt.mode == 1 {
                    AdaptMode::Windowed
                } else {
                    AdaptMode::Ewma
                },
                alpha: self.adapt.alpha,
                cadence: Nanos::from_nanos(self.adapt.cadence_ns.max(1)),
                min_observations: self.adapt.min_observations,
                publish: self.adapt.publish,
                ..AdaptConfig::default()
            };
        }
        cfg
    }

    /// Serialize to the `hcq-fuzz-v2` artifact document. Layout only: every
    /// string and number is spelled by [`hcq_common::json`] — integer fields
    /// as plain decimals, float fields in `{:?}` text (`1.0`, `1e-6`), and
    /// full-width integers (seeds) as decimal strings.
    pub fn to_json(&self) -> JsonValue {
        let (int, float, text) = (JsonValue::from_u64, JsonValue::from_f64, JsonValue::Str);
        let flag = |b: bool| int(b as u64);
        let queries = self.queries.iter().map(|q| {
            let ops = q.ops.iter().map(|o| {
                obj(vec![
                    ("kind", int(o.kind as u64)),
                    ("cost_ns", int(o.cost_ns)),
                    ("sel", float(o.sel)),
                ])
            });
            JsonValue::Arr(ops.collect())
        });
        let source = match self.source {
            SourceKind::Constant => "constant",
            SourceKind::Poisson => "poisson",
            SourceKind::OnOff => "onoff",
        };
        let (f, a, g) = (&self.faults, &self.admission, &self.governor);
        let (o, d, ad) = (&self.op_failures, &self.disconnect, &self.adapt);
        obj(vec![
            ("schema", text(SCHEMA.into())),
            ("seed", text(self.seed.to_string())),
            ("case", text(self.case.to_string())),
            ("queries", JsonValue::Arr(queries.collect())),
            ("mean_gap_ns", int(self.mean_gap_ns)),
            ("arrivals", int(self.arrivals)),
            ("source", text(source.into())),
            (
                "faults",
                obj(vec![
                    ("burst_prob", float(f.burst_prob)),
                    ("burst_len", int(f.burst_len as u64)),
                    ("burst_spread_ns", int(f.burst_spread_ns)),
                    ("stall_prob", float(f.stall_prob)),
                    ("stall_len_ns", int(f.stall_len_ns)),
                ]),
            ),
            (
                "admission",
                obj(vec![
                    ("mode", int(a.mode as u64)),
                    ("capacity", int(a.capacity as u64)),
                    ("watermark", int(a.watermark as u64)),
                ]),
            ),
            ("clusters", int(self.clusters as u64)),
            ("sim_seed", text(self.sim_seed.to_string())),
            ("cost_miscalibration", float(self.cost_miscalibration)),
            (
                "governor",
                obj(vec![
                    ("enabled", flag(g.enabled)),
                    ("cadence_ns", int(g.cadence_ns)),
                    ("min_dwell_ns", int(g.min_dwell_ns)),
                    ("escalate_pending", int(g.escalate_pending as u64)),
                    ("deescalate_pending", int(g.deescalate_pending as u64)),
                    ("capacity", int(g.capacity as u64)),
                    ("watermark", int(g.watermark as u64)),
                    ("switch_policy", flag(g.switch_policy)),
                ]),
            ),
            (
                "deadline_ns",
                // -1 encodes "no deadline": 0 is a meaningful budget.
                self.deadline_ns.map_or(JsonValue::Num("-1".into()), int),
            ),
            (
                "op_failures",
                obj(vec![
                    ("prob", float(o.prob)),
                    ("cooldown_ns", int(o.cooldown_ns)),
                    ("retries", int(o.retries as u64)),
                ]),
            ),
            (
                "disconnect",
                obj(vec![
                    ("prob", float(d.prob)),
                    ("retry_base_ns", int(d.retry_base_ns)),
                    ("max_retries", int(d.max_retries as u64)),
                    ("reconnect_prob", float(d.reconnect_prob)),
                ]),
            ),
            (
                "adapt",
                obj(vec![
                    ("enabled", flag(ad.enabled)),
                    ("mode", int(ad.mode as u64)),
                    ("alpha", float(ad.alpha)),
                    ("cadence_ns", int(ad.cadence_ns)),
                    ("min_observations", int(ad.min_observations)),
                    ("publish", flag(ad.publish)),
                ]),
            ),
        ])
    }

    /// Parse an artifact document (`hcq-fuzz-v2`, or `hcq-fuzz-v1` with the
    /// robustness dimensions defaulting to "off").
    pub fn from_json(doc: &JsonValue) -> Result<Scenario, String> {
        let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("");
        if schema != SCHEMA && schema != SCHEMA_V1 {
            return Err(format!("unsupported artifact schema {schema:?}"));
        }
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        // Full-width integers (seeds) are serialized as decimal strings
        // (`hcq-fuzz-v1` predates a number type that could hold a u64).
        let int = |key: &str| -> Result<u64, String> {
            match doc.get(key) {
                Some(JsonValue::Str(s)) => s
                    .parse::<u64>()
                    .map_err(|e| format!("bad integer field {key:?}: {e}")),
                Some(v) => uint(v).ok_or_else(|| format!("bad integer field {key:?}")),
                None => Err(format!("missing integer field {key:?}")),
            }
        };
        let mut queries = Vec::new();
        for q in doc
            .get("queries")
            .and_then(JsonValue::as_arr)
            .ok_or("missing queries array")?
        {
            let mut ops = Vec::new();
            for o in q.as_arr().ok_or("query is not an operator array")? {
                ops.push(OpSpec {
                    kind: o.get("kind").and_then(uint).ok_or("op kind")? as u8,
                    cost_ns: o.get("cost_ns").and_then(uint).ok_or("op cost_ns")?,
                    sel: o.get("sel").and_then(JsonValue::as_f64).ok_or("op sel")?,
                });
            }
            queries.push(QuerySpec { ops });
        }
        let source = match doc.get("source").and_then(JsonValue::as_str).unwrap_or("") {
            "constant" => SourceKind::Constant,
            "poisson" => SourceKind::Poisson,
            "onoff" => SourceKind::OnOff,
            other => return Err(format!("unknown source kind {other:?}")),
        };
        let f = doc.get("faults").ok_or("missing faults object")?;
        let a = doc.get("admission").ok_or("missing admission object")?;
        let sub_num = |obj: &JsonValue, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        // Removed simulator features: their neutral values (written by
        // every artifact of their time) parse, anything else would replay
        // a different scenario and is refused by name.
        let jitter = doc.get("cost_jitter").and_then(JsonValue::as_f64);
        if jitter.is_some_and(|j| j != 0.0) {
            return Err("artifact sets cost_jitter, a removed simulator feature".into());
        }
        let drift = doc.get("drift").and_then(JsonValue::as_arr);
        if drift.is_some_and(|d| !d.is_empty()) {
            return Err("artifact sets drift steps, a removed simulator feature".into());
        }
        Ok(Scenario {
            seed: int("seed")?,
            case: int("case")?,
            queries,
            mean_gap_ns: int("mean_gap_ns")?,
            arrivals: int("arrivals")?,
            source,
            faults: FaultPlan {
                burst_prob: sub_num(f, "burst_prob")?,
                burst_len: sub_num(f, "burst_len")? as u32,
                burst_spread_ns: sub_num(f, "burst_spread_ns")? as u64,
                stall_prob: sub_num(f, "stall_prob")?,
                stall_len_ns: sub_num(f, "stall_len_ns")? as u64,
            },
            admission: AdmissionPlan {
                mode: sub_num(a, "mode")? as u8,
                capacity: sub_num(a, "capacity")? as usize,
                watermark: sub_num(a, "watermark")? as usize,
            },
            clusters: int("clusters")? as usize,
            sim_seed: int("sim_seed")?,
            cost_miscalibration: num("cost_miscalibration")?,
            governor: match doc.get("governor") {
                None => GovernorPlan::default(),
                Some(g) => GovernorPlan {
                    enabled: sub_num(g, "enabled")? != 0.0,
                    cadence_ns: sub_num(g, "cadence_ns")? as u64,
                    min_dwell_ns: sub_num(g, "min_dwell_ns")? as u64,
                    escalate_pending: sub_num(g, "escalate_pending")? as usize,
                    deescalate_pending: sub_num(g, "deescalate_pending")? as usize,
                    capacity: sub_num(g, "capacity")? as usize,
                    watermark: sub_num(g, "watermark")? as usize,
                    // Absent in artifacts written before the meta-scheduler
                    // existed: parse as "never switch".
                    switch_policy: g
                        .get("switch_policy")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0)
                        != 0.0,
                },
            },
            deadline_ns: match doc.get("deadline_ns").and_then(JsonValue::as_f64) {
                None => None,
                Some(d) if d < 0.0 => None,
                Some(d) => Some(d as u64),
            },
            op_failures: match doc.get("op_failures") {
                None => OpFailurePlan::default(),
                Some(o) => OpFailurePlan {
                    prob: sub_num(o, "prob")?,
                    cooldown_ns: sub_num(o, "cooldown_ns")? as u64,
                    retries: sub_num(o, "retries")? as u32,
                },
            },
            disconnect: match doc.get("disconnect") {
                None => DisconnectPlan::default(),
                Some(d) => DisconnectPlan {
                    prob: sub_num(d, "prob")?,
                    retry_base_ns: sub_num(d, "retry_base_ns")? as u64,
                    max_retries: sub_num(d, "max_retries")? as u32,
                    reconnect_prob: sub_num(d, "reconnect_prob")?,
                },
            },
            // Absent in artifacts written before the adaptive layer existed:
            // parse with adaptation off.
            adapt: match doc.get("adapt") {
                None => AdaptPlan::default(),
                Some(a) => AdaptPlan {
                    enabled: sub_num(a, "enabled")? != 0.0,
                    mode: sub_num(a, "mode")? as u8,
                    alpha: sub_num(a, "alpha")?,
                    cadence_ns: sub_num(a, "cadence_ns")? as u64,
                    min_observations: sub_num(a, "min_observations")? as u64,
                    publish: sub_num(a, "publish")? != 0.0,
                },
            },
        })
    }
}

/// An object from `(key, value)` pairs, in the given order.
fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A non-negative integer field: plain decimal text (exact), or an
/// integer-valued float such as `16.0` — how artifacts written before the
/// workspace had one JSON codec spelled it.
fn uint(v: &JsonValue) -> Option<u64> {
    v.as_u64().or_else(|| {
        let n = v.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcq_common::json;

    #[test]
    fn generation_is_a_pure_function() {
        let a = Scenario::generate(7, 42);
        let b = Scenario::generate(7, 42);
        assert_eq!(a, b);
        assert_ne!(a, Scenario::generate(7, 43));
        assert_ne!(a, Scenario::generate(8, 42));
    }

    #[test]
    fn generated_scenarios_compile_to_valid_plans() {
        for case in 0..64 {
            let s = Scenario::generate(1, case);
            let plan = s.plan().unwrap_or_else(|e| {
                panic!("case {case}: generated scenario fails plan validation: {e}")
            });
            assert_eq!(plan.len(), s.queries.len());
            assert!(s.mean_gap_ns >= 1);
            assert!(s.arrivals >= 50);
            let _ = s.source();
            let _ = s.config();
        }
    }

    #[test]
    fn artifact_round_trip_is_lossless() {
        for case in 0..16 {
            let s = Scenario::generate(3, case);
            let doc = s.to_json().to_string();
            let back = Scenario::from_json(&json::parse(&doc).unwrap()).unwrap();
            assert_eq!(back, s, "artifact round-trip changed case {case}");
            // And byte-stable: re-serializing the parsed value is identical.
            assert_eq!(back.to_json().to_string(), doc);
        }
    }

    /// The artifact text is a format: float fields keep their `{:?}` spelling,
    /// integer fields are plain decimals, seeds are decimal strings.
    #[test]
    fn serialization_is_pinned() {
        let doc = Scenario::generate(3, 28).to_json().to_string();
        assert_eq!(doc, GOLDEN_3_28);
        assert_eq!(
            json::parse(GOLDEN_3_28).unwrap(),
            Scenario::generate(3, 28).to_json()
        );
        // "No deadline" stays the integer -1 (0 is a meaningful budget).
        let open_ended = Scenario::generate(3, 5);
        assert_eq!(open_ended.deadline_ns, None);
        assert!(open_ended
            .to_json()
            .to_string()
            .contains("\"deadline_ns\":-1,"));
    }

    const GOLDEN_3_28: &str = concat!(
        r#"{"schema":"hcq-fuzz-v2","#,
        r#""seed":"3","#,
        r#""case":"28","#,
        r#""queries":[[{"kind":2,"cost_ns":1,"sel":1.0}],"#,
        r#"[{"kind":3,"cost_ns":2232,"sel":1.0},"#,
        r#"{"kind":0,"cost_ns":295320,"sel":0.8819668399503656},"#,
        r#"{"kind":0,"cost_ns":1414,"sel":0.7944099184197531},"#,
        r#"{"kind":2,"cost_ns":4422,"sel":1.0}],"#,
        r#"[{"kind":0,"cost_ns":612354,"sel":1e-6},"#,
        r#"{"kind":3,"cost_ns":1,"sel":1.0},"#,
        r#"{"kind":3,"cost_ns":1,"sel":0.11966853837621792},"#,
        r#"{"kind":3,"cost_ns":921520,"sel":0.7966768124670931}],"#,
        r#"[{"kind":1,"cost_ns":1,"sel":1.0},"#,
        r#"{"kind":1,"cost_ns":289663,"sel":0.11688977859586495},"#,
        r#"{"kind":1,"cost_ns":87464,"sel":1.0},"#,
        r#"{"kind":3,"cost_ns":23032,"sel":1.0}],"#,
        r#"[{"kind":2,"cost_ns":4091,"sel":1.0},"#,
        r#"{"kind":0,"cost_ns":19855,"sel":0.15210738365136292}]],"#,
        r#""mean_gap_ns":2363194,"#,
        r#""arrivals":98,"#,
        r#""source":"onoff","#,
        r#""faults":{"burst_prob":0.0,"burst_len":0,"burst_spread_ns":0,"stall_prob":0.0,"stall_len_ns":0},"#,
        r#""admission":{"mode":0,"capacity":0,"watermark":0},"#,
        r#""clusters":5,"#,
        r#""sim_seed":"6913860088021234467","#,
        r#""cost_miscalibration":0.1750031645271043,"#,
        r#""governor":{"enabled":1,"cadence_ns":3618640,"min_dwell_ns":25330480,"escalate_pending":54,"deescalate_pending":13,"capacity":3,"watermark":27,"switch_policy":0},"#,
        r#""deadline_ns":103980536,"#,
        r#""op_failures":{"prob":0.0648545359115584,"cooldown_ns":47263880,"retries":2},"#,
        r#""disconnect":{"prob":0.0,"retry_base_ns":0,"max_retries":0,"reconnect_prob":0.0},"#,
        r#""adapt":{"enabled":1,"mode":0,"alpha":0.12313292462615778,"cadence_ns":7985965,"min_observations":2,"publish":1}}"#
    );

    #[test]
    fn rejects_unknown_schema() {
        let mut s = Scenario::generate(0, 0).to_json();
        if let JsonValue::Obj(pairs) = &mut s {
            pairs[0].1 = JsonValue::Str("hcq-fuzz-v0".into());
        }
        assert!(Scenario::from_json(&s).is_err());
    }

    #[test]
    fn v1_artifacts_parse_with_robustness_dimensions_off() {
        // Strip the v2 fields and relabel: the document a v1 fuzzer wrote.
        let mut s = Scenario::generate(3, 5).to_json();
        if let JsonValue::Obj(pairs) = &mut s {
            pairs[0].1 = JsonValue::Str(SCHEMA_V1.into());
            pairs.retain(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "governor" | "deadline_ns" | "op_failures" | "disconnect" | "adapt"
                )
            });
        }
        let back = Scenario::from_json(&s).unwrap();
        assert_eq!(back.governor, GovernorPlan::default());
        assert_eq!(back.deadline_ns, None);
        assert_eq!(back.op_failures, OpFailurePlan::default());
        assert_eq!(back.disconnect, DisconnectPlan::default());
        assert_eq!(back.adapt, AdaptPlan::default());
        // The shared v1 dimensions survive untouched.
        let orig = Scenario::generate(3, 5);
        assert_eq!(back.queries, orig.queries);
        assert_eq!(back.admission, orig.admission);
        assert_eq!(back.faults, orig.faults);
    }

    /// An artifact written while the simulator still had cost jitter and
    /// drifting statics parses when it leaves both neutral, and is refused,
    /// naming the feature, when it sets either: replaying it without them
    /// would silently check a different scenario.
    #[test]
    fn removed_features_parse_neutral_and_are_refused_otherwise() {
        let with = |key: &str, value: &str| {
            let doc = Scenario::generate(3, 5).to_json().to_string();
            let doc = doc.replacen("\"schema\"", &format!("\"{key}\":{value},\"schema\""), 1);
            Scenario::from_json(&json::parse(&doc).unwrap())
        };
        for (key, neutral) in [("cost_jitter", "0.0"), ("drift", "[]")] {
            assert_eq!(with(key, neutral).unwrap(), Scenario::generate(3, 5));
        }
        let step = r#"[{"at_ns":5,"cost_factor":2.0,"sel_factor":1.0}]"#;
        for (key, set) in [("cost_jitter", "0.1"), ("drift", step)] {
            let err = with(key, set).unwrap_err();
            assert!(err.contains(key) && err.contains("removed"), "{err}");
        }
    }

    /// A plan's governor capacity and watermark fill unset admission bounds,
    /// except the capacity of a bounded base, which the engine then rejects.
    #[test]
    fn governor_plan_fills_unset_admission_bounds() {
        let mut s = Scenario::generate(3, 28);
        let bounds = |s: &Scenario| {
            let o = s.config().overload;
            (o.capacity, o.watermark)
        };
        assert_eq!(bounds(&s), (3, 27));
        s.admission.mode = 1;
        assert_eq!(bounds(&s), (0, 27));
        s.admission.capacity = 5;
        assert_eq!(bounds(&s), (5, 27));
    }

    #[test]
    fn robustness_dimensions_are_generated() {
        // Over 200 cases every new dimension must show up at least once,
        // and every generated governor must pass the engine's validation.
        let (mut gov, mut dl, mut dl0, mut opf, mut disc) = (0, 0, 0, 0, 0);
        let (mut adp, mut probe, mut switch) = (0, 0, 0);
        for case in 0..200 {
            let s = Scenario::generate(11, case);
            if s.governor.enabled {
                gov += 1;
                let cfg = s.config();
                let governor = cfg.governor.expect("an enabled plan arms the governor");
                governor.validate(&cfg.overload).unwrap();
                if s.governor.switch_policy {
                    switch += 1;
                }
            } else {
                assert!(!s.governor.switch_policy);
            }
            if s.adapt.enabled {
                adp += 1;
                assert!(s.adapt.alpha > 0.0 && s.adapt.alpha <= 1.0);
                assert!(s.adapt.cadence_ns >= 1);
                assert!(s.adapt.min_observations >= 1);
                if !s.adapt.publish {
                    probe += 1;
                }
            }
            match s.deadline_ns {
                Some(0) => dl0 += 1,
                Some(_) => dl += 1,
                None => {}
            }
            if s.op_failures.prob > 0.0 {
                opf += 1;
                assert!(s.op_failures.cooldown_ns >= 1);
            }
            if s.disconnect.prob > 0.0 {
                disc += 1;
                assert!(s.disconnect.max_retries >= 1);
            }
        }
        assert!(gov > 20, "governor in {gov}/200 cases");
        assert!(dl > 10, "deadlines in {dl}/200 cases");
        assert!(dl0 > 0, "the deadline-0 corner never generated");
        assert!(opf > 20, "op failures in {opf}/200 cases");
        assert!(disc > 10, "disconnects in {disc}/200 cases");
        assert!(adp > 20, "adaptation in {adp}/200 cases");
        assert!(probe > 0, "the observe-only probe never generated");
        assert!(switch > 0, "policy switching never generated");
    }
}
