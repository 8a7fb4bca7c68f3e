//! The DSMS simulator.
//!
//! This crate rebuilds the evaluation substrate of §8: a deterministic
//! discrete-event simulator of a data-stream management system hosting many
//! registered continuous queries. Virtual time is integer nanoseconds; all
//! randomness (arrivals, attribute values, selectivity outcomes) is seeded,
//! and selectivity outcomes are a pure function of `(tuple, operator)` so
//! every scheduling policy faces the identical workload realization.
//!
//! The moving parts:
//!
//! * [`SimModel`] compiles a [`hcq_plan::GlobalPlan`] into schedulable
//!   *units* — per-leaf operator segments at query-level scheduling
//!   (§6 "Query-level"), individual operators at operator-level scheduling,
//!   and §7 shared-operator groups with PDT execution splitting.
//! * [`Simulator`] runs the event loop: deliver arrivals, ask the
//!   [`hcq_core::Policy`] to pick a unit, optionally charge the decision's
//!   priority computations at `c_sched` virtual time each (§9.2), execute
//!   the unit's head tuple pipelined to the root (through symmetric-hash
//!   window joins where present), and record per-emission QoS.
//! * [`SimReport`] carries the §9 metrics: average response time,
//!   average/maximum slowdown, ℓ2 norm, per-class breakdowns, plus
//!   scheduling-overhead and utilization measurements.
//!
//! ```
//! use hcq_common::{Nanos, StreamId};
//! use hcq_core::PolicyKind;
//! use hcq_engine::{simulate, SimConfig};
//! use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
//! use hcq_streams::PoissonSource;
//!
//! let mut plan = GlobalPlan::default();
//! plan.add_query(
//!     QueryBuilder::on(StreamId::new(0))
//!         .select(Nanos::from_millis(1), 0.5)
//!         .project(Nanos::from_millis(1))
//!         .build()
//!         .unwrap(),
//! );
//! let report = simulate(
//!     &plan,
//!     &StreamRates::none(),
//!     vec![Box::new(PoissonSource::new(Nanos::from_millis(10), 7))],
//!     PolicyKind::Hnr.build(),
//!     SimConfig::new(1_000),
//! )
//! .unwrap();
//! assert!(report.qos.count > 0);
//! assert!(report.qos.avg_slowdown >= 1.0);
//! ```

pub mod config;
pub mod exec;
pub mod governor;
pub mod model;
pub mod queues;
pub mod report;
pub mod sim;
pub mod telemetry;
pub mod trace;
pub mod tuple;

pub use config::{
    AdaptConfig, AdaptMode, AdmissionMode, DriftStep, FaultConfig, OverloadConfig, SchedulingLevel,
    SimConfig,
};
pub use governor::GovernorConfig;
pub use hcq_metrics::TelemetrySnapshot;
pub use model::{SimModel, UnitDesc, UnitKind};
pub use report::SimReport;
pub use sim::{simulate, simulate_monitored, simulate_traced, Simulator};
pub use telemetry::{JsonlTelemetry, MetricsSink, NoTelemetry, VecTelemetry};
pub use trace::{JsonlTrace, NoTrace, TraceEvent, TraceSink, VecTrace};
pub use tuple::SimTuple;
