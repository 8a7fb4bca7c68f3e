//! QoS metric accumulators.
//!
//! The paper evaluates schedulers on tuple-level metrics (§3–§4):
//!
//! * **response time** `R_i = D_i − A_i` (Definition 1),
//! * **slowdown** `H_i = R_i / T_k` (Definition 2) — for composite join
//!   tuples, `H_i = 1 + (D_actual − D_ideal)/T_k` (§5.1.2),
//! * **maximum slowdown** (Definition 3) for worst-case behaviour,
//! * the **ℓ2 norm of slowdowns** `√(Σ H_i²)` (Definition 4) balancing the
//!   two.
//!
//! [`QosAccumulator`] ingests one record per emitted tuple and reports all
//! of these in a [`QosSummary`]; [`ClassBreakdown`] keeps one accumulator
//! per query class for the Figure 11 analysis; [`SlowdownHistogram`] gives
//! log-bucketed distribution shape and quantile estimates.
//!
//! For live observation, [`TelemetryRegistry`] holds typed instruments
//! (counters, gauges, windowed quantile summaries) that snapshot into
//! [`TelemetrySnapshot`]s, exportable as JSONL or Prometheus text
//! exposition format ([`render_prometheus`], validated by
//! [`check_exposition`]).
//!
//! ```
//! use hcq_common::Nanos;
//! use hcq_metrics::QosAccumulator;
//!
//! let mut acc = QosAccumulator::new();
//! // A tuple that waited 8 ms beyond its 2 ms ideal processing time:
//! acc.record_emission(Nanos::ZERO, Nanos::from_millis(10), Nanos::from_millis(2));
//! let s = acc.summary();
//! assert_eq!(s.avg_slowdown, 5.0);
//! assert_eq!(s.max_slowdown, 5.0);
//! ```

pub mod accumulator;
pub mod class;
pub mod histogram;
pub mod kahan;
pub mod overhead;
pub mod prometheus;
pub mod telemetry;

pub use accumulator::{QosAccumulator, QosSummary};
pub use class::ClassBreakdown;
pub use histogram::SlowdownHistogram;
pub use kahan::KahanSum;
pub use overhead::OverheadTotals;
pub use prometheus::{check_exposition, render_prometheus};
pub use telemetry::{
    InstrumentId, InstrumentKind, MetricSample, MetricValue, SummaryValue, TelemetryRegistry,
    TelemetrySnapshot,
};
