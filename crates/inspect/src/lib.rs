//! # hcq-inspect — offline trace analysis
//!
//! Consumes the JSONL scheduling traces the engine's [`hcq_engine::JsonlTrace`]
//! sink writes (and tolerates interleaved `repro monitor` telemetry lines),
//! read back as the engine's own [`hcq_engine::TraceEvent`], and turns them
//! into answers:
//!
//! - [`waterfall`] — per-query latency waterfalls: every emission's response
//!   time decomposed into queue-wait, governor-induced wait, quarantine
//!   (failed-attempt retry delay), and service, rolled up to per-query
//!   p50/p95/p99 tables. [`waterfall::reconcile`] replays the trace against a
//!   run's [`hcq_engine::SimReport`] and proves the two agree field for field.
//! - [`starve`] — starvation diagnosis: longest-waiting head tuples that sat
//!   through scheduling decisions, and per-unit selection-share vs
//!   demand-share skew.
//! - [`mod@diff`] — run-vs-run decision diffing at scheduling-point granularity:
//!   the first decision where two runs chose different units, plus per-query
//!   QoS deltas.
//! - [`perfetto`] — Chrome trace-event / Perfetto export with one track per
//!   query and one for the scheduler.
//!
//! Everything is pure and deterministic: parsing ([`json`], [`event`]) keeps
//! number text verbatim (composite tuple ids exceed 2^53 and must not pass
//! through f64), span reconstruction ([`span`]) is a single forward pass, and
//! all reports render as fixed-width text with stable ordering, so inspect
//! output is byte-identical for byte-identical traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod event;
pub mod json;
pub mod perfetto;
pub mod span;
pub mod starve;
pub mod waterfall;

pub use diff::{diff, DiffReport, Divergence};
pub use event::{parse_stream, TraceLog};
pub use json::{parse as parse_json, JsonValue};
pub use perfetto::PerfettoStats;
pub use span::{reconstruct, Outcome, Span, SpanLog};
pub use starve::{starvation, Starvation};
pub use waterfall::{reconcile, waterfalls, Reconciliation, Waterfalls};
