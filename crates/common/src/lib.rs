//! Shared substrate for the `aqsios-cq` workspace.
//!
//! This crate holds the primitive vocabulary every other crate speaks:
//!
//! * [`Nanos`] — integer virtual time (nanoseconds). The whole simulator runs
//!   on a deterministic discrete-event clock; floating point only appears when
//!   QoS ratios (slowdowns) are finally computed.
//! * Strongly-typed ids ([`QueryId`], [`OpId`], [`StreamId`], [`TupleId`]) so
//!   that an operator index can never be confused with a query index.
//! * [`det`] — deterministic hashing utilities used to realize operator
//!   selectivities as a pure function of `(tuple, operator)`, which guarantees
//!   every scheduling policy observes the *same* workload realization.
//! * [`HcqError`] — the workspace error type.
//! * [`json`] — the one JSON value, strict parser and writer primitives.

pub mod det;
pub mod error;
pub mod ids;
pub mod json;
pub mod time;

pub use error::{EngineError, HcqError, Result};
pub use ids::{ClusterId, OpId, QueryId, StreamId, TupleId};
pub use time::Nanos;
