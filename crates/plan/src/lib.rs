//! Continuous-query plan model.
//!
//! A continuous query is a tree of operators (§2 of the paper): unary
//! operators (select / project / stored-relation join) arranged in chains,
//! optionally combined by time-based sliding-window join operators into
//! multi-stream plans. This crate provides:
//!
//! * [`OperatorSpec`] / [`JoinSpec`] — the per-operator parameters the whole
//!   paper is built on: processing cost `c` and selectivity `s`.
//! * [`PlanNode`] / [`QueryPlan`] — plan trees (arbitrary join nesting) with
//!   structural validation.
//! * [`stats`] — the derived quantities every scheduling policy consumes:
//!   operator **global selectivity** `S_x`, **global average cost** `C̄_x`,
//!   and the per-query **ideal tuple processing time** `T_k`, including the
//!   §5 window-join extensions that estimate expected matches via
//!   `S_other · V/τ_other`.
//! * [`GlobalPlan`] — a registered multi-query workload, with §7-style shared
//!   select operators.
//! * [`builder`] — ergonomic construction.

pub mod builder;
pub mod compiled;
pub mod global;
pub mod node;
pub mod operator;
pub mod stats;

mod query;

pub use builder::QueryBuilder;
pub use compiled::{CompiledLeaf, CompiledOp, CompiledOpKind, CompiledQuery, Port};
pub use global::{GlobalPlan, SharedSelect};
pub use node::{LeafIndex, PlanNode};
pub use operator::{JoinSpec, OpKind, OperatorSpec};
pub use query::{QueryPlan, QueryTag};
pub use stats::{LeafSegmentStats, OpSegStats, PlanStats, SegStats, StreamRates};
