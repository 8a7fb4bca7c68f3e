//! Workspace error type.
//!
//! The simulator surface is configuration-heavy (plans, workloads, policy
//! parameters), so most fallible paths are validation. One small enum keeps
//! error handling uniform across crates without pulling in derive macros.

use std::fmt;
use std::io;

/// Convenient result alias used across the workspace.
pub type Result<T, E = HcqError> = std::result::Result<T, E>;

/// A policy ⇄ engine contract violation, detected at run time.
///
/// These used to be panics inside the simulator; they are typed so an
/// embedding system (or a fault-injection harness driving a misbehaving
/// policy) gets a diagnosable value instead of an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A dequeue was requested from a unit whose queue is empty — the policy
    /// selected a unit with no pending work.
    EmptyQueuePop {
        /// The offending unit id.
        unit: u32,
    },
    /// A unit id outside the engine's dense unit space was used.
    UnknownUnit {
        /// The offending unit id.
        unit: u32,
        /// Number of registered units (valid ids are `0..unit_count`).
        unit_count: usize,
    },
    /// The policy returned no selection while work was pending, which would
    /// stall the event loop forever.
    NoSelection {
        /// Tuples pending across all queues at the stalled point.
        pending: usize,
    },
    /// The queues' O(1) non-empty index disagrees with the queue contents —
    /// internal state corruption (e.g. an index clobbered while crossing a
    /// thread boundary) rather than a caller mistake.
    QueueIndexCorrupt {
        /// The unit whose index slot was inconsistent.
        unit: u32,
    },
    /// A query's plan contains a join operator but the engine holds no join
    /// state for it.
    MissingJoinState {
        /// The query missing its symmetric-hash join table.
        query: usize,
    },
    /// A join operator was entered through the unary (single-input) port.
    UnaryPortAtJoin {
        /// The query owning the operator.
        query: usize,
        /// The operator index within the query's compiled pipeline.
        op: usize,
    },
    /// A join operator appeared where the execution mode requires a unary
    /// operator (shared-group entry, operator-level scheduling).
    UnexpectedJoin {
        /// The query owning the operator.
        query: usize,
        /// The operator index within the query's compiled pipeline.
        op: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyQueuePop { unit } => {
                write!(f, "pop from empty queue of unit {unit}")
            }
            EngineError::UnknownUnit { unit, unit_count } => {
                write!(f, "unit {unit} out of range (unit count {unit_count})")
            }
            EngineError::NoSelection { pending } => {
                write!(f, "policy made no selection with {pending} tuples pending")
            }
            EngineError::QueueIndexCorrupt { unit } => {
                write!(f, "non-empty index corrupt for unit {unit}")
            }
            EngineError::MissingJoinState { query } => {
                write!(f, "query {query} has a join operator but no join state")
            }
            EngineError::UnaryPortAtJoin { query, op } => {
                write!(
                    f,
                    "join operator {op} of query {query} entered on a unary port"
                )
            }
            EngineError::UnexpectedJoin { query, op } => {
                write!(
                    f,
                    "operator {op} of query {query} is a join where a unary operator is required"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Errors surfaced by the `aqsios-cq` crates.
#[derive(Debug)]
pub enum HcqError {
    /// A query plan failed structural validation (cycles, bad fan-in,
    /// out-of-range selectivity, zero-cost operator, ...).
    InvalidPlan(String),
    /// A simulation / workload / policy configuration is unusable.
    InvalidConfig(String),
    /// A stream trace file could not be parsed.
    TraceFormat(String),
    /// Underlying I/O failure (trace replay, CSV export).
    Io(io::Error),
    /// A scheduling-contract violation surfaced by the engine at run time.
    Engine(EngineError),
    /// A wall-clock runtime worker thread panicked; holds the panic message.
    WorkerPanicked(String),
}

impl HcqError {
    /// Shorthand constructor for plan-validation failures.
    pub fn plan(msg: impl Into<String>) -> Self {
        HcqError::InvalidPlan(msg.into())
    }

    /// Shorthand constructor for configuration failures.
    pub fn config(msg: impl Into<String>) -> Self {
        HcqError::InvalidConfig(msg.into())
    }

    /// Shorthand constructor for trace-format failures.
    pub fn trace(msg: impl Into<String>) -> Self {
        HcqError::TraceFormat(msg.into())
    }
}

impl fmt::Display for HcqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HcqError::InvalidPlan(m) => write!(f, "invalid query plan: {m}"),
            HcqError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            HcqError::TraceFormat(m) => write!(f, "malformed trace: {m}"),
            HcqError::Io(e) => write!(f, "i/o error: {e}"),
            HcqError::Engine(e) => write!(f, "engine contract violation: {e}"),
            HcqError::WorkerPanicked(m) => write!(f, "runtime worker panicked: {m}"),
        }
    }
}

impl std::error::Error for HcqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HcqError::Io(e) => Some(e),
            HcqError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for HcqError {
    fn from(e: io::Error) -> Self {
        HcqError::Io(e)
    }
}

impl From<EngineError> for HcqError {
    fn from(e: EngineError) -> Self {
        HcqError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            HcqError::plan("cycle").to_string(),
            "invalid query plan: cycle"
        );
        assert_eq!(
            HcqError::config("bad m").to_string(),
            "invalid configuration: bad m"
        );
        assert_eq!(
            HcqError::trace("line 3").to_string(),
            "malformed trace: line 3"
        );
        let io_err = HcqError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(io_err.to_string().contains("gone"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error;
        let e = HcqError::from(io::Error::other("x"));
        assert!(e.source().is_some());
        assert!(HcqError::plan("p").source().is_none());
    }

    #[test]
    fn engine_errors_format_and_convert() {
        use std::error::Error;
        let pop = EngineError::EmptyQueuePop { unit: 3 };
        assert_eq!(pop.to_string(), "pop from empty queue of unit 3");
        let wrapped = HcqError::from(pop);
        assert!(wrapped
            .to_string()
            .contains("engine contract violation: pop from empty queue of unit 3"));
        assert!(wrapped.source().is_some());
        assert_eq!(
            EngineError::UnknownUnit {
                unit: 9,
                unit_count: 4
            }
            .to_string(),
            "unit 9 out of range (unit count 4)"
        );
        assert_eq!(
            EngineError::NoSelection { pending: 17 }.to_string(),
            "policy made no selection with 17 tuples pending"
        );
    }

    #[test]
    fn runtime_hardening_variants_format() {
        assert_eq!(
            EngineError::QueueIndexCorrupt { unit: 5 }.to_string(),
            "non-empty index corrupt for unit 5"
        );
        assert_eq!(
            EngineError::MissingJoinState { query: 2 }.to_string(),
            "query 2 has a join operator but no join state"
        );
        assert_eq!(
            EngineError::UnaryPortAtJoin { query: 1, op: 3 }.to_string(),
            "join operator 3 of query 1 entered on a unary port"
        );
        assert_eq!(
            EngineError::UnexpectedJoin { query: 0, op: 1 }.to_string(),
            "operator 1 of query 0 is a join where a unary operator is required"
        );
    }
}
