//! Runtime operators and query plans.
//!
//! Unlike the simulator's abstract `(cost, selectivity)` operators, runtime
//! operators carry concrete behaviour (a [`Predicate`], a projection list, a
//! join key). Costs and selectivities are *initial estimates* that seed the
//! schedulers and the online EWMA monitors; they do not affect what the
//! operators compute.

use hcq_common::{HcqError, Nanos, Result, StreamId};

use crate::record::{Predicate, Record};

/// A unary runtime operator.
#[derive(Debug, Clone, PartialEq)]
pub struct RtOp {
    /// What the operator computes.
    pub kind: RtOpKind,
    /// Initial per-tuple cost estimate (refined online).
    pub est_cost: Nanos,
    /// Initial selectivity estimate (refined online).
    pub est_selectivity: f64,
}

/// Behaviour of a unary runtime operator.
#[derive(Debug, Clone, PartialEq)]
pub enum RtOpKind {
    /// Filter by a predicate.
    Select(Predicate),
    /// Keep the listed fields (in order).
    Project(Vec<usize>),
}

impl RtOp {
    /// A select operator.
    pub fn select(predicate: Predicate, est_cost: Nanos, est_selectivity: f64) -> Self {
        RtOp {
            kind: RtOpKind::Select(predicate),
            est_cost,
            est_selectivity,
        }
    }

    /// A project operator (selectivity 1).
    pub fn project(keep: Vec<usize>, est_cost: Nanos) -> Self {
        RtOp {
            kind: RtOpKind::Project(keep),
            est_cost,
            est_selectivity: 1.0,
        }
    }

    /// Apply to a record: `None` means filtered out.
    pub fn apply(&self, record: &Record) -> Option<Record> {
        self.apply_owned(record.clone())
    }

    /// [`Self::apply`] on a record the caller gives up: a passing select
    /// hands the same record on.
    pub(crate) fn apply_owned(&self, record: Record) -> Option<Record> {
        match &self.kind {
            RtOpKind::Select(p) => p.eval(&record).then_some(record),
            RtOpKind::Project(keep) => Some(record.project(keep)),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.est_cost.is_zero() {
            return Err(HcqError::plan(
                "runtime operator needs a positive cost estimate",
            ));
        }
        if !(self.est_selectivity > 0.0 && self.est_selectivity <= 1.0) {
            return Err(HcqError::plan(format!(
                "selectivity estimate {} outside (0, 1]",
                self.est_selectivity
            )));
        }
        Ok(())
    }
}

/// A time-based sliding-window equi-join.
#[derive(Debug, Clone, PartialEq)]
pub struct RtJoin {
    /// Join-key field on the left input.
    pub left_field: usize,
    /// Join-key field on the right input.
    pub right_field: usize,
    /// Window interval `V`.
    pub window: Nanos,
    /// Initial per-tuple cost estimate.
    pub est_cost: Nanos,
    /// Initial predicate-selectivity estimate per key-matched pair (the key
    /// match itself is exact; this seeds the §5 occupancy-based priorities).
    pub est_selectivity: f64,
}

impl RtJoin {
    /// Build a window equi-join.
    pub fn new(left_field: usize, right_field: usize, window: Nanos) -> Self {
        RtJoin {
            left_field,
            right_field,
            window,
            est_cost: Nanos::from_micros(1),
            est_selectivity: 1.0,
        }
    }

    /// Override the cost estimate.
    pub fn with_est_cost(mut self, cost: Nanos) -> Self {
        self.est_cost = cost;
        self
    }

    /// Override the selectivity estimate.
    pub fn with_est_selectivity(mut self, s: f64) -> Self {
        self.est_selectivity = s;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.window.is_zero() {
            return Err(HcqError::plan("join window must be positive"));
        }
        if self.est_cost.is_zero() {
            return Err(HcqError::plan("join needs a positive cost estimate"));
        }
        if !(self.est_selectivity > 0.0 && self.est_selectivity <= 1.0) {
            return Err(HcqError::plan("join selectivity estimate outside (0, 1]"));
        }
        Ok(())
    }
}

/// A registered continuous query's plan.
#[derive(Debug, Clone, PartialEq)]
pub enum RtPlan {
    /// A chain of unary operators over one stream.
    Single {
        /// Input stream.
        stream: StreamId,
        /// Operators, index 0 nearest the stream (must be non-empty).
        ops: Vec<RtOp>,
    },
    /// A window equi-join of two (optionally pre-filtered) streams, followed
    /// by a common segment over concatenated records.
    Join {
        /// Left input stream.
        left_stream: StreamId,
        /// Right input stream.
        right_stream: StreamId,
        /// Operators on the left input (may be empty).
        left_ops: Vec<RtOp>,
        /// Operators on the right input (may be empty).
        right_ops: Vec<RtOp>,
        /// The join operator.
        join: RtJoin,
        /// Operators over composite records (may be empty).
        common_ops: Vec<RtOp>,
    },
}

impl RtPlan {
    /// Convenience constructor for a single-stream chain.
    pub fn single(stream: StreamId, ops: Vec<RtOp>) -> Self {
        RtPlan::Single { stream, ops }
    }

    /// Validate structure and estimates.
    pub fn validate(&self) -> Result<()> {
        match self {
            RtPlan::Single { ops, .. } => {
                if ops.is_empty() {
                    return Err(HcqError::plan("single-stream query needs ≥ 1 operator"));
                }
                ops.iter().try_for_each(RtOp::validate)
            }
            RtPlan::Join {
                left_ops,
                right_ops,
                join,
                common_ops,
                ..
            } => {
                join.validate()?;
                left_ops
                    .iter()
                    .chain(right_ops)
                    .chain(common_ops)
                    .try_for_each(RtOp::validate)
            }
        }
    }

    /// The streams this plan reads.
    pub fn streams(&self) -> Vec<StreamId> {
        match self {
            RtPlan::Single { stream, .. } => vec![*stream],
            RtPlan::Join {
                left_stream,
                right_stream,
                ..
            } => vec![*left_stream, *right_stream],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Cmp;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    #[test]
    fn select_applies_predicate() {
        let op = RtOp::select(Predicate::new(0, Cmp::Gt, 10), us(1), 0.5);
        assert!(op.apply(&Record::new(vec![11])).is_some());
        assert!(op.apply(&Record::new(vec![10])).is_none());
    }

    #[test]
    fn project_reorders_fields() {
        let op = RtOp::project(vec![1, 0], us(1));
        let out = op.apply(&Record::new(vec![5, 6])).unwrap();
        assert_eq!(out.fields(), &[6, 5]);
    }

    #[test]
    fn plan_validation() {
        assert!(RtPlan::single(StreamId::new(0), vec![]).validate().is_err());
        let ok = RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(Predicate::new(0, Cmp::Lt, 5), us(1), 0.5)],
        );
        assert!(ok.validate().is_ok());
        assert_eq!(ok.streams(), vec![StreamId::new(0)]);

        let bad_sel = RtPlan::single(
            StreamId::new(0),
            vec![RtOp::select(Predicate::new(0, Cmp::Lt, 5), us(1), 1.5)],
        );
        assert!(bad_sel.validate().is_err());

        let join = RtPlan::Join {
            left_stream: StreamId::new(0),
            right_stream: StreamId::new(1),
            left_ops: vec![],
            right_ops: vec![],
            join: RtJoin::new(0, 0, Nanos::from_secs(1)),
            common_ops: vec![],
        };
        assert!(join.validate().is_ok());
        assert_eq!(join.streams(), vec![StreamId::new(0), StreamId::new(1)]);
        let bad_join = RtPlan::Join {
            left_stream: StreamId::new(0),
            right_stream: StreamId::new(1),
            left_ops: vec![],
            right_ops: vec![],
            join: RtJoin::new(0, 0, Nanos::ZERO),
            common_ops: vec![],
        };
        assert!(bad_join.validate().is_err());
    }

    #[test]
    fn join_builders() {
        let j = RtJoin::new(1, 2, Nanos::from_secs(5))
            .with_est_cost(us(9))
            .with_est_selectivity(0.25);
        assert_eq!(j.est_cost, us(9));
        assert_eq!(j.est_selectivity, 0.25);
    }
}
