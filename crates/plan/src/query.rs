//! Query plans: a validated plan tree plus workload metadata.

use hcq_common::{Result, StreamId};

use crate::node::PlanNode;

/// Workload classification tag for per-class QoS breakdowns (Figure 11).
///
/// The paper defines a query *class* by its operators' cost class and
/// selectivity; tuples emitted by queries of the same class are aggregated
/// together when reporting per-class slowdowns. Tags order by cost class,
/// then selectivity bucket — the order per-class reports list them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryTag {
    /// Cost class `i` where operator cost is `K · 2^i` (§8 uses `i ∈ [0,4]`).
    pub cost_class: u8,
    /// Selectivity bucket (decile of the operator selectivity, 0–9).
    pub selectivity_bucket: u8,
}

impl QueryTag {
    /// Bucket a selectivity in `(0, 1]` into deciles 0–9.
    pub fn bucket_selectivity(s: f64) -> u8 {
        debug_assert!((0.0..=1.0).contains(&s) && s > 0.0);
        // 0.05 -> 0, 0.15 -> 1, ..., 0.95 -> 9; s = 1.0 caps at 9.
        (((s * 10.0).ceil() as i64 - 1).clamp(0, 9)) as u8
    }
}

/// A validated continuous query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The plan tree; see [`PlanNode`].
    pub root: PlanNode,
    /// Classification tag used for per-class metrics.
    pub tag: QueryTag,
    /// Optional per-query response-time deadline: a tuple whose queueing
    /// delay already exceeds this budget when it reaches the head of a queue
    /// is *expired* (counted, traced, never executed) instead of processed.
    /// `None` (the default) disables expiry for this query.
    pub deadline: Option<hcq_common::Nanos>,
}

impl QueryPlan {
    /// Validate and wrap a plan tree.
    pub fn new(root: PlanNode) -> Result<Self> {
        root.validate_as_root()?;
        Ok(QueryPlan {
            root,
            tag: QueryTag::default(),
            deadline: None,
        })
    }

    /// Validate and wrap a plan tree with a classification tag.
    pub fn with_tag(root: PlanNode, tag: QueryTag) -> Result<Self> {
        root.validate_as_root()?;
        Ok(QueryPlan {
            root,
            tag,
            deadline: None,
        })
    }

    /// True if the query reads exactly one stream (no window joins).
    pub fn is_single_stream(&self) -> bool {
        matches!(self.root, PlanNode::Leaf { .. })
    }

    /// Number of leaves (schedulable entry points).
    pub fn leaf_count(&self) -> usize {
        self.root.leaf_count()
    }

    /// Streams feeding the leaves, left-to-right.
    pub fn leaf_streams(&self) -> Vec<StreamId> {
        self.root.leaf_streams()
    }

    /// Total operator count, including join operators.
    pub fn operator_count(&self) -> usize {
        self.root.operator_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::OperatorSpec;
    use hcq_common::Nanos;

    #[test]
    fn new_validates() {
        let ok = PlanNode::Leaf {
            stream: StreamId::new(0),
            ops: vec![OperatorSpec::select(Nanos(10), 0.5)],
        };
        assert!(QueryPlan::new(ok).is_ok());
        let bad = PlanNode::Leaf {
            stream: StreamId::new(0),
            ops: vec![],
        };
        assert!(QueryPlan::new(bad).is_err());
    }

    #[test]
    fn selectivity_buckets() {
        assert_eq!(QueryTag::bucket_selectivity(0.05), 0);
        assert_eq!(QueryTag::bucket_selectivity(0.1), 0);
        assert_eq!(QueryTag::bucket_selectivity(0.11), 1);
        assert_eq!(QueryTag::bucket_selectivity(0.55), 5);
        assert_eq!(QueryTag::bucket_selectivity(0.95), 9);
        assert_eq!(QueryTag::bucket_selectivity(1.0), 9);
    }

    #[test]
    fn single_stream_detection() {
        let single = QueryPlan::new(PlanNode::Leaf {
            stream: StreamId::new(0),
            ops: vec![OperatorSpec::select(Nanos(10), 0.5)],
        })
        .unwrap();
        assert!(single.is_single_stream());
        assert_eq!(single.leaf_count(), 1);
        assert_eq!(single.operator_count(), 1);
    }
}
