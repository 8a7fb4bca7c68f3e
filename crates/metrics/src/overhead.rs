//! Scheduler-overhead accumulator.
//!
//! §6 argues that BSD's value lies in being implementable *cheaply*: the
//! naive scheduler pays `O(q)` priority evaluations per scheduling point,
//! clustering drops that to `O(m)` and Fagin pruning to a handful of list
//! accesses. [`OverheadTotals`] aggregates the per-decision work counters a
//! policy reports so a whole run can be summarized as
//! *work-per-scheduling-point* — the quantity Figure 14's "scheduling
//! overhead vs number of queries" axis plots — without timing anything
//! (wall time is noisy and machine-bound; operation counts are exact and
//! deterministic).
//!
//! The counter taxonomy mirrors `hcq_core::SchedStats`; this crate only
//! depends on `hcq-common`, so the bridge passes raw integers.

/// Running totals of scheduler-internal work over a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadTotals {
    /// Scheduling decisions made.
    pub sched_points: u64,
    /// Ready candidates (units, clusters, or list positions) inspected.
    pub candidates_scanned: u64,
    /// Dynamic priority computations.
    pub priority_evals: u64,
    /// Priority comparisons.
    pub comparisons: u64,
    /// Cluster maintenance operations (inserts, shed repairs).
    pub cluster_ops: u64,
    /// Heap / ordered-index operations.
    pub heap_ops: u64,
}

impl OverheadTotals {
    /// An empty accumulator.
    pub fn new() -> Self {
        OverheadTotals::default()
    }

    /// Fold in one scheduling decision's itemized work.
    pub fn record(
        &mut self,
        candidates_scanned: u64,
        priority_evals: u64,
        comparisons: u64,
        cluster_ops: u64,
        heap_ops: u64,
    ) {
        self.sched_points += 1;
        self.candidates_scanned += candidates_scanned;
        self.priority_evals += priority_evals;
        self.comparisons += comparisons;
        self.cluster_ops += cluster_ops;
        self.heap_ops += heap_ops;
    }

    /// Merge another accumulator (e.g. per-shard totals).
    pub fn merge(&mut self, other: &OverheadTotals) {
        self.sched_points += other.sched_points;
        self.candidates_scanned += other.candidates_scanned;
        self.priority_evals += other.priority_evals;
        self.comparisons += other.comparisons;
        self.cluster_ops += other.cluster_ops;
        self.heap_ops += other.heap_ops;
    }

    /// Sum of every work counter (excluding the decision count itself).
    pub fn total_work(&self) -> u64 {
        self.candidates_scanned
            + self.priority_evals
            + self.comparisons
            + self.cluster_ops
            + self.heap_ops
    }

    /// Average priority evaluations per scheduling point — the §6 cost
    /// measure (0.0 when no decision was made).
    pub fn evals_per_point(&self) -> f64 {
        self.per_point(self.priority_evals)
    }

    /// Average total work per scheduling point.
    pub fn work_per_point(&self) -> f64 {
        self.per_point(self.total_work())
    }

    fn per_point(&self, total: u64) -> f64 {
        if self.sched_points == 0 {
            0.0
        } else {
            total as f64 / self.sched_points as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_totals_are_zero() {
        let t = OverheadTotals::new();
        assert_eq!(t.total_work(), 0);
        assert_eq!(t.evals_per_point(), 0.0);
        assert_eq!(t.work_per_point(), 0.0);
    }

    #[test]
    fn record_accumulates_and_averages() {
        let mut t = OverheadTotals::new();
        t.record(10, 10, 10, 0, 2);
        t.record(6, 6, 6, 4, 0);
        assert_eq!(t.sched_points, 2);
        assert_eq!(t.priority_evals, 16);
        assert_eq!(t.cluster_ops, 4);
        assert_eq!(t.evals_per_point(), 8.0);
        assert_eq!(t.total_work(), 54);
        assert_eq!(t.work_per_point(), 27.0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = OverheadTotals::new();
        a.record(1, 2, 3, 4, 5);
        let mut b = OverheadTotals::new();
        b.record(10, 20, 30, 40, 50);
        a.merge(&b);
        assert_eq!(a.sched_points, 2);
        assert_eq!(a.candidates_scanned, 11);
        assert_eq!(a.priority_evals, 22);
        assert_eq!(a.comparisons, 33);
        assert_eq!(a.cluster_ops, 44);
        assert_eq!(a.heap_ops, 55);
    }
}
