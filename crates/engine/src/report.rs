//! Simulation output.

use hcq_common::Nanos;
use hcq_core::UnitStatics;
use hcq_metrics::{ClassBreakdown, OverheadTotals, QosSummary, SlowdownHistogram};

/// Everything a simulation run reports.
#[derive(Debug)]
pub struct SimReport {
    /// Headline QoS over all emitted tuples (Definitions 1–4).
    pub qos: QosSummary,
    /// Per-class breakdown (Figure 11).
    pub classes: ClassBreakdown,
    /// Log-bucketed slowdown distribution.
    pub histogram: SlowdownHistogram,
    /// Source arrivals injected.
    pub arrivals: u64,
    /// Tuples emitted at query roots.
    pub emitted: u64,
    /// Tuples dropped by filters/joins (per query copy).
    pub dropped: u64,
    /// Tuples shed by the overload manager (never executed): rejected at
    /// admission or displaced from a queue tail. 0 under unbounded queues.
    pub shed: u64,
    /// Tuples expired at dequeue because their query's response-time
    /// deadline had already passed. 0 unless a plan sets `with_deadline`.
    pub expired: u64,
    /// Transient operator failures: runs charged but suppressed. Each
    /// failed attempt counts once; a tuple retried twice contributes two.
    pub op_failures: u64,
    /// Total quarantine time assigned after transient operator failures
    /// (sum of cooldowns, not wall-clock overlap).
    pub quarantine_time: Nanos,
    /// Admission-mode transitions taken by the overload governor. 0 when
    /// the governor is disabled.
    pub governor_transitions: u64,
    /// Policy switches taken by the governor's meta-scheduler (engage and
    /// disengage each count). 0 unless `overload_policy` is set.
    pub policy_switches: u64,
    /// Re-estimated statics publications the online estimator forwarded to
    /// the policy. 0 when adaptation is disabled or observe-only refinement
    /// never crossed the publication bar.
    pub statics_updates: u64,
    /// Priority-domain refreezes the policy acknowledged after published
    /// estimates drifted outside the span frozen at registration.
    pub domain_refreezes: u64,
    /// The estimator's final per-unit statics view (`None` when adaptation
    /// is disabled): smoothed estimates under EWMA, the open window's mean
    /// (or last published values) under windowed estimation. `ideal_time`
    /// is carried through unchanged — only cost and selectivity are
    /// re-estimated.
    pub estimates: Option<Vec<UnitStatics>>,
    /// Source stall time that fell inside the run (`FaultySource` windows
    /// clipped to the final clock).
    pub fault_stall_time: Nanos,
    /// Source stall time scheduled past the end of the run and therefore
    /// never observed. `fault_stall_time + fault_stall_truncated` equals
    /// the total stall time the fault scenario decided.
    pub fault_stall_truncated: Nanos,
    /// Source disconnect events (see `DisconnectSource`).
    pub source_disconnects: u64,
    /// Reconnection attempts across all disconnects.
    pub source_retry_attempts: u64,
    /// Base arrivals lost inside source downtime windows. These never
    /// reached the engine and are *not* part of `arrivals`.
    pub source_lost_arrivals: u64,
    /// Scheduling points taken.
    pub sched_points: u64,
    /// Priority computations/comparisons reported by the policy.
    pub sched_ops: u64,
    /// The same scheduler work itemized by kind (§6 overhead accounting):
    /// candidates scanned, priority evaluations, comparisons, cluster
    /// maintenance, heap operations — always collected, tracing or not.
    pub overhead: OverheadTotals,
    /// Virtual time charged for scheduling (0 unless overhead charging on).
    pub overhead_time: Nanos,
    /// Virtual time spent executing operators.
    pub busy_time: Nanos,
    /// Virtual time spent with total pending load at or above the
    /// configured overload watermark (0 when no watermark is set).
    pub overload_time: Nanos,
    /// Final virtual clock.
    pub end_time: Nanos,
    /// Time-averaged number of pending tuples across all queues — the
    /// memory metric Chain-style policies minimize.
    pub avg_pending: f64,
    /// Peak simultaneous pending tuples.
    pub peak_pending: usize,
    /// Tuples still queued when the run ended (0 when draining).
    pub pending_end: usize,
}

impl SimReport {
    /// Measured utilization: operator busy time (plus charged scheduling
    /// overhead) over elapsed virtual time.
    pub fn measured_utilization(&self) -> f64 {
        if self.end_time.is_zero() {
            return 0.0;
        }
        (self.busy_time + self.overhead_time).ratio(self.end_time)
    }

    /// Average scheduler operations per scheduling point — the quantity the
    /// §6 machinery reduces.
    pub fn ops_per_sched_point(&self) -> f64 {
        if self.sched_points == 0 {
            return 0.0;
        }
        self.sched_ops as f64 / self.sched_points as f64
    }

    /// Average priority evaluations per scheduling point — `ext_overhead`'s
    /// y-axis: O(q) for the naive BSD scan, sub-linear once clustered.
    pub fn evals_per_sched_point(&self) -> f64 {
        self.overhead.evals_per_point()
    }

    /// Fraction of per-copy work units the overload manager shed:
    /// `shed / (emitted + dropped + shed + pending_end)`.
    pub fn shed_fraction(&self) -> f64 {
        let total = self.emitted + self.dropped + self.shed + self.pending_end as u64;
        if total == 0 {
            return 0.0;
        }
        self.shed as f64 / total as f64
    }

    /// Fraction of virtual time spent above the overload watermark.
    pub fn overload_share(&self) -> f64 {
        if self.end_time.is_zero() {
            return 0.0;
        }
        self.overload_time.ratio(self.end_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let r = SimReport {
            qos: QosSummary::default(),
            classes: ClassBreakdown::new(),
            histogram: SlowdownHistogram::default(),
            arrivals: 10,
            emitted: 5,
            dropped: 5,
            shed: 5,
            expired: 0,
            op_failures: 0,
            quarantine_time: Nanos::ZERO,
            governor_transitions: 0,
            policy_switches: 0,
            statics_updates: 0,
            domain_refreezes: 0,
            estimates: None,
            fault_stall_time: Nanos::ZERO,
            fault_stall_truncated: Nanos::ZERO,
            source_disconnects: 0,
            source_retry_attempts: 0,
            source_lost_arrivals: 0,
            sched_points: 4,
            sched_ops: 12,
            overhead: {
                let mut t = OverheadTotals::new();
                t.record(6, 2, 6, 0, 0);
                t.record(6, 4, 6, 0, 0);
                t.sched_points = 4; // four decisions, two of them trivial
                t
            },
            overhead_time: Nanos::from_millis(10),
            busy_time: Nanos::from_millis(40),
            overload_time: Nanos::from_millis(25),
            end_time: Nanos::from_millis(100),
            avg_pending: 2.0,
            peak_pending: 5,
            pending_end: 5,
        };
        assert!((r.measured_utilization() - 0.5).abs() < 1e-12);
        assert!((r.ops_per_sched_point() - 3.0).abs() < 1e-12);
        assert!((r.evals_per_sched_point() - 1.5).abs() < 1e-12);
        assert!((r.shed_fraction() - 0.25).abs() < 1e-12);
        assert!((r.overload_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_guards() {
        let r = SimReport {
            qos: QosSummary::default(),
            classes: ClassBreakdown::new(),
            histogram: SlowdownHistogram::default(),
            arrivals: 0,
            emitted: 0,
            dropped: 0,
            shed: 0,
            expired: 0,
            op_failures: 0,
            quarantine_time: Nanos::ZERO,
            governor_transitions: 0,
            policy_switches: 0,
            statics_updates: 0,
            domain_refreezes: 0,
            estimates: None,
            fault_stall_time: Nanos::ZERO,
            fault_stall_truncated: Nanos::ZERO,
            source_disconnects: 0,
            source_retry_attempts: 0,
            source_lost_arrivals: 0,
            sched_points: 0,
            sched_ops: 0,
            overhead: OverheadTotals::new(),
            overhead_time: Nanos::ZERO,
            busy_time: Nanos::ZERO,
            overload_time: Nanos::ZERO,
            end_time: Nanos::ZERO,
            avg_pending: 0.0,
            peak_pending: 0,
            pending_end: 0,
        };
        assert_eq!(r.measured_utilization(), 0.0);
        assert_eq!(r.ops_per_sched_point(), 0.0);
        assert_eq!(r.evals_per_sched_point(), 0.0);
        assert_eq!(r.shed_fraction(), 0.0);
        assert_eq!(r.overload_share(), 0.0);
    }
}
