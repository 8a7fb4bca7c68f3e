//! ℓp-norm slowdown scheduling — the BSD derivation at arbitrary `p`.
//!
//! §4.2 derives BSD by comparing two execution orders under the ℓ2 norm of
//! slowdowns and dropping lower-order terms. Running the same §4.2.2
//! derivation for the general ℓp norm (Bansal & Pruhs' "server scheduling
//! in the ℓp norm", which the paper builds on) gives the priority
//!
//! ```text
//!   V = (S / (C̄ · T^p)) · W^(p−1)
//! ```
//!
//! which interpolates the whole paper's policy family:
//!
//! * `p = 1` — the wait term vanishes and `V = S/(C̄·T)`: exactly **HNR**
//!   (average slowdown = ℓ1).
//! * `p = 2` — exactly **BSD**.
//! * `p → ∞` — the wait-to-ideal ratio dominates and the rule approaches
//!   **LSF**'s max-slowdown greediness.
//!
//! This module is an extension beyond the paper (it evaluates only p = 2);
//! the `ext_lp` exhibit in `hcq-repro` sweeps `p` to show the knob trading
//! average-case against worst-case, with the paper's three policies as the
//! interpolation's anchor points.

use hcq_common::{Nanos, TupleId};

use crate::headgroups::HeadGroups;
use crate::policy::{Policy, QueueView, Selection, UnitId};
use crate::unit::UnitStatics;

/// The generalized ℓp slowdown policy, selecting through
/// `headgroups`: `W^(p−1)` is evaluated once per distinct head
/// arrival, not once per ready unit.
#[derive(Debug)]
pub struct LpPolicy {
    p: f64,
    /// Ready units by head arrival, over the `S/(C̄·T^p)` column.
    groups: HeadGroups,
}

impl LpPolicy {
    /// Create for a norm exponent `p ≥ 1`.
    pub fn new(p: f64) -> Self {
        assert!(p.is_finite() && p >= 1.0, "p must be ≥ 1");
        LpPolicy {
            p,
            groups: HeadGroups::default(),
        }
    }

    /// The exponent.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Times the ready units were regrouped from the queue view (see
    /// [`BsdPolicy::rebuilds`](crate::BsdPolicy::rebuilds)).
    pub fn rebuilds(&self) -> u64 {
        self.groups.rebuilds()
    }

    fn static_factor(p: f64, u: &UnitStatics) -> f64 {
        u.selectivity / (u.avg_cost_ns * u.ideal_time_ns.powf(p))
    }
}

impl Policy for LpPolicy {
    fn name(&self) -> &'static str {
        "LP"
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        let p = self.p;
        self.groups
            .reset(units.iter().map(|u| Self::static_factor(p, u)).collect());
    }

    fn on_enqueue(&mut self, unit: UnitId, _tuple: TupleId, _arrival: Nanos, _now: Nanos) {
        self.groups.on_enqueue(unit);
    }

    fn on_shed(&mut self, unit: UnitId, _tuple: TupleId) {
        self.groups.on_shed(unit);
    }

    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.groups
            .set_factor(unit, Self::static_factor(self.p, statics));
    }

    fn memory_footprint(&self) -> Option<usize> {
        Some(self.groups.heap_bytes())
    }

    fn select(&mut self, queues: &dyn QueueView, now: Nanos) -> Option<Selection> {
        let w_exp = self.p - 1.0;
        // W^0 = 1 even at W = 0 (p = 1 must reduce to pure HNR order).
        let w_term = |wait: f64| if w_exp == 0.0 { 1.0 } else { wait.powf(w_exp) };
        self.groups.select(queues, now, w_term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsd::BsdPolicy;
    use crate::policy::testkit::MockQueues;
    use crate::statics::StaticPolicy;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    fn units() -> Vec<UnitStatics> {
        vec![
            UnitStatics::new(1.0, ms(5), ms(5)),
            UnitStatics::new(0.33, ms(2), ms(2)),
            UnitStatics::new(0.6, ms(8), ms(12)),
        ]
    }

    fn loaded(policy: &mut dyn Policy) -> MockQueues {
        policy.on_register(&units());
        let mut q = MockQueues::new(3);
        for (u, arrival) in [(0u32, 0u64), (1, 40), (2, 15)] {
            q.push(u, TupleId::new(u as u64), ms(arrival));
            policy.on_enqueue(u, TupleId::new(u as u64), ms(arrival), ms(arrival));
        }
        q
    }

    #[test]
    fn p1_matches_hnr_ordering() {
        let mut lp = LpPolicy::new(1.0);
        let q = loaded(&mut lp);
        let mut hnr = StaticPolicy::hnr();
        let q2 = loaded(&mut hnr);
        let now = ms(100);
        assert_eq!(
            lp.select(&q, now).unwrap().units,
            hnr.select(&q2, now).unwrap().units
        );
    }

    #[test]
    fn p2_matches_bsd_decision() {
        let mut lp = LpPolicy::new(2.0);
        let q = loaded(&mut lp);
        let mut bsd = BsdPolicy::new();
        let q2 = loaded(&mut bsd);
        for now_ms in [50u64, 100, 500, 5000] {
            assert_eq!(
                lp.select(&q, ms(now_ms)).unwrap().units,
                bsd.select(&q2, ms(now_ms)).unwrap().units,
                "diverged at t={now_ms}ms"
            );
        }
    }

    #[test]
    fn large_p_chases_the_longest_normalized_wait() {
        // As p grows the W/T ratio dominates: the unit whose head tuple has
        // the largest stretch wins, like LSF.
        let mut lp = LpPolicy::new(16.0);
        let q = loaded(&mut lp);
        let mut lsf = crate::lsf::LsfPolicy::new();
        let q2 = loaded(&mut lsf);
        let now = ms(10_000);
        assert_eq!(
            lp.select(&q, now).unwrap().units,
            lsf.select(&q2, now).unwrap().units
        );
    }

    #[test]
    #[should_panic(expected = "p must be ≥ 1")]
    fn sub_one_p_rejected() {
        let _ = LpPolicy::new(0.5);
    }

    #[test]
    fn empty_select_none() {
        let mut lp = LpPolicy::new(2.0);
        lp.on_register(&units());
        let q = MockQueues::new(3);
        assert!(lp.select(&q, ms(1)).is_none());
    }
}
