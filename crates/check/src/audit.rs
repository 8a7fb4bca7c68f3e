//! The executor contract, audited from the policy's side.
//!
//! [`ContractAudit`] wraps a real policy and checks that the executor
//! driving it — the simulator, a runtime shard or the `Dsms`, each through
//! the engine's one `Scheduler` — keeps the [`Policy`] contract: tuples
//! leave a unit's queue only as the head of a unit the policy selected or
//! as a tail reported through `on_shed`. It keeps a shadow of every unit's
//! FIFO of arrival instants, built only from what the policy was told
//! (`on_register` resets it, `on_enqueue` appends, `on_shed` pops the tail,
//! each of its own selections pops the head), and at every `select`
//! asserts that the [`QueueView`] it is shown — lengths, the non-empty set
//! and the head arrivals — equals that shadow.
//!
//! A selection that holds ([`Selection::holds`]) lets the executor pop
//! further heads of its unit without asking: at the next `select` the held
//! unit may be j ≥ 0 tuples shorter than the shadow, and the audit pops
//! those j from the shadow's head before comparing. Every other unit must
//! still match exactly. A hold kept past a change to the queues is beyond
//! it (the shadow pops whatever the executor served from that unit); the
//! debug-build re-select in `Scheduler::held` is what sees that.
//!
//! That catches what no emission-level differential can see: with
//! schedule-independent coins, an executor that served some other unit than
//! the one selected emits the same multiset, but leaves the queues it shows
//! next out of step with the shadow.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcq_common::{Nanos, TupleId};
use hcq_core::{Policy, QueueView, Selection, UnitId, UnitStatics};

/// A [`Policy`] wrapper that panics the first time the executor's queues
/// disagree with what the wrapped policy was told. See the module docs.
pub struct ContractAudit {
    inner: Box<dyn Policy>,
    shadow: Vec<VecDeque<Nanos>>,
    sheds: Arc<AtomicU64>,
    /// The unit of the last selection, if it held.
    held: Option<UnitId>,
}

impl ContractAudit {
    /// Audit `inner`. Every `on_shed` the audit sees bumps `sheds`, so a
    /// caller can tell that a bounded run really displaced tails (the
    /// policy itself is usually moved into the executor, out of reach).
    pub fn new(inner: Box<dyn Policy>, sheds: Arc<AtomicU64>) -> Self {
        ContractAudit {
            inner,
            shadow: Vec::new(),
            sheds,
            held: None,
        }
    }
}

impl Policy for ContractAudit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        self.inner.on_register(units);
        self.shadow = vec![VecDeque::new(); units.len()];
        self.held = None;
    }

    fn on_enqueue(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos, now: Nanos) {
        self.shadow[unit as usize].push_back(arrival);
        self.inner.on_enqueue(unit, tuple, arrival, now);
    }

    fn on_shed(&mut self, unit: UnitId, tuple: TupleId) {
        let shed = self.shadow[unit as usize].pop_back();
        assert!(
            shed.is_some(),
            "on_shed for unit {unit}, empty in the shadow"
        );
        self.sheds.fetch_add(1, Ordering::Relaxed);
        self.inner.on_shed(unit, tuple);
    }

    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.inner.on_statics_update(unit, statics);
    }

    fn on_domain_refreeze(&mut self) -> bool {
        self.inner.on_domain_refreeze()
    }

    fn select(&mut self, queues: &dyn QueueView, now: Nanos) -> Option<Selection> {
        if let Some(unit) = self.held.take() {
            let told = &mut self.shadow[unit as usize];
            let shown = queues.len(unit);
            assert!(
                shown <= told.len(),
                "held unit {unit} shows {shown} tuples, told {}",
                told.len()
            );
            told.drain(..told.len() - shown);
        }
        let mut shown = queues.nonempty().to_vec();
        shown.sort_unstable();
        let told: Vec<UnitId> = (0..)
            .zip(&self.shadow)
            .filter_map(|(u, q)| (!q.is_empty()).then_some(u))
            .collect();
        assert_eq!(shown, told, "the non-empty set");
        for (u, q) in self.shadow.iter().enumerate() {
            assert_eq!(queues.len(u as UnitId), q.len(), "unit {u}'s length");
            if let Some(&head) = q.front() {
                assert_eq!(queues.head_arrivals()[u], head, "unit {u}'s head");
            }
        }
        let selection = self.inner.select(queues, now)?;
        for &unit in selection.units.as_slice() {
            let head = self.shadow[unit as usize].pop_front();
            assert!(head.is_some(), "selected unit {unit}, empty in the shadow");
        }
        if selection.holds {
            assert_eq!(selection.units.len(), 1, "a held selection names one unit");
            self.held = Some(selection.units[0]);
        }
        Some(selection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcq_common::StreamId;
    use hcq_core::PolicyKind;
    use hcq_engine::{simulate, AdmissionMode, SchedulingLevel, SimConfig};
    use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
    use hcq_streams::PoissonSource;

    /// Eight select → project queries on one stream, costs and
    /// selectivities distinct, offered well past capacity.
    fn plan() -> GlobalPlan {
        let mut plan = GlobalPlan::default();
        for q in 0..8u64 {
            plan.add_query(
                QueryBuilder::on(StreamId::new(0))
                    .select(Nanos::from_micros(50 + 10 * q), 0.2 + 0.15 * (q % 4) as f64)
                    .project(Nanos::from_micros(20))
                    .build()
                    .unwrap(),
            );
        }
        plan
    }

    #[test]
    fn the_simulator_serves_what_its_policy_selects() {
        let policies = [
            PolicyKind::Fcfs,
            PolicyKind::RoundRobin,
            PolicyKind::Hnr,
            PolicyKind::Lsf,
            PolicyKind::Bsd,
        ];
        let modes = [
            AdmissionMode::Unbounded,
            AdmissionMode::DropTail,
            AdmissionMode::QosShed,
        ];
        let sheds = Arc::new(AtomicU64::new(0));
        for kind in policies {
            for mode in modes {
                for level in [SchedulingLevel::Query, SchedulingLevel::Operator] {
                    let at = format!("{kind:?}/{mode:?}/{level:?}");
                    // Tight bounds, so both bounded rungs shed.
                    let cfg = SimConfig::new(2_000)
                        .with_seed(3)
                        .with_level(level)
                        .with_admission(mode, 2)
                        .with_watermark(4);
                    let audit = ContractAudit::new(kind.build(), Arc::clone(&sheds));
                    let source = PoissonSource::new(Nanos::from_micros(100), 9);
                    let report = simulate(
                        &plan(),
                        &StreamRates::none(),
                        vec![Box::new(source)],
                        Box::new(audit),
                        cfg,
                    )
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(report.arrivals, 2_000, "{at}");
                    match mode {
                        AdmissionMode::Unbounded => assert_eq!(report.shed, 0, "{at}"),
                        _ => assert!(report.shed > 0, "{at} sheds"),
                    }
                }
            }
        }
        assert!(
            sheds.load(Ordering::Relaxed) > 0,
            "QosShed displaced no tail"
        );
    }
}
