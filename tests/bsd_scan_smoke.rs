//! Tier-1 smoke test for the dynamic-priority scan path: `hcq-core`'s shared
//! argmax kernel reading `hcq-engine`'s head-arrival column, end to end.

use hcq::common::Nanos;
use hcq::core::PolicyKind;
use hcq::engine::{simulate, SimConfig, SimReport};
use hcq::streams::PoissonSource;
use hcq::workload::{single_stream, SingleStreamConfig};

const QUERIES: u64 = 20;

fn run(kind: PolicyKind) -> SimReport {
    let gap = Nanos::from_millis(10);
    let w = single_stream(&SingleStreamConfig {
        queries: QUERIES as usize,
        cost_classes: 5,
        utilization: 0.9,
        mean_gap: gap,
        seed: 7,
    })
    .unwrap();
    simulate(
        &w.plan,
        &w.rates,
        vec![Box::new(PoissonSource::new(gap, 7))],
        kind.build(),
        SimConfig::new(400).with_seed(7),
    )
    .unwrap()
}

/// The scanning policies (BSD, LSF) and a heap policy (HNR) process the same
/// tuples: every copy is accounted for, the operator coins are policy
/// independent, and the exact scan still charges two ops per evaluation.
#[test]
fn scan_policies_conserve_and_agree_with_hnr() {
    let [bsd, lsf, hnr] = [PolicyKind::Bsd, PolicyKind::Lsf, PolicyKind::Hnr].map(run);
    for (name, r) in [("BSD", &bsd), ("LSF", &lsf), ("HNR", &hnr)] {
        let accounted = r.emitted + r.dropped + r.shed + r.expired + r.pending_end as u64;
        assert_eq!(r.arrivals * QUERIES, accounted, "{name} conservation");
        assert_eq!(r.pending_end, 0, "{name} drains");
        assert_eq!(r.emitted, hnr.emitted, "{name} emitted");
    }
    assert!(bsd.emitted > 0);
    assert!(bsd.overhead.priority_evals > bsd.sched_points, "O(q) scan");
    assert_eq!(bsd.sched_ops, 2 * bsd.overhead.priority_evals);
}
