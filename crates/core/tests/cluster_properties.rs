//! Property tests for the §6 clustered BSD machinery: the selected cluster
//! always maximizes `pseudo_priority × head wait`, regardless of the
//! enqueue/execute interleaving, for both the scan and the Fagin paths.

use hcq_common::{Nanos, TupleId};
use hcq_core::{
    ClusterConfig, ClusteredBsdPolicy, Clustering, Policy, QueueView, UnitId, UnitQueues,
    UnitStatics,
};
use proptest::prelude::*;

fn units(n: usize) -> Vec<UnitStatics> {
    (0..n)
        .map(|i| {
            let c = Nanos::from_millis(1 << (i % 5));
            UnitStatics::new(0.1 + 0.11 * (i % 8) as f64, c, c * (1 + (i % 3) as u64))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scan and Fagin paths make identical decisions for identical states,
    /// and the chosen cluster maximizes pseudo × head-wait.
    #[test]
    fn fagin_equals_scan_and_both_are_argmax(
        script in proptest::collection::vec(
            proptest::option::weighted(0.6, (0u32..10, 0u64..40)), 1..100
        ),
        m in 1usize..10,
        log in any::<bool>(),
    ) {
        let n = 10;
        let us = units(n);
        let clustering = if log { Clustering::Logarithmic } else { Clustering::Uniform };
        let mk = |fagin: bool| {
            let mut p = ClusteredBsdPolicy::new(ClusterConfig {
                clustering,
                clusters: m,
                use_fagin: fagin,
                batch: false,
            });
            p.on_register(&us);
            p
        };
        let mut pf = mk(true);
        let mut ps = mk(false);
        let mut qf = UnitQueues::new(n);
        let mut qs = UnitQueues::new(n);
        let mut now = Nanos::ZERO;
        let mut tid = 0u64;
        for step in script {
            match step {
                Some((unit, gap)) => {
                    now += Nanos::from_millis(gap);
                    let t = TupleId::new(tid);
                    tid += 1;
                    qf.push(unit, (t, now));
                    qs.push(unit, (t, now));
                    pf.on_enqueue(unit, t, now, now);
                    ps.on_enqueue(unit, t, now, now);
                }
                None => {
                    now += Nanos::from_millis(1);
                    if qf.nonempty().is_empty() {
                        prop_assert!(pf.select(&qf, now).is_none());
                        prop_assert!(ps.select(&qs, now).is_none());
                        continue;
                    }
                    let sf = pf.select(&qf, now).expect("ready");
                    let ss = ps.select(&qs, now).expect("ready");
                    prop_assert_eq!(&sf.units, &ss.units, "fagin vs scan diverged");
                    let chosen = sf.units[0];
                    // Oracle: the chosen unit's cluster maximizes
                    // pseudo(cluster) × wait(oldest pending in cluster).
                    let cluster_of = |u: UnitId| pf.cluster_of(u);
                    let chosen_cluster = cluster_of(chosen);
                    let cluster_priority = |c: u32| -> f64 {
                        let oldest = qf
                            .nonempty()
                            .iter()
                            .filter(|&&u| cluster_of(u) == c)
                            .filter_map(|&u| qf.head_arrival(u))
                            .min();
                        match oldest {
                            Some(a) => {
                                pf.pseudo_priority(c)
                                    * now.saturating_since(a).as_nanos() as f64
                            }
                            None => f64::NEG_INFINITY,
                        }
                    };
                    let chosen_p = cluster_priority(chosen_cluster);
                    for c in 0..m as u32 {
                        let p = cluster_priority(c);
                        prop_assert!(
                            chosen_p >= p - p.abs() * 1e-12,
                            "cluster {c} (p={p}) beats chosen {chosen_cluster} (p={chosen_p})"
                        );
                    }
                    // The executed unit is its cluster's oldest head; fan-outs
                    // tie heads often, and the lower unit id breaks a tie
                    // whatever order the ready list is in.
                    let oldest = qf
                        .nonempty()
                        .iter()
                        .filter(|&&u| cluster_of(u) == chosen_cluster)
                        .min_by_key(|&&u| (qf.head_arrival(u).unwrap(), u))
                        .copied()
                        .unwrap();
                    prop_assert_eq!(
                        qf.head_arrival(chosen),
                        qf.head_arrival(oldest),
                        "not the cluster's oldest pending tuple"
                    );
                    qf.pop(chosen).unwrap();
                    qs.pop(chosen).unwrap();
                }
            }
        }
    }
}
