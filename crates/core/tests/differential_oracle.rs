//! Differential oracle for the §6.2 clustered BSD implementations.
//!
//! Two claims, verified against the exact BSD definition rather than against
//! another implementation:
//!
//! 1. **Bounded suboptimality.** Logarithmic clustering splits the `Φ`
//!    domain into equal-ratio ranges of width `ε = (Φ_max/Φ_min)^(1/m)`, so
//!    the unit a clustered scheduler picks can trail the exact argmax of
//!    `Φ·W` by at most that factor: `Φ(chosen)·W(chosen) ≥ max_u Φ(u)·W(u)
//!    / ε`. (Chosen cluster ĉ maximizes `pseudo·W_oldest`; any unit u has
//!    `Φ(u) ≤ pseudo(c(u))·ε` and `W(u) ≤ W_oldest(c(u))`, while the chosen
//!    unit realizes at least `pseudo(ĉ)·W_oldest(ĉ)`.)
//! 2. **Counter ordering.** The exact scan reports `O(q)` candidates per
//!    scheduling point; the clustered variants report at most one per
//!    cluster — sub-linear in `q` by construction, confirmed from the
//!    [`SchedStats`] counters, never from wall time.

use hcq_common::{Nanos, TupleId};
use hcq_core::{
    BsdPolicy, ClusterConfig, ClusteredBsdPolicy, Clustering, Policy, QueueView, SchedStats,
    UnitId, UnitStatics,
};
use proptest::prelude::*;

mod common;
use common::Queues;

/// Units whose `Φ` values span several decades.
fn units(n: usize) -> Vec<UnitStatics> {
    (0..n)
        .map(|i| {
            let c = Nanos::from_millis(1 << (i % 5));
            UnitStatics::new(0.1 + 0.11 * (i % 8) as f64, c, c * (1 + (i % 3) as u64))
        })
        .collect()
}

/// The per-cluster priority spread `ε` of logarithmic clustering.
fn epsilon(us: &[UnitStatics], m: usize) -> f64 {
    let (lo, hi) = us
        .iter()
        .map(UnitStatics::bsd_static)
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p), hi.max(p))
        });
    (hi / lo).powf(1.0 / m as f64)
}

/// The exact BSD objective: `max_u Φ(u) · W(u)` over ready units.
fn exact_argmax(us: &[UnitStatics], q: &Queues, now: Nanos) -> f64 {
    q.nonempty
        .iter()
        .map(|&u| {
            let wait = now.saturating_since(q.head_arrival(u).unwrap()).as_nanos() as f64;
            us[u as usize].bsd_static() * wait
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 1: for any interleaving, the (scan or Fagin) log-clustered
    /// choice is within the `ε` cluster bound of the exact BSD argmax.
    #[test]
    fn log_clustered_choice_within_epsilon_of_exact_argmax(
        script in proptest::collection::vec(
            proptest::option::weighted(0.6, (0u32..12, 0u64..40)), 1..100
        ),
        m in 1usize..10,
        fagin in any::<bool>(),
    ) {
        let n = 12;
        let us = units(n);
        let eps = epsilon(&us, m);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: m,
            use_fagin: fagin,
            batch: false,
        });
        p.on_register(&us);
        let mut q = Queues::new(n);
        let mut now = Nanos::ZERO;
        let mut tid = 0u64;
        for step in script {
            match step {
                Some((unit, gap)) => {
                    now += Nanos::from_millis(gap);
                    let t = TupleId::new(tid);
                    tid += 1;
                    q.push(unit, t, now);
                    p.on_enqueue(unit, t, now, now);
                }
                None => {
                    now += Nanos::from_millis(1);
                    let Some(sel) = p.select(&q, now) else {
                        prop_assert!(q.nonempty.is_empty());
                        continue;
                    };
                    let chosen = sel.units[0];
                    let wait = now
                        .saturating_since(q.head_arrival(chosen).unwrap())
                        .as_nanos() as f64;
                    let chosen_priority = us[chosen as usize].bsd_static() * wait;
                    let best = exact_argmax(&us, &q, now);
                    prop_assert!(
                        chosen_priority >= best / eps * (1.0 - 1e-9),
                        "chosen {chosen} at priority {chosen_priority} trails exact argmax \
                         {best} by more than ε = {eps} (m = {m}, fagin = {fagin})"
                    );
                    q.pop(chosen);
                }
            }
        }
    }
}

/// Accumulated per-decision stats from draining `rounds` selections with
/// every unit ready.
fn drain_stats(policy: &mut dyn Policy, us: &[UnitStatics], rounds: usize) -> SchedStats {
    let n = us.len();
    policy.on_register(us);
    let mut q = Queues::new(n);
    for i in 0..n {
        let t = TupleId::new(i as u64);
        let a = Nanos::from_millis((i as u64 * 7) % 50);
        q.push(i as UnitId, t, a);
        policy.on_enqueue(i as UnitId, t, a, a);
    }
    let mut total = SchedStats::default();
    let mut now = Nanos::from_millis(100);
    for _ in 0..rounds {
        let sel = policy.select(&q, now).expect("units remain ready");
        total += sel.stats;
        q.pop(sel.units[0]);
        now += Nanos::from_millis(1);
    }
    total
}

/// Claim 2: growing `q` by 4× grows the exact scan's per-decision scan
/// counters by ~4×, while the clustered schedulers' counters are bounded by
/// the cluster count and barely move. Pure counter ordering — wall time
/// never enters.
#[test]
fn exact_counters_grow_linearly_clustered_stay_sublinear() {
    const SMALL: usize = 32;
    const LARGE: usize = 128;
    const M: usize = 8;
    const ROUNDS: usize = 16;
    let run = |mk: &dyn Fn() -> Box<dyn Policy>, n: usize| -> SchedStats {
        drain_stats(mk().as_mut(), &units(n), ROUNDS)
    };
    let exact: &dyn Fn() -> Box<dyn Policy> = &|| Box::new(BsdPolicy::new());
    let scan: &dyn Fn() -> Box<dyn Policy> = &|| {
        Box::new(ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: M,
            use_fagin: false,
            batch: false,
        }))
    };
    let fagin: &dyn Fn() -> Box<dyn Policy> = &|| {
        Box::new(ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: M,
            use_fagin: true,
            batch: false,
        }))
    };

    // The exact scan inspects every ready unit, each round.
    let exact_small = run(exact, SMALL);
    let exact_large = run(exact, LARGE);
    assert_eq!(
        exact_small.candidates_scanned,
        ((2 * SMALL - ROUNDS + 1) * ROUNDS / 2) as u64,
        "n, n-1, ... ready units across the drain"
    );
    let growth = exact_large.candidates_scanned as f64 / exact_small.candidates_scanned as f64;
    assert!(
        growth > 3.0,
        "exact scan counters must track q (grew only {growth:.2}x for 4x queries)"
    );

    // Clustered variants inspect clusters, never units: bounded by M per
    // decision and essentially flat in q.
    for (name, mk) in [("scan", scan), ("fagin", fagin)] {
        let small = run(mk, SMALL);
        let large = run(mk, LARGE);
        assert!(
            large.candidates_scanned <= (M * ROUNDS) as u64,
            "{name}: at most one candidate per cluster per decision"
        );
        let growth = large.candidates_scanned as f64 / small.candidates_scanned.max(1) as f64;
        assert!(
            growth < 2.0,
            "{name}: clustered counters must stay sub-linear in q (grew {growth:.2}x)"
        );
        assert!(
            large.candidates_scanned < exact_large.candidates_scanned / 2,
            "{name}: clustered work must undercut the exact scan"
        );
    }
}
