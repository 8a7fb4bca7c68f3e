//! `Policy::select` in isolation at large registered-query counts.
//!
//! The engine-level `sched_overhead` bench (in `hcq-bench`) covers the
//! moderate-q regime with realistic queue dynamics; this one strips the
//! harness to a saturated O(1) queue fixture so the *policy's own*
//! per-decision cost is the only thing inside `b.iter`, and pushes q to
//! 10⁵ where the exact scan and the clustered index diverge by three
//! orders of magnitude. Self-contained (no `hcq-bench` dependency — that
//! crate depends on this one).
//!
//! Run with `cargo bench -p hcq-core`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hcq_common::{Nanos, TupleId};
use hcq_core::{
    BsdPolicy, ClusterConfig, ClusteredBsdPolicy, LsfPolicy, Policy, PolicyKind, QueueView, UnitId,
    UnitStatics,
};

/// Always-ready queues: one pending tuple per unit, O(1) refill, so the
/// fixture contributes no q-dependent work to the timed loop.
struct SaturatedQueues {
    heads: Vec<Nanos>,
    nonempty: Vec<UnitId>,
}

impl SaturatedQueues {
    fn new(n: usize) -> Self {
        SaturatedQueues {
            heads: (0..n)
                .map(|i| Nanos::from_nanos(i as u64 * 1_000))
                .collect(),
            nonempty: (0..n as UnitId).collect(),
        }
    }
}

impl QueueView for SaturatedQueues {
    fn len(&self, _unit: UnitId) -> usize {
        1
    }
    fn head_arrivals(&self) -> &[Nanos] {
        &self.heads
    }
    fn nonempty(&self) -> &[UnitId] {
        &self.nonempty
    }
}

/// Φ spread over several decades, like `hcq_bench::spread_units`.
fn units(n: usize) -> Vec<UnitStatics> {
    (0..n)
        .map(|i| {
            let c = Nanos::from_millis(1 << (i % 5));
            UnitStatics::new(0.15 + 0.1 * (i % 8) as f64, c, c * 3)
        })
        .collect()
}

/// Register `n` units, saturate the queues, and warm the policy through one
/// decision so registration-era bookkeeping stays out of the timed loop.
fn loaded(mut policy: Box<dyn Policy>, n: usize) -> (Box<dyn Policy>, SaturatedQueues, Nanos) {
    policy.on_register(&units(n));
    let mut q = SaturatedQueues::new(n);
    for u in 0..n as UnitId {
        let arrival = q.head_arrival(u).expect("saturated");
        policy.on_enqueue(u, TupleId::new(u as u64), arrival, arrival);
    }
    let mut now = Nanos::from_nanos(n as u64 * 1_000 + 1_000_000);
    let mut tuple = n as u64;
    step(&mut policy, &mut q, now, &mut tuple);
    now += Nanos::from_nanos(1_000);
    (policy, q, now)
}

/// One scheduling point: select, then consume + re-arrive each picked unit.
fn step(
    policy: &mut Box<dyn Policy>,
    queues: &mut SaturatedQueues,
    now: Nanos,
    tuple: &mut u64,
) -> u64 {
    let sel = policy.select(queues, now).expect("queues stay saturated");
    let mut ops = sel.ops_counted;
    for &u in sel.units.as_slice() {
        queues.heads[u as usize] = now;
        policy.on_enqueue(u, TupleId::new(*tuple), now, now);
        *tuple += 1;
        ops += 1;
    }
    ops
}

fn bench_large_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_large_q");
    group.sample_size(20);
    type Variant = (&'static str, fn() -> Box<dyn Policy>);
    let variants: [Variant; 5] = [
        ("bsd_exact", || Box::new(BsdPolicy::new())),
        ("cbsd_log_fagin", || {
            Box::new(ClusteredBsdPolicy::new(ClusterConfig::logarithmic(64)))
        }),
        ("cbsd_log_scan", || {
            Box::new(ClusteredBsdPolicy::new(ClusterConfig {
                use_fagin: false,
                batch: false,
                ..ClusterConfig::logarithmic(64)
            }))
        }),
        ("hnr_heap", || PolicyKind::Hnr.build()),
        ("lsf_scan", || Box::new(LsfPolicy::new())),
    ];
    for &q in &[100usize, 10_000, 100_000] {
        for (name, build) in variants {
            group.bench_with_input(BenchmarkId::new(name, q), &q, |b, &q| {
                let (mut p, mut queues, mut now) = loaded(build(), q);
                let mut tuple = 2 * q as u64;
                b.iter(|| {
                    let ops = step(&mut p, &mut queues, now, &mut tuple);
                    now += Nanos::from_nanos(1_000);
                    ops
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_large_select);
criterion_main!(benches);
