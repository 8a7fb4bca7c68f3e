//! The large-q scheduling-cost sweep (q = 10³ … 10⁶ registered queries).
//!
//! §6's whole argument is asymptotic: the exact BSD argmax pays O(q) per
//! scheduling point while clustering pays O(m) plus Fagin's pruned probe, so
//! the gap only becomes decisive at query counts far beyond the §9
//! simulation scale. This fixture measures exactly that regime without the
//! simulator: q units, every one ready, one pending tuple each, driven
//! through `select → consume → re-arrive` scheduling points.
//!
//! Measured per cell (policy × q):
//!
//! * `ns_per_point` — wall-clock cost of one scheduling point, including
//!   the policy's own enqueue bookkeeping for the re-arrival (host-noisy).
//! * `evals_per_point` / `work_per_point` — exact deterministic operation
//!   counts from [`SchedStats`], machine-independent.
//! * `bytes_per_query` — [`Policy::memory_footprint`] over q: the slab +
//!   SoA resident cost of one registered query.
//! * `digest` — FNV-1a over every selected unit id in point order; byte
//!   identical across hosts and `--jobs` values, which is what the CI smoke
//!   compares.
//!
//! The queue fixture is O(1) per operation, so the harness itself stays
//! flat while q grows five orders of magnitude — whatever slope shows up is
//! the policy's.

use std::time::Instant;

use hcq_common::{det, Nanos, TupleId};
use hcq_core::{ClusterConfig, Policy, PolicyKind, QueueView, SchedStats, UnitId, UnitStatics};

/// Cluster count for the clustered variants; large enough that the m-sized
/// front index is exercised, small against every swept q.
pub const CLUSTERS: usize = 64;

/// The default q sweep: one decade per step up to a million queries.
pub const QS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// A heterogeneous unit population with Φ spread over several decades.
fn spread_units(n: usize) -> Vec<UnitStatics> {
    (0..n)
        .map(|i| {
            let c = Nanos::from_millis(1 << (i % 5));
            UnitStatics::new(0.15 + 0.1 * (i % 8) as f64, c, c * 3)
        })
        .collect()
}

/// Saturated one-tuple-per-unit queues: every unit is always ready with
/// exactly one pending tuple. `refill` is O(1), so the fixture adds no
/// q-dependent cost around the policy under test.
#[derive(Debug)]
pub struct SaturatedQueues {
    /// The head-arrival column, served as is through
    /// [`QueueView::head_arrivals`]: the scan under test reads the same kind
    /// of array the engine's queues hand it.
    heads: Vec<Nanos>,
    nonempty: Vec<UnitId>,
}

impl SaturatedQueues {
    /// `n` ready units with staggered head arrivals.
    pub fn new(n: usize) -> Self {
        SaturatedQueues {
            heads: (0..n)
                .map(|i| Nanos::from_nanos(i as u64 * 1_000))
                .collect(),
            nonempty: (0..n as UnitId).collect(),
        }
    }

    /// Consume `unit`'s head and replace it with a fresh arrival.
    pub fn refill(&mut self, unit: UnitId, arrival: Nanos) {
        self.heads[unit as usize] = arrival;
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

/// One measured (policy, q) cell.
#[derive(Debug, Clone)]
pub struct LargeQCell {
    /// Variant name (`BSD-Exact`, `C-BSD-log`, …).
    pub policy: &'static str,
    /// Registered (and ready) query count.
    pub q: usize,
    /// Timed scheduling points.
    pub points: u64,
    /// Mean wall-clock nanoseconds per scheduling point (host-dependent).
    pub ns_per_point: f64,
    /// Mean exact priority evaluations per point (deterministic).
    pub evals_per_point: f64,
    /// Mean total scheduler work per point, all [`SchedStats`] counters.
    pub work_per_point: f64,
    /// Resident policy bytes per registered query, from
    /// [`Policy::memory_footprint`] (0 when the policy does not report).
    pub bytes_per_query: f64,
    /// FNV-1a over selected unit ids in point order.
    pub digest: String,
}

/// The swept implementations by name and spec, in sweep order.
fn kinds() -> [(&'static str, PolicyKind); 4] {
    let log = ClusterConfig::logarithmic(CLUSTERS);
    let scan = ClusterConfig {
        use_fagin: false,
        batch: false,
        ..log
    };
    [
        ("BSD-Exact", PolicyKind::Bsd),
        ("C-BSD-log", PolicyKind::Clustered(log)),
        ("C-BSD-logscan", PolicyKind::Clustered(scan)),
        (
            "C-BSD-uni",
            PolicyKind::Clustered(ClusterConfig::uniform(CLUSTERS)),
        ),
    ]
}

/// The swept implementations, freshly built, in sweep order: exact BSD
/// (charged as the O(q) scan; here every head arrives at its own instant,
/// so it evaluates one group per ready unit) and the three clustered
/// variants whose cost §6 claims is sub-linear in q.
pub fn variants() -> Vec<(&'static str, Box<dyn Policy>)> {
    kinds().map(|(name, kind)| (name, kind.build())).into()
}

/// Timed scheduling points for a given q, budgeted so a full sweep stays
/// seconds even with the exact O(q) scan at q = 10⁶.
pub fn points_for(q: usize) -> u64 {
    (4_000_000 / q as u64).clamp(16, 2_000)
}

/// Run one (policy, q) cell: register q units, saturate the queues, then
/// drive `points_for(q)` scheduling points of `select → consume →
/// re-arrive`, timing the loop and accumulating the exact op counters.
pub fn run_cell(name: &'static str, mut policy: Box<dyn Policy>, q: usize) -> LargeQCell {
    let units = spread_units(q);
    policy.on_register(&units);
    let mut queues = SaturatedQueues::new(q);
    let mut next_tuple = q as u64;
    for u in 0..q as UnitId {
        let arrival = queues.head_arrival(u).expect("saturated");
        policy.on_enqueue(u, TupleId::new(u as u64), arrival, arrival);
    }
    let mut now = Nanos::from_nanos(q as u64 * 1_000 + 1_000_000);

    // One untimed warm-up point: drains the registration-era maintenance
    // counters (the clustered build charges its q setup inserts to the first
    // decision) and faults the slab/SoA pages in, so the timed loop sees
    // steady state.
    let step = |policy: &mut Box<dyn Policy>,
                queues: &mut SaturatedQueues,
                now: Nanos,
                next_tuple: &mut u64|
     -> Option<(Vec<UnitId>, u64, SchedStats)> {
        let sel = policy.select(queues, now)?;
        let picked = sel.units.as_slice().to_vec();
        for &u in &picked {
            let t = TupleId::new(*next_tuple);
            *next_tuple += 1;
            queues.refill(u, now);
            policy.on_enqueue(u, t, now, now);
        }
        Some((picked, sel.ops_counted, sel.stats))
    };
    step(&mut policy, &mut queues, now, &mut next_tuple);
    now += Nanos::from_nanos(1_000);

    let points = points_for(q);
    let mut evals = 0u64;
    let mut work = 0u64;
    let mut digest = det::FNV_OFFSET;
    let t0 = Instant::now();
    for _ in 0..points {
        let (picked, _, stats) =
            step(&mut policy, &mut queues, now, &mut next_tuple).expect("queues stay saturated");
        evals += stats.priority_evals;
        work += stats.total();
        for &u in &picked {
            digest = det::fnv1a(&u.to_le_bytes(), digest);
        }
        now += Nanos::from_nanos(1_000);
    }
    let elapsed = t0.elapsed().as_nanos();
    LargeQCell {
        policy: name,
        q,
        points,
        ns_per_point: elapsed as f64 / points as f64,
        evals_per_point: evals as f64 / points as f64,
        work_per_point: work as f64 / points as f64,
        bytes_per_query: policy.memory_footprint().unwrap_or(0) as f64 / q as f64,
        digest: format!("{:016x}", digest),
    }
}

/// The full sweep: every variant at every q up to `max_q`, in deterministic
/// (q, variant) order. `tick` is called once per finished cell.
pub fn sweep(max_q: usize, mut tick: impl FnMut(&LargeQCell)) -> Vec<LargeQCell> {
    let mut cells = Vec::new();
    for &q in QS.iter().filter(|&&q| q <= max_q) {
        for (name, policy) in variants() {
            let cell = run_cell(name, policy, q);
            tick(&cell);
            cells.push(cell);
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_and_digests_are_deterministic() {
        for (name, _) in variants() {
            let a = run_cell(name, rebuild(name), 500);
            let b = run_cell(name, rebuild(name), 500);
            assert_eq!(a.digest, b.digest, "{name}");
            assert_eq!(a.evals_per_point, b.evals_per_point, "{name}");
            assert_eq!(a.work_per_point, b.work_per_point, "{name}");
            assert_eq!(a.bytes_per_query, b.bytes_per_query, "{name}");
        }
    }

    fn rebuild(name: &str) -> Box<dyn Policy> {
        let (_, kind) = kinds()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("known variant");
        kind.build()
    }

    #[test]
    fn exact_scan_is_linear_and_clustering_is_not() {
        let q_lo = 200;
        let q_hi = 2_000;
        let exact_lo = run_cell("BSD-Exact", rebuild("BSD-Exact"), q_lo);
        let exact_hi = run_cell("BSD-Exact", rebuild("BSD-Exact"), q_hi);
        // The exact scan evaluates every ready unit: evals/point == q.
        assert_eq!(exact_lo.evals_per_point, q_lo as f64);
        assert_eq!(exact_hi.evals_per_point, q_hi as f64);
        for (name, kind) in kinds() {
            if !matches!(kind, PolicyKind::Clustered(_)) {
                continue;
            }
            let lo = run_cell(name, rebuild(name), q_lo);
            let hi = run_cell(name, rebuild(name), q_hi);
            let ratio = hi.evals_per_point / lo.evals_per_point.max(1.0);
            assert!(
                ratio < 5.0,
                "{name}: evals grew {ratio:.1}x over a 10x q increase \
                 ({} -> {})",
                lo.evals_per_point,
                hi.evals_per_point
            );
        }
    }

    #[test]
    fn memory_footprint_is_reported_and_bounded() {
        for (name, policy) in variants() {
            let cell = run_cell(name, policy, 1_000);
            assert!(
                cell.bytes_per_query > 0.0 && cell.bytes_per_query < 200.0,
                "{name}: {} bytes/query",
                cell.bytes_per_query
            );
        }
    }

    #[test]
    fn sweep_respects_the_q_cap() {
        let cells = sweep(1_000, |_| {});
        assert_eq!(cells.len(), variants().len());
        assert!(cells.iter().all(|c| c.q == 1_000));
    }
}
