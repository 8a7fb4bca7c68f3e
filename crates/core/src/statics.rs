//! Static-priority policies: SRPT, HR (Equation 4) and HNR (Equation 3).
//!
//! All three assign each unit a priority that never changes (§6.1: "under
//! HNR, the priority given to each operator is static over time"), so the
//! whole order is known before the first tuple arrives. The scheduler ranks
//! the units once — rank 0 is the highest `(priority, unit id)` — and keeps
//! the ready ones as bits of a `RankSet` indexed by rank: `on_enqueue` sets
//! a bit, `select` finds the first set bit, both O(1) at any realistic q
//! (one 64-way level per factor of 64). Cleanup is lazy: a bit is set when
//! the unit's queue turns non-empty and cleared only once `select` observes
//! the unit empty at the front, so a scheduling point is charged one
//! operation per unit it looks at, exactly as by a lazily cleaned max-heap.
//!
//! Ranks are built on demand: `on_register` and a priority change only mark
//! them stale, and the next `on_enqueue`/`select` sorts once per batch (an
//! embedding that registers queries one at a time re-registers the full unit
//! table each time and never pays for the ranks in between).

use hcq_common::{Nanos, TupleId};

use crate::policy::{Policy, QueueView, SchedStats, Selection, UnitId};
use crate::unit::{PriorityKey, UnitStatics};

/// Which static priority function to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticRank {
    /// `1/T` — shortest (ideal) processing time first.
    Srpt,
    /// `S/C̄` — Highest Rate \[19\], Equation 4.
    Hr,
    /// `S/(C̄·T)` — Highest Normalized Rate, Equation 3.
    Hnr,
    /// Externally supplied priorities (e.g. Chain's progress-chart slopes;
    /// the caller installs values via [`StaticPolicy::custom`]).
    Custom,
}

impl StaticRank {
    /// Evaluate the priority of a unit.
    pub fn priority(self, u: &UnitStatics) -> f64 {
        match self {
            StaticRank::Srpt => u.srpt_priority(),
            StaticRank::Hr => u.hr_priority(),
            StaticRank::Hnr => u.hnr_priority(),
            // Custom ranks are installed wholesale at on_register.
            StaticRank::Custom => 0.0,
        }
    }
}

/// Deepest [`RankSet`]: ranks are `u32`, and six 64-way levels cover 2³⁶.
const MAX_DEPTH: usize = 6;

/// A set of ranks `0..n` as a hierarchical bitmap: level 0 has one bit per
/// rank, and bit `w` of each level above says "word `w` of the level below
/// is non-zero", up to a single root word. All levels share one allocation
/// (level 0 first). Two levels cover q = 4096, four cover 10⁶.
#[derive(Debug, Default)]
struct RankSet {
    words: Vec<u64>,
    /// Index in `words` of each level's first word; the root is the last.
    starts: [u32; MAX_DEPTH],
    depth: usize,
}

impl RankSet {
    /// The empty set over ranks `0..n`.
    fn new(n: usize) -> Self {
        let mut set = RankSet::default();
        set.reset(n);
        set
    }

    /// Empty the set and size it for ranks `0..n` (one word at least).
    fn reset(&mut self, n: usize) {
        assert!(u32::try_from(n).is_ok(), "ranks are u32");
        self.words.clear();
        self.depth = 0;
        let mut level = n.div_ceil(64).max(1);
        loop {
            self.starts[self.depth] = self.words.len() as u32;
            self.depth += 1;
            self.words.resize(self.words.len() + level, 0);
            if level == 1 {
                return;
            }
            level = level.div_ceil(64);
        }
    }

    fn contains(&self, rank: u32) -> bool {
        self.words[(rank >> 6) as usize] & (1 << (rank & 63)) != 0
    }

    /// Add `rank`; false if it was already present.
    fn insert(&mut self, rank: u32) -> bool {
        let mut i = rank;
        for (level, &start) in self.starts[..self.depth].iter().enumerate() {
            let word = &mut self.words[(start + (i >> 6)) as usize];
            let (before, bit) = (*word, 1 << (i & 63));
            *word |= bit;
            if before != 0 {
                // The levels above already know this word is non-zero.
                return level > 0 || before & bit == 0;
            }
            i >>= 6;
        }
        true
    }

    /// Remove `rank` (a no-op if absent).
    fn remove(&mut self, rank: u32) {
        let mut i = rank;
        for &start in &self.starts[..self.depth] {
            let word = &mut self.words[(start + (i >> 6)) as usize];
            *word &= !(1 << (i & 63));
            if *word != 0 {
                break;
            }
            i >>= 6;
        }
    }

    /// The smallest rank present.
    fn first(&self) -> Option<u32> {
        let mut i = 0;
        for &start in self.starts[..self.depth].iter().rev() {
            let word = self.words[(start + i) as usize];
            if word == 0 {
                // Only the root: a summary bit means a non-zero word below.
                return None;
            }
            i = (i << 6) | word.trailing_zeros();
        }
        Some(i)
    }
}

/// A static-priority scheduler parameterized by [`StaticRank`].
#[derive(Debug)]
pub struct StaticPolicy {
    rank: StaticRank,
    name: &'static str,
    custom: Vec<f64>,
    priorities: Vec<PriorityKey>,
    /// Units by descending `(priority, id)`, `order[r]` at rank `r`: equal
    /// priorities rank the higher id first, NaN last ([`PriorityKey`]).
    order: Vec<UnitId>,
    /// Inverse of `order`.
    rank_of: Vec<u32>,
    /// Ranks of the units to look at: every unit with a non-empty queue,
    /// plus those that drained since `select` last saw them in front.
    ready: RankSet,
    /// `priorities` changed since `order`/`rank_of` were built. `ready`
    /// stays in terms of the old ranks until [`StaticPolicy::rerank`].
    stale: bool,
    /// Bits set in `ready` since the last `select`, reported on the next one.
    pending_heap_ops: u64,
    /// Priority-formula evaluations since the last `select` (registration
    /// computes one per unit, overrides one each), reported on the next
    /// decision. A static policy evaluates its formula *between* scheduling
    /// points rather than per point — leaving this at zero (as earlier
    /// versions did) made HNR look like it never computes priorities in the
    /// §6 overhead comparison.
    pending_evals: u64,
}

impl StaticPolicy {
    /// A policy using the given ranking.
    pub fn new(rank: StaticRank) -> Self {
        let name = match rank {
            StaticRank::Srpt => "SRPT",
            StaticRank::Hr => "HR",
            StaticRank::Hnr => "HNR",
            StaticRank::Custom => "CUSTOM",
        };
        StaticPolicy {
            rank,
            name,
            custom: Vec::new(),
            priorities: Vec::new(),
            order: Vec::new(),
            rank_of: Vec::new(),
            ready: RankSet::new(0),
            stale: false,
            pending_heap_ops: 0,
            pending_evals: 0,
        }
    }

    /// A static policy with externally computed priorities — one per unit,
    /// in registration order. Used for policies whose ranking needs more
    /// than the aggregate [`UnitStatics`], such as Chain's progress-chart
    /// slopes (Babcock et al., SIGMOD'03; the paper's Table 3).
    pub fn custom(name: &'static str, priorities: Vec<f64>) -> Self {
        StaticPolicy {
            name,
            custom: priorities,
            ..Self::new(StaticRank::Custom)
        }
    }

    /// Shortest-remaining-processing-time.
    pub fn srpt() -> Self {
        Self::new(StaticRank::Srpt)
    }

    /// Highest Rate.
    pub fn hr() -> Self {
        Self::new(StaticRank::Hr)
    }

    /// Highest Normalized Rate.
    pub fn hnr() -> Self {
        Self::new(StaticRank::Hnr)
    }

    /// Override one unit's priority (used by the engine for shared-operator
    /// groups, whose §7 priority is not a plain segment formula; and by the
    /// adaptive extension when estimates drift).
    ///
    /// Counts one priority evaluation per call and one ready-set operation
    /// per re-prioritised ready unit; an unchanged value leaves the ranks
    /// alone. This is the one path whose counted ops differ from the lazy
    /// max-heap this structure replaced, which kept a re-prioritised unit's
    /// old entry until it surfaced, charged a pop for it, and grew by an
    /// entry per call. No pinned exhibit or trace charges overhead on a run
    /// that re-prioritises.
    pub fn set_priority(&mut self, unit: UnitId, priority: f64) {
        self.pending_evals += 1;
        let rank = self.rank_of.get(unit as usize);
        let ready = rank.is_some_and(|&r| self.ready.contains(r));
        self.pending_heap_ops += u64::from(ready);
        let key = PriorityKey(priority);
        if key != self.priorities[unit as usize] {
            self.priorities[unit as usize] = key;
            self.stale = true;
        }
    }

    /// The current priority of a unit.
    pub fn priority(&self, unit: UnitId) -> f64 {
        self.priorities[unit as usize].0
    }

    /// Rebuild `order`/`rank_of` from `priorities` and carry the ready
    /// units over to their new ranks.
    #[cold]
    fn rerank(&mut self) {
        let mut ready = Vec::new();
        while let Some(r) = self.ready.first() {
            self.ready.remove(r);
            ready.push(self.order[r as usize]);
        }
        let n = self.priorities.len();
        // A surviving order is kept: it is nearly sorted already.
        if self.order.len() != n {
            self.order = (0..n as UnitId).collect();
        }
        let key = |&u: &UnitId| std::cmp::Reverse((self.priorities[u as usize], u));
        self.order.sort_unstable_by_key(key);
        self.rank_of.resize(n, 0);
        for (r, &u) in self.order.iter().enumerate() {
            self.rank_of[u as usize] = r as u32;
        }
        self.ready.reset(n);
        for u in ready {
            self.ready.insert(self.rank_of[u as usize]);
        }
        self.stale = false;
    }
}

impl Policy for StaticPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        self.priorities = match self.rank {
            StaticRank::Custom => {
                assert_eq!(
                    self.custom.len(),
                    units.len(),
                    "custom priorities must cover every unit"
                );
                self.custom.iter().map(|&p| PriorityKey(p)).collect()
            }
            rank => {
                // One formula evaluation per unit — the static policy's
                // entire priority-computation budget, spent up front.
                self.pending_evals += units.len() as u64;
                units
                    .iter()
                    .map(|u| PriorityKey(rank.priority(u)))
                    .collect()
            }
        };
        // Nothing is ready and nothing is ranked until the first enqueue.
        self.rank_of.clear();
        self.ready.reset(0);
        self.stale = true;
    }

    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        // Re-evaluate the rank formula for this unit only. Custom ranks have
        // no formula here — their owner re-installs via `set_priority`.
        if self.rank != StaticRank::Custom {
            self.set_priority(unit, self.rank.priority(statics));
        }
    }

    fn memory_footprint(&self) -> Option<usize> {
        Some(
            self.priorities.capacity() * size_of::<PriorityKey>()
                + self.order.capacity() * size_of::<UnitId>()
                + self.rank_of.capacity() * size_of::<u32>()
                + self.ready.words.capacity() * size_of::<u64>()
                + self.custom.capacity() * size_of::<f64>(),
        )
    }

    fn on_enqueue(&mut self, unit: UnitId, _tuple: TupleId, _arrival: Nanos, _now: Nanos) {
        if self.stale {
            self.rerank();
        }
        if self.ready.insert(self.rank_of[unit as usize]) {
            self.pending_heap_ops += 1;
        }
    }

    fn select(&mut self, queues: &dyn QueueView, _now: Nanos) -> Option<Selection> {
        if self.stale {
            self.rerank();
        }
        let mut ops = 0;
        let mut heap_ops = 0;
        loop {
            let rank = self.ready.first()?;
            let unit = self.order[rank as usize];
            ops += 1;
            heap_ops += 1;
            if queues.len(unit) == 0 {
                // Drained since it was enqueued: clear it and look further.
                self.ready.remove(rank);
                heap_ops += 1;
                continue;
            }
            let stats = SchedStats {
                candidates_scanned: ops,
                priority_evals: std::mem::take(&mut self.pending_evals),
                comparisons: ops,
                heap_ops: heap_ops + std::mem::take(&mut self.pending_heap_ops),
                ..SchedStats::default()
            };
            return Some(Selection::one(unit, ops).with_stats(stats));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::{drain_order, MockQueues};
    use hcq_common::det;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    /// Example 1 units: Q1 (c=5ms, s=1.0), Q2 (c=2ms, s=0.33).
    fn example1() -> Vec<UnitStatics> {
        vec![
            UnitStatics::new(1.0, ms(5), ms(5)),
            UnitStatics::new(0.33, ms(2), ms(2)),
        ]
    }

    #[test]
    fn hr_prefers_q1_hnr_prefers_q2() {
        let enqueues = [(0, 0, 0), (1, 1, 0)];
        let hr = drain_order(&mut StaticPolicy::hr(), &example1(), &enqueues);
        assert_eq!(hr, vec![0, 1], "HR runs the high-output-rate query first");
        let hnr = drain_order(&mut StaticPolicy::hnr(), &example1(), &enqueues);
        assert_eq!(hnr, vec![1, 0], "HNR runs the low-T query first");
    }

    #[test]
    fn srpt_orders_by_ideal_time() {
        let units = vec![
            UnitStatics::new(0.2, ms(9), ms(10)),
            UnitStatics::new(0.9, ms(2), ms(2)),
            UnitStatics::new(0.5, ms(4), ms(5)),
        ];
        let order = drain_order(
            &mut StaticPolicy::srpt(),
            &units,
            &[(0, 0, 0), (1, 1, 0), (2, 2, 0)],
        );
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn deterministic_workload_makes_all_three_agree() {
        // §3.5: all selectivities 1 ⇒ HR ≡ HNR ≡ SRPT ordering.
        let units: Vec<UnitStatics> = [7u64, 3, 11, 5]
            .iter()
            .map(|&c| UnitStatics::new(1.0, ms(c), ms(c)))
            .collect();
        let enq: Vec<(UnitId, u64, u64)> = (0..4).map(|i| (i as UnitId, i as u64, 0)).collect();
        let srpt = drain_order(&mut StaticPolicy::srpt(), &units, &enq);
        let hr = drain_order(&mut StaticPolicy::hr(), &units, &enq);
        let hnr = drain_order(&mut StaticPolicy::hnr(), &units, &enq);
        assert_eq!(srpt, vec![1, 3, 0, 2]);
        assert_eq!(hr, srpt);
        assert_eq!(hnr, srpt);
    }

    #[test]
    fn heap_handles_refill() {
        // Unit drains, then refills: must be selectable again.
        let mut p = StaticPolicy::hnr();
        let units = example1();
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        q.push(0, TupleId::new(0), Nanos::ZERO);
        p.on_enqueue(0, TupleId::new(0), Nanos::ZERO, Nanos::ZERO);
        let sel = p.select(&q, Nanos::ZERO).unwrap();
        assert_eq!(sel.units, vec![0]);
        q.pop(0);
        assert!(p.select(&q, Nanos::ZERO).is_none());
        q.push(0, TupleId::new(1), Nanos::ZERO);
        p.on_enqueue(0, TupleId::new(1), Nanos::ZERO, Nanos::ZERO);
        assert_eq!(p.select(&q, Nanos::ZERO).unwrap().units, vec![0]);
    }

    #[test]
    fn priority_override_takes_effect() {
        let mut p = StaticPolicy::hnr();
        p.on_register(&example1());
        // Boost Q1 above Q2 manually (as the shared-operator path does).
        p.set_priority(0, 1.0);
        let mut q = MockQueues::new(2);
        for u in 0..2 {
            q.push(u, TupleId::new(u as u64), Nanos::ZERO);
            p.on_enqueue(u, TupleId::new(u as u64), Nanos::ZERO, Nanos::ZERO);
        }
        assert_eq!(p.select(&q, Nanos::ZERO).unwrap().units, vec![0]);
        assert_eq!(p.priority(0), 1.0);
    }

    #[test]
    fn priority_evals_are_itemized_not_zero() {
        // Satellite of the §6 cost comparison: HNR evaluates one formula per
        // unit at registration and one per override; those evals must show
        // up in SchedStats instead of reading 0.00 forever.
        let mut p = StaticPolicy::hnr();
        p.on_register(&example1());
        let mut q = MockQueues::new(2);
        for u in 0..2 {
            q.push(u, TupleId::new(u as u64), Nanos::ZERO);
            p.on_enqueue(u, TupleId::new(u as u64), Nanos::ZERO, Nanos::ZERO);
        }
        let first = p.select(&q, Nanos::ZERO).unwrap();
        assert_eq!(
            first.stats.priority_evals, 2,
            "one eval per registered unit"
        );
        q.pop(first.units[0]);
        // No new evals between points: the next decision reports zero.
        let second = p.select(&q, Nanos::ZERO).unwrap();
        assert_eq!(second.stats.priority_evals, 0);
        // A statics update re-evaluates exactly one formula.
        p.on_statics_update(0, &UnitStatics::new(0.9, ms(1), ms(1)));
        q.push(0, TupleId::new(9), Nanos::ZERO);
        p.on_enqueue(0, TupleId::new(9), Nanos::ZERO, Nanos::ZERO);
        let third = p.select(&q, Nanos::ZERO).unwrap();
        assert_eq!(third.stats.priority_evals, 1);
        assert!(p.memory_footprint().unwrap() > 0);
    }

    #[test]
    fn statics_update_reorders_rank_policies() {
        let mut p = StaticPolicy::srpt();
        p.on_register(&example1());
        let mut q = MockQueues::new(2);
        for u in 0..2 {
            q.push(u, TupleId::new(u as u64), Nanos::ZERO);
            p.on_enqueue(u, TupleId::new(u as u64), Nanos::ZERO, Nanos::ZERO);
        }
        // SRPT prefers unit 1 (T=2ms); re-estimate unit 0 shorter.
        p.on_statics_update(0, &UnitStatics::new(1.0, ms(1), ms(1)));
        assert_eq!(p.select(&q, Nanos::ZERO).unwrap().units, vec![0]);
    }

    #[test]
    fn override_while_queued_reorders() {
        let mut p = StaticPolicy::hnr();
        p.on_register(&example1());
        let mut q = MockQueues::new(2);
        for u in 0..2 {
            q.push(u, TupleId::new(u as u64), Nanos::ZERO);
            p.on_enqueue(u, TupleId::new(u as u64), Nanos::ZERO, Nanos::ZERO);
        }
        // Initially Q2 (unit 1) wins under HNR; demote it below Q1.
        p.set_priority(1, 1e-30);
        assert_eq!(p.select(&q, Nanos::ZERO).unwrap().units, vec![0]);
    }

    /// Satellite of the ready-bitmap replace: re-prioritising ready units
    /// used to leave one stale heap entry per call. With one bit per unit
    /// the footprint cannot move, and the front is always the argmax.
    #[test]
    fn repeated_statics_updates_keep_footprint_and_argmax() {
        const UNITS: usize = 70; // crosses a 64-rank word
        let statics = |round: u64, u: usize| {
            // A few priority classes (ties are the norm), drifting per round;
            // every fourth unit never changes (the no-op path).
            let h = det::mix2(if u.is_multiple_of(4) { 0 } else { round }, u as u64);
            UnitStatics::new(0.25 * (1 + h % 4) as f64, ms(1 + (h >> 8) % 3), ms(4))
        };
        let mut p = StaticPolicy::hnr();
        p.on_register(&(0..UNITS).map(|u| statics(0, u)).collect::<Vec<_>>());
        let mut q = MockQueues::new(UNITS);
        let mut next = 0;
        let mut feed = |p: &mut StaticPolicy, q: &mut MockQueues, u: UnitId| {
            q.push(u, TupleId::new(next), Nanos::ZERO);
            p.on_enqueue(u, TupleId::new(next), Nanos::ZERO, Nanos::ZERO);
            next += 1;
        };
        for u in 0..UNITS as UnitId {
            feed(&mut p, &mut q, u);
        }
        let footprint = p.memory_footprint();
        for round in 1..=10_000u64 {
            let now: Vec<UnitStatics> = (0..UNITS).map(|u| statics(round, u)).collect();
            for (u, s) in now.iter().enumerate() {
                p.on_statics_update(u as UnitId, s);
            }
            let expect = q
                .nonempty()
                .iter()
                .map(|&u| (PriorityKey(now[u as usize].hnr_priority()), u))
                .max()
                .unwrap();
            let sel = p.select(&q, Nanos::ZERO).unwrap();
            assert_eq!(sel.units, vec![expect.1], "round {round}");
            q.pop(expect.1);
            // The first ten units are permanently ready; the rest drain and
            // refill at random, so emptied units sit in the set too.
            let refill = det::mix2(round, 99) % UNITS as u64;
            for u in [expect.1, refill as UnitId] {
                if q.len(u) == 0 && (u < 10 || u == refill as UnitId) {
                    feed(&mut p, &mut q, u);
                }
            }
        }
        assert_eq!(p.memory_footprint(), footprint);
    }

    #[test]
    fn rank_set_matches_btreeset_at_level_boundaries() {
        use std::collections::BTreeSet;
        for (n, depth) in [
            (0usize, 1),
            (1, 1),
            (63, 1),
            (64, 1),
            (65, 2),
            (500, 2),
            (4095, 2),
            (4096, 2),
            (4097, 3),
            (262_145, 4),
            (1_000_000, 4),
        ] {
            let mut set = RankSet::new(n);
            assert_eq!(set.depth, depth, "n = {n}");
            assert_eq!(set.first(), None, "empty, n = {n}");
            if n == 0 {
                continue;
            }
            let mut model = BTreeSet::new();
            for step in 0..4_000u64 {
                let h = det::mix3(n as u64, step, 7);
                // Half the draws land on a word or level edge.
                let edges = [0, 63, 64, 65, 4095, 4096, 4097, 262_143, 262_144];
                let rank = if h.is_multiple_of(2) {
                    edges[(h >> 8) as usize % edges.len()].min(n - 1)
                } else {
                    (h >> 8) as usize % n
                } as u32;
                if (h >> 4).is_multiple_of(3) {
                    set.remove(rank);
                    model.remove(&rank);
                } else {
                    assert_eq!(set.insert(rank), model.insert(rank), "n = {n}, rank {rank}");
                }
                assert_eq!(set.contains(rank), model.contains(&rank));
                assert_eq!(set.first(), model.first().copied(), "n = {n}, step {step}");
            }
            // Drain in order, then rebuild under a re-ranking (reversal): the
            // members come back, and a reset set is empty at every level.
            let mut drained = Vec::new();
            while let Some(r) = set.first() {
                set.remove(r);
                drained.push(r);
            }
            assert!(drained.iter().copied().eq(model.iter().copied()));
            assert!(set.words.iter().all(|&w| w == 0), "n = {n}");
            set.reset(n);
            for &r in &drained {
                assert!(set.insert(n as u32 - 1 - r));
            }
            for &r in drained.iter().rev() {
                assert_eq!(set.first(), Some(n as u32 - 1 - r));
                set.remove(n as u32 - 1 - r);
            }
            assert_eq!(set.first(), None);
        }
    }
}
