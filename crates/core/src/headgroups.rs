//! The wait-linear policies: LSF (§4.1), BSD (§4.2.2) and the ℓp extension.
//!
//! Each runs the unit maximizing `wait_term(W_x) · factor_x`, where
//! `W_x = now − a_x` is the wait of unit x's head tuple and `factor_x` is
//! static; a [`WaitRank`] names the two terms. Because `W` advances
//! continuously, the naive scheduler re-evaluates every ready unit at every
//! scheduling point ([`scan_argmax`]) — the O(q) cost that §6's clustering
//! ([`crate::cluster`]) exists to remove, approximately. [`WaitPolicy`]
//! selects exactly what that scan selects, evaluating one candidate per
//! distinct head *arrival instant* instead: units whose heads arrived at the
//! same instant share one `W`, hence one `wait_term(W)`, and because IEEE
//! rounding is monotone, multiplying by one finite non-negative `wait_term`
//! preserves the order of the factors (up to ties). So a group's best unit
//! is its first member under (factor descending, id ascending), whatever
//! `now` is.
//!
//! The units are ranked once in that order (`±0` equal), and each group
//! keeps the ranks of its members as a sparse bitmap (`RankBlocks`: its
//! non-empty 64-rank blocks) and caches its top unit, the top's factor and
//! the runner-up's factor in dense columns; `select` makes one pass over the
//! groups. A join or a shed sets or clears one bit of one block, found at
//! the group's top block or by binary search over at most ⌈q/64⌉ blocks,
//! which shift only when a block appears or empties. A product can tie
//! across groups (equal priorities) and within one (equal factors, `W = 0`,
//! `Φ = 0`, neighbouring floats that round to one product): the pass keeps
//! the lowest tied top id, and a group whose top ties the best and whose
//! runner-up ties its top is then scanned for a lower tied id. The result
//! is the unit [`scan_argmax`] returns, and the charge is the scan's:
//! `ops_counted = 2·|ready|`, itemized `{n, n, n}` — the §9.2 cost of naive
//! BSD that Fig. 14 and `ext_overhead` measure, not this kernel's work.
//!
//! The kernel learns where heads are only from the callbacks a policy
//! already receives: an enqueue on a unit it does not group, a shed, and its
//! own selection (which the engine pops). Those units are marked dirty and
//! re-read from the [`QueueView`] (`len` and the head column) at the next
//! `select`. When the grouped count still differs from `nonempty().len()`,
//! someone enqueued without telling the policy (a re-registration with
//! tuples pending, a test that never calls `on_enqueue`), and the groups
//! are rebuilt from the view. That check cannot see a grouped unit whose
//! head moved while its queue stayed non-empty, which only a dequeue
//! outside the [`Policy`] contract (neither a returned selection nor a
//! shed) can cause; debug builds catch it by asserting every selection
//! against the scan.
//!
//! A NaN or infinite factor, or a `wait_term` that is NaN, infinite or
//! negative at some group's wait, makes the point fall back to
//! [`scan_argmax`], whose order-dependent NaN rule only a scan defines.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use hcq_common::{Nanos, TupleId};

use crate::policy::{Policy, QueueView, Selection, UnitId};
use crate::soa::{naive_charge, scan_argmax};
use crate::unit::UnitStatics;

/// `group_of` entry of a unit that is in no group.
const NONE: u32 = u32::MAX;

/// One group's member ranks as a sparse bitmap: its non-empty 64-rank
/// blocks as `(block, bits)` pairs in descending block order, so the lowest
/// rank (the group's top) is in the last pair. Rank `r` is bit `r % 64` of
/// block `r / 64`.
#[derive(Debug)]
struct RankBlocks(Vec<(u32, u64)>);

impl RankBlocks {
    /// The set `{rank}`, in an allocation of one block.
    fn one(rank: u32) -> Self {
        RankBlocks(vec![(rank >> 6, 1 << (rank & 63))])
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The slot of `block`, or where it would be inserted. The last block
    /// (the top's) is tried first.
    #[inline]
    fn find(&self, block: u32) -> Result<usize, usize> {
        let n = self.0.len();
        match self.0.last() {
            Some(&(last, _)) if last >= block => {
                if last == block {
                    Ok(n - 1)
                } else {
                    Err(n)
                }
            }
            _ => {
                let i = self.0.partition_point(|&(b, _)| b > block);
                if i < n && self.0[i].0 == block {
                    Ok(i)
                } else {
                    Err(i)
                }
            }
        }
    }

    fn insert(&mut self, rank: u32) {
        let (block, bit) = (rank >> 6, 1 << (rank & 63));
        match self.find(block) {
            Ok(i) => self.0[i].1 |= bit,
            Err(i) => self.0.insert(i, (block, bit)),
        }
    }

    /// Remove a member `rank`, dropping its block if it empties.
    fn remove(&mut self, rank: u32) {
        let i = self.find(rank >> 6).expect("removed ranks are members");
        let bits = &mut self.0[i].1;
        debug_assert!(*bits & 1 << (rank & 63) != 0, "removed ranks are members");
        *bits &= !(1 << (rank & 63));
        if *bits == 0 {
            self.0.remove(i);
        }
    }

    /// The lowest rank and the second lowest, if any; panics when empty.
    #[inline]
    fn top_two(&self) -> (u32, Option<u32>) {
        let lowest = |(block, bits): (u32, u64)| block << 6 | bits.trailing_zeros();
        let (&(block, bits), rest) = self.0.split_last().expect("groups are non-empty");
        let below = bits & (bits - 1);
        let runner = if below != 0 {
            Some(lowest((block, below)))
        } else {
            rest.last().map(|&b| lowest(b))
        };
        (lowest((block, bits)), runner)
    }

    /// Every member rank (blocks descending, ranks ascending within one).
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().flat_map(|&(block, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let r = bits.trailing_zeros();
                    bits &= bits - 1;
                    block << 6 | r
                })
            })
        })
    }
}

/// The instant map's hasher: one 64×64 → 128-bit multiply by a fixed odd
/// constant, its halves folded by xor, so both the bucket index (low bits)
/// and the map's control tag (top bits) depend on every bit of the instant.
/// It has no per-run key, so the map's capacity, which hash-dependent
/// tombstones decide, and with it [`Policy::memory_footprint`], repeats
/// from run to run. Instants crafted to collide would cost a lookup
/// O(groups) ≤ O(ready units), the scan's own price.
#[derive(Debug, Default)]
struct InstantHasher(u64);

impl Hasher for InstantHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// Which wait-linear priority `factor · wait_term(W)` to use.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WaitRank {
    /// Balance Slowdown (§4.2.2), the ℓ2 norm of slowdowns: `Φ·W` with
    /// `Φ = S/(C̄·T²)` (Equation 6), the unit's static normalized rate over
    /// `T` times the current wait of its head tuple.
    #[default]
    Bsd,
    /// Longest Stretch First (§4.1), the greedy maximum-slowdown policy from
    /// Acharya & Muthukrishnan's broadcast scheduling work: the *current
    /// slowdown* `W/T` of the head tuple (Equation 5). `W` grows at slope
    /// `1/T`, and the slopes differ across units, so the argmax can flip
    /// between any two scheduling points. A zero `T` would make the slope
    /// `∞` and let one degenerate unit capture every point (and `0/0 = NaN`
    /// at zero wait would poison the argmax); [`UnitStatics`] clamps `T`
    /// (and `C̄`) to [`crate::unit::MIN_TIME_NS`], so every slope is finite.
    Lsf,
    /// The ℓp norm of slowdowns at exponent `p ≥ 1`, an extension beyond
    /// the paper (which evaluates only p = 2): §4.2.2's derivation of BSD —
    /// compare two execution orders, drop lower-order terms — run for the
    /// general ℓp norm (Bansal & Pruhs, "server scheduling in the ℓp norm")
    /// gives `V = (S/(C̄·T^p))·W^(p−1)`. `p = 1` drops the wait term
    /// (`W⁰ = 1`, even at `W = 0`) and is exactly HNR's order; `p = 2` is
    /// BSD; as `p → ∞` the `W/T` ratio dominates and the rule approaches
    /// LSF. The `ext_lp` exhibit sweeps `p`, trading average-case against
    /// worst-case with the paper's three policies as anchors.
    Lp(f64),
}

impl WaitRank {
    /// The unit's static factor.
    fn factor(self, u: &UnitStatics) -> f64 {
        match self {
            WaitRank::Bsd => u.bsd_static(),
            WaitRank::Lsf => u.lsf_slope(),
            WaitRank::Lp(p) => u.selectivity / (u.avg_cost_ns * u.ideal_time_ns.powf(p)),
        }
    }
}

/// A wait-linear policy: the exact argmax of `factor · wait_term(W)` over
/// the ready units, ready units grouped by head-arrival instant.
#[derive(Debug, Default)]
pub struct WaitPolicy {
    rank: WaitRank,
    /// The static factor per unit.
    factor: Vec<f64>,
    /// How many factors are NaN or infinite; while any are, `select` scans.
    nonfinite: usize,
    /// Factors changed since `order` was built.
    stale: bool,
    /// Units by (factor descending, id ascending), and its inverse.
    order: Vec<UnitId>,
    rank_of: Vec<u32>,
    /// Group index per unit, [`NONE`] when ungrouped.
    group_of: Vec<u32>,
    /// Units to re-read from the view at the next `select`.
    dirty: Vec<UnitId>,
    is_dirty: Vec<bool>,
    /// Per group (dense, parallel): head instant, top unit, the top's
    /// factor, the runner-up's factor (NaN for a single member), and the
    /// members' ranks.
    keys: Vec<Nanos>,
    top: Vec<UnitId>,
    top_factor: Vec<f64>,
    runner_factor: Vec<f64>,
    ranks: Vec<RankBlocks>,
    /// Head instant → group index.
    index: HashMap<Nanos, u32, BuildHasherDefault<InstantHasher>>,
    /// Units in groups.
    members: usize,
    /// Rebuilds from the view since construction.
    rebuilds: u64,
}

impl WaitPolicy {
    fn new(rank: WaitRank) -> Self {
        WaitPolicy {
            rank,
            ..WaitPolicy::default()
        }
    }

    /// Balance Slowdown.
    pub fn bsd() -> Self {
        Self::new(WaitRank::Bsd)
    }

    /// Longest Stretch First.
    pub fn lsf() -> Self {
        Self::new(WaitRank::Lsf)
    }

    /// The ℓp slowdown policy; panics unless `p` is finite and `≥ 1`.
    pub fn lp(p: f64) -> Self {
        assert!(p.is_finite() && p >= 1.0, "p must be ≥ 1");
        Self::new(WaitRank::Lp(p))
    }

    /// Registration: install one factor per unit and forget every group.
    /// The ranks are built at the next `select`.
    fn reset(&mut self, factor: Vec<f64>) {
        let n = factor.len();
        self.clear_groups();
        self.nonfinite = factor.iter().filter(|f| !f.is_finite()).count();
        self.factor = factor;
        self.stale = true;
        self.group_of.clear();
        self.group_of.resize(n, NONE);
        self.dirty.clear();
        self.is_dirty.clear();
        self.is_dirty.resize(n, false);
    }

    fn clear_groups(&mut self) {
        for rank in self.ranks.iter().flat_map(RankBlocks::iter) {
            self.group_of[self.order[rank as usize] as usize] = NONE;
        }
        self.keys.clear();
        self.top.clear();
        self.top_factor.clear();
        self.runner_factor.clear();
        self.ranks.clear();
        self.index.clear();
        self.members = 0;
    }

    /// One unit's static factor.
    pub fn factor(&self, unit: UnitId) -> f64 {
        self.factor[unit as usize]
    }

    /// Override one unit's static factor, decoupled from its statics
    /// (shared-operator groups, adaptive re-estimation). The units are
    /// re-ranked once, at the next `select`, however many factors change
    /// before it.
    pub fn set_factor(&mut self, unit: UnitId, factor: f64) {
        let old = std::mem::replace(&mut self.factor[unit as usize], factor);
        if old.to_bits() != factor.to_bits() {
            self.nonfinite =
                self.nonfinite + usize::from(!factor.is_finite()) - usize::from(!old.is_finite());
            self.stale = true;
        }
    }

    #[inline]
    fn mark(&mut self, unit: UnitId) {
        let flag = &mut self.is_dirty[unit as usize];
        if !*flag {
            *flag = true;
            self.dirty.push(unit);
        }
    }

    /// Times the ready units were regrouped from the queue view because the
    /// callbacks had not announced all of them (a re-registration with
    /// tuples pending does that once).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Rank the units by (factor descending, id ascending), `-0.0` equal to
    /// `0.0`, and regroup whatever was grouped under the new ranks.
    #[cold]
    fn rerank(&mut self) {
        let grouped: Vec<(UnitId, Nanos)> = (0..self.ranks.len())
            .flat_map(|g| self.ranks[g].iter().map(move |r| (r, g)))
            .map(|(r, g)| (self.order[r as usize], self.keys[g]))
            .collect();
        self.clear_groups();
        let n = self.factor.len();
        let key = |u: UnitId| {
            let f = self.factor[u as usize];
            if f == 0.0 {
                0.0
            } else {
                f
            }
        };
        let mut order: Vec<UnitId> = (0..n as UnitId).collect();
        order.sort_unstable_by(|&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b)));
        self.rank_of.resize(n, 0);
        for (r, &u) in order.iter().enumerate() {
            self.rank_of[u as usize] = r as u32;
        }
        self.order = order;
        for (unit, at) in grouped {
            self.join(unit, at);
        }
        self.stale = false;
    }

    /// Recompute group `g`'s cached top, top factor and runner-up factor.
    fn refresh(&mut self, g: usize) {
        let (top_rank, runner) = self.ranks[g].top_two();
        let top = self.order[top_rank as usize];
        self.top[g] = top;
        self.top_factor[g] = self.factor[top as usize];
        self.runner_factor[g] =
            runner.map_or(f64::NAN, |r| self.factor[self.order[r as usize] as usize]);
    }

    /// Put an ungrouped `unit` whose head arrived `at` into its group.
    fn join(&mut self, unit: UnitId, at: Nanos) {
        let rank = self.rank_of[unit as usize];
        let g = match self.index.entry(at) {
            Entry::Occupied(entry) => {
                let g = *entry.get() as usize;
                self.ranks[g].insert(rank);
                self.refresh(g);
                g
            }
            Entry::Vacant(entry) => {
                entry.insert(self.keys.len() as u32);
                self.keys.push(at);
                self.top.push(unit);
                self.top_factor.push(self.factor[unit as usize]);
                self.runner_factor.push(f64::NAN);
                self.ranks.push(RankBlocks::one(rank));
                self.keys.len() - 1
            }
        };
        self.group_of[unit as usize] = g as u32;
        self.members += 1;
    }

    /// Take a grouped `unit` out of its group, dropping the group if empty.
    fn leave(&mut self, unit: UnitId) {
        let g = std::mem::replace(&mut self.group_of[unit as usize], NONE) as usize;
        self.members -= 1;
        self.ranks[g].remove(self.rank_of[unit as usize]);
        if !self.ranks[g].is_empty() {
            return self.refresh(g);
        }
        // Swap-remove the group; the last one takes index `g`.
        self.index.remove(&self.keys[g]);
        self.keys.swap_remove(g);
        self.top.swap_remove(g);
        self.top_factor.swap_remove(g);
        self.runner_factor.swap_remove(g);
        self.ranks.swap_remove(g);
        if g < self.keys.len() {
            self.index.insert(self.keys[g], g as u32);
            for r in self.ranks[g].iter() {
                self.group_of[self.order[r as usize] as usize] = g as u32;
            }
        }
    }

    /// Re-rank after factor changes, re-read every dirty unit, and rebuild
    /// from the view if the groups miss a ready unit.
    fn sync(&mut self, queues: &dyn QueueView, ready: &[UnitId], heads: &[Nanos]) {
        if self.stale {
            self.rerank();
        }
        while let Some(unit) = self.dirty.pop() {
            self.is_dirty[unit as usize] = false;
            let head = (queues.len(unit) > 0).then(|| heads[unit as usize]);
            let g = self.group_of[unit as usize];
            if g != NONE {
                if head == Some(self.keys[g as usize]) {
                    continue;
                }
                self.leave(unit);
            }
            if let Some(at) = head {
                self.join(unit, at);
            }
        }
        if self.members != ready.len() {
            self.rebuilds += 1;
            self.clear_groups();
            for &unit in ready {
                self.join(unit, heads[unit as usize]);
            }
        }
    }

    /// The winning unit over the groups, or `None` when there are none or
    /// `wait_term` is NaN, infinite or negative at some group's wait. One
    /// pass finds the best priority and a group reaching it; only a tie
    /// (another group reaching it, or that group's runner-up) takes a second
    /// pass for the lowest tied id.
    #[inline]
    fn argmax(&self, now: Nanos, wait_term: &impl Fn(f64) -> f64) -> Option<UnitId> {
        let term_of = |g: usize| wait_term(now.saturating_since(self.keys[g]).as_nanos() as f64);
        let (mut best, mut best_g, mut best_term, mut tied) = (f64::NEG_INFINITY, 0, 0.0, false);
        for (g, &factor) in self.top_factor.iter().enumerate() {
            let term = term_of(g);
            if !(0.0..=f64::MAX).contains(&term) {
                return None;
            }
            let p = term * factor;
            if p >= best {
                tied = p == best;
                (best, best_g, best_term) = (p, g, term);
            }
        }
        if self.keys.is_empty() {
            return None;
        }
        if !tied && best_term * self.runner_factor[best_g] != best {
            return Some(self.top[best_g]);
        }
        let mut best_u = NONE;
        for g in 0..self.keys.len() {
            let term = term_of(g);
            if term * self.top_factor[g] != best {
                continue;
            }
            best_u = best_u.min(self.top[g]);
            if term * self.runner_factor[g] == best {
                // Equal products below the top: the lowest tied id wins.
                for r in self.ranks[g].iter() {
                    let u = self.order[r as usize];
                    if u < best_u && term * self.factor[u as usize] == best {
                        best_u = u;
                    }
                }
            }
        }
        Some(best_u)
    }

    /// The exact argmax of `wait_term(now − head) · factor` over the ready
    /// units, ties toward the lower id: [`scan_argmax`]'s unit, charge and
    /// itemization. The selected unit is re-read at the next call.
    #[inline]
    fn select_by(
        &mut self,
        queues: &dyn QueueView,
        now: Nanos,
        wait_term: impl Fn(f64) -> f64,
    ) -> Option<Selection> {
        let (ready, heads) = (queues.nonempty(), queues.head_arrivals());
        self.sync(queues, ready, heads);
        let grouped = if self.nonfinite == 0 {
            self.argmax(now, &wait_term)
        } else {
            None
        };
        let selection = match grouped {
            Some(unit) => naive_charge(unit, ready.len()),
            None => scan_argmax(ready, heads, &self.factor, now, &wait_term)?,
        };
        debug_assert_eq!(
            Some(&selection),
            scan_argmax(ready, heads, &self.factor, now, &wait_term).as_ref(),
            "grouped argmax diverged from the scan"
        );
        self.mark(selection.units[0]);
        Some(selection)
    }
}

impl Policy for WaitPolicy {
    fn name(&self) -> &'static str {
        match self.rank {
            WaitRank::Bsd => "BSD",
            WaitRank::Lsf => "LSF",
            WaitRank::Lp(_) => "LP",
        }
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        let rank = self.rank;
        self.reset(units.iter().map(|u| rank.factor(u)).collect());
    }

    /// Only a unit outside every group can have a new head (a non-empty
    /// queue keeps its front).
    #[inline]
    fn on_enqueue(&mut self, unit: UnitId, _tuple: TupleId, _arrival: Nanos, _now: Nanos) {
        if self.group_of[unit as usize] == NONE {
            self.mark(unit);
        }
    }

    /// The unit's tail left; it may have emptied.
    fn on_shed(&mut self, unit: UnitId, _tuple: TupleId) {
        self.mark(unit);
    }

    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.set_factor(unit, self.rank.factor(statics));
    }

    /// Heap bytes held (capacities, as the allocator committed them).
    fn memory_footprint(&self) -> Option<usize> {
        use std::mem::size_of;
        let per_unit = self.factor.capacity() * size_of::<f64>()
            + (self.order.capacity() + self.rank_of.capacity()) * size_of::<u32>()
            + self.group_of.capacity() * size_of::<u32>()
            + self.dirty.capacity() * size_of::<UnitId>()
            + self.is_dirty.capacity();
        let per_group = self.keys.capacity() * size_of::<Nanos>()
            + self.top.capacity() * size_of::<UnitId>()
            + (self.top_factor.capacity() + self.runner_factor.capacity()) * size_of::<f64>()
            + self.ranks.capacity() * size_of::<RankBlocks>()
            + self.ranks.iter().map(|r| r.0.capacity()).sum::<usize>() * size_of::<(u32, u64)>()
            + self.index.capacity() * (size_of::<(Nanos, u32)>() + 1);
        Some(per_unit + per_group)
    }

    fn select(&mut self, queues: &dyn QueueView, now: Nanos) -> Option<Selection> {
        match self.rank {
            WaitRank::Bsd | WaitRank::Lsf => self.select_by(queues, now, |wait| wait),
            WaitRank::Lp(p) => {
                let w_exp = p - 1.0;
                // W^0 = 1 even at W = 0 (p = 1 must reduce to pure HNR order).
                self.select_by(queues, now, |wait| {
                    if w_exp == 0.0 {
                        1.0
                    } else {
                        wait.powf(w_exp)
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::drain_order;
    use crate::statics::StaticPolicy;
    use crate::UnitQueues;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    fn push(q: &mut UnitQueues<(TupleId, Nanos)>, p: &mut WaitPolicy, unit: UnitId, at_ms: u64) {
        let at = ms(at_ms);
        q.push(unit, (TupleId::new(u64::from(unit)), at));
        p.on_enqueue(unit, TupleId::new(u64::from(unit)), at, at);
    }

    proptest! {
        /// A group's bitmap holds the set a `BTreeSet` holds, block by block
        /// in descending order, through inserts and removes over 8 blocks.
        #[test]
        fn rank_blocks_are_a_rank_set(
            ops in proptest::collection::vec((any::<bool>(), 0u32..512), 1..300)
        ) {
            let (mut set, mut reference) = (RankBlocks(Vec::new()), BTreeSet::new());
            for (insert, rank) in ops {
                if insert || reference.is_empty() {
                    set.insert(rank);
                    reference.insert(rank);
                } else {
                    // A member: the first at or above `rank`, else the lowest.
                    let r = *reference.range(rank..).next().or(reference.first()).unwrap();
                    set.remove(r);
                    reference.remove(&r);
                }
                let blocks = &set.0;
                prop_assert!(blocks.windows(2).all(|w| w[0].0 > w[1].0));
                prop_assert!(blocks.iter().all(|&(_, bits)| bits != 0));
                let mut members: Vec<u32> = set.iter().collect();
                members.sort_unstable();
                prop_assert_eq!(members, reference.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(set.is_empty(), reference.is_empty());
                if let Some(&top) = reference.first() {
                    prop_assert_eq!(set.top_two(), (top, reference.range(top + 1..).next().copied()));
                }
            }
        }
    }

    /// Enqueues, pops and sheds reported through the callbacks keep the
    /// groups in step with the view; a registration over tuples it was not
    /// told about rebuilds once, then never again.
    #[test]
    fn rebuilds_only_when_the_callbacks_missed_a_ready_unit() {
        let factor = vec![1.0, 4.0, 2.0, 4.0];
        let (mut q, mut g) = (UnitQueues::new(4), WaitPolicy::bsd());
        g.reset(factor.clone());
        for (unit, at) in [(0, 1), (1, 1), (2, 3), (3, 1)] {
            push(&mut q, &mut g, unit, at);
        }
        let now = ms(5);
        let scan = |q: &UnitQueues<(TupleId, Nanos)>| {
            scan_argmax(q.nonempty(), q.head_arrivals(), &factor, now, |w| w)
        };
        for _ in 0..2 {
            let sel = g.select(&q, now).unwrap();
            assert_eq!(Some(&sel), scan(&q).as_ref());
            q.pop(sel.units[0]).unwrap();
        }
        q.shed_tail(2).unwrap();
        g.on_shed(2, TupleId::new(2));
        assert_eq!(g.select(&q, now), scan(&q));
        assert_eq!(g.rebuilds(), 0);
        // Re-registered with tuples pending, and told nothing about them.
        g.reset(factor.clone());
        assert_eq!(g.select(&q, now), scan(&q));
        assert_eq!(g.select(&q, now), scan(&q));
        assert_eq!(g.rebuilds(), 1);
    }

    // BSD.

    #[test]
    fn hybrid_behaviour_rate_vs_wait() {
        // Unit 0 has a ~16× higher Φ (better normalized rate), unit 1 a
        // 1000× older head tuple: the wait dominates first, Φ later.
        let units = vec![
            UnitStatics::new(1.0, ms(1), ms(1)),
            UnitStatics::new(0.5, ms(2), ms(2)),
        ];
        let mut p = WaitPolicy::bsd();
        p.on_register(&units);
        assert!(p.factor(0) > p.factor(1));
        let mut q = UnitQueues::new(2);
        // Fresh tuple on 0, ancient tuple on 1.
        q.push(1, (TupleId::new(0), ms(0)));
        q.push(0, (TupleId::new(1), ms(1_000)));
        // Shortly after unit 0's arrival its W is tiny: unit 1 wins on wait.
        let phi0 = p.factor(0);
        let phi1 = p.factor(1);
        let w0 = 1.0e6; // 1ms after unit-0 arrival, in ns
        let w1 = 1_001.0e6;
        assert!(phi1 * w1 > phi0 * w0, "sanity: aged tuple dominates");
        assert_eq!(p.select(&q, ms(1_001)).unwrap().units, vec![1]);
        // Much later the relative waits even out and Φ dominates.
        q.pop(1).unwrap();
        q.push(1, (TupleId::new(2), ms(1_000)));
        assert!(phi0 * 99_000.0e6 > phi1 * 99_000.0e6);
        assert_eq!(p.select(&q, ms(100_000)).unwrap().units, vec![0]);
    }

    #[test]
    fn equal_waits_reduce_to_hnr_over_t() {
        // With equal W, BSD ranks by Φ = HNR/T: Example 1's Q2 wins (its Φ
        // advantage over Q1 is even larger than its HNR advantage).
        let units = vec![
            UnitStatics::new(1.0, ms(5), ms(5)),
            UnitStatics::new(0.33, ms(2), ms(2)),
        ];
        let mut p = WaitPolicy::bsd();
        p.on_register(&units);
        let mut q = UnitQueues::new(2);
        q.push(0, (TupleId::new(0), ms(0)));
        q.push(1, (TupleId::new(1), ms(0)));
        assert_eq!(p.select(&q, ms(10)).unwrap().units, vec![1]);
    }

    #[test]
    fn ops_counted_scales_with_ready_units() {
        let units: Vec<UnitStatics> = (1..=8)
            .map(|c| UnitStatics::new(0.5, ms(c), ms(c)))
            .collect();
        let mut p = WaitPolicy::bsd();
        p.on_register(&units);
        let mut q = UnitQueues::new(8);
        for u in 0..5 {
            q.push(u, (TupleId::new(u as u64), ms(u as u64)));
        }
        let sel = p.select(&q, ms(100)).unwrap();
        assert_eq!(sel.ops_counted, 10, "2 ops per ready unit");
    }

    #[test]
    fn statics_update_changes_the_scan_in_place() {
        let units = vec![
            UnitStatics::new(1.0, ms(1), ms(1)),
            UnitStatics::new(0.5, ms(2), ms(2)),
        ];
        let mut p = WaitPolicy::bsd();
        p.on_register(&units);
        let mut q = UnitQueues::new(2);
        q.push(0, (TupleId::new(0), ms(0)));
        q.push(1, (TupleId::new(1), ms(0)));
        assert_eq!(p.select(&q, ms(10)).unwrap().units, vec![0], "Φ0 > Φ1");
        // Re-estimate unit 1 as much cheaper: its Φ overtakes.
        p.on_statics_update(
            1,
            &UnitStatics::new(1.0, Nanos::from_nanos(500_000), Nanos::from_nanos(500_000)),
        );
        assert!(p.factor(1) > p.factor(0));
        assert_eq!(p.select(&q, ms(10)).unwrap().units, vec![1]);
        assert!(p.memory_footprint().unwrap() >= 2 * 4 * 8);
    }

    #[test]
    fn zero_wait_selects_lowest_id_deterministically() {
        let units = vec![
            UnitStatics::new(0.5, ms(2), ms(2)),
            UnitStatics::new(0.5, ms(2), ms(2)),
        ];
        let mut p = WaitPolicy::bsd();
        p.on_register(&units);
        let mut q = UnitQueues::new(2);
        q.push(1, (TupleId::new(0), ms(7)));
        q.push(0, (TupleId::new(1), ms(7)));
        // W = 0 for both -> priorities equal 0 -> tie broken by id.
        assert_eq!(p.select(&q, ms(7)).unwrap().units, vec![0]);
    }

    // LSF.

    #[test]
    fn prefers_highest_current_stretch() {
        // Unit 0: T = 10ms, waited 20ms -> stretch 2.
        // Unit 1: T = 2ms, waited 6ms  -> stretch 3.  LSF picks unit 1.
        let units = vec![
            UnitStatics::new(1.0, ms(10), ms(10)),
            UnitStatics::new(1.0, ms(2), ms(2)),
        ];
        let mut p = WaitPolicy::lsf();
        p.on_register(&units);
        let mut q = UnitQueues::new(2);
        q.push(0, (TupleId::new(0), ms(0)));
        q.push(1, (TupleId::new(1), ms(14)));
        let sel = p.select(&q, ms(20)).unwrap();
        assert_eq!(sel.units, vec![1]);
        assert_eq!(sel.ops_counted, 4);
    }

    #[test]
    fn priority_flips_as_time_passes() {
        // Early on the long-T unit's tuple is older and wins; later the
        // short-T unit's stretch overtakes it.
        let units = vec![
            UnitStatics::new(1.0, ms(100), ms(100)), // slope 0.01/ms
            UnitStatics::new(1.0, ms(5), ms(5)),     // slope 0.2/ms
        ];
        let mut p = WaitPolicy::lsf();
        p.on_register(&units);
        let mut q = UnitQueues::new(2);
        q.push(0, (TupleId::new(0), ms(0)));
        q.push(1, (TupleId::new(1), ms(99)));
        // At t=100: unit0 stretch 1.0, unit1 stretch 0.2 -> unit 0.
        assert_eq!(p.select(&q, ms(100)).unwrap().units, vec![0]);
        // At t=125: unit0 stretch 1.25, unit1 stretch 5.2 -> unit 1.
        assert_eq!(p.select(&q, ms(125)).unwrap().units, vec![1]);
    }

    #[test]
    fn equal_ideal_times_reduce_to_fcfs() {
        let units = vec![
            UnitStatics::new(1.0, ms(4), ms(4)),
            UnitStatics::new(1.0, ms(4), ms(4)),
        ];
        let order = drain_order(&mut WaitPolicy::lsf(), &units, &[(1, 0, 0), (0, 1, 2)]);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn zero_ideal_time_unit_cannot_capture_the_scheduler() {
        // A zero-T unit's slope is clamped finite (1/MIN_TIME_NS), so a
        // normal unit with enough accumulated wait can still outrank it and
        // the policy keeps draining both queues.
        let units = vec![
            UnitStatics::new(1.0, Nanos::ZERO, Nanos::ZERO),
            UnitStatics::new(1.0, Nanos::from_nanos(2), Nanos::from_nanos(2)),
        ];
        let mut p = WaitPolicy::lsf();
        p.on_register(&units);
        assert!(units.iter().all(|u| u.lsf_slope().is_finite()));
        let mut q = UnitQueues::new(2);
        q.push(0, (TupleId::new(0), Nanos::from_nanos(10)));
        q.push(1, (TupleId::new(1), Nanos::from_nanos(0)));
        // At t=12: unit0 stretch = 2ns·(1/1ns) = 2, unit1 stretch =
        // 12ns·(1/2ns) = 6 -> the ordinary unit outranks the degenerate one.
        let sel = p.select(&q, Nanos::from_nanos(12)).unwrap();
        assert_eq!(sel.units, vec![1]);
    }

    #[test]
    fn statics_update_changes_the_slope_in_place() {
        let units = vec![
            UnitStatics::new(1.0, ms(10), ms(10)),
            UnitStatics::new(1.0, ms(10), ms(10)),
        ];
        let mut p = WaitPolicy::lsf();
        p.on_register(&units);
        let mut q = UnitQueues::new(2);
        q.push(0, (TupleId::new(0), ms(0)));
        q.push(1, (TupleId::new(1), ms(0)));
        assert_eq!(p.select(&q, ms(20)).unwrap().units, vec![0], "tie → id");
        // Unit 1 is re-estimated much shorter: its stretch slope dominates.
        p.on_statics_update(1, &UnitStatics::new(1.0, ms(1), ms(1)));
        assert_eq!(p.select(&q, ms(20)).unwrap().units, vec![1]);
        assert!(p.memory_footprint().unwrap() >= 2 * 8);
    }

    #[test]
    fn zero_wait_everywhere_breaks_ties_by_id() {
        let units = vec![
            UnitStatics::new(1.0, ms(4), ms(4)),
            UnitStatics::new(1.0, ms(4), ms(4)),
        ];
        let mut p = WaitPolicy::lsf();
        p.on_register(&units);
        let mut q = UnitQueues::new(2);
        q.push(1, (TupleId::new(0), ms(5)));
        q.push(0, (TupleId::new(1), ms(5)));
        assert_eq!(p.select(&q, ms(5)).unwrap().units, vec![0]);
    }

    // ℓp.

    fn lp_units() -> Vec<UnitStatics> {
        vec![
            UnitStatics::new(1.0, ms(5), ms(5)),
            UnitStatics::new(0.33, ms(2), ms(2)),
            UnitStatics::new(0.6, ms(8), ms(12)),
        ]
    }

    fn loaded(policy: &mut dyn Policy) -> UnitQueues<(TupleId, Nanos)> {
        policy.on_register(&lp_units());
        let mut q = UnitQueues::new(3);
        for (u, arrival) in [(0u32, 0u64), (1, 40), (2, 15)] {
            q.push(u, (TupleId::new(u as u64), ms(arrival)));
            policy.on_enqueue(u, TupleId::new(u as u64), ms(arrival), ms(arrival));
        }
        q
    }

    #[test]
    fn p1_matches_hnr_ordering() {
        let mut lp = WaitPolicy::lp(1.0);
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
        let mut lp = WaitPolicy::lp(2.0);
        let q = loaded(&mut lp);
        let mut bsd = WaitPolicy::bsd();
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
        let mut lp = WaitPolicy::lp(16.0);
        let q = loaded(&mut lp);
        let mut lsf = WaitPolicy::lsf();
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
        let _ = WaitPolicy::lp(0.5);
    }

    #[test]
    fn empty_select_none() {
        let mut lp = WaitPolicy::lp(2.0);
        lp.on_register(&lp_units());
        let q = UnitQueues::<(TupleId, Nanos)>::new(3);
        assert!(lp.select(&q, ms(1)).is_none());
    }
}
