//! Exact wait-linear selection by head-arrival group.
//!
//! BSD, LSF and ℓp all run the unit maximizing `wait_term(W_x) · factor_x`,
//! where `W_x = now − a_x` is the wait of unit x's head tuple and `factor_x`
//! is static (`Φ`, `1/T`, `S/(C̄·T^p)`). [`scan_argmax`] evaluates every
//! ready unit. This kernel evaluates one candidate per distinct head
//! *arrival instant* instead: units whose heads arrived at the same instant
//! share one `W`, hence one `wait_term(W)`, and because IEEE rounding is
//! monotone, multiplying by one finite non-negative `wait_term` preserves the
//! order of the factors (up to ties). So a group's best unit is its first
//! member under (factor descending, id ascending), whatever `now` is.
//!
//! The units are ranked once in that order (`±0` equal), and each group
//! keeps the ranks of its members in a sorted `Vec` and caches its top
//! unit, the top's factor and the runner-up's factor in dense columns;
//! `select` makes one pass over the groups. (A join or a shed moves up to a
//! group's size in ranks: one arrival fanned out to k units at one instant
//! costs O(k²) moves to group, the order of the k scans over ≥ k ready units
//! that [`scan_argmax`] would spend consuming them.) A product can tie
//! across groups (equal priorities) and within one (equal factors, `W = 0`,
//! `Φ = 0`, neighbouring floats that round to one product): the pass keeps
//! the lowest tied top id, and a group whose top ties the best and whose
//! runner-up ties its top is then scanned for a lower tied id. The result
//! is the unit
//! [`scan_argmax`] returns, and the charge is the scan's:
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
//! outside the [`Policy`](crate::Policy) contract (neither a returned
//! selection nor a shed) can cause; debug builds catch it by asserting
//! every selection against the scan.
//!
//! A NaN or infinite factor, or a `wait_term` that is NaN, infinite or
//! negative at some group's wait, makes the point fall back to
//! [`scan_argmax`], whose order-dependent NaN rule only a scan defines.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use hcq_common::Nanos;

use crate::policy::{QueueView, Selection, UnitId};
use crate::soa::{naive_charge, scan_argmax};

/// `group_of` entry of a unit that is in no group.
const NONE: u32 = u32::MAX;

/// The ready units of a wait-linear policy, grouped by head-arrival instant.
#[derive(Debug, Default)]
pub(crate) struct HeadGroups {
    /// The policy's static factor per unit.
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
    /// members' ranks sorted descending, so the top is last and a selected
    /// top leaves by a pop.
    keys: Vec<Nanos>,
    top: Vec<UnitId>,
    top_factor: Vec<f64>,
    runner_factor: Vec<f64>,
    ranks: Vec<Vec<u32>>,
    /// Head instant → group index. The hasher has fixed keys so that the
    /// map's capacity, which hash-dependent tombstones decide, and so
    /// [`HeadGroups::heap_bytes`], repeat from run to run.
    index: HashMap<Nanos, u32, BuildHasherDefault<DefaultHasher>>,
    /// Units in groups.
    members: usize,
    /// Rebuilds from the view since construction.
    rebuilds: u64,
}

impl HeadGroups {
    /// Registration: install one factor per unit and forget every group.
    /// The ranks are built at the next `select`.
    pub fn reset(&mut self, factor: Vec<f64>) {
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
        for &rank in self.ranks.iter().flatten() {
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

    /// One unit's factor.
    pub fn factor(&self, unit: UnitId) -> f64 {
        self.factor[unit as usize]
    }

    /// Replace one unit's factor; the units are re-ranked once, at the next
    /// `select`, however many factors change before it.
    pub fn set_factor(&mut self, unit: UnitId, factor: f64) {
        let old = std::mem::replace(&mut self.factor[unit as usize], factor);
        if old.to_bits() != factor.to_bits() {
            self.nonfinite =
                self.nonfinite + usize::from(!factor.is_finite()) - usize::from(!old.is_finite());
            self.stale = true;
        }
    }

    /// A tuple entered `unit`'s queue: only a unit outside every group can
    /// have a new head (a non-empty queue keeps its front).
    #[inline]
    pub fn on_enqueue(&mut self, unit: UnitId) {
        if self.group_of[unit as usize] == NONE {
            self.mark(unit);
        }
    }

    /// The tail of `unit`'s queue was shed; it may have emptied.
    pub fn on_shed(&mut self, unit: UnitId) {
        self.mark(unit);
    }

    #[inline]
    fn mark(&mut self, unit: UnitId) {
        let flag = &mut self.is_dirty[unit as usize];
        if !*flag {
            *flag = true;
            self.dirty.push(unit);
        }
    }

    /// How many times the groups were rebuilt from the view because the
    /// callbacks had not accounted for every ready unit.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Heap bytes held (capacities, as the allocator committed them).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_unit = self.factor.capacity() * size_of::<f64>()
            + (self.order.capacity() + self.rank_of.capacity()) * size_of::<u32>()
            + self.group_of.capacity() * size_of::<u32>()
            + self.dirty.capacity() * size_of::<UnitId>()
            + self.is_dirty.capacity();
        let per_group = self.keys.capacity() * size_of::<Nanos>()
            + self.top.capacity() * size_of::<UnitId>()
            + (self.top_factor.capacity() + self.runner_factor.capacity()) * size_of::<f64>()
            + self.ranks.capacity() * size_of::<Vec<u32>>()
            + self.ranks.iter().map(Vec::capacity).sum::<usize>() * size_of::<u32>()
            + self.index.capacity() * (size_of::<(Nanos, u32)>() + 1);
        per_unit + per_group
    }

    /// Rank the units by (factor descending, id ascending), `-0.0` equal to
    /// `0.0`, and regroup whatever was grouped under the new ranks.
    #[cold]
    fn rerank(&mut self) {
        let grouped: Vec<(UnitId, Nanos)> = (0..self.ranks.len())
            .flat_map(|g| self.ranks[g].iter().map(move |&r| (r, g)))
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
        let (&top_rank, rest) = self.ranks[g].split_last().expect("groups are non-empty");
        let top = self.order[top_rank as usize];
        let runner = rest.last();
        self.top[g] = top;
        self.top_factor[g] = self.factor[top as usize];
        self.runner_factor[g] =
            runner.map_or(f64::NAN, |&r| self.factor[self.order[r as usize] as usize]);
    }

    /// Put an ungrouped `unit` whose head arrived `at` into its group.
    fn join(&mut self, unit: UnitId, at: Nanos) {
        let g = *self.index.entry(at).or_insert_with(|| {
            self.keys.push(at);
            self.top.push(unit);
            self.top_factor.push(0.0);
            self.runner_factor.push(f64::NAN);
            self.ranks.push(Vec::new());
            self.keys.len() as u32 - 1
        }) as usize;
        self.group_of[unit as usize] = g as u32;
        let ranks = &mut self.ranks[g];
        let rank = self.rank_of[unit as usize];
        ranks.insert(ranks.partition_point(|&r| r > rank), rank);
        self.refresh(g);
        self.members += 1;
    }

    /// Take a grouped `unit` out of its group, dropping the group if empty.
    fn leave(&mut self, unit: UnitId) {
        let g = std::mem::replace(&mut self.group_of[unit as usize], NONE) as usize;
        self.members -= 1;
        let ranks = &mut self.ranks[g];
        let rank = self.rank_of[unit as usize];
        ranks.remove(ranks.partition_point(|&r| r > rank));
        if !ranks.is_empty() {
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
            for &r in &self.ranks[g] {
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
                for &r in &self.ranks[g] {
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
    pub fn select(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::MockQueues;
    use hcq_common::TupleId;

    fn push(q: &mut MockQueues, g: &mut HeadGroups, unit: UnitId, at_ms: u64) {
        let at = Nanos::from_millis(at_ms);
        q.push(unit, TupleId::new(u64::from(unit)), at);
        g.on_enqueue(unit);
    }

    /// Enqueues, pops and sheds reported through the callbacks keep the
    /// groups in step with the view; a registration over tuples it was not
    /// told about rebuilds once, then never again.
    #[test]
    fn rebuilds_only_when_the_callbacks_missed_a_ready_unit() {
        let factor = vec![1.0, 4.0, 2.0, 4.0];
        let (mut q, mut g) = (MockQueues::new(4), HeadGroups::default());
        g.reset(factor.clone());
        for (unit, at) in [(0, 1), (1, 1), (2, 3), (3, 1)] {
            push(&mut q, &mut g, unit, at);
        }
        let now = Nanos::from_millis(5);
        let scan =
            |q: &MockQueues| scan_argmax(q.nonempty(), q.head_arrivals(), &factor, now, |w| w);
        for _ in 0..2 {
            let sel = g.select(&q, now, |w| w).unwrap();
            assert_eq!(Some(&sel), scan(&q).as_ref());
            q.pop(sel.units[0]);
        }
        q.pop_back(2);
        g.on_shed(2);
        assert_eq!(g.select(&q, now, |w| w), scan(&q));
        assert_eq!(g.rebuilds(), 0);
        // Re-registered with tuples pending, and told nothing about them.
        g.reset(factor.clone());
        assert_eq!(g.select(&q, now, |w| w), scan(&q));
        assert_eq!(g.select(&q, now, |w| w), scan(&q));
        assert_eq!(g.rebuilds(), 1);
    }
}
