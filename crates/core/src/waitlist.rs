//! Slab-backed intrusive wait lists for the clustered scheduler.
//!
//! [`ClusteredBsdPolicy`](crate::ClusteredBsdPolicy) mirrors every pending
//! tuple so a scheduling point can read cluster fronts without touching the
//! engine. At 10⁵–10⁶ units a `Vec<VecDeque<Entry>>` mirror costs one heap
//! allocation per cluster queue and O(backlog) removals on shed; this module
//! replaces it with a single slab of [`WaitEntry`] slots threaded by two
//! intrusive doubly-linked lists:
//!
//! * the **cluster list** — FIFO of pending entries per cluster, ordered by
//!   the global enqueue sequence number (`seq`), which is what "FIFO" means
//!   once entries can migrate between clusters;
//! * the **unit chain** — the same entries threaded per unit, so the shed
//!   callback (which names a unit, not a position) unlinks the unit's
//!   rearmost entry in O(1) instead of scanning the cluster backlog.
//!
//! Freed slots go on a free list and are reused, so a steady-state workload
//! performs no allocation per decision; `UnitId → chain head/tail` indices
//! are stable across every mutation. All four links live inside the 48-byte
//! entry — no auxiliary maps.
//!
//! [`SortedFronts`] is the companion cluster-front index: at most one key
//! per cluster, kept in a sorted `Vec` (binary-search insert/remove, in-order
//! iteration for Fagin's list B). `m` is small by design (§6.2 picks m ≪ q),
//! so a 12-byte memmove beats a `BTreeSet`'s node allocations — keeping the
//! select hot path allocation-free.

use hcq_common::{Nanos, TupleId};

use crate::policy::UnitId;

/// Null link.
pub(crate) const NIL: u32 = u32::MAX;

/// One mirrored pending tuple, with intrusive links for the cluster list
/// (`prev`/`next`) and the owning unit's chain (`unit_prev`/`unit_next`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitEntry {
    /// Mirrored tuple id.
    pub tuple: TupleId,
    /// System arrival time (the `W` base of every priority formula).
    pub arrival: Nanos,
    /// Global enqueue sequence number — the canonical FIFO order.
    pub seq: u64,
    /// Owning unit.
    pub unit: UnitId,
    /// Cluster currently holding the entry.
    pub cluster: u32,
    prev: u32,
    next: u32,
    unit_prev: u32,
    unit_next: u32,
}

/// The slab plus both intrusive list families.
#[derive(Debug, Default)]
pub(crate) struct WaitLists {
    slots: Vec<WaitEntry>,
    /// Free slots threaded through `next`.
    free_head: u32,
    live: usize,
    cluster_head: Vec<u32>,
    cluster_tail: Vec<u32>,
    unit_head: Vec<u32>,
    unit_tail: Vec<u32>,
}

impl WaitLists {
    /// Fresh lists for `clusters × units`, with every list empty. Slot
    /// storage from a previous registration is kept for reuse.
    pub fn reset(&mut self, clusters: usize, units: usize) {
        self.slots.clear();
        self.free_head = NIL;
        self.live = 0;
        self.cluster_head.clear();
        self.cluster_head.resize(clusters, NIL);
        self.cluster_tail.clear();
        self.cluster_tail.resize(clusters, NIL);
        self.unit_head.clear();
        self.unit_head.resize(units, NIL);
        self.unit_tail.clear();
        self.unit_tail.resize(units, NIL);
    }

    /// The cluster's oldest pending entry, if any.
    pub fn front(&self, cluster: u32) -> Option<&WaitEntry> {
        let head = self.cluster_head[cluster as usize];
        (head != NIL).then(|| &self.slots[head as usize])
    }

    /// True when the cluster has no pending entries.
    pub fn is_cluster_empty(&self, cluster: u32) -> bool {
        self.cluster_head[cluster as usize] == NIL
    }

    /// True when the unit has no pending entries.
    pub fn is_unit_empty(&self, unit: UnitId) -> bool {
        self.unit_head[unit as usize] == NIL
    }

    /// The unit's rearmost pending entry (the shed victim), if any.
    pub fn unit_tail_entry(&self, unit: UnitId) -> Option<&WaitEntry> {
        let tail = self.unit_tail[unit as usize];
        (tail != NIL).then(|| &self.slots[tail as usize])
    }

    fn alloc(&mut self, entry: WaitEntry) -> u32 {
        self.live += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.slots[idx as usize].next;
            self.slots[idx as usize] = entry;
            idx
        } else {
            self.slots.push(entry);
            (self.slots.len() - 1) as u32
        }
    }

    fn free(&mut self, idx: u32) {
        self.slots[idx as usize].next = self.free_head;
        self.free_head = idx;
        self.live -= 1;
    }

    fn link_cluster_tail(&mut self, idx: u32, cluster: u32) {
        let tail = self.cluster_tail[cluster as usize];
        self.slots[idx as usize].prev = tail;
        self.slots[idx as usize].next = NIL;
        self.slots[idx as usize].cluster = cluster;
        if tail == NIL {
            self.cluster_head[cluster as usize] = idx;
        } else {
            self.slots[tail as usize].next = idx;
        }
        self.cluster_tail[cluster as usize] = idx;
    }

    fn unlink_cluster(&mut self, idx: u32) {
        let e = self.slots[idx as usize];
        if e.prev == NIL {
            self.cluster_head[e.cluster as usize] = e.next;
        } else {
            self.slots[e.prev as usize].next = e.next;
        }
        if e.next == NIL {
            self.cluster_tail[e.cluster as usize] = e.prev;
        } else {
            self.slots[e.next as usize].prev = e.prev;
        }
    }

    fn unlink_unit(&mut self, idx: u32) {
        let e = self.slots[idx as usize];
        if e.unit_prev == NIL {
            self.unit_head[e.unit as usize] = e.unit_next;
        } else {
            self.slots[e.unit_prev as usize].unit_next = e.unit_next;
        }
        if e.unit_next == NIL {
            self.unit_tail[e.unit as usize] = e.unit_prev;
        } else {
            self.slots[e.unit_next as usize].unit_prev = e.unit_prev;
        }
    }

    /// Append a pending entry to the cluster FIFO and the unit chain.
    /// `seq` must be strictly increasing across calls (the caller's global
    /// enqueue counter), which keeps every cluster list seq-sorted.
    pub fn push_back(
        &mut self,
        cluster: u32,
        unit: UnitId,
        tuple: TupleId,
        arrival: Nanos,
        seq: u64,
    ) {
        let idx = self.alloc(WaitEntry {
            tuple,
            arrival,
            seq,
            unit,
            cluster,
            prev: NIL,
            next: NIL,
            unit_prev: NIL,
            unit_next: NIL,
        });
        self.link_cluster_tail(idx, cluster);
        let utail = self.unit_tail[unit as usize];
        self.slots[idx as usize].unit_prev = utail;
        if utail == NIL {
            self.unit_head[unit as usize] = idx;
        } else {
            self.slots[utail as usize].unit_next = idx;
        }
        self.unit_tail[unit as usize] = idx;
    }

    /// Remove and return the cluster's front entry.
    pub fn pop_front(&mut self, cluster: u32) -> WaitEntry {
        let idx = self.cluster_head[cluster as usize];
        assert_ne!(idx, NIL, "pop_front on empty cluster");
        let e = self.slots[idx as usize];
        self.unlink_cluster(idx);
        self.unlink_unit(idx);
        self.free(idx);
        e
    }

    /// Remove the unit's rearmost entry (the shed victim), returning it and
    /// whether it was its cluster's front.
    pub fn remove_unit_tail(&mut self, unit: UnitId) -> Option<(WaitEntry, bool)> {
        let idx = self.unit_tail[unit as usize];
        if idx == NIL {
            return None;
        }
        let e = self.slots[idx as usize];
        let was_front = self.cluster_head[e.cluster as usize] == idx;
        self.unlink_cluster(idx);
        self.unlink_unit(idx);
        self.free(idx);
        Some((e, was_front))
    }

    /// Migrate every pending entry of `unit` into `to`, keeping both the
    /// destination list and the chain seq-sorted (a two-way merge). Returns
    /// the number of entries moved. `scratch` is caller-owned to keep the
    /// hot path allocation-free after warm-up.
    pub fn move_unit(&mut self, unit: UnitId, to: u32, scratch: &mut Vec<u32>) -> usize {
        scratch.clear();
        let mut idx = self.unit_head[unit as usize];
        while idx != NIL {
            scratch.push(idx);
            idx = self.slots[idx as usize].unit_next;
        }
        if scratch.is_empty() {
            return 0;
        }
        if self.slots[scratch[0] as usize].cluster == to {
            return 0;
        }
        for &i in scratch.iter() {
            self.unlink_cluster(i);
        }
        // Merge the (seq-sorted) chain into the (seq-sorted) destination
        // list by relinking from scratch.
        let mut a = self.cluster_head[to as usize];
        let mut b = 0usize;
        let mut head = NIL;
        let mut tail = NIL;
        while a != NIL || b < scratch.len() {
            let take_b = a == NIL
                || (b < scratch.len()
                    && self.slots[scratch[b] as usize].seq < self.slots[a as usize].seq);
            let idx = if take_b {
                let i = scratch[b];
                b += 1;
                i
            } else {
                let i = a;
                a = self.slots[i as usize].next;
                i
            };
            self.slots[idx as usize].cluster = to;
            self.slots[idx as usize].prev = tail;
            self.slots[idx as usize].next = NIL;
            if tail == NIL {
                head = idx;
            } else {
                self.slots[tail as usize].next = idx;
            }
            tail = idx;
        }
        self.cluster_head[to as usize] = head;
        self.cluster_tail[to as usize] = tail;
        scratch.len()
    }

    /// Copy out every live entry (cluster-list order per cluster; callers
    /// sort by `seq` for the canonical global order).
    pub fn collect_live(&self) -> Vec<WaitEntry> {
        let mut out = Vec::with_capacity(self.live);
        for &head in &self.cluster_head {
            let mut idx = head;
            while idx != NIL {
                out.push(self.slots[idx as usize]);
                idx = self.slots[idx as usize].next;
            }
        }
        out
    }

    /// Heap bytes committed for slots and list heads.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<WaitEntry>()
            + (self.cluster_head.capacity()
                + self.cluster_tail.capacity()
                + self.unit_head.capacity()
                + self.unit_tail.capacity())
                * std::mem::size_of::<u32>()
    }

    /// Exhaustive link validation (test/fuzz support, not a hot path).
    #[cfg(test)]
    pub fn assert_consistent(&self) {
        let mut seen = 0usize;
        for (c, &head) in self.cluster_head.iter().enumerate() {
            let mut idx = head;
            let mut prev = NIL;
            let mut last_seq = None;
            while idx != NIL {
                let e = &self.slots[idx as usize];
                assert_eq!(e.cluster as usize, c, "entry cluster field");
                assert_eq!(e.prev, prev, "cluster back-link");
                if let Some(s) = last_seq {
                    assert!(e.seq > s, "cluster list seq-sorted");
                }
                last_seq = Some(e.seq);
                seen += 1;
                prev = idx;
                idx = e.next;
            }
            assert_eq!(self.cluster_tail[c], prev, "cluster tail");
        }
        assert_eq!(seen, self.live, "live count");
        for (u, &head) in self.unit_head.iter().enumerate() {
            let mut idx = head;
            let mut prev = NIL;
            let mut last_seq = None;
            while idx != NIL {
                let e = &self.slots[idx as usize];
                assert_eq!(e.unit as usize, u, "entry unit field");
                assert_eq!(e.unit_prev, prev, "unit back-link");
                if let Some(s) = last_seq {
                    assert!(e.seq > s, "unit chain seq-sorted");
                }
                last_seq = Some(e.seq);
                prev = idx;
                idx = e.unit_next;
            }
            assert_eq!(self.unit_tail[u], prev, "unit tail");
        }
    }
}

/// Sorted cluster-front index: `(front arrival, cluster)` for every
/// non-empty cluster, ascending — Fagin's list B (descending wait) and the
/// by-wait tie-break order, with no per-edit allocation.
#[derive(Debug, Default)]
pub(crate) struct SortedFronts {
    keys: Vec<(Nanos, u32)>,
}

impl SortedFronts {
    /// Drop all keys, keeping capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// Reserve for `m` clusters up front so steady state never reallocates.
    pub fn reserve(&mut self, m: usize) {
        self.keys.reserve(m.saturating_sub(self.keys.capacity()));
    }

    /// Insert a key; returns false if it was already present.
    pub fn insert(&mut self, key: (Nanos, u32)) -> bool {
        match self.keys.binary_search(&key) {
            Ok(_) => false,
            Err(pos) => {
                self.keys.insert(pos, key);
                true
            }
        }
    }

    /// Remove a key; returns false if it was absent.
    pub fn remove(&mut self, key: &(Nanos, u32)) -> bool {
        match self.keys.binary_search(key) {
            Ok(pos) => {
                self.keys.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Keys in ascending `(arrival, cluster)` order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Nanos, u32)> {
        self.keys.iter()
    }

    /// Number of non-empty clusters tracked.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Heap bytes committed.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<(Nanos, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    fn lists(clusters: usize, units: usize) -> WaitLists {
        let mut l = WaitLists::default();
        l.reset(clusters, units);
        l
    }

    #[test]
    fn fifo_per_cluster_and_unit_chain() {
        let mut l = lists(2, 3);
        l.push_back(0, 0, TupleId::new(0), ms(1), 0);
        l.push_back(0, 1, TupleId::new(1), ms(2), 1);
        l.push_back(0, 0, TupleId::new(2), ms(3), 2);
        l.push_back(1, 2, TupleId::new(3), ms(4), 3);
        l.assert_consistent();
        assert_eq!(l.live, 4);
        assert_eq!(l.front(0).unwrap().tuple, TupleId::new(0));
        assert_eq!(l.unit_tail_entry(0).unwrap().tuple, TupleId::new(2));
        let e = l.pop_front(0);
        assert_eq!((e.unit, e.seq), (0, 0));
        l.assert_consistent();
        // Unit 0's chain now holds only tuple 2.
        assert_eq!(l.unit_tail_entry(0).unwrap().tuple, TupleId::new(2));
        assert_eq!(l.front(0).unwrap().unit, 1);
        assert_eq!(l.front(1).unwrap().unit, 2);
    }

    #[test]
    fn remove_unit_tail_is_the_shed_victim() {
        let mut l = lists(1, 2);
        l.push_back(0, 0, TupleId::new(0), ms(1), 0);
        l.push_back(0, 1, TupleId::new(1), ms(2), 1);
        l.push_back(0, 0, TupleId::new(2), ms(3), 2);
        // Unit 0's rearmost entry is mid-list: not the cluster front.
        let (e, was_front) = l.remove_unit_tail(0).unwrap();
        assert_eq!(e.tuple, TupleId::new(2));
        assert!(!was_front);
        l.assert_consistent();
        // Now unit 0's only entry IS the front.
        let (e, was_front) = l.remove_unit_tail(0).unwrap();
        assert_eq!(e.tuple, TupleId::new(0));
        assert!(was_front);
        l.assert_consistent();
        assert!(l.remove_unit_tail(0).is_none());
        assert_eq!(l.live, 1);
    }

    #[test]
    fn slots_are_reused_after_free() {
        let mut l = lists(1, 1);
        for round in 0..5u64 {
            l.push_back(0, 0, TupleId::new(round), ms(round), round);
            l.pop_front(0);
        }
        // One slot allocated, reused every round.
        assert_eq!(l.slots.len(), 1);
        assert_eq!(l.live, 0);
    }

    #[test]
    fn move_unit_merges_by_seq() {
        let mut l = lists(2, 3);
        // Cluster 0: unit 0 at seqs 0 and 4; cluster 1: unit 1 at seqs 1, 3
        // and unit 2 at seq 2.
        l.push_back(0, 0, TupleId::new(0), ms(1), 0);
        l.push_back(1, 1, TupleId::new(1), ms(2), 1);
        l.push_back(1, 2, TupleId::new(2), ms(3), 2);
        l.push_back(1, 1, TupleId::new(3), ms(4), 3);
        l.push_back(0, 0, TupleId::new(4), ms(5), 4);
        let mut scratch = Vec::new();
        assert_eq!(l.move_unit(0, 1, &mut scratch), 2);
        l.assert_consistent();
        assert!(l.is_cluster_empty(0));
        // Destination order is the global enqueue order.
        let mut seqs = Vec::new();
        let mut idx = l.cluster_head[1];
        while idx != NIL {
            seqs.push(l.slots[idx as usize].seq);
            idx = l.slots[idx as usize].next;
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        // Moving to the current cluster is a no-op.
        assert_eq!(l.move_unit(0, 1, &mut scratch), 0);
        assert_eq!(l.move_unit(2, 1, &mut scratch), 0);
    }

    #[test]
    fn collect_live_sees_everything() {
        let mut l = lists(3, 3);
        for (i, c) in [(0u64, 0u32), (1, 2), (2, 1), (3, 0)] {
            l.push_back(c, (i % 3) as UnitId, TupleId::new(i), ms(i), i);
        }
        l.pop_front(2);
        let mut out = l.collect_live();
        out.sort_by_key(|e| e.seq);
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 2, 3]);
    }

    #[test]
    fn sorted_fronts_orders_and_dedups() {
        let mut f = SortedFronts::default();
        f.reserve(4);
        assert!(f.insert((ms(5), 1)));
        assert!(f.insert((ms(2), 0)));
        assert!(f.insert((ms(5), 0)));
        assert!(!f.insert((ms(5), 1)));
        let keys: Vec<(Nanos, u32)> = f.iter().copied().collect();
        assert_eq!(keys, vec![(ms(2), 0), (ms(5), 0), (ms(5), 1)]);
        assert!(f.remove(&(ms(5), 0)));
        assert!(!f.remove(&(ms(5), 0)));
        assert_eq!(f.len(), 2);
        f.clear();
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn reset_clears_previous_population() {
        let mut l = lists(2, 2);
        l.push_back(0, 0, TupleId::new(0), ms(1), 0);
        l.reset(4, 3);
        assert_eq!(l.live, 0);
        for c in 0..4 {
            assert!(l.is_cluster_empty(c));
        }
        l.push_back(3, 2, TupleId::new(9), ms(9), 7);
        l.assert_consistent();
    }
}
