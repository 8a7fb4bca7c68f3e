//! The efficient BSD implementation (§6.2): priority clustering, Fagin
//! pruning, clustered processing.
//!
//! The BSD priority factors as `Φ_x · W_x` with `Φ_x = S/(C̄·T²)` static.
//! §6.2.1 groups units by `Φ` into `m` clusters; arriving tuples are routed
//! to their cluster's FIFO input queue, and a scheduling point evaluates one
//! priority per *cluster* — pseudo-priority × wait of the cluster's oldest
//! pending tuple — instead of one per query:
//!
//! * [`Clustering::Uniform`] splits the `Φ` domain into equal-width ranges
//!   (Aurora's method; poor when `Δ = Φ_max/Φ_min` is large).
//! * [`Clustering::Logarithmic`] splits it into equal-*ratio* ranges
//!   `[ε^i, ε^(i+1))` with `ε = Δ^(1/m)`, bounding each cluster's internal
//!   priority spread by `ε`.
//!
//! §6.2.2 prunes the O(m) scan to a handful of accesses with
//! [`crate::fagin`]; §6.2.3 amortizes scheduling points by executing *all*
//! queries of the chosen cluster that are pending on the head tuple as one
//! batch.
//!
//! # Large-q internals
//!
//! The implementation is sized for 10⁵–10⁶ concurrent units:
//!
//! * statics live in a struct-of-arrays [`StaticsTable`] so re-bucketing
//!   scans touch one contiguous `Φ` column;
//! * pending entries live in one slab (`crate::waitlist`) threaded by
//!   intrusive per-cluster FIFOs and per-unit chains — O(1) enqueue, O(1)
//!   shed, slot reuse, no allocation per decision at steady state;
//! * the `Φ` **domain is frozen at `on_register`**:
//!   [`add_unit`](ClusteredBsdPolicy::add_unit),
//!   [`retire_unit`](ClusteredBsdPolicy::retire_unit) and
//!   [`update_unit_statics`](ClusteredBsdPolicy::update_unit_statics)
//!   re-bucket only the affected unit against the frozen ranges (a `Φ`
//!   outside the registered domain clamps to the edge cluster), and a unit
//!   whose bucket changes drags only *its own* pending entries into the
//!   destination cluster — never a full priority-domain rebuild.
//!
//! The incremental path is held to the from-scratch semantics by
//! [`ClusteredBsdPolicy::rebuild_reference`] plus a fuzzed differential
//! invariant in `hcq-check`: after any mutation sequence, the incremental
//! policy and a rebuilt one must produce byte-identical selections and
//! [`SchedStats`].

use hcq_common::{Nanos, TupleId};

use crate::fagin::{fagin_top1_with, FaginScratch};
use crate::policy::{Policy, QueueView, SchedStats, Selection, UnitId};
use crate::soa::StaticsTable;
use crate::unit::UnitStatics;
use crate::waitlist::{SortedFronts, WaitEntry, WaitLists};

/// How the `Φ` domain is split into clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clustering {
    /// Equal-width ranges (Aurora-style).
    Uniform,
    /// Equal-ratio ranges (the paper's proposal).
    Logarithmic,
}

/// Configuration of the clustered BSD scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Cluster-domain split.
    pub clustering: Clustering,
    /// Number of clusters `m` (≥ 1).
    pub clusters: usize,
    /// Prune the per-cluster scan with Fagin's algorithm (§6.2.2).
    pub use_fagin: bool,
    /// Clustered processing: run every member query pending on the chosen
    /// cluster's head tuple as one batch (§6.2.3).
    pub batch: bool,
}

impl ClusterConfig {
    /// The paper's best configuration: logarithmic clustering with Fagin
    /// pruning and clustered processing.
    pub fn logarithmic(m: usize) -> Self {
        ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: m,
            use_fagin: true,
            batch: true,
        }
    }

    /// Uniform clustering with the same optimizations, for the Figure 13
    /// comparison.
    pub fn uniform(m: usize) -> Self {
        ClusterConfig {
            clustering: Clustering::Uniform,
            clusters: m,
            use_fagin: true,
            batch: true,
        }
    }
}

/// The `Φ` domain snapshot frozen at registration, from which every bucket
/// assignment derives. Sanitization happens before this struct sees a value
/// ([`UnitStatics::sanitized_phi`]), so the fields are NaN-free.
#[derive(Debug, Clone, Copy)]
struct PhiDomain {
    /// Degenerate domains (≤ 1 unit, `lo == hi`, all-zero `Φ`) collapse to
    /// a single cluster instead of producing NaN bucket indices.
    degenerate: bool,
    /// Smallest sanitized `Φ` at registration.
    lo: f64,
    /// Largest sanitized `Φ` at registration.
    hi: f64,
    /// Smallest *positive* `Φ` — the logarithmic split's lower edge (`lo ==
    /// 0` would give `ε = ∞`; zero-`Φ` units join cluster 0 below it).
    lo_pos: f64,
}

impl Default for PhiDomain {
    fn default() -> Self {
        // No registration yet: everything buckets to cluster 0.
        PhiDomain {
            degenerate: true,
            lo: 0.0,
            hi: 0.0,
            lo_pos: 0.0,
        }
    }
}

impl PhiDomain {
    /// Derive the frozen domain from the sanitized `Φ` column.
    fn compute(phis: &[f64]) -> Self {
        let (lo, hi) = phis
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &p| {
                (lo.min(p), hi.max(p))
            });
        let lo_pos = if lo > 0.0 {
            lo
        } else {
            phis.iter().copied().filter(|&p| p > 0.0).fold(hi, f64::min)
        };
        let degenerate = phis.len() <= 1 || lo >= hi || lo_pos <= 0.0 || lo_pos >= hi;
        PhiDomain {
            degenerate,
            lo,
            hi,
            lo_pos,
        }
    }

    /// The bucket for a sanitized `Φ`. Registration-time values reproduce
    /// the frozen assignment exactly; post-registration values outside
    /// `[lo, hi]` saturate to the edge clusters (the float→int cast clamps
    /// below, the `min` clamps above), so incremental churn never indexes
    /// out of range.
    fn bucket(&self, clustering: Clustering, m: usize, p: f64) -> u32 {
        if self.degenerate {
            return 0;
        }
        let idx = match clustering {
            Clustering::Uniform => {
                // Equal-width ranges over [lo, hi]. `p == hi` lands exactly
                // on `m` before the clamp — the boundary value belongs to
                // the top cluster `m − 1`.
                ((p - self.lo) / (self.hi - self.lo) * m as f64).floor() as usize
            }
            Clustering::Logarithmic => {
                if p < self.lo_pos {
                    // Zero-Φ unit: lowest cluster.
                    0
                } else {
                    // Equal-ratio ranges: cluster i covers
                    // [lo·ε^i, lo·ε^(i+1)) with ε = (hi/lo)^(1/m);
                    // `p == hi` floors to `m`, clamped to `m − 1`.
                    let eps = (self.hi / self.lo_pos).powf(1.0 / m as f64);
                    ((p / self.lo_pos).ln() / eps.ln()).floor() as usize
                }
            }
        };
        idx.min(m - 1) as u32
    }

    /// Pseudo-priority = lower edge of cluster `i`'s range.
    fn pseudo(&self, clustering: Clustering, m: usize, i: usize) -> f64 {
        if self.degenerate {
            return self.hi.max(0.0);
        }
        match clustering {
            Clustering::Uniform => self.lo + (self.hi - self.lo) * i as f64 / m as f64,
            Clustering::Logarithmic => {
                let eps = (self.hi / self.lo_pos).powf(1.0 / m as f64);
                self.lo_pos * eps.powi(i as i32)
            }
        }
    }
}

/// BSD through the §6.2 machinery.
#[derive(Debug)]
pub struct ClusteredBsdPolicy {
    cfg: ClusterConfig,
    /// Frozen `Φ` domain (see [`PhiDomain`]).
    domain: PhiDomain,
    /// Struct-of-arrays statics; the `Φ` column holds *sanitized* values.
    statics: StaticsTable,
    /// Cluster index per unit.
    cluster_of: Vec<u32>,
    /// Units retired via [`Self::retire_unit`] (backlog-free, no further
    /// enqueues expected).
    retired: Vec<bool>,
    /// Pseudo-priority per cluster (the range's lower edge).
    pseudo: Vec<f64>,
    /// Clusters sorted by pseudo-priority, descending (for Fagin's list A).
    by_pseudo: Vec<u32>,
    /// Slab-backed per-cluster FIFOs + per-unit chains.
    lists: WaitLists,
    /// `(front arrival, cluster)` for every non-empty cluster, ordered by
    /// arrival — Fagin's list B (descending wait = ascending arrival) with
    /// O(log m) search and O(m) memmove, allocation-free at steady state.
    /// Only fronts live here, so a list-B walk never wades through a
    /// backlog.
    by_wait: SortedFronts,
    /// Global enqueue sequence number: the canonical FIFO order, preserved
    /// when a unit's entries migrate between clusters.
    seq: u64,
    /// Cluster-queue maintenance (routing inserts, shed repairs, membership
    /// churn) since the last `select`, reported on the next decision's
    /// [`SchedStats`].
    pending_cluster_ops: u64,
    /// Reused by [`Self::select_fagin`] so decisions allocate nothing.
    fagin_scratch: FaginScratch,
    /// Reused by entry migration in [`Self::update_unit_statics`].
    move_scratch: Vec<u32>,
}

impl ClusteredBsdPolicy {
    /// Build with the given configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.clusters >= 1, "need at least one cluster");
        ClusteredBsdPolicy {
            cfg,
            domain: PhiDomain::default(),
            statics: StaticsTable::new(),
            cluster_of: Vec::new(),
            retired: Vec::new(),
            pseudo: Vec::new(),
            by_pseudo: Vec::new(),
            lists: WaitLists::default(),
            by_wait: SortedFronts::default(),
            seq: 0,
            pending_cluster_ops: 0,
            fagin_scratch: FaginScratch::default(),
            move_scratch: Vec::new(),
        }
    }

    /// The number of clusters actually in use.
    pub fn cluster_count(&self) -> usize {
        self.pseudo.len()
    }

    /// The number of registered units (including retired ones).
    pub fn unit_count(&self) -> usize {
        self.cluster_of.len()
    }

    /// The cluster a unit was assigned to.
    pub fn cluster_of(&self, unit: UnitId) -> u32 {
        self.cluster_of[unit as usize]
    }

    /// A cluster's pseudo-priority.
    pub fn pseudo_priority(&self, cluster: u32) -> f64 {
        self.pseudo[cluster as usize]
    }

    /// Register one more unit after `on_register`, bucketing it into the
    /// *frozen* `Φ` domain (out-of-domain factors clamp to the edge
    /// clusters). O(1); no other cluster is touched. Returns the new id.
    pub fn add_unit(&mut self, statics: UnitStatics) -> UnitId {
        let unit = self.statics.push(&statics);
        self.statics.set_phi(unit, statics.sanitized_phi());
        let c = self.domain.bucket(
            self.cfg.clustering,
            self.cfg.clusters,
            self.statics.phi_of(unit),
        );
        self.cluster_of.push(c);
        self.retired.push(false);
        let from_lists = self.lists.add_unit();
        debug_assert_eq!(from_lists, unit, "statics table and wait lists in step");
        self.pending_cluster_ops += 1;
        unit
    }

    /// Retire a unit with an empty backlog: it keeps its id (dense spaces
    /// stay dense) but is expected never to enqueue again. O(1).
    ///
    /// # Panics
    /// If the unit still has pending entries — drain or shed them first.
    pub fn retire_unit(&mut self, unit: UnitId) {
        assert!(
            self.lists.is_unit_empty(unit),
            "retire_unit({unit}) with pending entries"
        );
        self.retired[unit as usize] = true;
        self.pending_cluster_ops += 1;
    }

    /// True when the unit has been retired.
    pub fn is_retired(&self, unit: UnitId) -> bool {
        self.retired[unit as usize]
    }

    /// Install fresh statics for one unit, re-bucketing it against the
    /// frozen domain. If its cluster changes, only its own pending entries
    /// migrate (a seq-ordered merge into the destination FIFO) and only the
    /// two affected clusters' front keys are repaired — never a domain
    /// rebuild, never a scan over other units.
    pub fn update_unit_statics(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.statics.set(unit, statics);
        self.statics.set_phi(unit, statics.sanitized_phi());
        // One re-bucket evaluation, charged whether or not the bucket moves.
        self.pending_cluster_ops += 1;
        let from = self.cluster_of[unit as usize];
        let to = self.domain.bucket(
            self.cfg.clustering,
            self.cfg.clusters,
            self.statics.phi_of(unit),
        );
        if to == from {
            return;
        }
        self.cluster_of[unit as usize] = to;
        if self.lists.is_unit_empty(unit) {
            return;
        }
        let old_from_front = self.lists.front(from).map(|e| e.arrival);
        let old_to_front = self.lists.front(to).map(|e| e.arrival);
        let moved = self.lists.move_unit(unit, to, &mut self.move_scratch);
        self.pending_cluster_ops += moved as u64;
        self.repair_front(from, old_from_front);
        self.repair_front(to, old_to_front);
    }

    /// Re-sync one cluster's `by_wait` key after its front may have changed.
    fn repair_front(&mut self, cluster: u32, old: Option<Nanos>) {
        let new = self.lists.front(cluster).map(|e| e.arrival);
        if old == new {
            return;
        }
        if let Some(a) = old {
            if self.by_wait.remove(&(a, cluster)) {
                self.pending_cluster_ops += 1;
            }
        }
        if let Some(a) = new {
            if self.by_wait.insert((a, cluster)) {
                self.pending_cluster_ops += 1;
            }
        }
    }

    /// A from-scratch reconstruction of this policy's observable state: same
    /// frozen domain, memberships recomputed from the stored `Φ` column, and
    /// every live entry replayed in global enqueue order. Counters that feed
    /// [`SchedStats`] are carried over verbatim, so the reference and the
    /// incremental original must produce **byte-identical** selections and
    /// stats from here on — the differential invariant `hcq-check` fuzzes.
    pub fn rebuild_reference(&self) -> ClusteredBsdPolicy {
        let mut p = ClusteredBsdPolicy::new(self.cfg);
        let m = self.cfg.clusters;
        p.domain = self.domain;
        p.statics = self.statics.clone();
        p.cluster_of = (0..self.statics.len())
            .map(|u| {
                self.domain
                    .bucket(self.cfg.clustering, m, self.statics.phi_of(u as UnitId))
            })
            .collect();
        p.retired = self.retired.clone();
        p.pseudo = self.pseudo.clone();
        p.by_pseudo = self.by_pseudo.clone();
        p.lists.reset(m, self.statics.len());
        p.by_wait.reserve(m);
        let mut live: Vec<WaitEntry> = Vec::with_capacity(self.lists.live());
        self.lists.collect_live(&mut live);
        live.sort_by_key(|e| e.seq);
        for e in &live {
            p.lists.push_back(
                p.cluster_of[e.unit as usize],
                e.unit,
                e.tuple,
                e.arrival,
                e.seq,
            );
        }
        for c in 0..m as u32 {
            if let Some(front) = p.lists.front(c) {
                p.by_wait.insert((front.arrival, c));
            }
        }
        p.seq = self.seq;
        p.pending_cluster_ops = self.pending_cluster_ops;
        p
    }

    /// Thaw and refreeze the `Φ` domain from the *current* statics column
    /// (§10 adaptive estimation). Incremental churn deliberately never moves
    /// the domain — [`Self::update_unit_statics`] clamps drifted `Φ` into
    /// the frozen edge clusters — so after sustained drift many units can
    /// pile up in one edge bucket and the clustering loses its resolution.
    /// This recomputes the domain, the pseudo-priorities, and every bucket
    /// assignment, then replays all live entries in global enqueue order
    /// into their new clusters (the same construction as
    /// [`Self::rebuild_reference`], in place). O(q + live·log) — callers
    /// pace it (the engine triggers on observed out-of-domain drift, not
    /// per update).
    ///
    /// Returns false — with no state touched beyond installing the
    /// recomputed (identical-assignment) domain — when no membership or
    /// pseudo-priority actually changes, so callers can count effective
    /// refreezes.
    pub fn refreeze_domain(&mut self) -> bool {
        let m = self.cfg.clusters;
        let domain = PhiDomain::compute(self.statics.phi());
        let cluster_of: Vec<u32> = self
            .statics
            .phi()
            .iter()
            .map(|&p| domain.bucket(self.cfg.clustering, m, p))
            .collect();
        let pseudo: Vec<f64> = (0..m)
            .map(|i| domain.pseudo(self.cfg.clustering, m, i))
            .collect();
        self.domain = domain;
        if cluster_of == self.cluster_of && pseudo == self.pseudo {
            return false;
        }
        self.pseudo = pseudo;
        self.by_pseudo = (0..m as u32).collect();
        self.by_pseudo
            .sort_by(|&a, &b| self.pseudo[b as usize].total_cmp(&self.pseudo[a as usize]));
        let mut live: Vec<WaitEntry> = Vec::with_capacity(self.lists.live());
        self.lists.collect_live(&mut live);
        live.sort_by_key(|e| e.seq);
        self.cluster_of = cluster_of;
        self.lists.reset(m, self.statics.len());
        self.by_wait.clear();
        self.by_wait.reserve(m);
        for e in &live {
            self.lists.push_back(
                self.cluster_of[e.unit as usize],
                e.unit,
                e.tuple,
                e.arrival,
                e.seq,
            );
        }
        for c in 0..m as u32 {
            if let Some(front) = self.lists.front(c) {
                self.by_wait.insert((front.arrival, c));
            }
        }
        // Charge the rebuild like the §6 maintenance it is: one op per
        // re-bucketed unit plus one per replayed entry.
        self.pending_cluster_ops += self.statics.len() as u64 + live.len() as u64;
        true
    }

    /// Heap bytes committed for unit, statics, and wait-list storage — the
    /// per-query memory figure the large-q bench reports.
    pub fn memory_footprint(&self) -> usize {
        self.statics.heap_bytes()
            + self.lists.heap_bytes()
            + self.by_wait.heap_bytes()
            + self.cluster_of.capacity() * std::mem::size_of::<u32>()
            + self.retired.capacity()
            + self.pseudo.capacity() * std::mem::size_of::<f64>()
            + self.by_pseudo.capacity() * std::mem::size_of::<u32>()
            + self.move_scratch.capacity() * std::mem::size_of::<u32>()
    }

    /// Linear scan over non-empty clusters (clustering only, no pruning).
    fn select_scan(&self, now: Nanos) -> Option<(u32, u64)> {
        let mut best: Option<(f64, u32)> = None;
        let mut ops = 0;
        for c in 0..self.pseudo.len() {
            let Some(front) = self.lists.front(c as u32) else {
                continue;
            };
            let wait = now.saturating_since(front.arrival).as_nanos() as f64;
            let priority = self.pseudo[c] * wait;
            ops += 2;
            let better = match best {
                None => true,
                Some((b, bc)) => priority > b || (priority == b && (c as u32) < bc),
            };
            if better {
                best = Some((priority, c as u32));
            }
        }
        best.map(|(_, c)| (c, ops))
    }

    /// Fagin top-1 over (pseudo-priority, wait).
    fn select_fagin(&mut self, now: Nanos) -> Option<(u32, u64)> {
        let ClusteredBsdPolicy {
            pseudo,
            by_pseudo,
            by_wait,
            lists,
            fagin_scratch,
            ..
        } = self;
        // List A: clusters by pseudo-priority desc, skipping empty ones.
        let list_a = by_pseudo
            .iter()
            .copied()
            .filter(|&c| !lists.is_cluster_empty(c))
            .map(|c| (c, pseudo[c as usize]));
        // List B: non-empty clusters by head wait desc = ascending front
        // arrival; `by_wait` holds exactly the fronts.
        let list_b = by_wait
            .iter()
            .map(|&(arrival, c)| (c, now.saturating_since(arrival).as_nanos() as f64));
        let top = fagin_top1_with(
            fagin_scratch,
            list_a,
            list_b,
            |c| pseudo[c as usize],
            |c| {
                let front = lists.front(c).expect("fagin only sees non-empty clusters");
                now.saturating_since(front.arrival).as_nanos() as f64
            },
        )?;
        Some((top.object, top.accesses))
    }
}

impl Policy for ClusteredBsdPolicy {
    fn name(&self) -> &'static str {
        crate::PolicyKind::Clustered(self.cfg).name()
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        // Sanitize the Φ domain before deriving ranges from it: a NaN or
        // negative Φ (zero-selectivity units, external statics) maps to 0
        // and +∞ saturates to f64::MAX, so every arithmetic step below stays
        // well-defined (see UnitStatics::sanitized_phi). The domain freezes
        // here; later churn re-buckets against these ranges.
        self.statics = StaticsTable::from_units(units);
        for (u, unit) in units.iter().enumerate() {
            self.statics.set_phi(u as UnitId, unit.sanitized_phi());
        }
        let m = self.cfg.clusters;
        self.domain = PhiDomain::compute(self.statics.phi());
        self.cluster_of = self
            .statics
            .phi()
            .iter()
            .map(|&p| self.domain.bucket(self.cfg.clustering, m, p))
            .collect();
        self.retired = vec![false; units.len()];
        self.pseudo = (0..m)
            .map(|i| self.domain.pseudo(self.cfg.clustering, m, i))
            .collect();
        self.by_pseudo = (0..m as u32).collect();
        self.by_pseudo
            .sort_by(|&a, &b| self.pseudo[b as usize].total_cmp(&self.pseudo[a as usize]));
        self.lists.reset(m, units.len());
        self.by_wait.clear();
        self.by_wait.reserve(m);
        self.seq = 0;
    }

    fn on_enqueue(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos, _now: Nanos) {
        debug_assert!(
            !self.retired[unit as usize],
            "enqueue on retired unit {unit}"
        );
        let c = self.cluster_of[unit as usize];
        if self.lists.is_cluster_empty(c) {
            self.by_wait.insert((arrival, c));
            self.pending_cluster_ops += 1;
        }
        self.lists.push_back(c, unit, tuple, arrival, self.seq);
        self.seq += 1;
        self.pending_cluster_ops += 1;
    }

    fn on_shed(&mut self, unit: UnitId, tuple: TupleId) {
        // The engine shed the tail tuple of `unit`'s queue; the matching
        // mirror entry is the unit chain's tail (per-unit queues are FIFO,
        // so the rearmost entry is the shed victim) — O(1), no backlog scan.
        // A shed for a unit with no mirror entries is a no-op per the trait
        // contract (the governor can re-shed a unit drained in the same
        // admission storm).
        if self.lists.is_unit_empty(unit) {
            return;
        }
        debug_assert_eq!(
            self.lists.unit_tail_entry(unit).map(|e| e.tuple),
            Some(tuple),
            "shed tuple is the unit's rearmost mirror entry"
        );
        let (entry, was_front) = self
            .lists
            .remove_unit_tail(unit)
            .expect("unit chain is non-empty");
        let c = entry.cluster;
        if was_front {
            let removed = self.by_wait.remove(&(entry.arrival, c));
            debug_assert!(removed, "front entry tracked in by_wait");
            self.pending_cluster_ops += 1;
        }
        self.pending_cluster_ops += 1;
        if was_front {
            if let Some(front) = self.lists.front(c) {
                self.by_wait.insert((front.arrival, c));
                self.pending_cluster_ops += 1;
            }
        }
    }

    fn select(&mut self, queues: &dyn QueueView, now: Nanos) -> Option<Selection> {
        let (cluster, ops) = if self.cfg.use_fagin {
            self.select_fagin(now)?
        } else {
            self.select_scan(now)?
        };
        // Itemize the decision's work: the scan does one priority eval + one
        // comparison per non-empty cluster (ops = 2·k); Fagin's `ops` counts
        // sorted/random accesses, each of which reads one grade and updates
        // the threshold test. Either way the candidate pool is clusters, not
        // queries — that gap is the §6.2 saving `ext_overhead` plots.
        let mut stats = if self.cfg.use_fagin {
            SchedStats {
                candidates_scanned: ops,
                priority_evals: ops,
                comparisons: ops,
                ..SchedStats::default()
            }
        } else {
            SchedStats {
                candidates_scanned: ops / 2,
                priority_evals: ops / 2,
                comparisons: ops / 2,
                ..SchedStats::default()
            }
        };
        stats.cluster_ops = std::mem::take(&mut self.pending_cluster_ops);
        let head = *self
            .lists
            .front(cluster)
            .expect("selected cluster is non-empty");
        let removed = self.by_wait.remove(&(head.arrival, cluster));
        debug_assert!(removed, "front entry tracked in by_wait");
        stats.heap_ops += 1;
        let mut units = crate::policy::SelectionUnits::new();
        if self.cfg.batch {
            // Clustered processing: every member query pending on the head
            // tuple runs as one batch. Copies of one arriving tuple are
            // enqueued back-to-back, so they sit contiguously at the front.
            while let Some(e) = self.lists.front(cluster) {
                if e.tuple != head.tuple {
                    break;
                }
                units.push(e.unit);
                self.lists.pop_front(cluster);
            }
        } else {
            units.push(head.unit);
            self.lists.pop_front(cluster);
        }
        if let Some(front) = self.lists.front(cluster) {
            self.by_wait.insert((front.arrival, cluster));
            stats.heap_ops += 1;
        }
        debug_assert!(units.iter().all(|&u| queues.len(u) > 0));
        let _ = queues;
        Some(Selection {
            units,
            ops_counted: ops,
            stats,
        })
    }

    fn on_domain_refreeze(&mut self) -> bool {
        self.refreeze_domain()
    }

    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.update_unit_statics(unit, statics);
    }

    fn memory_footprint(&self) -> Option<usize> {
        Some(self.memory_footprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsd::BsdPolicy;
    use crate::policy::testkit::MockQueues;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    /// Units with Φ spanning several decades.
    fn spread_units(n: usize) -> Vec<UnitStatics> {
        (0..n)
            .map(|i| {
                let c = 1u64 << (i % 5); // costs 1,2,4,8,16 ms
                UnitStatics::new(0.2 + 0.15 * (i % 5) as f64, ms(c), ms(c * 3))
            })
            .collect()
    }

    #[test]
    fn log_clusters_have_bounded_ratio() {
        let units = spread_units(50);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(8));
        p.on_register(&units);
        let phis: Vec<f64> = units.iter().map(UnitStatics::bsd_static).collect();
        let (lo, hi) = phis
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(l, h), &p| (l.min(p), h.max(p)));
        let eps = (hi / lo).powf(1.0 / 8.0);
        // Every unit's Φ lies within [pseudo, pseudo·ε] of its cluster.
        for (u, &phi) in phis.iter().enumerate() {
            let c = p.cluster_of(u as UnitId);
            let pseudo = p.pseudo_priority(c);
            assert!(
                phi >= pseudo * (1.0 - 1e-9) && phi <= pseudo * eps * (1.0 + 1e-9),
                "unit {u}: Φ={phi} outside cluster {c} range [{pseudo}, {})",
                pseudo * eps
            );
        }
    }

    #[test]
    fn uniform_clusters_have_equal_width() {
        let units = spread_units(50);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Uniform,
            clusters: 4,
            use_fagin: false,
            batch: false,
        });
        p.on_register(&units);
        let widths: Vec<f64> = (0..3)
            .map(|i| p.pseudo_priority(i + 1) - p.pseudo_priority(i))
            .collect();
        for w in &widths {
            assert!((w - widths[0]).abs() / widths[0] < 1e-9);
        }
    }

    #[test]
    fn single_cluster_degenerates_to_fcfs() {
        // m=1: every unit shares one FIFO queue -> arrival order.
        let units = spread_units(4);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: 1,
            use_fagin: false,
            batch: false,
        });
        p.on_register(&units);
        let mut q = MockQueues::new(4);
        for (i, &u) in [2u32, 0, 3].iter().enumerate() {
            let t = TupleId::new(i as u64);
            let a = ms(i as u64 * 5);
            q.push(u, t, a);
            p.on_enqueue(u, t, a, a);
        }
        let mut order = Vec::new();
        for _ in 0..3 {
            let sel = p.select(&q, ms(100)).unwrap();
            assert_eq!(sel.units.len(), 1);
            q.pop(sel.units[0]);
            order.push(sel.units[0]);
        }
        assert_eq!(order, vec![2, 0, 3]);
        assert!(p.select(&q, ms(100)).is_none());
    }

    #[test]
    fn batch_executes_all_copies_of_head_tuple() {
        // Three units in one cluster all receive tuple t0, then t1.
        let units: Vec<UnitStatics> = (0..3)
            .map(|_| UnitStatics::new(0.5, ms(2), ms(4)))
            .collect();
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(4));
        p.on_register(&units);
        let mut q = MockQueues::new(3);
        for u in 0..3u32 {
            q.push(u, TupleId::new(0), ms(1));
            p.on_enqueue(u, TupleId::new(0), ms(1), ms(1));
        }
        q.push(1, TupleId::new(1), ms(2));
        p.on_enqueue(1, TupleId::new(1), ms(2), ms(2));
        let sel = p.select(&q, ms(10)).unwrap();
        assert_eq!(sel.units, vec![0, 1, 2], "whole cluster batch on t0");
        for &u in &sel.units {
            q.pop(u);
        }
        let sel = p.select(&q, ms(10)).unwrap();
        assert_eq!(sel.units, vec![1], "t1 runs alone");
    }

    #[test]
    fn shed_keeps_mirror_and_wait_index_consistent() {
        // One cluster (FCFS-degenerate) makes the expected order obvious.
        let units = spread_units(3);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: 1,
            use_fagin: false,
            batch: false,
        });
        p.on_register(&units);
        let mut q = MockQueues::new(3);
        for (i, &u) in [0u32, 1, 0, 2].iter().enumerate() {
            let t = TupleId::new(i as u64);
            let a = ms(i as u64 * 5);
            q.push(u, t, a);
            p.on_enqueue(u, t, a, a);
        }
        // Shed unit 0's tail (tuple 2 — a mid-queue mirror entry, so the
        // by_wait front stays untouched); drain order must skip it.
        q.pop_back(0);
        p.on_shed(0, TupleId::new(2));
        let mut order = Vec::new();
        while !q.nonempty().is_empty() {
            let sel = p.select(&q, ms(100)).unwrap();
            q.pop(sel.units[0]);
            order.push(sel.units[0]);
        }
        assert_eq!(order, vec![0, 1, 2]);
        assert!(p.select(&q, ms(100)).is_none());
    }

    #[test]
    fn shed_of_front_entry_repairs_wait_index() {
        let units = spread_units(2);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: 1,
            use_fagin: false,
            batch: false,
        });
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        // Unit 0 holds the cluster's single front entry; shedding it must
        // move by_wait to the next entry (unit 1) or select would stall.
        q.push(0, TupleId::new(0), ms(0));
        p.on_enqueue(0, TupleId::new(0), ms(0), ms(0));
        q.push(1, TupleId::new(1), ms(5));
        p.on_enqueue(1, TupleId::new(1), ms(5), ms(5));
        q.pop_back(0);
        p.on_shed(0, TupleId::new(0));
        let sel = p.select(&q, ms(100)).unwrap();
        assert_eq!(sel.units, vec![1]);
        q.pop(1);
        assert!(p.select(&q, ms(100)).is_none());
    }

    #[test]
    fn double_shed_is_a_noop_on_empty_mirror() {
        let units = spread_units(2);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: 1,
            use_fagin: false,
            batch: false,
        });
        p.on_register(&units);
        let mut q = MockQueues::new(2);
        q.push(0, TupleId::new(0), ms(0));
        p.on_enqueue(0, TupleId::new(0), ms(0), ms(0));
        q.push(1, TupleId::new(1), ms(5));
        p.on_enqueue(1, TupleId::new(1), ms(5), ms(5));
        // First shed drains unit 0's only entry; the second hits an already
        // empty mirror and must be tolerated as a no-op (trait contract:
        // idempotent per queue position — no underflow, no panic, and the
        // wait index must not be corrupted for the surviving unit.
        q.pop_back(0);
        p.on_shed(0, TupleId::new(0));
        p.on_shed(0, TupleId::new(0));
        let sel = p.select(&q, ms(100)).unwrap();
        assert_eq!(sel.units, vec![1]);
        q.pop(1);
        assert!(p.select(&q, ms(100)).is_none());
    }

    /// With m ≥ distinct Φ values and no batching, clustered BSD must make
    /// the same decisions as exact BSD (each unit alone in its cluster ⇒
    /// pseudo-priority ordering equals Φ ordering; the only approximation
    /// is the pseudo value, which preserves order).
    #[test]
    fn many_clusters_match_exact_bsd_decisions() {
        let units = spread_units(5); // 5 distinct Φ
        let mk_queue_state = |q: &mut MockQueues, p: &mut dyn Policy| {
            for (i, arrival) in [0u64, 3, 6, 9, 12].iter().enumerate() {
                let t = TupleId::new(i as u64);
                let a = ms(*arrival);
                q.push(i as UnitId, t, a);
                p.on_enqueue(i as UnitId, t, a, a);
            }
        };
        let mut exact = BsdPolicy::new();
        exact.on_register(&units);
        let mut qe = MockQueues::new(5);
        mk_queue_state(&mut qe, &mut exact);

        let mut clustered = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: 64,
            use_fagin: true,
            batch: false,
        });
        clustered.on_register(&units);
        let mut qc = MockQueues::new(5);
        mk_queue_state(&mut qc, &mut clustered);

        let mut now = ms(20);
        for _ in 0..5 {
            let se = exact.select(&qe, now).unwrap();
            let sc = clustered.select(&qc, now).unwrap();
            assert_eq!(se.units, sc.units, "decision diverged at {now}");
            qe.pop(se.units[0]);
            qc.pop(sc.units[0]);
            now += ms(5);
        }
    }

    #[test]
    fn fagin_and_scan_agree() {
        let units = spread_units(30);
        let build = |fagin: bool| {
            let mut p = ClusteredBsdPolicy::new(ClusterConfig {
                clustering: Clustering::Logarithmic,
                clusters: 6,
                use_fagin: fagin,
                batch: false,
            });
            p.on_register(&units);
            p
        };
        let mut pf = build(true);
        let mut ps = build(false);
        let mut qf = MockQueues::new(30);
        let mut qs = MockQueues::new(30);
        for i in 0..30u32 {
            let t = TupleId::new(i as u64);
            let a = ms((i as u64 * 7) % 40);
            // Mock requires per-unit order only; arrivals per unit are single.
            qf.push(i, t, a);
            qs.push(i, t, a);
        }
        // Re-drive enqueues in arrival order for the policy mirrors.
        let mut order: Vec<u32> = (0..30).collect();
        order.sort_by_key(|&i| (i as u64 * 7) % 40);
        for &i in &order {
            let t = TupleId::new(i as u64);
            let a = ms((i as u64 * 7) % 40);
            pf.on_enqueue(i, t, a, a);
            ps.on_enqueue(i, t, a, a);
        }
        let mut now = ms(50);
        for _ in 0..30 {
            let sf = pf.select(&qf, now).unwrap();
            let ss = ps.select(&qs, now).unwrap();
            // Same cluster priority function ⇒ same cluster; FIFO within
            // cluster ⇒ same unit.
            assert_eq!(sf.units, ss.units);
            qf.pop(sf.units[0]);
            qs.pop(ss.units[0]);
            now += ms(3);
        }
    }

    #[test]
    fn fagin_costs_less_than_scan_on_many_clusters() {
        let units = spread_units(200);
        let mut pf = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: 32,
            use_fagin: true,
            batch: false,
        });
        let mut ps = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: 32,
            use_fagin: false,
            batch: false,
        });
        pf.on_register(&units);
        ps.on_register(&units);
        let mut qf = MockQueues::new(200);
        let mut qs = MockQueues::new(200);
        for i in 0..200u32 {
            let t = TupleId::new(i as u64);
            let a = ms(i as u64);
            qf.push(i, t, a);
            qs.push(i, t, a);
            pf.on_enqueue(i, t, a, a);
            ps.on_enqueue(i, t, a, a);
        }
        let sf = pf.select(&qf, ms(500)).unwrap();
        let ss = ps.select(&qs, ms(500)).unwrap();
        assert!(
            sf.ops_counted < ss.ops_counted,
            "fagin {} vs scan {}",
            sf.ops_counted,
            ss.ops_counted
        );
    }

    /// Enqueue one tuple per unit (FIFO arrival order by unit id) and drain
    /// through the policy, returning the unit execution order. Panics if
    /// `select` ever wedges while work is pending.
    fn drain_all(p: &mut ClusteredBsdPolicy, n: usize) -> Vec<UnitId> {
        let mut q = MockQueues::new(n);
        for u in 0..n as u32 {
            let t = TupleId::new(u as u64);
            let a = ms(u as u64 * 3);
            q.push(u, t, a);
            p.on_enqueue(u, t, a, a);
        }
        let mut order = Vec::new();
        while !q.nonempty().is_empty() {
            let sel = p.select(&q, ms(100)).expect("work pending, must select");
            for &u in sel.units.iter() {
                q.pop(u);
                order.push(u);
            }
        }
        order
    }

    #[test]
    fn single_static_priority_domain_does_not_panic_or_nan() {
        // lo == hi (every Φ identical): both splits must degenerate to one
        // cluster with a finite pseudo-priority instead of dividing by
        // (hi − lo) or taking ln(1)/m ratios.
        for clustering in [Clustering::Uniform, Clustering::Logarithmic] {
            let units: Vec<UnitStatics> = (0..2)
                .map(|_| UnitStatics::new(0.5, ms(2), ms(4)))
                .collect();
            let mut p = ClusteredBsdPolicy::new(ClusterConfig {
                clustering,
                clusters: 8,
                use_fagin: false,
                batch: false,
            });
            p.on_register(&units);
            for c in 0..8 {
                assert!(
                    p.pseudo_priority(c).is_finite(),
                    "{clustering:?}: pseudo must be finite"
                );
            }
            assert_eq!(p.cluster_of(0), 0);
            assert_eq!(p.cluster_of(1), 0);
            assert_eq!(drain_all(&mut p, 2), vec![0, 1], "FIFO within the cluster");
        }
    }

    #[test]
    fn zero_phi_units_cluster_low_without_nan() {
        // lo == 0 (a zero-selectivity unit): the logarithmic split's
        // `ln(hi/lo)` is ∞ unguarded; the zero-Φ unit must land in cluster
        // 0 with every pseudo-priority finite, and draining must terminate.
        let units = vec![
            UnitStatics::new(0.0, ms(2), ms(4)), // Φ = 0
            UnitStatics::new(0.4, ms(1), ms(2)), // Φ > 0
            UnitStatics::new(0.9, ms(1), ms(2)), // Φ_max
        ];
        for clustering in [Clustering::Uniform, Clustering::Logarithmic] {
            let mut p = ClusteredBsdPolicy::new(ClusterConfig {
                clustering,
                clusters: 4,
                use_fagin: false,
                batch: false,
            });
            p.on_register(&units);
            assert_eq!(p.cluster_of(0), 0, "{clustering:?}: zero-Φ in cluster 0");
            assert_eq!(p.cluster_of(2), 3, "{clustering:?}: Φ_max in top cluster");
            for c in 0..4 {
                assert!(p.pseudo_priority(c).is_finite());
            }
            let order = drain_all(&mut p, 3);
            assert_eq!(order.len(), 3, "{clustering:?}: every tuple served");
        }
    }

    #[test]
    fn nan_phi_units_are_tamed_to_cluster_zero() {
        // Raw statics whose Φ would be NaN (0/0 before the UnitStatics
        // clamp existed) must still register and drain. After the clamp the
        // Φ is finite, but on_register additionally sanitizes, so even a
        // custom UnitStatics with poisoned fields cannot wedge selection.
        let mut units = vec![UnitStatics::new(0.8, ms(1), ms(2)); 2];
        units[0].selectivity = f64::NAN; // forces Φ = NaN through bsd_static
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(4));
        p.on_register(&units);
        assert_eq!(p.cluster_of(0), 0);
        for c in 0..4 {
            assert!(!p.pseudo_priority(c).is_nan());
        }
        let mut pf = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: 4,
            use_fagin: false,
            batch: false,
        });
        pf.on_register(&units);
        assert_eq!(drain_all(&mut pf, 2).len(), 2);
    }

    #[test]
    fn phi_exactly_at_hi_maps_to_top_cluster() {
        // The boundary case p == hi: the raw bucket formula floors to m
        // (out of range) for both splits; the unit owning Φ_max must land
        // in cluster m − 1, and indexing must stay in bounds.
        let units = spread_units(50);
        let phis: Vec<f64> = units.iter().map(UnitStatics::bsd_static).collect();
        let hi = phis.iter().fold(0.0f64, |h, &p| h.max(p));
        let top = phis.iter().position(|&p| p == hi).unwrap();
        for (clustering, m) in [
            (Clustering::Uniform, 8usize),
            (Clustering::Logarithmic, 8),
            (Clustering::Uniform, 1),
            (Clustering::Logarithmic, 1),
        ] {
            let mut p = ClusteredBsdPolicy::new(ClusterConfig {
                clustering,
                clusters: m,
                use_fagin: true,
                batch: true,
            });
            p.on_register(&units);
            assert_eq!(
                p.cluster_of(top as UnitId),
                m as u32 - 1,
                "{clustering:?} m={m}: Φ_max belongs to the top cluster"
            );
            for u in 0..units.len() {
                assert!((p.cluster_of(u as UnitId) as usize) < m, "index in range");
            }
        }
    }

    #[test]
    fn identical_phis_collapse_to_one_cluster() {
        let units: Vec<UnitStatics> = (0..4)
            .map(|_| UnitStatics::new(0.5, ms(2), ms(4)))
            .collect();
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(8));
        p.on_register(&units);
        for u in 0..4 {
            assert_eq!(p.cluster_of(u), 0);
        }
    }

    // ---- incremental maintenance ----

    #[test]
    fn added_unit_joins_the_frozen_domain() {
        let units = spread_units(50);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(8));
        p.on_register(&units);
        // A clone of unit 7 must land in unit 7's cluster; an off-domain
        // Φ clamps to an edge cluster.
        let u = p.add_unit(units[7]);
        assert_eq!(u, 50);
        assert_eq!(p.cluster_of(u), p.cluster_of(7));
        let huge = p.add_unit(UnitStatics::new(
            1.0,
            Nanos::from_nanos(1),
            Nanos::from_nanos(1),
        ));
        assert_eq!(p.cluster_of(huge), 7, "off-domain Φ clamps to the top");
        let zero = p.add_unit(UnitStatics::new(0.0, ms(5), ms(5)));
        assert_eq!(p.cluster_of(zero), 0, "zero Φ clamps to the bottom");
        assert_eq!(p.unit_count(), 53);
    }

    #[test]
    fn statics_update_rebuckets_and_drags_pending_entries() {
        let units = spread_units(10);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig {
            clustering: Clustering::Logarithmic,
            clusters: 8,
            use_fagin: false,
            batch: false,
        });
        p.on_register(&units);
        let mut q = MockQueues::new(10);
        for u in 0..10u32 {
            let t = TupleId::new(u as u64);
            let a = ms(u as u64);
            q.push(u, t, a);
            p.on_enqueue(u, t, a, a);
        }
        // Give unit 0 the statics of a unit in a different cluster.
        let donor = (0..10u32)
            .find(|&u| p.cluster_of(u) != p.cluster_of(0))
            .expect("spread units span clusters");
        let before = p.cluster_of(0);
        p.update_unit_statics(0, &units[donor as usize]);
        assert_ne!(p.cluster_of(0), before);
        assert_eq!(p.cluster_of(0), p.cluster_of(donor));
        // All ten tuples still drain (by_wait repaired, entries migrated).
        let mut served = 0;
        while !q.nonempty().is_empty() {
            let sel = p.select(&q, ms(1000)).expect("no wedge after migration");
            for &u in sel.units.iter() {
                q.pop(u);
                served += 1;
            }
        }
        assert_eq!(served, 10);
    }

    #[test]
    fn rebuild_reference_is_behaviorally_identical() {
        let units = spread_units(12);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(6));
        p.on_register(&units);
        let mut q = MockQueues::new(12);
        for u in 0..12u32 {
            let t = TupleId::new(u as u64);
            let a = ms(u as u64 * 2);
            q.push(u, t, a);
            p.on_enqueue(u, t, a, a);
        }
        // Mutate: one statics change, one shed, one extra arrival.
        p.update_unit_statics(3, &units[8]);
        q.pop_back(5);
        p.on_shed(5, TupleId::new(5));
        q.push(2, TupleId::new(20), ms(40));
        p.on_enqueue(2, TupleId::new(20), ms(40), ms(40));

        let mut r = p.rebuild_reference();
        let mut qr = MockQueues::new(12);
        for u in 0..12u32 {
            if u == 5 {
                continue;
            }
            qr.push(u, TupleId::new(u as u64), ms(u as u64 * 2));
        }
        qr.push(2, TupleId::new(20), ms(40));

        let mut now = ms(50);
        while !q.nonempty().is_empty() {
            let a = p.select(&q, now).expect("original selects");
            let b = r.select(&qr, now).expect("reference selects");
            assert_eq!(a.units, b.units, "selection diverged at {now}");
            assert_eq!(a.ops_counted, b.ops_counted);
            assert_eq!(a.stats, b.stats, "stats diverged at {now}");
            for &u in a.units.iter() {
                q.pop(u);
                qr.pop(u);
            }
            now += ms(3);
        }
        assert!(r.select(&qr, now).is_none());
    }

    #[test]
    fn refreeze_restores_resolution_after_domain_drift() {
        let units = spread_units(10);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(8));
        p.on_register(&units);
        let mut q = MockQueues::new(10);
        for u in 0..10u32 {
            let t = TupleId::new(u as u64);
            let a = ms(u as u64);
            q.push(u, t, a);
            p.on_enqueue(u, t, a, a);
        }
        // Drift every unit far above the frozen domain: incremental updates
        // clamp them all into the top edge cluster.
        for (u, s) in units.iter().enumerate() {
            let drifted = UnitStatics {
                selectivity: s.selectivity * 1e6,
                ..*s
            };
            p.update_unit_statics(u as UnitId, &drifted);
        }
        let clamped = p.cluster_of(0);
        assert!(
            (0..10u32).all(|u| p.cluster_of(u) == clamped),
            "drift past the frozen hi edge collapses everything into one bucket"
        );
        assert!(p.refreeze_domain(), "a real domain move reports true");
        let distinct: std::collections::BTreeSet<u32> =
            (0..10u32).map(|u| p.cluster_of(u)).collect();
        assert!(
            distinct.len() > 1,
            "refreeze re-spreads the drifted Φ across clusters"
        );
        // Behavior matches a policy registered fresh on the drifted statics.
        let drifted: Vec<UnitStatics> = units
            .iter()
            .map(|s| UnitStatics {
                selectivity: s.selectivity * 1e6,
                ..*s
            })
            .collect();
        let mut fresh = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(8));
        fresh.on_register(&drifted);
        let mut qf = MockQueues::new(10);
        for u in 0..10u32 {
            let t = TupleId::new(u as u64);
            let a = ms(u as u64);
            qf.push(u, t, a);
            fresh.on_enqueue(u, t, a, a);
        }
        let mut now = ms(100);
        while !q.nonempty().is_empty() {
            let a = p.select(&q, now).expect("refrozen selects");
            let b = fresh.select(&qf, now).expect("fresh selects");
            assert_eq!(a.units, b.units, "order diverged from fresh at {now}");
            for &u in a.units.iter() {
                q.pop(u);
                qf.pop(u);
            }
            now += ms(3);
        }
        // And the rebuilt reference still agrees from here on (the
        // differential invariant holds across a refreeze).
        let r = p.rebuild_reference();
        assert_eq!(r.cluster_of, p.cluster_of);
        assert_eq!(r.pseudo, p.pseudo);
    }

    #[test]
    fn refreeze_without_drift_reports_false() {
        let units = spread_units(6);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(4));
        p.on_register(&units);
        let mut q = MockQueues::new(6);
        for u in 0..6u32 {
            let t = TupleId::new(u as u64);
            q.push(u, t, ms(u as u64));
            p.on_enqueue(u, t, ms(u as u64), ms(u as u64));
        }
        let before: Vec<u32> = (0..6u32).map(|u| p.cluster_of(u)).collect();
        let ops_before = p.pending_cluster_ops;
        assert!(!p.refreeze_domain(), "unchanged statics: no-op refreeze");
        let after: Vec<u32> = (0..6u32).map(|u| p.cluster_of(u)).collect();
        assert_eq!(before, after);
        assert_eq!(
            p.pending_cluster_ops, ops_before,
            "a no-op refreeze charges nothing"
        );
        // The backlog is untouched: everything still drains.
        let mut served = 0;
        while !q.nonempty().is_empty() {
            let sel = p.select(&q, ms(500)).expect("drains after no-op refreeze");
            for &u in sel.units.iter() {
                q.pop(u);
                served += 1;
            }
        }
        assert_eq!(served, 6);
    }

    #[test]
    fn retire_requires_empty_backlog_and_sticks() {
        let units = spread_units(3);
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(4));
        p.on_register(&units);
        p.retire_unit(1);
        assert!(p.is_retired(1));
        assert!(!p.is_retired(0));
        let mut q = MockQueues::new(3);
        q.push(0, TupleId::new(0), ms(1));
        p.on_enqueue(0, TupleId::new(0), ms(1), ms(1));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.retire_unit(0);
        }));
        assert!(outcome.is_err(), "retiring a backlogged unit must panic");
    }

    #[test]
    fn memory_footprint_scales_with_units_not_backlog_squared() {
        let mut p = ClusteredBsdPolicy::new(ClusterConfig::logarithmic(8));
        p.on_register(&spread_units(1000));
        let empty = p.memory_footprint();
        assert!(empty > 0);
        let mut q = MockQueues::new(1000);
        for u in 0..1000u32 {
            let t = TupleId::new(u as u64);
            q.push(u, t, ms(1));
            p.on_enqueue(u, t, ms(1), ms(1));
        }
        let loaded = p.memory_footprint();
        // Statics (4×8) + entry (48) + links and membership: comfortably
        // under the 200 B/query budget the large-q bench gates.
        assert!(
            loaded < 1000 * 200,
            "footprint {loaded} exceeds 200 B/query at q=1000"
        );
        assert!(loaded >= empty);
    }
}
