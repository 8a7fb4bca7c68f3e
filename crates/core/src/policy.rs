//! The policy ⇄ engine contract.

use hcq_common::{Nanos, TupleId};

use crate::unit::UnitStatics;

/// Index of a schedulable unit (dense; the engine defines the unit space).
pub type UnitId = u32;

/// Read access to the engine's queue state, passed to `select`.
///
/// The head arrivals are served as one dense column so that a scanning
/// policy pays one virtual call per *decision* and one contiguous gather per
/// ready unit ([`crate::soa::scan_argmax`]), not a call and a queue-header
/// chase per unit. The implementor owns the column and keeps it current as
/// heads change; [`QueueView::head_arrival`] is derived from it, so there is
/// a single source of truth.
pub trait QueueView {
    /// Number of pending tuples in the unit's input queue.
    fn len(&self, unit: UnitId) -> usize;
    /// System-arrival time of every unit's head tuple, indexed by unit id
    /// and covering the whole unit space. For composite tuples this is the
    /// §5.1.1 arrival (max over constituents). Only the entries of
    /// [`QueueView::nonempty`] units are meaningful: an empty unit's entry
    /// is unspecified (typically the stale arrival of its last head), so
    /// readers index it through `nonempty()` or use `head_arrival`.
    fn head_arrivals(&self) -> &[Nanos];
    /// System-arrival time of the unit's head tuple, if any.
    fn head_arrival(&self, unit: UnitId) -> Option<Nanos> {
        (self.len(unit) > 0).then(|| self.head_arrivals()[unit as usize])
    }
    /// Units with at least one pending tuple (unordered).
    fn nonempty(&self) -> &[UnitId];
}

/// Itemized scheduler work behind one decision (§6 overhead accounting).
///
/// `Selection::ops_counted` is the *charged* aggregate that §9.2 converts to
/// virtual time; this struct breaks the same work down by kind so the trace
/// layer and the `ext_overhead` exhibit can compare implementations
/// structurally (naive scan vs clustering vs Fagin) instead of by proxy QoS.
/// Maintenance done between scheduling points (cluster inserts, heap pushes,
/// shed repairs) is accumulated by the policy and reported on the *next*
/// decision, so summing per-point stats over a run covers all policy work.
///
/// The wait-linear policies ([`crate::WaitPolicy`]: BSD, LSF, ℓp) are the
/// exception: their itemization is by definition the naive scan's, `|ready|`
/// candidates, evaluations and comparisons ([`crate::soa::naive_charge`]) —
/// the §9.2 model Fig. 14 and `ext_overhead` measure — not the work their
/// grouped selection actually does, which is wall-clock only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Ready units (or non-empty clusters / sorted-list positions) inspected.
    pub candidates_scanned: u64,
    /// Dynamic priority computations (`Φ·W`, `W/T`, Fagin grades, …).
    pub priority_evals: u64,
    /// Priority comparisons performed while picking the argmax.
    pub comparisons: u64,
    /// Cluster maintenance: member inserts, mirror repairs on shed (§6.2).
    pub cluster_ops: u64,
    /// Heap / ordered-index operations: pushes, pops, peeks, BTree edits.
    pub heap_ops: u64,
}

impl SchedStats {
    /// Sum of every counter — a structure-free "total work" scalar.
    pub fn total(&self) -> u64 {
        self.candidates_scanned
            + self.priority_evals
            + self.comparisons
            + self.cluster_ops
            + self.heap_ops
    }
}

impl std::ops::AddAssign for SchedStats {
    fn add_assign(&mut self, rhs: SchedStats) {
        self.candidates_scanned += rhs.candidates_scanned;
        self.priority_evals += rhs.priority_evals;
        self.comparisons += rhs.comparisons;
        self.cluster_ops += rhs.cluster_ops;
        self.heap_ops += rhs.heap_ops;
    }
}

/// A scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Units to run, each on its current head tuple. A single unit for every
    /// policy except clustered processing (§6.2.3), which batches all member
    /// queries of the chosen cluster over the shared head tuple.
    pub units: SelectionUnits,
    /// Priority computations + comparisons this decision cost; the engine
    /// charges `ops_counted × c_sched` of virtual time when overhead
    /// accounting is on (§9.2 sets `c_sched` to the cheapest operator cost).
    /// For BSD, LSF and ℓp it is the naive scan's `2·|ready|` whatever the
    /// policy computed (see [`SchedStats`]).
    pub ops_counted: u64,
    /// The same work itemized by kind for tracing/profiling. Never feeds
    /// back into scheduling or overhead charging, so a policy that leaves it
    /// at `SchedStats::default()` stays behaviorally identical.
    pub stats: SchedStats,
    /// The choice holds: the policy would select this same single unit
    /// again, for as long as the unit's queue is non-empty, until it next
    /// receives `on_enqueue`, `on_shed`, `on_statics_update` or
    /// `on_register`, or has its priorities changed. An executor may then
    /// serve the unit's following heads without calling `select`. Only
    /// the static-priority policies set it (serving the top-ranked unit's
    /// head leaves it on top); the simulator ignores it, because §9.2
    /// charges every scheduling point.
    pub holds: bool,
}

impl Selection {
    /// A single-unit decision.
    pub fn one(unit: UnitId, ops_counted: u64) -> Self {
        let mut units = SelectionUnits::new();
        units.push(unit);
        Selection {
            units,
            ops_counted,
            stats: SchedStats::default(),
            holds: false,
        }
    }

    /// Attach itemized work counters (builder-style).
    pub fn with_stats(mut self, stats: SchedStats) -> Self {
        self.stats = stats;
        self
    }

    /// Mark the choice as holding (builder-style; see [`Selection::holds`]).
    pub fn held(mut self) -> Self {
        self.holds = true;
        self
    }
}

/// How many units a [`SelectionUnits`] holds before spilling to the heap.
const SELECTION_INLINE: usize = 4;

/// The unit list of a [`Selection`], stored inline for the common case.
///
/// `select` runs once per scheduling point — millions of times per
/// simulation — and almost always returns exactly one unit, so a `Vec` here
/// means a heap allocation per decision. Up to `SELECTION_INLINE` units
/// live inline; only clustered-processing batches larger than that spill to
/// a `Vec`. Dereferences to `[UnitId]`, iterates by value and by reference,
/// and compares against `Vec<UnitId>` so call sites read like a `Vec`.
/// `#[inline]` throughout: executors walk one at every serve, held ones
/// included, and as cross-crate calls they cost `rt_saturate` ≈ ×0.7.
#[derive(Clone)]
pub enum SelectionUnits {
    /// At most `SELECTION_INLINE` units, no heap allocation.
    Inline {
        /// Number of live entries in `buf`.
        len: u8,
        /// Storage; only `buf[..len]` is meaningful.
        buf: [UnitId; SELECTION_INLINE],
    },
    /// Batches larger than the inline capacity.
    Spilled(Vec<UnitId>),
}

impl SelectionUnits {
    /// An empty unit list (no allocation).
    #[inline]
    pub fn new() -> Self {
        SelectionUnits::Inline {
            len: 0,
            buf: [0; SELECTION_INLINE],
        }
    }

    /// Append a unit, spilling to the heap past the inline capacity.
    #[inline]
    pub fn push(&mut self, unit: UnitId) {
        match self {
            SelectionUnits::Inline { len, buf } => {
                if (*len as usize) < SELECTION_INLINE {
                    buf[*len as usize] = unit;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(SELECTION_INLINE * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(unit);
                    *self = SelectionUnits::Spilled(v);
                }
            }
            SelectionUnits::Spilled(v) => v.push(unit),
        }
    }

    /// The units as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[UnitId] {
        match self {
            SelectionUnits::Inline { len, buf } => &buf[..*len as usize],
            SelectionUnits::Spilled(v) => v,
        }
    }
}

impl Default for SelectionUnits {
    fn default() -> Self {
        SelectionUnits::new()
    }
}

impl std::ops::Deref for SelectionUnits {
    type Target = [UnitId];

    #[inline]
    fn deref(&self) -> &[UnitId] {
        self.as_slice()
    }
}

impl std::fmt::Debug for SelectionUnits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for SelectionUnits {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SelectionUnits {}

impl PartialEq<Vec<UnitId>> for SelectionUnits {
    fn eq(&self, other: &Vec<UnitId>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<SelectionUnits> for Vec<UnitId> {
    fn eq(&self, other: &SelectionUnits) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[UnitId]> for SelectionUnits {
    fn eq(&self, other: &&[UnitId]) -> bool {
        self.as_slice() == *other
    }
}

impl FromIterator<UnitId> for SelectionUnits {
    fn from_iter<I: IntoIterator<Item = UnitId>>(iter: I) -> Self {
        let mut units = SelectionUnits::new();
        for u in iter {
            units.push(u);
        }
        units
    }
}

impl IntoIterator for SelectionUnits {
    type Item = UnitId;
    type IntoIter = SelectionUnitsIter;

    #[inline]
    fn into_iter(self) -> SelectionUnitsIter {
        SelectionUnitsIter {
            units: self,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for &'a SelectionUnits {
    type Item = &'a UnitId;
    type IntoIter = std::slice::Iter<'a, UnitId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// By-value iterator over [`SelectionUnits`].
#[derive(Debug)]
pub struct SelectionUnitsIter {
    units: SelectionUnits,
    next: usize,
}

impl Iterator for SelectionUnitsIter {
    type Item = UnitId;

    #[inline]
    fn next(&mut self) -> Option<UnitId> {
        let slice = self.units.as_slice();
        let unit = slice.get(self.next).copied();
        self.next += 1;
        unit
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.units.as_slice().len().saturating_sub(self.next);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SelectionUnitsIter {}

/// A scheduling policy.
///
/// Engine contract:
/// * `on_register` is called once with the statics of every unit before any
///   other callback.
/// * `on_enqueue(unit, tuple, arrival, now)` fires when a tuple enters the
///   unit's input queue (`arrival` = the tuple's *system* arrival time, which
///   is what every `W` in the paper means).
/// * `on_shed(unit, tuple)` fires when the engine's overload manager removes
///   the *tail* tuple of `unit`'s queue without executing it (load shedding).
///   Policies that mirror per-tuple state must forget that entry; stateless
///   policies inherit the no-op default. A tuple rejected at admission (never
///   enqueued) generates no callback at all. The callback must be
///   **idempotent per queue position**: the engine guarantees at most one
///   `on_shed` per enqueued tuple, but fault harnesses and the overload
///   governor can shed the *same unit* repeatedly in one admission storm, so
///   an implementation must tolerate a shed for a unit whose mirrored queue
///   is already empty (treat it as a no-op rather than underflowing or
///   panicking).
/// * `select` is called only when at least one queue is non-empty; it must
///   return units with non-empty queues. After `select`, the engine dequeues
///   exactly one head tuple from each returned unit and executes it.
/// * Tuples leave a queue only those two ways: as the head of a unit a
///   returned [`Selection`] named, or as a tail reported by `on_shed`. A
///   held unit's head may also leave: after a selection with
///   [`Selection::holds`], the executor may pop further heads of that unit
///   without calling `select` until the unit empties or it makes another
///   callback, and the policy's next `select` sees the unit shorter.
///   BSD, LSF and ℓp rely on it: they re-read a unit's head only after one
///   of those events or an `on_enqueue` on a unit they hold no head for, so
///   a dequeue they were not told about leaves them selecting on a stale
///   head instant. (Debug builds catch that by asserting every selection
///   against the scan; the count check in their `select` catches only
///   ready units they were never told about.)
pub trait Policy {
    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// Receive the static characterization of all units.
    ///
    /// Registration is a **full reset**, not an increment: implementations
    /// must drop any transient per-tuple mirror state (wait lists, FIFOs,
    /// heaps) along with rebuilding priorities. The engine relies on this
    /// when it re-registers a standby policy on a governor policy switch —
    /// it replays the live backlog through `on_enqueue` immediately after,
    /// so mirror entries that survive `on_register` would be double-counted.
    fn on_register(&mut self, units: &[UnitStatics]);

    /// A tuple entered `unit`'s queue.
    fn on_enqueue(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos, now: Nanos);

    /// The overload manager shed the tail tuple of `unit`'s queue. Must be
    /// safe to call again for a unit whose mirror is already empty (see the
    /// trait docs: idempotent per queue position, no underflow).
    fn on_shed(&mut self, _unit: UnitId, _tuple: TupleId) {}

    /// One unit's statics changed mid-run (§10 adaptive estimation, operator
    /// re-costing). Policies holding derived per-unit state (Φ, slopes,
    /// static priorities, cluster memberships) refresh *only* that unit; the
    /// default no-op suits policies that never read statics after
    /// registration (FCFS, RR).
    fn on_statics_update(&mut self, _unit: UnitId, _statics: &UnitStatics) {}

    /// Recompute any priority domain frozen at `on_register` from the unit
    /// statics as the policy currently knows them (§10 adaptive estimation:
    /// observed `Φ` can drift outside the registered range, and a frozen
    /// clustering then clamps drifted units into its edge buckets, eroding
    /// priority resolution). Returns true when domain-derived state was
    /// actually rebuilt; the default no-op — correct for every policy
    /// without a frozen domain — reports false so callers can count real
    /// refreezes.
    fn on_domain_refreeze(&mut self) -> bool {
        false
    }

    /// Heap bytes committed for per-unit scheduler state (statics mirrors,
    /// wait-list slabs, priority heaps). `None` when the policy does not
    /// account for its footprint; the large-q bench reports this per query.
    fn memory_footprint(&self) -> Option<usize> {
        None
    }

    /// Choose what to run next.
    fn select(&mut self, queues: &dyn QueueView, now: Nanos) -> Option<Selection>;
}

/// Every policy the repository runs, as a `Copy + Send + Sync` value: the
/// paper's seven, the ℓp extension and the §6 clustered BSD variants.
/// Experiments, fuzz rosters and executors name a policy by this spec and
/// call [`PolicyKind::build`] where the instance is needed — a `Box<dyn
/// Policy>` is not `Send`, a spec crosses threads freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// First-come-first-served over system arrival times.
    Fcfs,
    /// Aurora's two-level scheme: round-robin across queries, rate-based
    /// pipelining within (§8 "Policies").
    RoundRobin,
    /// Shortest remaining processing time `1/T`.
    Srpt,
    /// Highest Rate `S/C̄` (response-time optimal ordering) \[19\].
    Hr,
    /// Highest Normalized Rate `S/(C̄·T)` (§3.3) — average slowdown.
    Hnr,
    /// Longest Stretch First `W/T` (§4.1) — maximum slowdown.
    Lsf,
    /// Balance Slowdown `Φ·W` (§4.2.2) — ℓ2 norm, exact, charged as the
    /// naive O(q) scan.
    Bsd,
    /// The ℓp-norm generalization of BSD at exponent `p ≥ 1`
    /// ([`crate::WaitPolicy::lp`]; `build` panics on any other `p`).
    Lp(f64),
    /// BSD through §6 clustering ([`crate::ClusteredBsdPolicy`]).
    Clustered(crate::cluster::ClusterConfig),
}

impl PolicyKind {
    /// The paper's seven, in the order its figures usually list them.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Fcfs,
        PolicyKind::RoundRobin,
        PolicyKind::Srpt,
        PolicyKind::Hr,
        PolicyKind::Hnr,
        PolicyKind::Lsf,
        PolicyKind::Bsd,
    ];

    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Fcfs => Box::new(crate::fcfs::FcfsPolicy::new()),
            PolicyKind::RoundRobin => Box::new(crate::rr::RoundRobinPolicy::new()),
            PolicyKind::Srpt => Box::new(crate::statics::StaticPolicy::srpt()),
            PolicyKind::Hr => Box::new(crate::statics::StaticPolicy::hr()),
            PolicyKind::Hnr => Box::new(crate::statics::StaticPolicy::hnr()),
            PolicyKind::Lsf => Box::new(crate::WaitPolicy::lsf()),
            PolicyKind::Bsd => Box::new(crate::WaitPolicy::bsd()),
            PolicyKind::Lp(p) => Box::new(crate::WaitPolicy::lp(p)),
            PolicyKind::Clustered(cfg) => Box::new(crate::cluster::ClusteredBsdPolicy::new(cfg)),
        }
    }

    /// Whether the built policy's choice depends on the `now` its `select`
    /// is called at: true for the wait-based priorities (LSF, BSD, ℓp and
    /// clustered BSD). FCFS, RR, SRPT, HR and HNR order by arrival, by a
    /// cursor or by static priorities, so any instant at or after every
    /// head arrival selects the same; an executor may skip reading its
    /// clock for them.
    pub fn reads_now(self) -> bool {
        matches!(
            self,
            PolicyKind::Lsf | PolicyKind::Bsd | PolicyKind::Lp(_) | PolicyKind::Clustered(_)
        )
    }

    /// Display name matching the paper's figures; the built policy's
    /// [`Policy::name`].
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::RoundRobin => "RR",
            PolicyKind::Srpt => "SRPT",
            PolicyKind::Hr => "HR",
            PolicyKind::Hnr => "HNR",
            PolicyKind::Lsf => "LSF",
            PolicyKind::Bsd => "BSD",
            PolicyKind::Lp(_) => "LP",
            PolicyKind::Clustered(cfg) => match cfg.clustering {
                crate::cluster::Clustering::Uniform => "BSD-Uniform",
                crate::cluster::Clustering::Logarithmic => "BSD-Logarithmic",
            },
        }
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! A minimal hand-driven queue model shared by policy unit tests.

    use super::*;
    use std::collections::VecDeque;

    #[derive(Default)]
    pub struct MockQueues {
        queues: Vec<VecDeque<(TupleId, Nanos)>>,
        heads: Vec<Nanos>,
        nonempty: Vec<UnitId>,
    }

    impl MockQueues {
        pub fn new(n: usize) -> Self {
            MockQueues {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                heads: vec![Nanos::ZERO; n],
                nonempty: Vec::new(),
            }
        }

        pub fn push(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos) {
            let q = &mut self.queues[unit as usize];
            if q.is_empty() {
                self.nonempty.push(unit);
                self.heads[unit as usize] = arrival;
            }
            q.push_back((tuple, arrival));
        }

        pub fn pop(&mut self, unit: UnitId) -> (TupleId, Nanos) {
            let q = &mut self.queues[unit as usize];
            let item = q.pop_front().expect("pop from empty queue");
            match q.front() {
                Some(&(_, arrival)) => self.heads[unit as usize] = arrival,
                None => self.nonempty.retain(|&u| u != unit),
            }
            item
        }

        /// Remove the unit's tail tuple (models the engine shedding).
        pub fn pop_back(&mut self, unit: UnitId) -> (TupleId, Nanos) {
            let q = &mut self.queues[unit as usize];
            let item = q.pop_back().expect("shed from empty queue");
            if q.is_empty() {
                self.nonempty.retain(|&u| u != unit);
            }
            item
        }
    }

    impl QueueView for MockQueues {
        fn len(&self, unit: UnitId) -> usize {
            self.queues[unit as usize].len()
        }
        fn head_arrivals(&self) -> &[Nanos] {
            &self.heads
        }
        fn nonempty(&self) -> &[UnitId] {
            &self.nonempty
        }
    }

    /// Drive a policy: enqueue tuples, then repeatedly select+pop until
    /// drained, returning the unit execution order.
    pub fn drain_order(
        policy: &mut dyn Policy,
        units: &[UnitStatics],
        enqueues: &[(UnitId, u64, u64)], // (unit, tuple, arrival_ms)
    ) -> Vec<UnitId> {
        let mut q = MockQueues::new(units.len());
        policy.on_register(units);
        let mut now = Nanos::ZERO;
        for &(u, t, a) in enqueues {
            let arrival = Nanos::from_millis(a);
            now = now.max(arrival);
            q.push(u, TupleId::new(t), arrival);
            policy.on_enqueue(u, TupleId::new(t), arrival, now);
        }
        let mut order = Vec::new();
        while !q.nonempty().is_empty() {
            let sel = policy.select(&q, now).expect("work pending");
            assert!(!sel.units.is_empty());
            for u in sel.units {
                q.pop(u);
                order.push(u);
                now += Nanos::from_millis(1); // nominal execution time
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_one() {
        let s = Selection::one(3, 7);
        assert_eq!(s.units, vec![3]);
        assert_eq!(s.ops_counted, 7);
        assert_eq!(s.stats, SchedStats::default());
    }

    #[test]
    fn sched_stats_total_and_accumulate() {
        let a = SchedStats {
            candidates_scanned: 1,
            priority_evals: 2,
            comparisons: 3,
            cluster_ops: 4,
            heap_ops: 5,
        };
        assert_eq!(a.total(), 15);
        let mut b = a;
        b += a;
        assert_eq!(b.total(), 30);
        let s = Selection::one(0, 1).with_stats(a);
        assert_eq!(s.stats.priority_evals, 2);
    }

    #[test]
    fn kind_names_and_build() {
        use crate::cluster::ClusterConfig;
        let extensions = [
            PolicyKind::Lp(2.5),
            PolicyKind::Clustered(ClusterConfig::logarithmic(8)),
            PolicyKind::Clustered(ClusterConfig::uniform(4)),
        ];
        for kind in PolicyKind::ALL.into_iter().chain(extensions) {
            let p = kind.build();
            assert_eq!(p.name(), kind.name());
        }
        let names = extensions.map(PolicyKind::name);
        assert_eq!(names, ["LP", "BSD-Logarithmic", "BSD-Uniform"]);
    }
}
