//! Compiling a registered workload into schedulable units.

use hcq_common::{HcqError, Nanos, Result, StreamId};
use hcq_core::pdt::{shared_priority, PdtSelection, SharedRank};
use hcq_core::{SharingStrategy, UnitId, UnitStatics};
use hcq_plan::{CompiledQuery, GlobalPlan, LeafIndex, PlanStats, Port, QueryTag, StreamRates};

use crate::config::SchedulingLevel;

/// The next dense unit id for a unit table already holding `len` units.
///
/// `len as UnitId` would silently truncate past `u32::MAX` units and alias
/// existing ids; every unit-table append goes through this check instead.
fn checked_unit_id(len: usize) -> Result<UnitId> {
    UnitId::try_from(len).map_err(|_| {
        HcqError::plan(format!(
            "unit table exhausted the {}-entry unit-id space",
            u32::MAX
        ))
    })
}

/// What a schedulable unit is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// A leaf-to-root operator segment of one query (query-level scheduling;
    /// the §5.2 virtual segments `E_LL`/`E_RR` for join queries).
    Leaf {
        /// Owning query (index into `SimModel::compiled`).
        query: usize,
        /// Which leaf of that query.
        leaf: LeafIndex,
    },
    /// A §7 shared-operator group: executing it runs the shared operator
    /// once plus the PDT members' remainder segments.
    Shared {
        /// Index into `SimModel::groups`.
        group: usize,
    },
    /// The remainder segment `L_x^i` of a non-PDT member: receives the
    /// shared operator's output and is scheduled by its own normalized rate
    /// (§7.2).
    Remainder {
        /// Index into `SimModel::groups`.
        group: usize,
        /// Member position within the group.
        member: usize,
    },
    /// A single operator (operator-level scheduling).
    Operator {
        /// Owning query.
        query: usize,
        /// Operator index within the compiled query.
        op: usize,
    },
}

/// A schedulable unit: its kind plus the statics policies consume.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitDesc {
    /// What the unit executes.
    pub kind: UnitKind,
    /// The §2/§5/§7 characterization driving every priority formula.
    pub statics: UnitStatics,
}

/// Runtime form of a §7 sharing group.
#[derive(Debug, Clone)]
pub struct SharedGroupModel {
    /// The stream feeding the shared operator.
    pub stream: StreamId,
    /// Cost of the shared operator (executed once per tuple).
    pub shared_cost: Nanos,
    /// Member queries (indices into `SimModel::compiled`).
    pub members: Vec<usize>,
    /// Member positions executed inline with the shared operator (the PDT;
    /// all members under the Max/Sum strategies).
    pub inline_members: Vec<usize>,
    /// `(member position, remainder unit)` for deferred (non-PDT) members.
    pub deferred: Vec<(usize, UnitId)>,
}

/// Where arrivals on a stream enter the system.
#[derive(Debug, Clone, Copy)]
pub struct EntryRoute {
    /// The unit whose queue receives a copy of the arriving tuple.
    pub unit: UnitId,
    /// Alone-path cost from this entry to the root: the arriving copy's
    /// `ideal_depart = arrival + alone`. (Unused for `Shared` units — their
    /// per-member ideal departures are computed at emission.)
    pub alone: Nanos,
}

/// The compiled workload.
#[derive(Debug, Clone)]
pub struct SimModel {
    /// Flattened plans, one per query.
    pub compiled: Vec<CompiledQuery>,
    /// Derived statistics, one per query.
    pub stats: Vec<PlanStats>,
    /// Classification tags, one per query.
    pub tags: Vec<QueryTag>,
    /// All schedulable units; `UnitId` indexes this.
    pub units: Vec<UnitDesc>,
    /// Arrival routing per stream index.
    pub routes: Vec<Vec<EntryRoute>>,
    /// Sharing groups.
    pub groups: Vec<SharedGroupModel>,
    /// Cheapest operator cost in the whole plan — the §9.2 default cost of
    /// one scheduler operation.
    pub min_op_cost: Nanos,
    /// The scheduling granularity this model was built for.
    pub level: SchedulingLevel,
}

impl SimModel {
    /// Compile a workload for simulation.
    ///
    /// `rates` must cover every stream feeding a window join (see
    /// [`PlanStats::compute`]); `sharing` selects the §9.3 strategy for any
    /// declared groups.
    pub fn build(
        plan: &GlobalPlan,
        rates: &StreamRates,
        level: SchedulingLevel,
        sharing: SharingStrategy,
    ) -> Result<Self> {
        plan.validate()?;
        if plan.is_empty() {
            return Err(HcqError::config("no queries registered"));
        }

        let compiled: Vec<CompiledQuery> =
            plan.queries.iter().map(CompiledQuery::compile).collect();
        let stats = compiled
            .iter()
            .map(|cq| PlanStats::compute(cq, rates))
            .collect::<Result<Vec<_>>>()?;
        let tags: Vec<QueryTag> = plan.queries.iter().map(|q| q.tag).collect();

        for (i, cq) in compiled.iter().enumerate() {
            if cq.join_indices().len() > 1 {
                return Err(HcqError::config(format!(
                    "query Q{i}: the engine executes at most one window join \
                     per query (the evaluated workloads use exactly one)"
                )));
            }
        }

        let mut in_group = vec![false; compiled.len()];
        for g in &plan.sharing {
            for &m in &g.members {
                in_group[m.index()] = true;
            }
        }

        if level == SchedulingLevel::Operator {
            if !plan.sharing.is_empty() {
                return Err(HcqError::config(
                    "operator-level scheduling does not support shared operators",
                ));
            }
            if compiled.iter().any(|cq| !cq.join_indices().is_empty()) {
                return Err(HcqError::config(
                    "operator-level scheduling does not support window joins",
                ));
            }
        }

        let n_streams = plan.streams().last().map(|s| s.index() + 1).unwrap_or(0);
        let mut routes: Vec<Vec<EntryRoute>> = vec![Vec::new(); n_streams];
        let mut units: Vec<UnitDesc> = Vec::new();
        let mut groups: Vec<SharedGroupModel> = Vec::new();

        match level {
            SchedulingLevel::Operator => {
                for (qi, cq) in compiled.iter().enumerate() {
                    let t = stats[qi].ideal_time;
                    let mut first_unit = None;
                    for (oi, _) in cq.ops.iter().enumerate() {
                        let seg = stats[qi].op(oi, Port::Single);
                        let unit = checked_unit_id(units.len())?;
                        if oi == cq.leaves[0].entry.0 {
                            first_unit = Some(unit);
                        }
                        units.push(UnitDesc {
                            kind: UnitKind::Operator { query: qi, op: oi },
                            statics: UnitStatics {
                                selectivity: seg.selectivity,
                                avg_cost_ns: seg.avg_cost_ns,
                                ideal_time_ns: t.as_nanos() as f64,
                            },
                        });
                    }
                    let entry = first_unit.ok_or_else(|| {
                        HcqError::plan(format!("query Q{qi} compiled to no operators"))
                    })?;
                    routes[cq.leaves[0].stream.index()].push(EntryRoute {
                        unit: entry,
                        alone: cq.alone_cost(LeafIndex(0)),
                    });
                }
            }
            SchedulingLevel::Query => {
                // Unshared queries: one unit per leaf.
                for (qi, cq) in compiled.iter().enumerate() {
                    if in_group[qi] {
                        continue;
                    }
                    for (li, leaf) in cq.leaves.iter().enumerate() {
                        let unit = checked_unit_id(units.len())?;
                        units.push(UnitDesc {
                            kind: UnitKind::Leaf {
                                query: qi,
                                leaf: LeafIndex(li),
                            },
                            statics: UnitStatics::from_leaf(&stats[qi].per_leaf[li]),
                        });
                        routes[leaf.stream.index()].push(EntryRoute {
                            unit,
                            alone: cq.alone_cost(LeafIndex(li)),
                        });
                    }
                }
                // Sharing groups.
                for g in &plan.sharing {
                    let group_idx = groups.len();
                    let member_stats: Vec<UnitStatics> = g
                        .members
                        .iter()
                        .map(|&m| UnitStatics::from_leaf(&stats[m.index()].per_leaf[0]))
                        .collect();
                    let hnr = shared_priority(&member_stats, g.op.cost, sharing, SharedRank::Hnr);
                    let bsd = shared_priority(&member_stats, g.op.cost, sharing, SharedRank::Bsd);
                    let shared_unit = checked_unit_id(units.len())?;
                    units.push(UnitDesc {
                        kind: UnitKind::Shared { group: group_idx },
                        statics: synthesize_shared_statics(
                            &member_stats,
                            g.op.cost,
                            &hnr,
                            bsd.priority,
                        ),
                    });
                    routes[g.stream.index()].push(EntryRoute {
                        unit: shared_unit,
                        alone: Nanos::ZERO, // per-member; computed at emission
                    });

                    // Deferred (non-PDT) members get remainder units — unless
                    // their remainder is empty, in which case deferral would
                    // be a no-op and they run inline.
                    let mut inline_members = hnr.members.clone();
                    let mut deferred = Vec::new();
                    for pos in 0..g.members.len() {
                        if inline_members.contains(&pos) {
                            continue;
                        }
                        let qi = g.members[pos].index();
                        if compiled[qi].ops.len() <= 1 {
                            inline_members.push(pos);
                            continue;
                        }
                        let seg = stats[qi].op(1, Port::Single);
                        let unit = checked_unit_id(units.len())?;
                        units.push(UnitDesc {
                            kind: UnitKind::Remainder {
                                group: group_idx,
                                member: pos,
                            },
                            statics: UnitStatics {
                                selectivity: seg.selectivity,
                                avg_cost_ns: seg.avg_cost_ns,
                                ideal_time_ns: stats[qi].ideal_time.as_nanos() as f64,
                            },
                        });
                        deferred.push((pos, unit));
                    }
                    groups.push(SharedGroupModel {
                        stream: g.stream,
                        shared_cost: g.op.cost,
                        members: g.members.iter().map(|m| m.index()).collect(),
                        inline_members,
                        deferred,
                    });
                }
            }
        }

        let min_op_cost = compiled
            .iter()
            .flat_map(|cq| cq.ops.iter().map(|op| op.cost()))
            .min()
            .ok_or_else(|| HcqError::plan("plan has no operators"))?;

        Ok(SimModel {
            compiled,
            stats,
            tags,
            units,
            routes,
            groups,
            min_op_cost,
            level,
        })
    }

    /// All unit statics, in unit order (handed to `Policy::on_register`).
    pub fn unit_statics(&self) -> Vec<UnitStatics> {
        self.units.iter().map(|u| u.statics).collect()
    }

    /// Check that every stream the plan reads has a source, given
    /// `sources` sources feeding streams `0..sources`.
    pub fn check_sources(&self, sources: usize) -> Result<()> {
        match self.routes.iter().skip(sources).position(|r| !r.is_empty()) {
            Some(i) => Err(HcqError::config(format!(
                "stream {} is referenced by the plan but has no source",
                StreamId::new(sources + i)
            ))),
            None => Ok(()),
        }
    }

    /// Number of schedulable units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Chain-style static priorities, one per unit: the steepest slope of
    /// the unit's progress chart (Babcock et al., SIGMOD'03 — "Chain" in the
    /// paper's Table 3). A unit's chart starts at (0 cost, size 1); after the
    /// first `k` operators of its path the expected surviving fraction is
    /// `S_entry / S_(rest of path)` at cumulative ideal cost `Σ c`; the
    /// priority is the maximum drop rate `(1 − fraction_k) / cost_k` over
    /// prefixes. Chain minimizes run-time memory, so this pairs with
    /// [`crate::SimReport::avg_pending`] for memory-vs-QoS ablations. Use
    /// with `hcq_core::StaticPolicy::custom("Chain", model.chain_priorities())`.
    ///
    /// Shared groups (no single walkable path) fall back to the aggregate
    /// `(1 − min(S,1))/C̄`. Slopes are clamped positive so expanding
    /// (join-heavy) segments still order deterministically.
    pub fn chain_priorities(&self) -> Vec<f64> {
        self.units
            .iter()
            .map(|unit| {
                let floor = 1e-30;
                let walk = |query: usize, entry: (usize, Port)| -> f64 {
                    let cq = &self.compiled[query];
                    let stats = &self.stats[query];
                    let s_entry = stats.op(entry.0, entry.1).selectivity;
                    let mut cum_cost = 0.0;
                    let mut best = floor;
                    let mut cursor = Some(entry);
                    while let Some((oi, port)) = cursor {
                        let _ = port;
                        cum_cost += cq.ops[oi].cost().as_nanos() as f64;
                        let next = cq.ops[oi].downstream;
                        let remaining = match next {
                            Some((d, p)) => s_entry / stats.op(d, p).selectivity,
                            None => s_entry,
                        };
                        let slope = (1.0 - remaining) / cum_cost;
                        if slope > best {
                            best = slope;
                        }
                        cursor = next;
                    }
                    best
                };
                match &unit.kind {
                    UnitKind::Leaf { query, leaf } => {
                        walk(*query, self.compiled[*query].leaves[leaf.index()].entry)
                    }
                    UnitKind::Remainder { group, member } => {
                        let query = self.groups[*group].members[*member];
                        walk(query, (1, Port::Single))
                    }
                    UnitKind::Operator { query, op } => walk(*query, (*op, Port::Single)),
                    UnitKind::Shared { .. } => {
                        let s = unit.statics.selectivity.min(1.0);
                        ((1.0 - s) / unit.statics.avg_cost_ns).max(floor)
                    }
                }
            })
            .collect()
    }
}

/// Build `UnitStatics` for a shared group such that the group's HNR priority
/// equals the §7 aggregate `V` and its BSD static factor equals the analogous
/// `Φ` aggregate. Solving `S/(C̄T) = V`, `S/(C̄T²) = Φ` gives `T = V/Φ`; the
/// cost is pinned to the group's true de-duplicated cost `SC̄` and `S`
/// follows.
fn synthesize_shared_statics(
    member_stats: &[UnitStatics],
    shared_cost: Nanos,
    hnr: &PdtSelection,
    bsd_priority: f64,
) -> UnitStatics {
    let c_x = shared_cost.as_nanos() as f64;
    let sc: f64 = hnr
        .members
        .iter()
        .map(|&i| member_stats[i].avg_cost_ns)
        .sum::<f64>()
        - (hnr.members.len() as f64 - 1.0) * c_x;
    let t_eff = hnr.priority / bsd_priority;
    UnitStatics {
        selectivity: hnr.priority * sc * t_eff,
        avg_cost_ns: sc,
        ideal_time_ns: t_eff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcq_common::QueryId;
    use hcq_plan::QueryBuilder;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    fn sjp(stream: usize, cost: u64, sel: f64) -> hcq_plan::QueryPlan {
        QueryBuilder::on(StreamId::new(stream))
            .select(ms(cost), sel)
            .stored_join(ms(cost), sel)
            .project(ms(cost))
            .build()
            .unwrap()
    }

    #[test]
    fn unit_id_space_is_checked_not_truncated() {
        // `len as UnitId` used to alias unit 0 at 2^32 — the checked path
        // errors instead of handing out a truncated id.
        assert_eq!(checked_unit_id(0).unwrap(), 0);
        assert_eq!(checked_unit_id(u32::MAX as usize).unwrap(), u32::MAX);
        assert!(checked_unit_id(u32::MAX as usize + 1).is_err());
    }

    #[test]
    fn query_level_units_are_leaves() {
        let mut plan = GlobalPlan::default();
        plan.add_query(sjp(0, 1, 0.5));
        plan.add_query(sjp(0, 2, 0.8));
        let m = SimModel::build(
            &plan,
            &StreamRates::none(),
            SchedulingLevel::Query,
            SharingStrategy::Pdt,
        )
        .unwrap();
        assert_eq!(m.unit_count(), 2);
        assert_eq!(m.routes[0].len(), 2);
        assert_eq!(m.min_op_cost, ms(1));
        assert!(matches!(m.units[0].kind, UnitKind::Leaf { query: 0, .. }));
        // alone = T for single-stream queries.
        assert_eq!(m.routes[0][0].alone, ms(3));
        assert_eq!(m.routes[0][1].alone, ms(6));
    }

    #[test]
    fn operator_level_units_are_operators() {
        let mut plan = GlobalPlan::default();
        plan.add_query(sjp(0, 1, 0.5));
        let m = SimModel::build(
            &plan,
            &StreamRates::none(),
            SchedulingLevel::Operator,
            SharingStrategy::Pdt,
        )
        .unwrap();
        assert_eq!(m.unit_count(), 3);
        assert!(matches!(
            m.units[1].kind,
            UnitKind::Operator { query: 0, op: 1 }
        ));
        // Stream routes to the first operator's unit only.
        assert_eq!(m.routes[0].len(), 1);
        assert_eq!(m.routes[0][0].unit, 0);
    }

    #[test]
    fn join_query_gets_two_units() {
        let mut plan = GlobalPlan::default();
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(ms(1), 0.5)
                .window_join(
                    QueryBuilder::on(StreamId::new(1)).select(ms(1), 0.5),
                    ms(2),
                    0.3,
                    Nanos::from_secs(1),
                )
                .project(ms(1))
                .build()
                .unwrap(),
        );
        let rates = StreamRates::none()
            .with(StreamId::new(0), ms(10))
            .with(StreamId::new(1), ms(10));
        let m =
            SimModel::build(&plan, &rates, SchedulingLevel::Query, SharingStrategy::Pdt).unwrap();
        assert_eq!(m.unit_count(), 2);
        assert_eq!(m.routes[0].len(), 1);
        assert_eq!(m.routes[1].len(), 1);
        // alone = own chain + c_J + common = 1 + 2 + 1.
        assert_eq!(m.routes[0][0].alone, ms(4));
    }

    #[test]
    fn operator_level_rejects_joins_and_sharing() {
        let mut plan = GlobalPlan::default();
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .window_join(
                    QueryBuilder::on(StreamId::new(1)),
                    ms(2),
                    0.3,
                    Nanos::from_secs(1),
                )
                .build()
                .unwrap(),
        );
        let rates = StreamRates::none()
            .with(StreamId::new(0), ms(10))
            .with(StreamId::new(1), ms(10));
        assert!(SimModel::build(
            &plan,
            &rates,
            SchedulingLevel::Operator,
            SharingStrategy::Pdt
        )
        .is_err());

        let mut plan2 = GlobalPlan::default();
        let a = plan2.add_query(sjp(0, 1, 0.5));
        let b = plan2.add_query(sjp(0, 1, 0.5));
        plan2.share_first_op(vec![a, b]).unwrap();
        assert!(SimModel::build(
            &plan2,
            &StreamRates::none(),
            SchedulingLevel::Operator,
            SharingStrategy::Pdt
        )
        .is_err());
    }

    #[test]
    fn shared_group_builds_one_unit_when_pdt_keeps_all() {
        let mut plan = GlobalPlan::default();
        let ids: Vec<QueryId> = (0..4).map(|_| plan.add_query(sjp(0, 1, 0.5))).collect();
        plan.share_first_op(ids).unwrap();
        let m = SimModel::build(
            &plan,
            &StreamRates::none(),
            SchedulingLevel::Query,
            SharingStrategy::Pdt,
        )
        .unwrap();
        // Homogeneous members: the PDT keeps all four -> one shared unit.
        assert_eq!(m.unit_count(), 1);
        assert_eq!(m.groups.len(), 1);
        assert_eq!(m.groups[0].inline_members.len(), 4);
        assert!(m.groups[0].deferred.is_empty());
        assert_eq!(m.routes[0].len(), 1);
    }

    #[test]
    fn shared_group_defers_weak_members_under_pdt() {
        let mut plan = GlobalPlan::default();
        // Same shared select, very different downstream weight.
        let strong: Vec<QueryId> = (0..3)
            .map(|_| {
                plan.add_query(
                    QueryBuilder::on(StreamId::new(0))
                        .select(ms(1), 0.9)
                        .project(ms(1))
                        .build()
                        .unwrap(),
                )
            })
            .collect();
        let weak = plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(ms(1), 0.9)
                .map(ms(400), 0.01)
                .build()
                .unwrap(),
        );
        let mut members = strong.clone();
        members.push(weak);
        plan.share_first_op(members).unwrap();
        let m = SimModel::build(
            &plan,
            &StreamRates::none(),
            SchedulingLevel::Query,
            SharingStrategy::Pdt,
        )
        .unwrap();
        assert_eq!(m.groups[0].inline_members.len(), 3);
        assert_eq!(m.groups[0].deferred.len(), 1);
        let (pos, unit) = m.groups[0].deferred[0];
        assert_eq!(pos, 3, "the weak member is deferred");
        assert!(matches!(
            m.units[unit as usize].kind,
            UnitKind::Remainder { member: 3, .. }
        ));
        // 1 shared unit + 1 remainder unit.
        assert_eq!(m.unit_count(), 2);
    }

    #[test]
    fn synthesized_shared_statics_reproduce_group_priorities() {
        let member_stats: Vec<UnitStatics> = (1..=3)
            .map(|i| UnitStatics::new(0.5, ms(i + 1), ms(2 * i)))
            .collect();
        let hnr = shared_priority(&member_stats, ms(1), SharingStrategy::Sum, SharedRank::Hnr);
        let bsd = shared_priority(&member_stats, ms(1), SharingStrategy::Sum, SharedRank::Bsd);
        let s = synthesize_shared_statics(&member_stats, ms(1), &hnr, bsd.priority);
        assert!((s.hnr_priority() - hnr.priority).abs() / hnr.priority < 1e-9);
        assert!((s.bsd_static() - bsd.priority).abs() / bsd.priority < 1e-9);
    }

    #[test]
    fn nested_joins_rejected() {
        let mut plan = GlobalPlan::default();
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .window_join(
                    QueryBuilder::on(StreamId::new(1)),
                    ms(1),
                    0.5,
                    Nanos::from_secs(1),
                )
                .window_join(
                    QueryBuilder::on(StreamId::new(2)),
                    ms(1),
                    0.5,
                    Nanos::from_secs(1),
                )
                .build()
                .unwrap(),
        );
        let rates = StreamRates::none()
            .with(StreamId::new(0), ms(10))
            .with(StreamId::new(1), ms(10))
            .with(StreamId::new(2), ms(10));
        let err = SimModel::build(&plan, &rates, SchedulingLevel::Query, SharingStrategy::Pdt)
            .unwrap_err();
        assert!(err.to_string().contains("at most one window join"));
    }
}
