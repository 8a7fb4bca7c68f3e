//! Workload construction.

use hcq_common::det::Rng;
use hcq_common::{HcqError, Nanos, Result, StreamId};
use hcq_plan::{GlobalPlan, QueryBuilder, QueryTag, StreamRates};

use crate::calibrate::{offered_load, scale_for_utilization, PaperWorkload};

/// §8 single-stream population: select → stored-relation join → project.
#[derive(Debug, Clone)]
pub struct SingleStreamConfig {
    /// Registered queries (the paper uses 500).
    pub queries: usize,
    /// Number of cost classes (`i ∈ [0, classes)`, cost `K·2^i`; paper: 5).
    pub cost_classes: u8,
    /// Target utilization.
    pub utilization: f64,
    /// Mean inter-arrival time of the input stream.
    pub mean_gap: Nanos,
    /// Seed for parameter draws.
    pub seed: u64,
}

impl SingleStreamConfig {
    /// Paper-scale defaults at a given utilization / inter-arrival time.
    pub fn paper(utilization: f64, mean_gap: Nanos) -> Self {
        SingleStreamConfig {
            queries: 500,
            cost_classes: 5,
            utilization,
            mean_gap,
            seed: 0x5eed,
        }
    }
}

/// Draws for one query, in §8 units (selectivity, cost class).
#[derive(Debug, Clone, Copy)]
struct QueryDraw {
    selectivity: f64,
    cost_class: u8,
}

fn draw(rng: &mut Rng, cost_classes: u8) -> QueryDraw {
    QueryDraw {
        // Uniform in [0.1, 1.0] (§8 "Selectivities").
        selectivity: 0.1 + 0.9 * rng.next_f64(),
        cost_class: rng.range_inclusive(0, u64::from(cost_classes) - 1) as u8,
    }
}

fn tag(d: QueryDraw) -> QueryTag {
    QueryTag {
        cost_class: d.cost_class,
        selectivity_bucket: QueryTag::bucket_selectivity(d.selectivity),
    }
}

fn class_cost(k_ns: f64, class: u8) -> Nanos {
    Nanos::from_nanos(((k_ns * f64::from(1u32 << class)).round() as u64).max(1))
}

/// Build the single-stream workload on stream 0, calibrated so that the
/// offered load equals `cfg.utilization`.
pub fn single_stream(cfg: &SingleStreamConfig) -> Result<PaperWorkload> {
    validate(cfg.queries, cfg.cost_classes, cfg.utilization)?;
    let mut rng = Rng::new(cfg.seed);
    let draws: Vec<QueryDraw> = (0..cfg.queries)
        .map(|_| draw(&mut rng, cfg.cost_classes))
        .collect();
    let stream = StreamId::new(0);
    let rates = StreamRates::none().with(stream, cfg.mean_gap);

    let build = |k_ns: f64| -> Result<GlobalPlan> {
        let mut plan = GlobalPlan::default();
        for d in &draws {
            let c = class_cost(k_ns, d.cost_class);
            plan.add_query(
                QueryBuilder::on(stream)
                    .select(c, d.selectivity)
                    .stored_join(c, d.selectivity)
                    .project(c)
                    .tag(tag(*d))
                    .build()?,
            );
        }
        Ok(plan)
    };

    // Two passes: measure the load of the unit-cost plan, then rescale.
    let unit = Nanos::from_micros(1).as_nanos() as f64;
    let probe = build(unit)?;
    let k_ns = unit * scale_for_utilization(offered_load(&probe, &rates), cfg.utilization);
    let plan = build(k_ns)?;
    Ok(PaperWorkload {
        plan,
        rates,
        streams: vec![stream],
        utilization: cfg.utilization,
        k_ns,
    })
}

/// §9.1.7 multi-stream population: window join of two selected streams.
#[derive(Debug, Clone)]
pub struct MultiStreamConfig {
    /// Registered queries.
    pub queries: usize,
    /// Cost classes (as in [`SingleStreamConfig`]).
    pub cost_classes: u8,
    /// Target utilization.
    pub utilization: f64,
    /// Mean inter-arrival time of *each* of the two streams.
    pub mean_gap: Nanos,
    /// Window interval range (the paper draws 1–10 s uniformly).
    pub window_range: (Nanos, Nanos),
    /// Seed for parameter draws.
    pub seed: u64,
}

impl MultiStreamConfig {
    /// Paper-shaped defaults.
    pub fn paper(utilization: f64, mean_gap: Nanos) -> Self {
        MultiStreamConfig {
            queries: 100,
            cost_classes: 5,
            utilization,
            mean_gap,
            window_range: (Nanos::from_secs(1), Nanos::from_secs(10)),
            seed: 0x5eed,
        }
    }
}

/// Build the two-stream window-join workload on streams 0 and 1.
///
/// Each query is `σ(M0) ⋈_V σ(M1) → π`: selects on both inputs, a window
/// join with window drawn uniform from `window_range`, a final project; all
/// operators of a query share its class cost and (select/join) selectivity,
/// matching the §8 class structure.
pub fn multi_stream(cfg: &MultiStreamConfig) -> Result<PaperWorkload> {
    validate(cfg.queries, cfg.cost_classes, cfg.utilization)?;
    if cfg.window_range.0 > cfg.window_range.1 || cfg.window_range.0.is_zero() {
        return Err(HcqError::config("invalid window range"));
    }
    let mut rng = Rng::new(cfg.seed);
    let draws: Vec<(QueryDraw, Nanos)> = (0..cfg.queries)
        .map(|_| {
            let d = draw(&mut rng, cfg.cost_classes);
            let w =
                rng.range_inclusive(cfg.window_range.0.as_nanos(), cfg.window_range.1.as_nanos());
            (d, Nanos::from_nanos(w))
        })
        .collect();
    let (left, right) = (StreamId::new(0), StreamId::new(1));
    let rates = StreamRates::none()
        .with(left, cfg.mean_gap)
        .with(right, cfg.mean_gap);

    let build = |k_ns: f64| -> Result<GlobalPlan> {
        let mut plan = GlobalPlan::default();
        for (d, window) in &draws {
            let c = class_cost(k_ns, d.cost_class);
            plan.add_query(
                QueryBuilder::on(left)
                    .select(c, d.selectivity)
                    .window_join(
                        QueryBuilder::on(right).select(c, d.selectivity),
                        c,
                        d.selectivity,
                        *window,
                    )
                    .project(c)
                    .tag(tag(*d))
                    .build()?,
            );
        }
        Ok(plan)
    };

    let unit = Nanos::from_micros(1).as_nanos() as f64;
    let probe = build(unit)?;
    let k_ns = unit * scale_for_utilization(offered_load(&probe, &rates), cfg.utilization);
    let plan = build(k_ns)?;
    Ok(PaperWorkload {
        plan,
        rates,
        streams: vec![left, right],
        utilization: cfg.utilization,
        k_ns,
    })
}

/// §9.3 shared-operator population: groups of queries sharing their select.
#[derive(Debug, Clone)]
pub struct SharedConfig {
    /// Number of groups (the paper uses 50 groups of 10 = 500 queries).
    pub groups: usize,
    /// Queries per group (paper: 10).
    pub group_size: usize,
    /// Cost classes.
    pub cost_classes: u8,
    /// Target utilization.
    pub utilization: f64,
    /// Mean inter-arrival time of the input stream.
    pub mean_gap: Nanos,
    /// Seed for parameter draws.
    pub seed: u64,
}

impl SharedConfig {
    /// Paper-shaped defaults.
    pub fn paper(utilization: f64, mean_gap: Nanos) -> Self {
        SharedConfig {
            groups: 50,
            group_size: 10,
            cost_classes: 5,
            utilization,
            mean_gap,
            seed: 0x5eed,
        }
    }
}

/// Build the shared-select workload on stream 0.
///
/// Each group's select operator (one cost class + selectivity draw) is
/// physically shared by its `group_size` members; each member then has its
/// own stored-relation join and project with per-member class cost and
/// selectivity — "costs and selectivities assigned uniformly as before"
/// (§9.3), with the shared select necessarily identical within a group.
pub fn shared(cfg: &SharedConfig) -> Result<PaperWorkload> {
    validate(
        cfg.groups * cfg.group_size,
        cfg.cost_classes,
        cfg.utilization,
    )?;
    if cfg.group_size == 0 {
        return Err(HcqError::config("group_size must be positive"));
    }
    let mut rng = Rng::new(cfg.seed);
    let group_draws: Vec<QueryDraw> = (0..cfg.groups)
        .map(|_| draw(&mut rng, cfg.cost_classes))
        .collect();
    let member_draws: Vec<Vec<QueryDraw>> = (0..cfg.groups)
        .map(|_| {
            (0..cfg.group_size)
                .map(|_| draw(&mut rng, cfg.cost_classes))
                .collect()
        })
        .collect();
    let stream = StreamId::new(0);
    let rates = StreamRates::none().with(stream, cfg.mean_gap);

    let build = |k_ns: f64| -> Result<GlobalPlan> {
        let mut plan = GlobalPlan::default();
        for (g, gd) in group_draws.iter().enumerate() {
            let shared_cost = class_cost(k_ns, gd.cost_class);
            let members: Vec<_> = member_draws[g]
                .iter()
                .map(|md| {
                    let c = class_cost(k_ns, md.cost_class);
                    plan.add_query(
                        QueryBuilder::on(stream)
                            .select(shared_cost, gd.selectivity)
                            .stored_join(c, md.selectivity)
                            .project(c)
                            .tag(tag(*md))
                            .build()
                            .expect("valid by construction"),
                    )
                })
                .collect();
            plan.share_first_op(members)?;
        }
        Ok(plan)
    };

    let unit = Nanos::from_micros(1).as_nanos() as f64;
    let probe = build(unit)?;
    let k_ns = unit * scale_for_utilization(offered_load(&probe, &rates), cfg.utilization);
    let plan = build(k_ns)?;
    Ok(PaperWorkload {
        plan,
        rates,
        streams: vec![stream],
        utilization: cfg.utilization,
        k_ns,
    })
}

fn validate(queries: usize, cost_classes: u8, utilization: f64) -> Result<()> {
    if queries == 0 {
        return Err(HcqError::config("need at least one query"));
    }
    if cost_classes == 0 || cost_classes > 16 {
        return Err(HcqError::config("cost_classes must be in 1..=16"));
    }
    if !(utilization.is_finite() && utilization > 0.0) {
        return Err(HcqError::config("utilization must be positive"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::offered_load;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    #[test]
    fn single_stream_calibrates_to_target() {
        for util in [0.3, 0.7, 0.97] {
            let w = single_stream(&SingleStreamConfig {
                queries: 60,
                cost_classes: 5,
                utilization: util,
                mean_gap: ms(10),
                seed: 1,
            })
            .unwrap();
            let load = offered_load(&w.plan, &w.rates);
            assert!(
                (load - util).abs() / util < 0.01,
                "target {util}, offered {load}"
            );
            assert_eq!(w.plan.len(), 60);
        }
    }

    #[test]
    fn single_stream_has_classed_costs_and_tags() {
        let w = single_stream(&SingleStreamConfig {
            queries: 200,
            cost_classes: 5,
            utilization: 0.5,
            mean_gap: ms(10),
            seed: 2,
        })
        .unwrap();
        let mut classes_seen = [false; 5];
        for q in &w.plan.queries {
            classes_seen[q.tag.cost_class as usize] = true;
            assert!(q.is_single_stream());
            assert_eq!(q.operator_count(), 3);
        }
        assert!(classes_seen.iter().all(|&b| b), "all 5 classes drawn");
    }

    #[test]
    fn multi_stream_calibrates_and_uses_windows() {
        let w = multi_stream(&MultiStreamConfig {
            queries: 30,
            cost_classes: 5,
            utilization: 0.8,
            mean_gap: ms(100),
            window_range: (Nanos::from_secs(1), Nanos::from_secs(10)),
            seed: 3,
        })
        .unwrap();
        let load = offered_load(&w.plan, &w.rates);
        assert!((load - 0.8).abs() < 0.02, "offered {load}");
        assert!(w.plan.queries.iter().all(|q| q.leaf_count() == 2));
        assert_eq!(w.streams.len(), 2);
    }

    #[test]
    fn shared_builds_groups_and_calibrates() {
        let w = shared(&SharedConfig {
            groups: 6,
            group_size: 10,
            cost_classes: 5,
            utilization: 0.6,
            mean_gap: ms(10),
            seed: 4,
        })
        .unwrap();
        assert_eq!(w.plan.len(), 60);
        assert_eq!(w.plan.sharing.len(), 6);
        w.plan.validate().unwrap();
        let load = offered_load(&w.plan, &w.rates);
        assert!((load - 0.6).abs() < 0.01, "offered {load}");
    }

    #[test]
    fn draws_are_seed_deterministic() {
        let a = single_stream(&SingleStreamConfig::paper(0.5, ms(10))).unwrap();
        let b = single_stream(&SingleStreamConfig::paper(0.5, ms(10))).unwrap();
        assert_eq!(a.plan.queries.len(), b.plan.queries.len());
        for (qa, qb) in a.plan.queries.iter().zip(&b.plan.queries) {
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn config_validation() {
        assert!(single_stream(&SingleStreamConfig {
            queries: 0,
            ..SingleStreamConfig::paper(0.5, ms(10))
        })
        .is_err());
        assert!(single_stream(&SingleStreamConfig {
            utilization: -1.0,
            ..SingleStreamConfig::paper(0.5, ms(10))
        })
        .is_err());
        assert!(multi_stream(&MultiStreamConfig {
            window_range: (Nanos::from_secs(2), Nanos::from_secs(1)),
            ..MultiStreamConfig::paper(0.5, ms(10))
        })
        .is_err());
        assert!(shared(&SharedConfig {
            group_size: 0,
            ..SharedConfig::paper(0.5, ms(10))
        })
        .is_err());
    }

    #[test]
    fn utilization_scales_costs_linearly() {
        let lo = single_stream(&SingleStreamConfig {
            utilization: 0.4,
            ..SingleStreamConfig::paper(0.4, ms(10))
        })
        .unwrap();
        let hi = single_stream(&SingleStreamConfig {
            utilization: 0.8,
            ..SingleStreamConfig::paper(0.8, ms(10))
        })
        .unwrap();
        assert!((hi.k_ns / lo.k_ns - 2.0).abs() < 1e-6);
    }
}
