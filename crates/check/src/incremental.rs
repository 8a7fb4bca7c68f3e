//! Differential fuzzing of incremental clustered-BSD maintenance.
//!
//! The large-q scheduler core keeps its clusters **incrementally**: an
//! enqueue appends to one cluster FIFO, a shed unlinks one entry, a statics
//! change re-buckets one unit against the frozen `Φ` domain and drags only
//! its own entries — no full priority-domain rebuild ever happens. The
//! correctness claim is that none of this is observable: after *any*
//! mutation sequence, the policy must behave byte-identically to a
//! from-scratch reconstruction of the same logical state
//! ([`ClusteredBsdPolicy::rebuild_reference`]).
//!
//! This module fuzzes that claim. Each `(seed, case)` derives a mutation
//! sequence from the mix the executors produce — single and fanned-out
//! enqueues, mid-stream selects, statics updates, tail sheds and domain
//! refreezes — applies
//! it to an incremental policy, rebuilds the reference, and drains both
//! side by side. Every [`hcq_core::Selection`] must match exactly: units,
//! charged ops, and the full [`hcq_core::SchedStats`] itemization. A
//! refreeze has a second, independent reference: a policy registered afresh
//! on the current statics (so under the domain a refreeze computes) and fed
//! the pending tuples in enqueue order. From the refreeze on it receives
//! every op the policy does, and must select the same units at every point
//! (its counters differ: it never paid for the refreeze). A mismatch is
//! reported as an `incremental-equivalence` violation, after
//! **shrinking** the mutation sequence to the shortest failing prefix so the
//! artifact names the smallest reproduction.

use hcq_common::{det, Nanos, TupleId};
use hcq_core::{
    ClusterConfig, ClusteredBsdPolicy, Policy, PolicyKind, Selection, UnitId, UnitStatics,
};

use crate::invariants::{cluster_variants, label, Violation};
use crate::policyfuzz::{degenerate_units, FuzzQueues};

/// Fresh statics for update ops: reuse the degenerate generator so NaN/zero
/// corners also flow through the *incremental* paths.
fn gen_statics(h: u64) -> UnitStatics {
    let pool = degenerate_units(h, h ^ 0x5eed);
    pool[(det::mix2(h, 77) % pool.len() as u64) as usize]
}

/// A policy registered on `units` and fed every tuple in `queues` in
/// enqueue order: tuple ids rise with each enqueue, and a fan-out's copies
/// (one id) were enqueued in unit order.
fn registered_afresh(
    cfg: ClusterConfig,
    units: &[UnitStatics],
    queues: &FuzzQueues,
) -> ClusteredBsdPolicy {
    let mut policy = ClusteredBsdPolicy::new(cfg);
    policy.on_register(units);
    let mut pending: Vec<_> = queues.entries().collect();
    pending.sort_unstable();
    for (tuple, unit, arrival) in pending {
        policy.on_enqueue(unit, tuple, arrival, arrival);
    }
    policy
}

/// The units a selection runs, for comparisons that ignore its counters.
fn units_of(selection: &Option<Selection>) -> Option<&[UnitId]> {
    selection.as_ref().map(|s| s.units.as_slice())
}

/// Apply `steps` mutation ops, then drain the incremental policy against
/// its rebuilt reference. Returns the first divergence as a detail string.
fn run_sequence(seed: u64, case: u64, cfg: ClusterConfig, steps: u64) -> Option<String> {
    let base = det::mix3(det::splitmix64(seed ^ 0x1ac4), case, 0x51de);
    let mut units = degenerate_units(seed, case ^ 0xc105);
    // The concrete type, not `PolicyKind::build`: the drain compares it
    // with its `rebuild_reference`.
    let mut policy = ClusteredBsdPolicy::new(cfg);
    policy.on_register(&units);
    let n = units.len();
    let mut queues = FuzzQueues::new(n);
    let mut now = Nanos::ZERO;
    let mut next_tuple = 0u64;
    let gap = det::unit_range(det::mix2(base, 1), 1, 500_000);
    // The refreeze reference, from the first refreeze on.
    let mut afresh: Option<ClusteredBsdPolicy> = None;

    for step in 0..steps {
        let h = det::mix2(base, 1000 + step);
        let u = (det::mix2(h, 2) % n as u64) as UnitId;
        match det::unit_range(det::mix2(h, 1), 0, 5) {
            0 => {
                // Single enqueue.
                let t = TupleId::new(next_tuple);
                next_tuple += 1;
                queues.push(u, t, now);
                policy.on_enqueue(u, t, now, now);
                if let Some(p) = &mut afresh {
                    p.on_enqueue(u, t, now, now);
                }
            }
            1 => {
                // Fan-out: one source tuple copied to every unit, the shape
                // clustered batching collapses.
                let t = TupleId::new(next_tuple);
                next_tuple += 1;
                for v in 0..n as UnitId {
                    queues.push(v, t, now);
                    policy.on_enqueue(v, t, now, now);
                    if let Some(p) = &mut afresh {
                        p.on_enqueue(v, t, now, now);
                    }
                }
            }
            2 => {
                // Scheduling point mid-sequence.
                let sel = policy.select(&queues, now);
                if let Some(p) = &mut afresh {
                    let other = p.select(&queues, now);
                    if units_of(&sel) != units_of(&other) {
                        return Some(format!(
                            "step {step}: incremental selected {:?}, registered afresh {:?}",
                            units_of(&sel),
                            units_of(&other)
                        ));
                    }
                }
                for &su in sel.iter().flat_map(|s| s.units.as_slice()) {
                    queues.pop(su);
                }
            }
            3 => {
                // Statics update (may re-bucket and migrate entries).
                let statics = gen_statics(det::mix2(h, 3));
                policy.update_unit_statics(u, &statics);
                if let Some(p) = &mut afresh {
                    p.update_unit_statics(u, &statics);
                }
                units[u as usize] = statics;
            }
            4 => {
                // Shed the unit's tail tuple, engine-style.
                if let Some((t, _)) = queues.pop_back(u) {
                    policy.on_shed(u, t);
                    if let Some(p) = &mut afresh {
                        p.on_shed(u, t);
                    }
                }
            }
            _ => {
                // Refreeze the `Φ` domain: clusters can merge, and their
                // backlogs must replay in enqueue order.
                policy.refreeze_domain();
                afresh = Some(registered_afresh(cfg, &units, &queues));
            }
        }
        now += Nanos::from_nanos(1 + det::mix2(h, 9) % gap);
    }

    // Differential drain: the rebuilt reference must replay byte-identically.
    let mut reference = policy.rebuild_reference();
    let mut ref_queues = queues.clone();
    let budget = 4 * (queues.pending() + 1);
    for round in 0..budget {
        let a = policy.select(&queues, now);
        let b = reference.select(&ref_queues, now);
        if let Some(p) = &mut afresh {
            let c = p.select(&queues, now);
            if units_of(&a) != units_of(&c) {
                return Some(format!(
                    "round {round} after {steps} ops: incremental selected {:?}, \
                     registered afresh {:?}",
                    units_of(&a),
                    units_of(&c)
                ));
            }
        }
        match (&a, &b) {
            (None, None) => {
                if queues.pending() > 0 {
                    return Some(format!(
                        "both wedged with {} tuples pending after {steps} ops",
                        queues.pending()
                    ));
                }
                return None;
            }
            (Some(x), Some(y)) => {
                if x.units != y.units || x.ops_counted != y.ops_counted || x.stats != y.stats {
                    return Some(format!(
                        "round {round} after {steps} ops: incremental {:?} (ops {}, stats {:?}) \
                         vs rebuilt {:?} (ops {}, stats {:?})",
                        x.units, x.ops_counted, x.stats, y.units, y.ops_counted, y.stats
                    ));
                }
                for &su in x.units.as_slice() {
                    if queues.pop(su).is_none() || ref_queues.pop(su).is_none() {
                        return Some(format!(
                            "round {round}: selected unit {su} with empty queue"
                        ));
                    }
                }
            }
            _ => {
                return Some(format!(
                    "round {round} after {steps} ops: incremental selected {:?}, rebuilt {:?}",
                    a.as_ref().map(|s| s.units.as_slice().to_vec()),
                    b.as_ref().map(|s| s.units.as_slice().to_vec()),
                ));
            }
        }
        now += Nanos::from_nanos(1);
    }
    (queues.pending() > 0).then(|| "drain exceeded budget".to_string())
}

/// Fuzz one `(seed, case)` of incremental mutations through every clustered
/// variant, shrinking failures to the shortest failing op prefix.
pub fn fuzz_incremental(seed: u64, case: u64) -> Vec<Violation> {
    let base = det::mix3(det::splitmix64(seed ^ 0x1ac4), case, 0x51de);
    let m = det::unit_range(det::mix2(base, 5), 1, 6) as usize;
    let steps = det::unit_range(det::mix2(base, 6), 4, 40);
    let mut violations = Vec::new();
    for cfg in cluster_variants(m) {
        if let Some(detail) = run_sequence(seed, case, cfg, steps) {
            // Shrink: the shortest prefix of the same op stream that still
            // diverges (sequences are deterministic in (seed, case, len)).
            let minimal = (0..steps)
                .find(|&len| run_sequence(seed, case, cfg, len).is_some())
                .unwrap_or(steps);
            let detail_min = run_sequence(seed, case, cfg, minimal).unwrap_or(detail);
            violations.push(Violation {
                policy: label(PolicyKind::Clustered(cfg)),
                invariant: "incremental-equivalence",
                detail: format!("minimal prefix {minimal}/{steps} ops: {detail_min}"),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_maintenance_matches_rebuild_over_many_cases() {
        for case in 0..48 {
            let violations = fuzz_incremental(7, case);
            assert!(
                violations.is_empty(),
                "case {case} diverged:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  {v}\n"))
                    .collect::<String>()
            );
        }
    }

    #[test]
    fn sequences_are_deterministic() {
        // The same (seed, case) must replay the same op stream: run twice
        // and require identical (empty) outcomes — the replay contract the
        // artifact format relies on.
        for case in 0..8 {
            let a = format!("{:?}", fuzz_incremental(11, case));
            let b = format!("{:?}", fuzz_incremental(11, case));
            assert_eq!(a, b);
        }
    }
}
