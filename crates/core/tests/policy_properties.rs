//! Property tests: every policy's `select` matches its paper-defined argmax
//! on randomized queue states, across arbitrary enqueue/execute interleavings.

use hcq_common::{Nanos, TupleId};
use hcq_core::{FcfsPolicy, Policy, QueueView, StaticPolicy, UnitStatics, WaitPolicy};
use proptest::prelude::*;

mod common;
use common::Queues;

/// Random unit populations: cost ms in 1..=32, selectivity 0.05..1,
/// ideal time = 1–3× cost.
fn units_strategy(n: usize) -> impl Strategy<Value = Vec<UnitStatics>> {
    proptest::collection::vec((1u64..=32, 0.05f64..1.0, 1u64..=3), n..=n).prop_map(|raw| {
        raw.into_iter()
            .map(|(c, s, tf)| {
                UnitStatics::new(s, Nanos::from_millis(c), Nanos::from_millis(c * tf))
            })
            .collect()
    })
}

/// A script of operations: enqueue (unit, arrival-gap) or execute-next.
fn script_strategy(n_units: u32) -> impl Strategy<Value = Vec<Option<(u32, u64)>>> {
    proptest::collection::vec(
        proptest::option::weighted(0.6, (0..n_units, 0u64..50)),
        1..120,
    )
}

/// Drive a policy through a script, checking each decision against an
/// oracle: `priority(unit, now)` must be maximal among ready units.
fn check_against_oracle(
    mut policy: Box<dyn Policy>,
    units: &[UnitStatics],
    script: &[Option<(u32, u64)>],
    oracle: impl Fn(&UnitStatics, Nanos, Nanos) -> f64, // (statics, head_arrival, now)
) -> Result<(), TestCaseError> {
    let n = units.len();
    policy.on_register(units);
    let mut q = Queues::new(n);
    let mut now = Nanos::ZERO;
    let mut tuple = 0u64;
    for step in script {
        match step {
            Some((unit, gap)) => {
                now += Nanos::from_millis(*gap);
                let unit = unit % n as u32;
                q.push(unit, TupleId::new(tuple), now);
                policy.on_enqueue(unit, TupleId::new(tuple), now, now);
                tuple += 1;
            }
            None => {
                now += Nanos::from_millis(1);
                if q.nonempty.is_empty() {
                    prop_assert!(policy.select(&q, now).is_none());
                    continue;
                }
                let sel = policy.select(&q, now).expect("work pending");
                prop_assert_eq!(sel.units.len(), 1);
                let chosen = sel.units[0];
                prop_assert!(q.len(chosen) > 0, "selected empty unit {chosen}");
                let chosen_p = oracle(
                    &units[chosen as usize],
                    q.head_arrival(chosen).unwrap(),
                    now,
                );
                for &u in q.nonempty().iter() {
                    let p = oracle(&units[u as usize], q.head_arrival(u).unwrap(), now);
                    prop_assert!(
                        chosen_p >= p - p.abs() * 1e-12,
                        "unit {u} (p={p}) beats chosen {chosen} (p={chosen_p})"
                    );
                }
                q.pop(chosen);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hnr_selects_argmax(
        units in units_strategy(6),
        script in script_strategy(6),
    ) {
        check_against_oracle(
            Box::new(StaticPolicy::hnr()),
            &units,
            &script,
            |u, _, _| u.hnr_priority(),
        )?;
    }

    #[test]
    fn hr_selects_argmax(
        units in units_strategy(6),
        script in script_strategy(6),
    ) {
        check_against_oracle(
            Box::new(StaticPolicy::hr()),
            &units,
            &script,
            |u, _, _| u.hr_priority(),
        )?;
    }

    #[test]
    fn srpt_selects_argmax(
        units in units_strategy(6),
        script in script_strategy(6),
    ) {
        check_against_oracle(
            Box::new(StaticPolicy::srpt()),
            &units,
            &script,
            |u, _, _| u.srpt_priority(),
        )?;
    }

    #[test]
    fn lsf_selects_argmax_stretch(
        units in units_strategy(6),
        script in script_strategy(6),
    ) {
        check_against_oracle(
            Box::new(WaitPolicy::lsf()),
            &units,
            &script,
            |u, arrival, now| {
                now.saturating_since(arrival).as_nanos() as f64 * u.lsf_slope()
            },
        )?;
    }

    #[test]
    fn bsd_selects_argmax_phi_w(
        units in units_strategy(6),
        script in script_strategy(6),
    ) {
        check_against_oracle(
            Box::new(WaitPolicy::bsd()),
            &units,
            &script,
            |u, arrival, now| {
                now.saturating_since(arrival).as_nanos() as f64 * u.bsd_static()
            },
        )?;
    }

    #[test]
    fn fcfs_selects_oldest(
        units in units_strategy(6),
        script in script_strategy(6),
    ) {
        check_against_oracle(
            Box::new(FcfsPolicy::new()),
            &units,
            &script,
            // Oldest head arrival = maximal negated arrival.
            |_, arrival, _| -(arrival.as_nanos() as f64),
        )?;
    }
}
