//! The embeddable online DSMS (`hcq-aqsios`): register real continuous
//! queries over integer records, push live data, and let HNR schedule.
//!
//! The scenario: a payments stream `(amount_cents, merchant_id, region)`
//! feeding three monitoring queries of very different weight — exactly the
//! heterogeneity the paper's slowdown metric is designed for.
//!
//! Run with:
//! ```text
//! cargo run --release --example embedded_dsms
//! ```

use hcq::aqsios::{
    Cmp, Dsms, DsmsConfig, ManualClock, Predicate, Record, RtJoin, RtOp, RtPlan, RuntimePolicy,
};
use hcq::common::{det, Nanos, StreamId};

const PAYMENTS: StreamId = StreamId(0);
const CHARGEBACKS: StreamId = StreamId(1);
const PAYMENTS_PUSHED: u64 = 5_000;
/// The selectivities Q0's and Q1's selects are registered with.
const LARGE_SELECTIVITY: f64 = 0.02;
const REGION_SELECTIVITY: f64 = 0.25;

fn main() {
    // A manual clock makes the demo deterministic; swap for the default
    // SystemClock in live deployments.
    let clock = ManualClock::new();
    let mut dsms = Dsms::new(
        DsmsConfig::new(RuntimePolicy::Hnr)
            .with_clock(Box::new(clock.clone()))
            .with_auto_refresh(64),
    )
    .expect("valid config");

    // Q0: large payments (rare, must be cheap to notice).
    let q_large = dsms
        .register(RtPlan::single(
            PAYMENTS,
            vec![RtOp::select(
                Predicate::new(0, Cmp::Ge, 500_000),
                Nanos::from_micros(5),
                LARGE_SELECTIVITY,
            )],
        ))
        .unwrap();
    // Q1: region-44 activity feed, projected down to (amount, merchant).
    let q_region = dsms
        .register(RtPlan::single(
            PAYMENTS,
            vec![
                RtOp::select(
                    Predicate::new(2, Cmp::Eq, 44),
                    Nanos::from_micros(20),
                    REGION_SELECTIVITY,
                ),
                RtOp::project(vec![0, 1], Nanos::from_micros(5)),
            ],
        ))
        .unwrap();
    // Q2: payments joined with chargebacks on merchant within 2 s.
    let q_fraud = dsms
        .register(RtPlan::Join {
            left_stream: PAYMENTS,
            right_stream: CHARGEBACKS,
            left_ops: vec![],
            right_ops: vec![],
            join: RtJoin::new(1, 0, Nanos::from_secs(2))
                .with_est_cost(Nanos::from_micros(40))
                .with_est_selectivity(0.5),
            common_ops: vec![RtOp::select(
                Predicate::new(0, Cmp::Ge, 10_000),
                Nanos::from_micros(10),
                0.6,
            )],
        })
        .unwrap();

    // Drive synthetic payments (deterministic pseudo-random fields) and
    // occasional chargebacks.
    let mut emissions = [0u64; 3];
    for i in 0..PAYMENTS_PUSHED {
        let h = det::splitmix64(i);
        let amount = (det::unit_range(h, 1, 1_000_000)) as i64;
        let merchant = (h % 50) as i64;
        let region = (det::splitmix64(h) % 60) as i64;
        dsms.push(PAYMENTS, Record::new(vec![amount, merchant, region]));
        if i % 40 == 0 {
            dsms.push(CHARGEBACKS, Record::new(vec![merchant, 1]));
        }
        clock.advance(Nanos::from_micros(200));
        for e in dsms.run_until_idle() {
            emissions[e.query.index()] += 1;
        }
    }

    let stats = dsms.stats();
    println!(
        "pushed {} records; {} emissions, {} drops, {} scheduling decisions",
        stats.pushed, stats.emitted, stats.dropped, stats.decisions
    );
    println!();
    println!("query                      emissions");
    println!("--------------------------------------");
    println!("{q_large}  large-payment alerts   {:>8}", emissions[0]);
    println!("{q_region}  region-44 feed         {:>8}", emissions[1]);
    println!("{q_fraud}  chargeback correlation {:>8}", emissions[2]);
    println!();
    println!(
        "QoS: avg response {:.3} ms, avg slowdown {:.2}, max slowdown {:.2}",
        stats.qos.avg_response_ms, stats.qos.avg_slowdown, stats.qos.max_slowdown
    );
    println!();
    println!("Priorities were refreshed from online EWMA monitors every 64");
    println!("decisions. Each query's select: the selectivity it was registered");
    println!("with, its monitor's estimate at the end, and the share of the");
    println!("{PAYMENTS_PUSHED} payments that passed it:");
    for (query, declared, passed) in [
        (q_large, LARGE_SELECTIVITY, emissions[0]),
        (q_region, REGION_SELECTIVITY, emissions[1]),
    ] {
        let (_, learned) = dsms.estimates(query).expect("registered")[0];
        let passed = passed as f64 / PAYMENTS_PUSHED as f64;
        let [declared, learned, passed] = [declared, learned, passed].map(|x| 100.0 * x);
        println!(
            "{query}  declared {declared:>6.2} %  learned {learned:>6.2} %  passed {passed:>6.2} %"
        );
    }
}
