//! Online cost/selectivity monitoring (the §10 "dynamic environment" hook):
//! EWMA estimators track a drifting operator, and the derived HNR priorities
//! flip when the workload shifts — without any a-priori knowledge.
//!
//! Run with:
//! ```text
//! cargo run --release --example adaptive_estimation
//! ```

use hcq::common::Nanos;
use hcq::core::{EwmaEstimator, UnitStatics};

fn main() {
    let us = Nanos::from_micros;
    // Two single-operator queries whose true parameters drift over time.
    // Phase 1: A is cheap+selective, B expensive+productive (A should win
    // under HNR). Phase 2: the data distribution shifts — A's predicate now
    // matches almost everything and slows down; B becomes cheap.
    let mut est_a = EwmaEstimator::new(0.05, us(100), 0.5);
    let mut est_b = EwmaEstimator::new(0.05, us(100), 0.5);

    type Phase = (&'static str, (u64, f64), (u64, f64));
    let phases: [Phase; 2] = [
        ("phase 1 (A cheap/selective)", (80, 0.1), (900, 0.9)),
        ("phase 2 (distribution shift)", (700, 0.95), (120, 0.2)),
    ];

    println!("tick   A:cost_us  A:sel   B:cost_us  B:sel   HNR priority order");
    println!("----------------------------------------------------------------");
    let mut tick = 0u64;
    for (label, (ca, sa), (cb, sb)) in phases {
        for i in 0..400u64 {
            // Simulated measurements with deterministic pseudo-noise.
            let jitter = |base: u64, salt: u64| {
                let n = hcq::common::det::unit_f64(hcq::common::det::mix2(tick, salt));
                Nanos::from_nanos((base as f64 * 1_000.0 * (0.85 + 0.3 * n)) as u64)
            };
            let pass = |p: f64, salt: u64| {
                f64::from(u8::from(hcq::common::det::coin(
                    hcq::common::det::mix2(tick, salt),
                    p,
                )))
            };
            est_a.observe(jitter(ca, 1), pass(sa, 2));
            est_b.observe(jitter(cb, 3), pass(sb, 4));
            tick += 1;
            if i == 399 {
                let stat =
                    |e: &EwmaEstimator| UnitStatics::new(e.selectivity(), e.cost(), e.cost());
                let (pa, pb) = (stat(&est_a).hnr_priority(), stat(&est_b).hnr_priority());
                println!(
                    "{tick:>5}  {:>9.1}  {:>5.2}  {:>10.1}  {:>5.2}   {}  [{label}]",
                    est_a.cost().as_nanos() as f64 / 1_000.0,
                    est_a.selectivity(),
                    est_b.cost().as_nanos() as f64 / 1_000.0,
                    est_b.selectivity(),
                    if pa > pb { "A before B" } else { "B before A" },
                );
            }
        }
    }
    println!();
    println!("The scheduler needs no recompilation: refreshed UnitStatics feed");
    println!("Policy::on_statics_update, the hook executors call, and the priority");
    println!("order follows the drift.");
}
