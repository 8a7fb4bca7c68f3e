//! Burst dynamics: how slowdown evolves through ON/OFF traffic bursts, per
//! policy, read from telemetry snapshots taken once per window. The bursty source
//! is where the policies differ most — backlogs build at 5× the mean rate
//! during ON periods and the scheduler decides who suffers.
//!
//! Run with:
//! ```text
//! cargo run --release --example burst_dynamics
//! ```

use hcq::common::Nanos;
use hcq::core::PolicyKind;
use hcq::engine::{simulate_monitored, SimConfig, VecTelemetry};
use hcq::streams::OnOffSource;
use hcq::workload::{single_stream, SingleStreamConfig};

fn main() {
    let mean_gap = Nanos::from_millis(10);
    let w = single_stream(&SingleStreamConfig {
        queries: 80,
        cost_classes: 5,
        utilization: 0.9,
        mean_gap,
        seed: 7,
    })
    .expect("valid workload");

    let window = Nanos::from_secs(5);
    println!("avg slowdown per {window} window (bursty source, util 0.9):\n");
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for kind in [
        PolicyKind::Fcfs,
        PolicyKind::Hnr,
        PolicyKind::Bsd,
        PolicyKind::Lsf,
    ] {
        let (_, sink) = simulate_monitored(
            &w.plan,
            &w.rates,
            vec![Box::new(OnOffSource::lbl_like(mean_gap, 3))],
            kind.build(),
            SimConfig::new(6_000)
                .with_seed(12)
                .with_telemetry_cadence(window),
            VecTelemetry::new(),
        )
        .expect("valid simulation");
        // A snapshot at `at` drains the slowdown summary of the window
        // ending there (exact count and sum); the end-of-run snapshot closes
        // the last, partial window.
        let mut values: Vec<f64> = Vec::new();
        for s in &sink.samples {
            let slowdown = s.summary("hcq_slowdown").expect("registered summary");
            if slowdown.count == 0 {
                continue;
            }
            let i = (s.at.as_nanos().saturating_sub(1) / window.as_nanos()) as usize;
            values.resize(values.len().max(i + 1), 0.0);
            values[i] = slowdown.sum / slowdown.count as f64;
        }
        rows.push((kind.name().to_string(), values));
    }

    let n_windows = rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    print!("{:>8}", "t(s)");
    for (name, _) in &rows {
        print!("{name:>12}");
    }
    println!();
    for i in 0..n_windows {
        print!("{:>8}", i as u64 * window.as_nanos() / 1_000_000_000);
        for (_, values) in &rows {
            match values.get(i) {
                Some(v) if *v > 0.0 => print!("{v:>12.0}"),
                _ => print!("{:>12}", "-"),
            }
        }
        println!();
    }
    println!();
    println!("Watch the FCFS column spike during bursts and stay elevated while");
    println!("the slowdown-aware policies drain the backlog in priority order.");
}
