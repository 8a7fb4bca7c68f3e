//! `repro run`: execute the reference pipeline workload on real OS threads
//! through `hcq-runtime` instead of the virtual-time simulator.
//!
//! Runs every bench policy on `--jobs` worker threads, prints one row per
//! policy (wall time, throughput, emission/shed/steal counts), and checks
//! tuple conservation on every run. Agreement with the simulator's
//! emissions is not checked here: [`hcq_runtime::differential`] does that,
//! run by the `hcq-runtime` differential test suite.

use hcq_bench::pipeline;
use hcq_streams::{ArrivalSource, PoissonSource};

use crate::harness::ExpConfig;
use crate::table::{fnum, AsciiTable};

fn sources() -> Vec<Box<dyn ArrivalSource>> {
    vec![Box::new(PoissonSource::new(pipeline::mean_gap(), 9))]
}

/// Execute the reference workload on `threads` worker threads under every
/// bench policy. Returns `false` if any run failed or broke conservation.
pub fn run_runtime(cfg: &ExpConfig, threads: usize) -> bool {
    let w = pipeline::workload();
    let arrivals = cfg.arrivals.clamp(1, 5_000);
    println!(
        "== runtime: reference workload on {threads} thread{} ({arrivals} arrivals, seed {}) ==",
        if threads == 1 { "" } else { "s" },
        cfg.seed
    );
    let mut table = AsciiTable::new(vec![
        "policy",
        "wall_ms",
        "tuples_per_s",
        "emitted",
        "dropped",
        "shed",
        "stolen",
    ]);
    let mut ok = true;
    for kind in pipeline::POLICIES {
        let rt_cfg = hcq_runtime::RuntimeConfig::new(arrivals)
            .with_seed(cfg.seed)
            .with_threads(threads);
        let report = match hcq_runtime::run(&w.plan, &w.rates, sources(), kind, &rt_cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("runtime run failed for {}: {e}", kind.name());
                ok = false;
                continue;
            }
        };
        if !report.conserved() {
            eprintln!(
                "conservation violated for {}: {} injected vs {} emitted + {} dropped + {} shed",
                kind.name(),
                report.injected,
                report.emitted,
                report.dropped,
                report.shed
            );
            ok = false;
        }
        table.row(vec![
            kind.name().to_string(),
            format!("{:.1}", report.wall_ns as f64 / 1e6),
            fnum(report.tuples_per_sec),
            report.emitted.to_string(),
            report.dropped.to_string(),
            report.shed.to_string(),
            report.stolen.to_string(),
        ]);
    }
    println!("{}", table.render());
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_exhibit_runs_clean() {
        let cfg = ExpConfig {
            arrivals: 60,
            seed: 3,
            ..ExpConfig::default()
        };
        assert!(run_runtime(&cfg, 2));
    }
}
