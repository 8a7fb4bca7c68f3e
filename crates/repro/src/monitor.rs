//! The `repro monitor` mode: one monitored run, exported two ways.
//!
//! Runs the §8 single-stream workload at 0.9 utilization under HNR with
//! telemetry sampling on, then writes the full snapshot stream as
//! `telemetry.jsonl` (one self-describing object per line, interleavable
//! with the PR-3 scheduling trace) and the final snapshot as `metrics.prom`
//! in Prometheus text exposition format — validated against the grammar
//! checker before it touches disk. Everything is virtual-time driven, so
//! both files are byte-identical across runs and `--jobs` counts.

use std::path::PathBuf;

use hcq_common::Nanos;
use hcq_core::PolicyKind;
use hcq_engine::SimReport;
use hcq_metrics::{check_exposition, render_prometheus, TelemetrySnapshot};

use crate::harness::ExpConfig;

/// What a monitor run produced and where the exports landed.
#[derive(Debug)]
pub struct MonitorOutput {
    /// The run's report (identical to an unmonitored run's).
    pub report: SimReport,
    /// Every sampled snapshot, in virtual-time order.
    pub samples: Vec<TelemetrySnapshot>,
    /// The JSONL snapshot stream.
    pub jsonl_path: PathBuf,
    /// The final snapshot in Prometheus exposition format.
    pub prom_path: PathBuf,
}

/// Run the monitored reference workload and export both formats into
/// `cfg.out_dir`. `cadence` is the virtual-time sampling interval. Existing
/// exports are never overwritten unless `force` is set — the check runs
/// before the simulation, so a refused run costs nothing.
pub fn monitor(cfg: &ExpConfig, cadence: Nanos, force: bool) -> std::io::Result<MonitorOutput> {
    let jsonl_path = cfg.out_dir.join("telemetry.jsonl");
    let prom_path = cfg.out_dir.join("metrics.prom");
    crate::inspect::guard_overwrite(&jsonl_path, force)?;
    crate::inspect::guard_overwrite(&prom_path, force)?;
    let util = 0.9;
    println!(
        "monitoring hnr at utilization {util} ({} queries, {} arrivals, cadence {} ms)...",
        cfg.queries,
        cfg.arrivals,
        cadence.as_nanos() / 1_000_000
    );
    let (report, samples) = cfg.run_single_monitored(util, PolicyKind::Hnr, cadence);
    std::fs::create_dir_all(&cfg.out_dir)?;

    let mut jsonl = String::new();
    for s in &samples {
        jsonl.push_str(&s.to_jsonl());
        jsonl.push('\n');
    }
    std::fs::write(&jsonl_path, jsonl)?;

    let last = samples.last().expect("a final snapshot always exists");
    let prom = render_prometheus(last);
    check_exposition(&prom)
        .unwrap_or_else(|e| panic!("rendered exposition text failed its own checker: {e}"));
    std::fs::write(&prom_path, &prom)?;

    println!(
        "  {} snapshots over {:.1} s of virtual time",
        samples.len(),
        report.end_time.as_nanos() as f64 / 1e9
    );
    println!(
        "  emitted {} tuples, avg slowdown {:.3}, final pending {}",
        report.emitted, report.qos.avg_slowdown, report.pending_end
    );
    println!("  wrote {}", jsonl_path.display());
    println!("  wrote {}", prom_path.display());
    Ok(MonitorOutput {
        report,
        samples,
        jsonl_path,
        prom_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        let dir = std::env::temp_dir().join(format!("hcq-monitor-{}", std::process::id()));
        ExpConfig {
            queries: 8,
            arrivals: 150,
            mean_gap: Nanos::from_millis(10),
            seed: 7,
            out_dir: dir,
            bursty: false,
            jobs: 1,
            govern: false,
        }
    }

    #[test]
    fn monitor_writes_valid_exports() {
        let cfg = tiny();
        std::fs::remove_dir_all(&cfg.out_dir).ok();
        let out = monitor(&cfg, Nanos::from_millis(100), false).unwrap();
        assert!(!out.samples.is_empty());
        let jsonl = std::fs::read_to_string(&out.jsonl_path).unwrap();
        assert_eq!(jsonl.lines().count(), out.samples.len());
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with("{\"type\":\"telemetry\"")));
        let prom = std::fs::read_to_string(&out.prom_path).unwrap();
        check_exposition(&prom).unwrap();
        assert!(prom.contains(&format!("hcq_emitted_total {}", out.report.emitted)));

        // A re-run must refuse to clobber the exports unless forced.
        let err = monitor(&cfg, Nanos::from_millis(100), false).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("--force"), "{err}");
        monitor(&cfg, Nanos::from_millis(100), true).unwrap();
        std::fs::remove_dir_all(&cfg.out_dir).ok();
    }
}
