//! `repro inspect`: the offline trace-analysis CLI mode, plus the
//! `ext_inspect` exhibit.
//!
//! `repro inspect TRACE` parses a PR-3 JSONL scheduling trace (interleaved
//! `repro monitor` telemetry lines are tolerated) and prints the per-query
//! latency waterfalls and the starvation report. `--diff TRACE2` aligns a
//! second trace at scheduling-point granularity and reports the first
//! divergent decision plus per-query QoS deltas. `--format perfetto` writes
//! Chrome trace-event JSON (self-validated before it touches disk) into the
//! `--out` directory instead of the text reports. All output is a pure
//! function of the input bytes — byte-identical across runs and `--jobs`.
//!
//! This module also owns [`guard_overwrite`], the shared refuse-to-clobber
//! check used by every repro mode that writes a user-named file.

use std::io;
use std::path::{Path, PathBuf};

use hcq_core::PolicyKind;
use hcq_inspect::{diff, event, perfetto, starve, waterfall};

use crate::exhibits::{emit, ExhibitOutput};
use crate::harness::ExpConfig;
use crate::table::{fnum, AsciiTable};

/// Refuse to overwrite `path` unless `force` is set.
///
/// Every repro mode that writes to a user-named path goes through this
/// check, so a stray re-run cannot silently clobber a trace or telemetry
/// capture someone meant to keep.
pub fn guard_overwrite(path: &Path, force: bool) -> io::Result<()> {
    if !force && path.exists() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!(
                "{} already exists; pass --force to overwrite",
                path.display()
            ),
        ));
    }
    Ok(())
}

/// Output format of `repro inspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InspectFormat {
    /// Waterfall + starvation (+ diff) reports as fixed-width text.
    Text,
    /// Chrome trace-event / Perfetto JSON.
    Perfetto,
}

impl std::str::FromStr for InspectFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "text" => Ok(InspectFormat::Text),
            "perfetto" => Ok(InspectFormat::Perfetto),
            other => Err(format!("unknown format {other:?} (expected text|perfetto)")),
        }
    }
}

fn load(path: &Path) -> Result<event::TraceLog, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read trace {}: {e}", path.display()))?;
    event::parse_stream(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run `repro inspect`. Returns the text written to stdout (for tests).
pub fn inspect_trace(
    trace: &Path,
    diff_against: Option<&Path>,
    format: InspectFormat,
    out_dir: &Path,
    force: bool,
) -> Result<String, String> {
    let log = load(trace)?;
    let mut out = String::new();
    match format {
        InspectFormat::Text => {
            out.push_str(&format!(
                "== inspect {} ==\n{} event(s), {} telemetry line(s), {} unknown line(s)\n\n",
                trace.display(),
                log.events.len(),
                log.telemetry_lines,
                log.unknown_lines,
            ));
            let spans = hcq_inspect::reconstruct(&log)?;
            let w = hcq_inspect::waterfalls(&spans);
            out.push_str(&waterfall::render(&w));
            out.push('\n');
            out.push_str(&starve::render(&hcq_inspect::starvation(&log, None)));
            if let Some(other) = diff_against {
                let log_b = load(other)?;
                out.push('\n');
                out.push_str(&format!(
                    "== diff A={} B={} ==\n",
                    trace.display(),
                    other.display()
                ));
                out.push_str(&diff::render(&hcq_inspect::diff(&log, &log_b)));
            }
        }
        InspectFormat::Perfetto => {
            let json = perfetto::render(&log)?;
            let stats = perfetto::validate(&json)
                .map_err(|e| format!("rendered Perfetto JSON failed validation: {e}"))?;
            let path = out_dir.join(perfetto_file_name(trace));
            guard_overwrite(&path, force).map_err(|e| e.to_string())?;
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            }
            std::fs::write(&path, &json).map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "perfetto: {} event(s) on {} track(s) ({} slices, {} async pairs, \
                 {} instants) written to {}\n",
                stats.events,
                stats.tracks,
                stats.complete,
                stats.async_pairs,
                stats.instants,
                path.display(),
            ));
            out.push_str("open at https://ui.perfetto.dev (or chrome://tracing)\n");
        }
    }
    print!("{out}");
    Ok(out)
}

/// `<trace-stem>.perfetto.json`.
fn perfetto_file_name(trace: &Path) -> PathBuf {
    let stem = trace
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
    PathBuf::from(format!("{stem}.perfetto.json"))
}

// ------------------------------------------------------------ ext_inspect

/// `ext_inspect`: the observability pipeline applied to the paper's
/// cost-blindness pathology. FCFS and BSD run the same high-utilization
/// single-stream workload traced; the decision diff pinpoints the first
/// scheduling point where BSD departs from arrival order, and the per-query
/// table shows what that choice buys: under FCFS every tuple waits behind
/// the whole backlog regardless of its own service demand, so the cheap
/// cost classes suffer slowdowns orders of magnitude above BSD's, while
/// BSD's deliberate rebalancing surfaces in the starvation detector as
/// flagged long-wait episodes on the queries it sacrifices.
pub fn ext_inspect(cfg: &ExpConfig) -> ExhibitOutput {
    let util = 0.95;
    println!(
        "ext_inspect: tracing fcfs and bsd at utilization {util} ({} queries, {} arrivals)...",
        cfg.queries, cfg.arrivals
    );
    let (_, bytes_a) = cfg.run_single_traced(util, PolicyKind::Fcfs);
    let (_, bytes_b) = cfg.run_single_traced(util, PolicyKind::Bsd);
    let log_a = event::parse_stream(&String::from_utf8(bytes_a).expect("trace is UTF-8"))
        .expect("engine traces parse");
    let log_b = event::parse_stream(&String::from_utf8(bytes_b).expect("trace is UTF-8"))
        .expect("engine traces parse");

    let d = hcq_inspect::diff(&log_a, &log_b);
    let starve_a = hcq_inspect::starvation(&log_a, None);
    let starve_b = hcq_inspect::starvation(&log_b, None);
    println!(
        "  fcfs: {} starvation episode(s) flagged; bsd: {}",
        starve_a.flagged_total, starve_b.flagged_total
    );
    match &d.divergence {
        Some(v) => println!(
            "  first divergent decision: #{} — FCFS@{}ns ran unit(s) {:?}, \
             BSD@{}ns ran unit(s) {:?}",
            v.ordinal, v.at_a, v.units_a, v.at_b, v.units_b
        ),
        None => println!("  no divergent decision (policies agreed on this workload)"),
    }

    let mut table = AsciiTable::new(vec![
        "query",
        "emitted_fcfs",
        "emitted_bsd",
        "avg_slowdown_fcfs",
        "avg_slowdown_bsd",
        "max_slowdown_fcfs",
        "max_slowdown_bsd",
        "flagged_fcfs",
        "flagged_bsd",
    ]);
    let flagged = |s: &starve::Starvation, q: u32| -> u64 {
        // Units and queries coincide on the single-stream workload (one
        // chain per query).
        s.units
            .iter()
            .find(|u| u.unit == q)
            .map_or(0, |u| u.flagged)
    };
    for q in &d.queries {
        table.row(vec![
            q.query.to_string(),
            q.emitted_a.to_string(),
            q.emitted_b.to_string(),
            fnum(q.avg_slowdown_a),
            fnum(q.avg_slowdown_b),
            fnum(q.max_slowdown_a),
            fnum(q.max_slowdown_b),
            flagged(&starve_a, q.query).to_string(),
            flagged(&starve_b, q.query).to_string(),
        ]);
    }
    emit(cfg, "ext_inspect", table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hcq_inspect_cli_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny() -> ExpConfig {
        ExpConfig {
            queries: 8,
            arrivals: 150,
            seed: 7,
            jobs: 1,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn guard_refuses_existing_without_force() {
        let dir = tmp_dir("guard");
        let path = dir.join("trace.jsonl");
        // Nothing there yet: both pass.
        guard_overwrite(&path, false).unwrap();
        guard_overwrite(&path, true).unwrap();
        std::fs::write(&path, "x").unwrap();
        let err = guard_overwrite(&path, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("--force"), "{err}");
        // --force allows the overwrite.
        guard_overwrite(&path, true).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_text_reports_conservation_and_is_deterministic() {
        let dir = tmp_dir("text");
        let cfg = tiny();
        let (_, bytes) = cfg.run_single_traced(0.9, PolicyKind::Hnr);
        let trace = dir.join("trace.jsonl");
        std::fs::write(&trace, &bytes).unwrap();
        let a = inspect_trace(&trace, None, InspectFormat::Text, &dir, false).unwrap();
        assert!(
            a.contains("spans decompose exactly"),
            "missing conservation line:\n{a}"
        );
        assert!(a.contains("starvation:"), "missing starvation report:\n{a}");
        let b = inspect_trace(&trace, None, InspectFormat::Text, &dir, false).unwrap();
        assert_eq!(a, b, "inspect output must be byte-identical across runs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_diff_pinpoints_fcfs_vs_bsd_divergence() {
        let dir = tmp_dir("diff");
        let cfg = tiny();
        let (_, a) = cfg.run_single_traced(0.95, PolicyKind::Fcfs);
        let (_, b) = cfg.run_single_traced(0.95, PolicyKind::Bsd);
        let ta = dir.join("fcfs.jsonl");
        let tb = dir.join("bsd.jsonl");
        std::fs::write(&ta, &a).unwrap();
        std::fs::write(&tb, &b).unwrap();
        let out = inspect_trace(&ta, Some(&tb), InspectFormat::Text, &dir, false).unwrap();
        assert!(
            out.contains("first divergent decision: #"),
            "FCFS and BSD must diverge at 0.95 utilization:\n{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_perfetto_writes_validated_json_and_respects_guard() {
        let dir = tmp_dir("perfetto");
        let cfg = tiny();
        let (_, bytes) = cfg.run_single_traced(0.9, PolicyKind::Hnr);
        let trace = dir.join("trace.jsonl");
        std::fs::write(&trace, &bytes).unwrap();
        inspect_trace(&trace, None, InspectFormat::Perfetto, &dir, false).unwrap();
        let json_path = dir.join("trace.perfetto.json");
        let json = std::fs::read_to_string(&json_path).unwrap();
        perfetto::validate(&json).unwrap();
        // Second run without --force refuses; with --force overwrites.
        let err = inspect_trace(&trace, None, InspectFormat::Perfetto, &dir, false).unwrap_err();
        assert!(err.contains("--force"), "{err}");
        inspect_trace(&trace, None, InspectFormat::Perfetto, &dir, true).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
