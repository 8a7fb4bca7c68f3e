//! `repro bench`: the benchmark-trajectory baseline (`BENCH_*.json`).
//!
//! Times two things and writes one JSON snapshot per invocation:
//!
//! 1. **Reference workload** — the shared [`hcq_bench::pipeline`] fixture
//!    (the same cells the Criterion `pipeline` bench runs), per policy:
//!    wall-clock seconds per simulation and simulated source tuples per
//!    wall-clock second. The Criterion-compatible view of the same samples
//!    is emitted under `criterion_pipeline` with Criterion's benchmark ids,
//!    so JSON trajectories and `cargo bench` trends stay comparable. When
//!    the `CRITERION_JSON_OUT` environment variable names a readable
//!    JSON-lines file (as written by the criterion shim), its
//!    `simulate_arrivals/*` entries are ingested verbatim instead. Each
//!    policy is also timed with telemetry sampling on (same workload,
//!    250 ms virtual-time cadence); the on/off throughput ratio is printed
//!    and gated so sink hooks cannot silently leak cost into the hot path.
//!    A third variant arms the closed-loop overload governor
//!    ([`hcq_bench::pipeline::governor`]); its on/off ratio is gated the
//!    same way and its admission-mode transition count lands in the
//!    snapshot, so a flapping ladder shows up in the trajectory.
//! 2. **Sweep speedup** — the fig5–10 policy × load sweep run serially and
//!    with worker threads, recording both wall times and their ratio. The
//!    measured speedup is whatever the host delivers (a single-core machine
//!    honestly reports ~1.0×); outputs are byte-identical either way.
//!
//! Snapshots are numbered: the first run writes `BENCH_1.json` at the
//! repository root, the next `BENCH_2.json`, and so on, forming a
//! performance trajectory across commits. See `DESIGN.md` for the schema.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hcq_bench::large_q::{self, LargeQCell};
use hcq_bench::pipeline;
use hcq_common::{HcqError, Result};
use hcq_core::PolicyKind;

use crate::harness::{default_jobs, ExpConfig, SweepResults};

/// Timed samples for one policy on the reference workload.
#[derive(Debug)]
struct PolicyTiming {
    policy: &'static str,
    /// Mean wall-clock seconds per simulation.
    wall_s: f64,
    /// Fastest observed run, Criterion-style, in nanoseconds.
    min_ns: u128,
    /// Mean run in nanoseconds.
    mean_ns: u128,
    /// Output tuples emitted by the simulation (identical across samples).
    emitted: u64,
    /// Average priority evaluations per scheduling point (identical across
    /// samples — operation counts are deterministic, unlike wall time).
    evals_per_point: f64,
    /// Mean wall-clock seconds per simulation with telemetry sampling on
    /// (same workload, `pipeline::telemetry_cadence()` snapshots).
    telemetry_wall_s: f64,
    /// Snapshots per monitored run (identical across samples).
    telemetry_samples: usize,
    /// Mean wall-clock seconds per simulation with the closed-loop overload
    /// governor armed (same workload, `pipeline::governor()` settings).
    governed_wall_s: f64,
    /// Admission-mode transitions per governed run (identical across
    /// samples — governor decisions are virtual-time deterministic).
    governor_transitions: u64,
    /// Mean wall-clock seconds per simulation with seeded cost
    /// miscalibration and the policy-switching governor but no
    /// re-estimation (`pipeline::run_miscalibrated`) — the apples-to-apples
    /// baseline for the adaptive gate, since the miscalibrated workload is
    /// deliberately heavier than the plain fixture.
    miscal_wall_s: f64,
    /// Mean wall-clock seconds per simulation with the full feedback stack
    /// armed (miscalibration + online re-estimation + policy-switching
    /// governor, `pipeline::run_adaptive`).
    adaptive_wall_s: f64,
    /// Published statics updates per adaptive run (identical across
    /// samples — adaptation is virtual-time deterministic).
    statics_updates: u64,
    /// Meta-scheduler policy switches per adaptive run (identical across
    /// samples).
    policy_switches: u64,
}

/// Warm-up runs per policy before timing.
const WARMUP: usize = 1;
/// Timed runs per policy.
const SAMPLES: usize = 3;

/// Detected hardware parallelism, recorded in the snapshot so a reader can
/// tell an honest ~1.0× single-core speedup from a parallelism regression.
fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Arrivals for the wall-clock runtime scaling runs: heavier than the
/// simulator fixture so thread scaling has signal to show.
const RUNTIME_ARRIVALS: u64 = 2_000;
/// Thread counts the runtime section sweeps.
const RUNTIME_THREADS: [usize; 3] = [1, 2, 4];

/// Timed wall-clock runtime run at one thread count (HNR, reference
/// workload).
#[derive(Debug)]
struct RuntimeTiming {
    threads: usize,
    /// Best-of-samples wall seconds (minimum is the stablest scaling
    /// estimator under scheduler noise).
    wall_s: f64,
    /// Completed tuple copies per wall second on the best run.
    tuples_per_s: f64,
    /// Work-stolen executions on the best run.
    stolen: u64,
}

fn time_runtime() -> Vec<RuntimeTiming> {
    let w = pipeline::workload();
    let sources = || -> Vec<Box<dyn hcq_streams::ArrivalSource>> {
        vec![Box::new(hcq_streams::PoissonSource::new(
            pipeline::mean_gap(),
            9,
        ))]
    };
    RUNTIME_THREADS
        .iter()
        .map(|&threads| {
            let cfg = hcq_runtime::RuntimeConfig::new(RUNTIME_ARRIVALS)
                .with_seed(3)
                .with_threads(threads);
            let run = || {
                hcq_runtime::run(&w.plan, &w.rates, sources(), PolicyKind::Hnr, &cfg)
                    .expect("reference workload is runtime-supported")
            };
            for _ in 0..WARMUP {
                run();
            }
            let mut best: Option<RuntimeTiming> = None;
            for _ in 0..SAMPLES {
                let report = run();
                assert!(report.conserved(), "runtime bench run must conserve tuples");
                let wall_s = report.wall_ns as f64 / 1e9;
                let improved = match &best {
                    Some(b) => wall_s < b.wall_s,
                    None => true,
                };
                if improved {
                    best = Some(RuntimeTiming {
                        threads,
                        wall_s,
                        tuples_per_s: report.tuples_per_sec,
                        stolen: report.stolen,
                    });
                }
            }
            best.expect("SAMPLES > 0")
        })
        .collect()
}

/// Gate the 1→2 thread scaling of the wall-clock runtime. Two workers plus
/// the ingest thread need three cores; with fewer the comparison measures
/// timeslicing, so it is skipped with a note instead of producing a
/// misleading number (or aborting the snapshot).
fn check_runtime_scaling(cores: usize, timings: &[RuntimeTiming]) {
    let t1 = timings.iter().find(|t| t.threads == 1);
    let t2 = timings.iter().find(|t| t.threads == 2);
    let (Some(t1), Some(t2)) = (t1, t2) else {
        return;
    };
    let scaling = t1.wall_s / t2.wall_s.max(1e-12);
    if cores < 3 {
        println!(
            "  runtime 1->2 thread scaling: n/a ({cores}-core host, 3 threads; measured \
             {scaling:.2}x is timeslicing, not parallelism)"
        );
        return;
    }
    println!("  runtime 1->2 thread scaling: {scaling:.2}x");
    assert!(
        scaling > 1.0,
        "runtime gained nothing from a second thread on a {cores}-core host \
         ({:.4} s at 1 thread vs {:.4} s at 2)",
        t1.wall_s,
        t2.wall_s
    );
}

fn time_reference_workload() -> Vec<PolicyTiming> {
    let w = pipeline::workload();
    pipeline::POLICIES
        .iter()
        .map(|&kind| {
            for _ in 0..WARMUP {
                pipeline::run(kind, &w);
            }
            let mut emitted = 0;
            let mut evals_per_point = 0.0;
            let mut total_ns = 0u128;
            let mut min_ns = u128::MAX;
            for _ in 0..SAMPLES {
                let t0 = Instant::now();
                let report = pipeline::run(kind, &w);
                let ns = t0.elapsed().as_nanos();
                total_ns += ns;
                min_ns = min_ns.min(ns);
                emitted = report.emitted;
                evals_per_point = report.evals_per_sched_point();
            }
            let mean_ns = total_ns / SAMPLES as u128;
            for _ in 0..WARMUP {
                pipeline::run_monitored(kind, &w);
            }
            let mut telemetry_samples = 0;
            let mut telemetry_ns = 0u128;
            for _ in 0..SAMPLES {
                let t0 = Instant::now();
                let (report, samples) = pipeline::run_monitored(kind, &w);
                telemetry_ns += t0.elapsed().as_nanos();
                telemetry_samples = samples;
                assert_eq!(
                    report.emitted,
                    emitted,
                    "telemetry changed the simulation for {}",
                    kind.name()
                );
            }
            for _ in 0..WARMUP {
                pipeline::run_governed(kind, &w);
            }
            let mut governor_transitions = 0;
            let mut governed_ns = 0u128;
            for _ in 0..SAMPLES {
                let t0 = Instant::now();
                let report = pipeline::run_governed(kind, &w);
                governed_ns += t0.elapsed().as_nanos();
                governor_transitions = report.governor_transitions;
            }
            for _ in 0..WARMUP {
                pipeline::run_miscalibrated(kind, &w);
            }
            let mut miscal_ns = 0u128;
            for _ in 0..SAMPLES {
                let t0 = Instant::now();
                pipeline::run_miscalibrated(kind, &w);
                miscal_ns += t0.elapsed().as_nanos();
            }
            for _ in 0..WARMUP {
                pipeline::run_adaptive(kind, &w);
            }
            let mut statics_updates = 0;
            let mut policy_switches = 0;
            let mut adaptive_ns = 0u128;
            for _ in 0..SAMPLES {
                let t0 = Instant::now();
                let report = pipeline::run_adaptive(kind, &w);
                adaptive_ns += t0.elapsed().as_nanos();
                statics_updates = report.statics_updates;
                policy_switches = report.policy_switches;
            }
            PolicyTiming {
                policy: kind.name(),
                wall_s: mean_ns as f64 / 1e9,
                min_ns,
                mean_ns,
                emitted,
                evals_per_point,
                telemetry_wall_s: (telemetry_ns / SAMPLES as u128) as f64 / 1e9,
                telemetry_samples,
                governed_wall_s: (governed_ns / SAMPLES as u128) as f64 / 1e9,
                governor_transitions,
                miscal_wall_s: (miscal_ns / SAMPLES as u128) as f64 / 1e9,
                adaptive_wall_s: (adaptive_ns / SAMPLES as u128) as f64 / 1e9,
                statics_updates,
                policy_switches,
            }
        })
        .collect()
}

/// Time the fig5–10 sweep at a bench-friendly scale, serially and with
/// worker threads. Returns `(sweep_cfg, serial_s, parallel_s, par_jobs)`.
fn time_sweep(cfg: &ExpConfig) -> (ExpConfig, f64, f64, usize) {
    let mut sweep_cfg = cfg.clone();
    // Cap the per-cell cost so `repro bench` stays seconds, not minutes,
    // at the default experiment scale; flags can push it either way.
    sweep_cfg.queries = sweep_cfg.queries.min(60);
    sweep_cfg.arrivals = sweep_cfg.arrivals.min(1_000);
    let par_jobs = cfg.jobs.max(2);

    sweep_cfg.jobs = 1;
    let t0 = Instant::now();
    let _ = SweepResults::collect(&sweep_cfg, |_| {});
    let serial_s = t0.elapsed().as_secs_f64();

    sweep_cfg.jobs = par_jobs;
    let t0 = Instant::now();
    let _ = SweepResults::collect(&sweep_cfg, |_| {});
    let parallel_s = t0.elapsed().as_secs_f64();

    (sweep_cfg, serial_s, parallel_s, par_jobs)
}

/// Criterion-shaped entries for the `criterion_pipeline` section: either
/// ingested from a `CRITERION_JSON_OUT` JSON-lines file (the criterion
/// shim's machine-readable output) or derived from our own samples.
fn criterion_entries(timings: &[PolicyTiming]) -> Vec<String> {
    if let Ok(path) = std::env::var("CRITERION_JSON_OUT") {
        if let Ok(contents) = std::fs::read_to_string(&path) {
            let ingested: Vec<String> = contents
                .lines()
                .filter(|l| l.contains("\"simulate_arrivals/"))
                .map(|l| l.trim().to_string())
                .collect();
            if !ingested.is_empty() {
                return ingested;
            }
        }
    }
    timings
        .iter()
        .map(|t| {
            format!(
                "{{\"id\":\"simulate_arrivals/{}\",\"mean_ns\":{},\"min_ns\":{},\"elems_per_iter\":{}}}",
                t.policy,
                t.mean_ns,
                t.min_ns,
                pipeline::ARRIVALS
            )
        })
        .collect()
}

/// The directory `BENCH_<n>.json` snapshots are written to and read from
/// (`bench --history`).
pub fn snapshot_dir() -> PathBuf {
    repo_root()
}

/// Locate the repository root (nearest ancestor with a `Cargo.toml`) so the
/// snapshot lands beside the sources regardless of the invocation directory.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.toml").is_file() {
            // Prefer the outermost Cargo.toml (the workspace root).
            let mut root = dir;
            while let Some(parent) = root.parent() {
                if parent.join("Cargo.toml").is_file() {
                    root = parent;
                } else {
                    break;
                }
            }
            return root.to_path_buf();
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return cwd,
        }
    }
}

/// The next free `BENCH_<n>.json` in `dir` (trajectory numbering).
fn next_snapshot_path(dir: &Path) -> PathBuf {
    for n in 1.. {
        let candidate = dir.join(format!("BENCH_{n}.json"));
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("some index is always free");
}

/// The most recent existing `BENCH_<n>.json` in `dir`, if any.
fn latest_snapshot_path(dir: &Path) -> Option<PathBuf> {
    let mut latest = None;
    for n in 1.. {
        let candidate = dir.join(format!("BENCH_{n}.json"));
        if !candidate.exists() {
            return latest;
        }
        latest = Some(candidate);
    }
    unreachable!("some index is always free");
}

/// Extract `(policy, sim_tuples_per_s)` pairs from a snapshot's
/// `reference_workload.policies` lines (the exact shape [`render_json`]
/// writes — one policy object per line).
fn parse_policy_rates(contents: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in contents.lines() {
        let Some(p) = line.find("\"policy\": \"") else {
            continue;
        };
        let rest = &line[p + 11..];
        let Some(p_end) = rest.find('"') else {
            continue;
        };
        let policy = rest[..p_end].to_string();
        let Some(r) = line.find("\"sim_tuples_per_s\": ") else {
            continue;
        };
        let rest = &line[r + 20..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        if let Ok(rate) = rest[..end].trim().parse::<f64>() {
            out.push((policy, rate));
        }
    }
    out
}

/// Band of per-policy throughput ratios (new/old) considered measurement
/// noise between snapshots on the same host.
const NOISE_BAND: (f64, f64) = (0.6, 1.67);
/// Below this ratio the run is treated as a real regression, not noise.
const REGRESSION_FLOOR: f64 = 0.25;

/// Compare this run's steady-state per-policy throughput against the latest
/// existing snapshot. Ratios outside [`NOISE_BAND`] are called out; a drop
/// below [`REGRESSION_FLOOR`] aborts the run so a gross slowdown cannot
/// silently enter the trajectory.
fn check_against_previous(dir: &Path, timings: &[PolicyTiming]) -> Result<()> {
    let Some(prev_path) = latest_snapshot_path(dir) else {
        return Ok(());
    };
    // A previous snapshot that cannot be read (permissions, truncation, a
    // directory squatting on the name) must not block recording a new one —
    // the comparison is advisory; the trajectory is the product.
    let contents = match std::fs::read_to_string(&prev_path) {
        Ok(c) => c,
        Err(e) => {
            println!(
                "  warning: could not read previous snapshot {} ({e}); skipping comparison",
                prev_path.display()
            );
            return Ok(());
        }
    };
    let prev = parse_policy_rates(&contents);
    if prev.is_empty() {
        println!(
            "  (no per-policy rates found in {}; skipping comparison)",
            prev_path.display()
        );
        return Ok(());
    }
    println!(
        "== bench: vs {} ==",
        prev_path.file_name().unwrap_or_default().to_string_lossy()
    );
    for t in timings {
        let Some((_, old_rate)) = prev.iter().find(|(p, _)| p == t.policy) else {
            continue;
        };
        let new_rate = pipeline::ARRIVALS as f64 / t.wall_s;
        let ratio = new_rate / old_rate;
        let note = if ratio < NOISE_BAND.0 || ratio > NOISE_BAND.1 {
            "  <- outside noise band"
        } else {
            ""
        };
        println!(
            "  {:>5}: {old_rate:.0} -> {new_rate:.0} tuples/s ({ratio:.2}x){note}",
            t.policy
        );
        assert!(
            ratio >= REGRESSION_FLOOR,
            "gross throughput regression for {}: {:.0} -> {:.0} simulated tuples/s \
             ({:.2}x, floor {}x) vs {}",
            t.policy,
            old_rate,
            new_rate,
            ratio,
            REGRESSION_FLOOR,
            prev_path.display()
        );
    }
    Ok(())
}

/// Compare telemetry-on against telemetry-off throughput on the same run.
/// Sampling at the bench cadence should be free to within measurement noise
/// ([`NOISE_BAND`]); a drop below [`REGRESSION_FLOOR`] aborts the run — that
/// would mean the sink hooks leak cost into the hot path.
fn check_telemetry_overhead(timings: &[PolicyTiming]) {
    println!("== bench: telemetry overhead (on/off throughput ratio) ==");
    for t in timings {
        let ratio = t.wall_s / t.telemetry_wall_s.max(1e-12);
        let note = if ratio < NOISE_BAND.0 || ratio > NOISE_BAND.1 {
            "  <- outside noise band"
        } else {
            ""
        };
        println!(
            "  {:>5}: {:.3} s off, {:.3} s on ({} snapshots, {ratio:.2}x){note}",
            t.policy, t.wall_s, t.telemetry_wall_s, t.telemetry_samples
        );
        assert!(
            ratio >= REGRESSION_FLOOR,
            "telemetry sampling slowed {} beyond the regression floor: \
             {:.3} s off vs {:.3} s on ({:.2}x, floor {}x)",
            t.policy,
            t.wall_s,
            t.telemetry_wall_s,
            ratio,
            REGRESSION_FLOOR
        );
    }
}

/// Compare governor-on against governor-off throughput on the same run.
/// The governor samples on a virtual-time cadence and is a no-op object
/// when idle, so arming it should cost nothing to within measurement noise
/// ([`NOISE_BAND`]); a drop below [`REGRESSION_FLOOR`] aborts the run —
/// that would mean the feedback loop leaks cost into the hot path. The
/// per-run transition count is printed (and recorded in the snapshot) so a
/// flapping ladder is visible in the trajectory.
fn check_governor_overhead(timings: &[PolicyTiming]) {
    println!("== bench: governor overhead (on/off throughput ratio) ==");
    for t in timings {
        let ratio = t.wall_s / t.governed_wall_s.max(1e-12);
        let note = if ratio < NOISE_BAND.0 || ratio > NOISE_BAND.1 {
            "  <- outside noise band"
        } else {
            ""
        };
        println!(
            "  {:>5}: {:.3} s off, {:.3} s on ({} transitions, {ratio:.2}x){note}",
            t.policy, t.wall_s, t.governed_wall_s, t.governor_transitions
        );
        assert!(
            ratio >= REGRESSION_FLOOR,
            "the overload governor slowed {} beyond the regression floor: \
             {:.3} s off vs {:.3} s on ({:.2}x, floor {}x)",
            t.policy,
            t.wall_s,
            t.governed_wall_s,
            ratio,
            REGRESSION_FLOOR
        );
    }
}

/// Compare adaptation-on against adaptation-off throughput under the same
/// miscalibrated, policy-switching-governed fixture. Both runs carry the
/// identical (deliberately heavier) fault workload, so the ratio isolates
/// what re-estimation itself costs; the estimator is O(1) per execution and
/// the meta-scheduler piggybacks on the governor cadence, so that should be
/// little ([`NOISE_BAND`] is still generous: the adaptive run schedules
/// differently by design, so some drift is honest work, not overhead). A
/// drop below [`REGRESSION_FLOOR`] aborts the run — that would mean
/// re-estimation leaks cost into the per-tuple hot path. Update and switch
/// counts are printed (and recorded in the snapshot) so a thrashing
/// estimator is visible in the trajectory.
fn check_adaptive_overhead(timings: &[PolicyTiming]) {
    println!(
        "== bench: adaptive-stack overhead (on/off throughput ratio, miscalibrated baseline) =="
    );
    for t in timings {
        let ratio = t.miscal_wall_s / t.adaptive_wall_s.max(1e-12);
        let note = if ratio < NOISE_BAND.0 || ratio > NOISE_BAND.1 {
            "  <- outside noise band"
        } else {
            ""
        };
        println!(
            "  {:>5}: {:.3} s off, {:.3} s on ({} updates, {} switches, {ratio:.2}x){note}",
            t.policy, t.miscal_wall_s, t.adaptive_wall_s, t.statics_updates, t.policy_switches
        );
        assert!(
            ratio >= REGRESSION_FLOOR,
            "online re-estimation slowed {} beyond the regression floor: \
             {:.3} s off vs {:.3} s on ({:.2}x, floor {}x)",
            t.policy,
            t.miscal_wall_s,
            t.adaptive_wall_s,
            ratio,
            REGRESSION_FLOOR
        );
    }
}

/// Run the large-q scheduling-point sweep (all variants, q ≤ `max_q`),
/// printing one line per cell.
fn run_large_q(max_q: usize) -> Vec<LargeQCell> {
    println!("== bench: large-q scheduling points (q <= {max_q}) ==");
    large_q::sweep(max_q, |c| {
        println!(
            "  {:>13} q={:<7} {:>9.1} ns/point, {:>9.1} evals/point, \
             {:>5.1} B/query, digest {}",
            c.policy, c.q, c.ns_per_point, c.evals_per_point, c.bytes_per_query, c.digest
        );
    })
}

/// Evals/point growth allowed for a clustered variant across the whole
/// sweep (q grows 1000×; the exact scan grows exactly 1000×).
const LARGE_Q_EVALS_RATIO: f64 = 50.0;
/// Wall-time growth allowed for `C-BSD-log` from q=10³ to q=10⁵ (a 100×
/// q increase; the exact scan's wall cost grows ~100×).
const LARGE_Q_NS_RATIO: f64 = 8.0;
/// Resident policy bytes per registered query, unit + statics storage.
const LARGE_Q_BYTES_PER_QUERY: f64 = 200.0;

/// The sub-linearity gates over a finished large-q sweep. Operation-count
/// gates are deterministic; the wall-clock gate has an 8× allowance over a
/// 100× q increase, so host noise cannot trip it without a real slope.
fn check_large_q_gates(cells: &[LargeQCell]) {
    let cell = |policy: &str, q: usize| cells.iter().find(|c| c.policy == policy && c.q == q);
    let qs: Vec<usize> = {
        let mut qs: Vec<usize> = cells.iter().map(|c| c.q).collect();
        qs.sort_unstable();
        qs.dedup();
        qs
    };
    for c in cells {
        // The exact scan is the linear yardstick: it evaluates every ready
        // unit, so its evals/point must equal q exactly.
        if c.policy == "BSD-Exact" {
            assert_eq!(
                c.evals_per_point, c.q as f64,
                "exact BSD must evaluate every ready unit (q={})",
                c.q
            );
        }
        assert!(
            c.bytes_per_query > 0.0 && c.bytes_per_query < LARGE_Q_BYTES_PER_QUERY,
            "{} at q={} uses {:.1} resident bytes/query (cap {})",
            c.policy,
            c.q,
            c.bytes_per_query,
            LARGE_Q_BYTES_PER_QUERY
        );
    }
    let (&q_lo, &q_hi) = match (qs.first(), qs.last()) {
        (Some(lo), Some(hi)) if hi / lo >= 100 => (lo, hi),
        _ => return, // smoke-scale sweep: growth gates need a q span
    };
    for name in large_q::clustered_names() {
        let (lo, hi) = match (cell(name, q_lo), cell(name, q_hi)) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => continue,
        };
        let ratio = hi.evals_per_point / lo.evals_per_point.max(1.0);
        println!(
            "  gate {name}: evals/point {:.1} -> {:.1} over q {q_lo} -> {q_hi} ({ratio:.1}x)",
            lo.evals_per_point, hi.evals_per_point
        );
        assert!(
            ratio < LARGE_Q_EVALS_RATIO,
            "{name} scheduling cost is not sub-linear: evals/point grew {ratio:.1}x \
             (cap {LARGE_Q_EVALS_RATIO}x) while q grew {}x",
            q_hi / q_lo
        );
    }
    if let (Some(lo), Some(hi)) = (cell("C-BSD-log", 1_000), cell("C-BSD-log", 100_000)) {
        let ratio = hi.ns_per_point / lo.ns_per_point.max(1.0);
        println!(
            "  gate C-BSD-log: {:.1} -> {:.1} ns/point over q 1k -> 100k ({ratio:.2}x)",
            lo.ns_per_point, hi.ns_per_point
        );
        assert!(
            ratio < LARGE_Q_NS_RATIO,
            "C-BSD-log wall cost grew {ratio:.2}x from q=1k to q=100k \
             (cap {LARGE_Q_NS_RATIO}x)"
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    cfg: &ExpConfig,
    cores: usize,
    timings: &[PolicyTiming],
    runtime: &[RuntimeTiming],
    sweep_cfg: &ExpConfig,
    serial_s: f64,
    parallel_s: f64,
    par_jobs: usize,
    large_q_cells: Option<&[LargeQCell]>,
) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "{{").unwrap();
    writeln!(w, "  \"schema\": \"hcq-bench-v1\",").unwrap();
    writeln!(
        w,
        "  \"host\": {{\"cores\": {}, \"cores_detected\": {cores}, \"jobs\": {}}},",
        default_jobs(),
        cfg.jobs
    )
    .unwrap();
    writeln!(w, "  \"reference_workload\": {{").unwrap();
    writeln!(
        w,
        "    \"queries\": 60, \"cost_classes\": 5, \"utilization\": 0.9, \"arrivals\": {},",
        pipeline::ARRIVALS
    )
    .unwrap();
    writeln!(w, "    \"policies\": [").unwrap();
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        writeln!(
            w,
            "      {{\"policy\": \"{}\", \"wall_s\": {:.6}, \"sim_tuples_per_s\": {:.1}, \
             \"sched_evals_per_point\": {:.4}, \"emitted\": {}, \
             \"telemetry_wall_s\": {:.6}, \"telemetry_tuples_per_s\": {:.1}, \
             \"telemetry_samples\": {}, \
             \"governed_wall_s\": {:.6}, \"governed_tuples_per_s\": {:.1}, \
             \"governor_transitions\": {}, \
             \"miscal_wall_s\": {:.6}, \
             \"adaptive_wall_s\": {:.6}, \"adaptive_tuples_per_s\": {:.1}, \
             \"statics_updates\": {}, \"policy_switches\": {}}}{}",
            t.policy,
            t.wall_s,
            pipeline::ARRIVALS as f64 / t.wall_s,
            t.evals_per_point,
            t.emitted,
            t.telemetry_wall_s,
            pipeline::ARRIVALS as f64 / t.telemetry_wall_s.max(1e-12),
            t.telemetry_samples,
            t.governed_wall_s,
            pipeline::ARRIVALS as f64 / t.governed_wall_s.max(1e-12),
            t.governor_transitions,
            t.miscal_wall_s,
            t.adaptive_wall_s,
            pipeline::ARRIVALS as f64 / t.adaptive_wall_s.max(1e-12),
            t.statics_updates,
            t.policy_switches,
            comma
        )
        .unwrap();
    }
    writeln!(w, "    ]").unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"sweep_speedup\": {{").unwrap();
    writeln!(
        w,
        "    \"cells\": {}, \"queries\": {}, \"arrivals\": {},",
        PolicyKind::ALL.len() * ExpConfig::UTILIZATIONS.len(),
        sweep_cfg.queries,
        sweep_cfg.arrivals
    )
    .unwrap();
    // On a single-core host "serial vs parallel" measures timeslicing
    // overhead, not parallelism — annotate honestly instead of recording a
    // ~1.0x number that reads as a regression in the trajectory.
    let speedup = if cores < 2 {
        "\"n/a (single-core host)\"".to_string()
    } else {
        format!("{:.2}", serial_s / parallel_s.max(1e-9))
    };
    writeln!(
        w,
        "    \"serial_s\": {serial_s:.3}, \"parallel_s\": {parallel_s:.3}, \
         \"parallel_jobs\": {par_jobs}, \"speedup\": {speedup}",
    )
    .unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"runtime\": {{").unwrap();
    writeln!(
        w,
        "    \"policy\": \"HNR\", \"arrivals\": {RUNTIME_ARRIVALS}, \"points\": ["
    )
    .unwrap();
    for (i, t) in runtime.iter().enumerate() {
        let comma = if i + 1 < runtime.len() { "," } else { "" };
        writeln!(
            w,
            "      {{\"threads\": {}, \"wall_s\": {:.6}, \"tuples_per_s\": {:.1}, \
             \"stolen\": {}}}{}",
            t.threads, t.wall_s, t.tuples_per_s, t.stolen, comma
        )
        .unwrap();
    }
    writeln!(w, "    ],").unwrap();
    let scaling = match (
        runtime.iter().find(|t| t.threads == 1),
        runtime.iter().find(|t| t.threads == 2),
    ) {
        (Some(t1), Some(t2)) if cores >= 2 => {
            format!("{:.2}", t1.wall_s / t2.wall_s.max(1e-12))
        }
        _ => "\"n/a (single-core host)\"".to_string(),
    };
    writeln!(w, "    \"scaling_1_to_2\": {scaling}").unwrap();
    writeln!(w, "  }},").unwrap();
    if let Some(cells) = large_q_cells {
        writeln!(w, "  \"large_q\": {{").unwrap();
        writeln!(w, "    \"clusters\": {},", large_q::CLUSTERS).unwrap();
        writeln!(w, "    \"cells\": [").unwrap();
        for (i, c) in cells.iter().enumerate() {
            let comma = if i + 1 < cells.len() { "," } else { "" };
            writeln!(
                w,
                "      {{\"policy\": \"{}\", \"q\": {}, \"points\": {}, \
                 \"ns_per_point\": {:.1}, \"evals_per_point\": {:.2}, \
                 \"work_per_point\": {:.2}, \"bytes_per_query\": {:.1}, \
                 \"digest\": \"{}\"}}{}",
                c.policy,
                c.q,
                c.points,
                c.ns_per_point,
                c.evals_per_point,
                c.work_per_point,
                c.bytes_per_query,
                c.digest,
                comma
            )
            .unwrap();
        }
        writeln!(w, "    ]").unwrap();
        writeln!(w, "  }},").unwrap();
    }
    writeln!(w, "  \"criterion_pipeline\": [").unwrap();
    let entries = criterion_entries(timings);
    for (i, entry) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        writeln!(w, "    {entry}{comma}").unwrap();
    }
    writeln!(w, "  ]").unwrap();
    writeln!(w, "}}").unwrap();
    out
}

/// Run the baseline benchmark and write the next `BENCH_<n>.json` snapshot
/// at the repository root. Returns the path written. When a previous
/// snapshot exists, this run's per-policy throughput is compared against it
/// first (see `check_against_previous`). With `large_q_max`, the large-q
/// scheduling-point sweep runs too (q ≤ the cap), its sub-linearity gates
/// are enforced, and its cells land in the snapshot's `large_q` section.
pub fn bench(cfg: &ExpConfig, large_q_max: Option<usize>) -> Result<PathBuf> {
    println!(
        "== bench: reference workload ({} policies) ==",
        pipeline::POLICIES.len()
    );
    let timings = time_reference_workload();
    for t in &timings {
        println!(
            "  {:>5}: {:.3} s/run, {:.0} simulated tuples/s, {:.4} evals/point",
            t.policy,
            t.wall_s,
            pipeline::ARRIVALS as f64 / t.wall_s,
            t.evals_per_point
        );
    }
    check_telemetry_overhead(&timings);
    check_governor_overhead(&timings);
    check_adaptive_overhead(&timings);
    let cores = detected_cores();
    println!("== bench: wall-clock runtime thread scaling ({cores} cores detected) ==");
    let runtime_timings = time_runtime();
    for t in &runtime_timings {
        println!(
            "  {} thread{}: {:.4} s, {:.0} tuples/s, {} stolen",
            t.threads,
            if t.threads == 1 { " " } else { "s" },
            t.wall_s,
            t.tuples_per_s,
            t.stolen
        );
    }
    check_runtime_scaling(cores, &runtime_timings);
    println!("== bench: sweep serial vs parallel ==");
    let (sweep_cfg, serial_s, parallel_s, par_jobs) = time_sweep(cfg);
    println!(
        "  serial {:.2} s, {} jobs {:.2} s, speedup {:.2}x",
        serial_s,
        par_jobs,
        parallel_s,
        serial_s / parallel_s.max(1e-9)
    );
    let large_q_cells = large_q_max.map(|max_q| {
        let cells = run_large_q(max_q);
        check_large_q_gates(&cells);
        cells
    });
    let root = repo_root();
    check_against_previous(&root, &timings)?;
    let json = render_json(
        cfg,
        cores,
        &timings,
        &runtime_timings,
        &sweep_cfg,
        serial_s,
        parallel_s,
        par_jobs,
        large_q_cells.as_deref(),
    );
    write_snapshot(&root, &json)
}

/// Write `json` to the next free `BENCH_<n>.json` with create-new
/// semantics: the snapshot trajectory is append-only, so an existing file
/// is never clobbered — a concurrent bench run (or a stale `next` guess)
/// just advances to the following index.
fn write_snapshot(root: &Path, json: &str) -> Result<PathBuf> {
    use std::io::Write as _;
    loop {
        let path = next_snapshot_path(root);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                f.write_all(json.as_bytes()).map_err(|e| {
                    HcqError::Io(std::io::Error::new(
                        e.kind(),
                        format!("writing bench snapshot {}: {e}", path.display()),
                    ))
                })?;
                return Ok(path);
            }
            // Lost the index race to another writer: take the next one.
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => {
                return Err(HcqError::Io(std::io::Error::new(
                    e.kind(),
                    format!("creating bench snapshot {}: {e}", path.display()),
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_ordered() {
        let timings = vec![
            PolicyTiming {
                policy: "FCFS",
                wall_s: 0.01,
                min_ns: 9_000_000,
                mean_ns: 10_000_000,
                emitted: 480,
                evals_per_point: 1.0,
                telemetry_wall_s: 0.0125,
                telemetry_samples: 21,
                governed_wall_s: 0.0125,
                governor_transitions: 2,
                miscal_wall_s: 0.0140,
                adaptive_wall_s: 0.0125,
                statics_updates: 96,
                policy_switches: 1,
            },
            PolicyTiming {
                policy: "BSD",
                wall_s: 0.02,
                min_ns: 19_000_000,
                mean_ns: 20_000_000,
                emitted: 470,
                evals_per_point: 37.25,
                telemetry_wall_s: 0.02,
                telemetry_samples: 21,
                governed_wall_s: 0.02,
                governor_transitions: 0,
                miscal_wall_s: 0.02,
                adaptive_wall_s: 0.02,
                statics_updates: 0,
                policy_switches: 0,
            },
        ];
        let cfg = ExpConfig {
            jobs: 4,
            ..ExpConfig::default()
        };
        let cells = vec![
            fixed_cell("BSD-Exact", 1_000, 1_000.0, 120.0),
            fixed_cell("C-BSD-log", 1_000, 9.0, 260.0),
        ];
        let runtime = fixed_runtime();
        let json = render_json(&cfg, 4, &timings, &runtime, &cfg, 1.0, 0.5, 4, Some(&cells));
        assert!(json.contains("\"schema\": \"hcq-bench-v1\""));
        assert!(json.contains("\"cores_detected\": 4"));
        assert!(json.contains("\"runtime\": {"));
        assert!(json.contains("\"threads\": 2, \"wall_s\": 0.055000"));
        assert!(json.contains("\"scaling_1_to_2\": 1.82"));
        assert!(json.contains("\"large_q\""));
        assert!(json.contains("\"policy\": \"C-BSD-log\", \"q\": 1000"));
        assert!(json.contains("\"digest\": \"00000000deadbeef\""));
        assert!(json.contains("\"speedup\": 2.00"));
        assert!(json.contains("\"sim_tuples_per_s\": 50000.0"));
        assert!(json.contains("\"sched_evals_per_point\": 37.25"));
        assert!(json.contains("\"telemetry_tuples_per_s\": 40000.0"));
        assert!(json.contains("\"telemetry_samples\": 21"));
        assert!(json.contains("\"governed_tuples_per_s\": 40000.0"));
        assert!(json.contains("\"governor_transitions\": 2"));
        assert!(json.contains("\"miscal_wall_s\": 0.014000"));
        assert!(json.contains("\"adaptive_tuples_per_s\": 40000.0"));
        assert!(json.contains("\"statics_updates\": 96"));
        assert!(json.contains("\"policy_switches\": 1"));
        assert!(json.contains("simulate_arrivals/FCFS"));
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON parser in the dependency set.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn snapshot_numbering_skips_existing() {
        let dir = std::env::temp_dir().join("hcq_bench_numbering");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_1.json"), "{}").unwrap();
        assert!(next_snapshot_path(&dir).ends_with("BENCH_2.json"));
        assert!(latest_snapshot_path(&dir)
            .unwrap()
            .ends_with("BENCH_1.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_snapshot_absent_when_none_written() {
        let dir = std::env::temp_dir().join("hcq_bench_empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(latest_snapshot_path(&dir).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_rates_round_trip_through_snapshot_json() {
        let timings = vec![PolicyTiming {
            policy: "HNR",
            wall_s: 0.05,
            min_ns: 50_000_000,
            mean_ns: 50_000_000,
            emitted: 480,
            evals_per_point: 4.5,
            telemetry_wall_s: 0.055,
            telemetry_samples: 21,
            governed_wall_s: 0.052,
            governor_transitions: 4,
            miscal_wall_s: 0.058,
            adaptive_wall_s: 0.053,
            statics_updates: 96,
            policy_switches: 1,
        }];
        let cfg = ExpConfig::default();
        let json = render_json(&cfg, 4, &timings, &fixed_runtime(), &cfg, 1.0, 0.5, 4, None);
        let rates = parse_policy_rates(&json);
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, "HNR");
        // The untelemetered rate, not `telemetry_tuples_per_s` from the
        // same line — the trajectory gate compares like against like.
        let expected = pipeline::ARRIVALS as f64 / 0.05;
        assert!((rates[0].1 - expected).abs() / expected < 1e-3);
        assert!(parse_policy_rates("{}").is_empty());
    }

    fn fixed_runtime() -> Vec<RuntimeTiming> {
        vec![
            RuntimeTiming {
                threads: 1,
                wall_s: 0.1,
                tuples_per_s: 300_000.0,
                stolen: 0,
            },
            RuntimeTiming {
                threads: 2,
                wall_s: 0.055,
                tuples_per_s: 545_454.0,
                stolen: 120,
            },
            RuntimeTiming {
                threads: 4,
                wall_s: 0.03,
                tuples_per_s: 1_000_000.0,
                stolen: 400,
            },
        ]
    }

    #[test]
    fn single_core_speedups_are_annotated_not_asserted() {
        // On a 1-core host both the sweep speedup and the runtime scaling
        // must be recorded as "n/a", and the scaling gate must not fire
        // even though 2 threads measured *slower* than 1 (pure
        // timeslicing overhead).
        let cfg = ExpConfig::default();
        let mut runtime = fixed_runtime();
        runtime[1].wall_s = runtime[0].wall_s * 1.3;
        check_runtime_scaling(1, &runtime);
        let json = render_json(
            &cfg,
            1,
            &fixed_timings(),
            &runtime,
            &cfg,
            1.0,
            0.98,
            2,
            None,
        );
        assert!(json.contains("\"cores_detected\": 1"));
        assert!(json.contains("\"speedup\": \"n/a (single-core host)\""));
        assert!(json.contains("\"scaling_1_to_2\": \"n/a (single-core host)\""));
        assert!(!json.contains("\"speedup\": 1.02"));
        let opens = json.matches(['{', '[']).count();
        assert_eq!(opens, json.matches(['}', ']']).count());
    }

    #[test]
    fn runtime_scaling_gate_fires_on_multicore_regression() {
        let mut runtime = fixed_runtime();
        // 2 threads slower than 1 on a 4-core host: a real regression.
        runtime[1].wall_s = runtime[0].wall_s * 1.1;
        let outcome = std::panic::catch_unwind(|| check_runtime_scaling(4, &runtime));
        assert!(outcome.is_err(), "sub-1.0x scaling on 4 cores must abort");
        check_runtime_scaling(4, &fixed_runtime());
    }

    #[test]
    fn runtime_scaling_gate_needs_a_core_for_the_ingest_thread() {
        // Two workers plus ingest on 2 cores timeslice: 0.88x is what this
        // host measures, and it must not abort the snapshot. A third core
        // arms the gate.
        let mut runtime = fixed_runtime();
        runtime[1].wall_s = runtime[0].wall_s / 0.88;
        check_runtime_scaling(2, &runtime);
        let outcome = std::panic::catch_unwind(|| check_runtime_scaling(3, &runtime));
        assert!(outcome.is_err(), "sub-1.0x scaling on 3 cores must abort");
    }

    #[test]
    fn snapshot_writes_never_clobber() {
        let dir = std::env::temp_dir().join(format!("hcq_bench_noclobber_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_1.json"), "keep me").unwrap();
        let p2 = write_snapshot(&dir, "{\"n\":2}").unwrap();
        assert!(p2.ends_with("BENCH_2.json"));
        let p3 = write_snapshot(&dir, "{\"n\":3}").unwrap();
        assert!(p3.ends_with("BENCH_3.json"));
        assert_eq!(
            std::fs::read_to_string(dir.join("BENCH_1.json")).unwrap(),
            "keep me",
            "existing snapshots are never overwritten"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn fixed_cell(policy: &'static str, q: usize, evals: f64, ns: f64) -> LargeQCell {
        LargeQCell {
            policy,
            q,
            points: 100,
            ns_per_point: ns,
            evals_per_point: evals,
            work_per_point: evals * 3.0,
            bytes_per_query: 110.0,
            digest: "00000000deadbeef".to_string(),
        }
    }

    #[test]
    fn large_q_gates_pass_on_sub_linear_cells() {
        // Exact BSD linear (evals == q), clustered flat: all gates green.
        let cells = vec![
            fixed_cell("BSD-Exact", 1_000, 1_000.0, 500.0),
            fixed_cell("C-BSD-log", 1_000, 9.0, 120.0),
            fixed_cell("BSD-Exact", 1_000_000, 1_000_000.0, 500_000.0),
            fixed_cell("C-BSD-log", 1_000_000, 90.0, 300.0),
        ];
        check_large_q_gates(&cells);
    }

    #[test]
    fn large_q_gate_rejects_linear_clustered_cost() {
        let cells = vec![
            fixed_cell("C-BSD-log", 1_000, 1_000.0, 120.0),
            fixed_cell("C-BSD-log", 1_000_000, 1_000_000.0, 120.0),
        ];
        let outcome = std::panic::catch_unwind(|| check_large_q_gates(&cells));
        assert!(outcome.is_err(), "a 1000x evals growth must abort the run");
    }

    #[test]
    fn large_q_gate_rejects_wall_clock_slope() {
        let mut slow = fixed_cell("C-BSD-log", 100_000, 9.0, 1_000.0);
        slow.ns_per_point = 1_000.0;
        let cells = vec![fixed_cell("C-BSD-log", 1_000, 9.0, 100.0), slow];
        let outcome = std::panic::catch_unwind(|| check_large_q_gates(&cells));
        assert!(outcome.is_err(), "a 10x ns/point slope must abort the run");
    }

    #[test]
    fn large_q_gate_rejects_memory_blowup() {
        let mut fat = fixed_cell("C-BSD-log", 1_000, 9.0, 120.0);
        fat.bytes_per_query = 4_096.0;
        let outcome = std::panic::catch_unwind(|| check_large_q_gates(&[fat]));
        assert!(outcome.is_err(), "4 KiB/query must abort the run");
    }

    #[test]
    fn large_q_gates_skip_growth_checks_on_smoke_spans() {
        // A single-q smoke run has no growth to measure; only the per-cell
        // memory/linearity checks apply.
        let cells = vec![
            fixed_cell("BSD-Exact", 10_000, 10_000.0, 500.0),
            fixed_cell("C-BSD-log", 10_000, 2_000.0, 120.0),
        ];
        check_large_q_gates(&cells);
    }

    fn fixed_timings() -> Vec<PolicyTiming> {
        vec![PolicyTiming {
            policy: "FCFS",
            wall_s: 0.01,
            min_ns: 10_000_000,
            mean_ns: 10_000_000,
            emitted: 480,
            evals_per_point: 1.0,
            telemetry_wall_s: 0.0125,
            telemetry_samples: 21,
            governed_wall_s: 0.011,
            governor_transitions: 0,
            miscal_wall_s: 0.010,
            adaptive_wall_s: 0.012,
            statics_updates: 96,
            policy_switches: 1,
        }]
    }

    #[test]
    fn telemetry_overhead_gate_accepts_noise_and_rejects_regressions() {
        // 0.8x on/off ratio is inside the floor: no panic.
        check_telemetry_overhead(&fixed_timings());
        let mut slow = fixed_timings();
        slow[0].telemetry_wall_s = slow[0].wall_s / (REGRESSION_FLOOR / 2.0);
        let outcome = std::panic::catch_unwind(|| check_telemetry_overhead(&slow));
        assert!(outcome.is_err(), "a 0.125x ratio must abort the run");
    }

    #[test]
    fn governor_overhead_gate_accepts_noise_and_rejects_regressions() {
        // ~0.9x on/off ratio is well inside the floor: no panic.
        check_governor_overhead(&fixed_timings());
        let mut slow = fixed_timings();
        slow[0].governed_wall_s = slow[0].wall_s / (REGRESSION_FLOOR / 2.0);
        let outcome = std::panic::catch_unwind(|| check_governor_overhead(&slow));
        assert!(outcome.is_err(), "a 0.125x ratio must abort the run");
    }

    #[test]
    fn adaptive_overhead_gate_accepts_noise_and_rejects_regressions() {
        // ~0.83x on/off ratio is well inside the floor: no panic.
        check_adaptive_overhead(&fixed_timings());
        let mut slow = fixed_timings();
        slow[0].adaptive_wall_s = slow[0].miscal_wall_s / (REGRESSION_FLOOR / 2.0);
        let outcome = std::panic::catch_unwind(|| check_adaptive_overhead(&slow));
        assert!(outcome.is_err(), "a 0.125x ratio must abort the run");
    }

    #[test]
    fn first_run_has_no_previous_snapshot_and_passes() {
        let dir = std::env::temp_dir().join("hcq_bench_first_run");
        std::fs::create_dir_all(&dir).unwrap();
        // No BENCH_*.json at all: the comparison must be a clean no-op.
        assert!(check_against_previous(&dir, &fixed_timings()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_previous_snapshot_warns_instead_of_erroring() {
        let dir = std::env::temp_dir().join("hcq_bench_unreadable_prev");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // A directory squatting on the snapshot name: `exists()` is true,
        // `read_to_string` fails. Before the fix this aborted the run.
        std::fs::create_dir_all(dir.join("BENCH_1.json")).unwrap();
        assert!(check_against_previous(&dir, &fixed_timings()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparseable_previous_snapshot_skips_comparison() {
        let dir = std::env::temp_dir().join("hcq_bench_garbage_prev");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_1.json"), "not json at all").unwrap();
        assert!(check_against_previous(&dir, &fixed_timings()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
