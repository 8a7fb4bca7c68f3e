//! CLI entry point: regenerate the paper's tables and figures.
//!
//! `repro <name>... [flags]` runs each named exhibit of the registry
//! ([`hcq_repro::EXHIBITS`]) and mode ([`hcq_repro::MODES`]) in request
//! order; `all` stands for the whole registry. Every name is resolved before
//! anything runs; `repro --help` lists them and the flags.
//!
//! `--jobs N` sets the worker-thread count for independent experiment cells
//! and for `run` (default: the machine's available parallelism). Outputs are
//! byte-identical at any job count. (The repository's benchmark is not a
//! `repro` mode: see `benchmark/README.md` and `BENCHMARK.json`.) `--trace
//! FILE` additionally runs the single-stream workload once (HNR, 0.9
//! utilization) with scheduling-event tracing on and writes the JSONL trace
//! to `FILE`; the trace is a pure function of the configuration, so re-runs
//! are byte-identical.
//!
//! `monitor` runs the same reference workload with telemetry sampling on
//! (`--cadence MS` of virtual time per snapshot, default 250) and writes
//! `telemetry.jsonl` plus `metrics.prom` (Prometheus text exposition format)
//! into `--out`.
//!
//! `inspect TRACE` analyses a previously captured trace offline: per-query
//! latency waterfalls, starvation diagnosis, `--diff TRACE2` decision
//! diffing, and `--format perfetto` Chrome trace-event export. Modes that
//! write user-named files (`monitor`, `--trace`, `inspect --format
//! perfetto`) refuse to overwrite existing outputs unless `--force` is given.

use std::path::PathBuf;
use std::process::ExitCode;

use hcq_common::Nanos;
use hcq_core::PolicyKind;
use hcq_repro::{
    ext_large_q, fuzz, fuzz_replay, guard_overwrite, inspect_trace, monitor, request_names,
    resolve, run_runtime, validate, ExpConfig, InspectFormat, Step, EXHIBITS,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut requests: Vec<String> = Vec::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut cadence_ms: u64 = 250;
    let mut fuzz_cases: u64 = 200;
    let mut fuzz_replay_path: Option<PathBuf> = None;
    let mut large_q_max: usize = 1_000_000;
    let mut diff_path: Option<PathBuf> = None;
    let mut format = InspectFormat::Text;
    let mut force = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--diff" => diff_path = Some(PathBuf::from(expect(it.next(), "--diff"))),
            "--format" => match expect(it.next(), "--format").parse() {
                Ok(f) => format = f,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            "--force" => force = true,
            "--large-q-max" => large_q_max = parse(it.next(), "--large-q-max"),
            "--queries" => cfg.queries = parse(it.next(), "--queries"),
            "--arrivals" => cfg.arrivals = parse(it.next(), "--arrivals"),
            "--seed" => cfg.seed = parse(it.next(), "--seed"),
            "--out" => cfg.out_dir = PathBuf::from(expect(it.next(), "--out")),
            "--poisson" => cfg.bursty = false,
            "--govern" => cfg.govern = true,
            "--jobs" => cfg.jobs = parse(it.next(), "--jobs"),
            "--trace" => trace_out = Some(PathBuf::from(expect(it.next(), "--trace"))),
            "--cadence" => cadence_ms = parse(it.next(), "--cadence"),
            "--cases" => fuzz_cases = parse(it.next(), "--cases"),
            "--replay" => fuzz_replay_path = Some(PathBuf::from(expect(it.next(), "--replay"))),
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                print_usage();
                return ExitCode::FAILURE;
            }
            other => requests.push(other.to_string()),
        }
    }
    if requests.is_empty() && trace_out.is_none() {
        print_usage();
        return ExitCode::FAILURE;
    }
    if requests.first().map(String::as_str) == Some("inspect") {
        if requests.len() != 2 {
            eprintln!(
                "usage: repro inspect TRACE [--diff TRACE2] [--format text|perfetto] \
                 [--out DIR] [--force]"
            );
            return ExitCode::FAILURE;
        }
        let trace = PathBuf::from(&requests[1]);
        return match inspect_trace(&trace, diff_path.as_deref(), format, &cfg.out_dir, force) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("inspect failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let steps = match resolve(&requests) {
        Ok(steps) => steps,
        Err(e) => {
            eprintln!("{e}");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &trace_out {
        if let Err(e) = guard_overwrite(path, force) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        let (report, bytes) = cfg.run_single_traced(0.9, PolicyKind::Hnr);
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("could not write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        println!(
            "trace: {} events ({} scheduling points, {} emissions) written to {}",
            lines,
            report.sched_points,
            report.emitted,
            path.display()
        );
    }
    let mut wrote_csv = false;
    for step in steps {
        match step {
            Step::Exhibit(i) => {
                (EXHIBITS[i].run)(&cfg);
                wrote_csv = true;
            }
            Step::LargeQ => {
                ext_large_q(&cfg, large_q_max);
                wrote_csv = true;
            }
            Step::Monitor => {
                if cadence_ms == 0 {
                    eprintln!("--cadence must be positive");
                    return ExitCode::FAILURE;
                }
                if let Err(e) = monitor(&cfg, Nanos::from_millis(cadence_ms), force) {
                    eprintln!("monitor failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Step::Run => {
                if !run_runtime(&cfg, cfg.jobs.max(1)) {
                    return ExitCode::FAILURE;
                }
            }
            Step::Validate => {
                if validate(&cfg).iter().any(|r| !r.pass) {
                    return ExitCode::FAILURE;
                }
            }
            Step::Fuzz => {
                if let Some(path) = &fuzz_replay_path {
                    if !fuzz_replay(path) {
                        return ExitCode::FAILURE;
                    }
                } else {
                    if fuzz_cases == 0 {
                        eprintln!("--cases must be positive");
                        return ExitCode::FAILURE;
                    }
                    match fuzz(&cfg, fuzz_cases, force) {
                        Ok(summary) if summary.clean => {}
                        Ok(_) => return ExitCode::FAILURE,
                        Err(e) => {
                            eprintln!("fuzz failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
    }
    if wrote_csv {
        println!("CSV output in {}", cfg.out_dir.display());
    }
    ExitCode::SUCCESS
}

fn expect(v: Option<String>, flag: &str) -> String {
    v.unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

fn parse<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    expect(v, flag).parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a numeric value");
        std::process::exit(2);
    })
}

fn print_usage() {
    eprintln!(
        "usage: repro <exhibit>... [--queries N] [--arrivals N] [--seed S] [--out DIR] [--poisson] [--govern] [--jobs N] [--trace FILE] [--cadence MS] [--cases K] [--replay FILE] [--large-q-max Q] [--force]\n\
         \x20      repro inspect TRACE [--diff TRACE2] [--format text|perfetto] [--out DIR] [--force]\n\
         \x20      repro run [--jobs N] [--arrivals N] [--seed S]\n\
         exhibits: {} all\n\
         --jobs N: worker threads for independent cells and for `run` (default: available parallelism; outputs are byte-identical at any N)\n\
         --govern: arm the closed-loop overload governor on single-stream runs (admission ladder + hysteresis; ext_recovery compares it to static admission regardless of this flag)\n\
         --trace FILE: write a deterministic JSONL scheduling trace of one reference run (HNR, 0.9 utilization)\n\
         --cadence MS: virtual-time telemetry sampling interval for `monitor` (default 250)\n\
         --cases K: scenarios for `fuzz` (default 200; seeded by --seed, minimized artifacts land in --out)\n\
         --replay FILE: for `fuzz`, re-run one fuzz-repro-*.json artifact instead of sweeping\n\
         --large-q-max Q: cap the `ext_large_q` sweep at Q queries (default 1000000)\n\
         --diff TRACE2: with `inspect`, align a second trace at scheduling-point granularity and report the first divergent decision\n\
         --format text|perfetto: `inspect` output — text reports (default) or Chrome trace-event JSON into --out\n\
         --force: allow `monitor`, `--trace`, `inspect --format perfetto`, and `fuzz` artifacts to overwrite existing output files",
        request_names().join(" ")
    );
}
