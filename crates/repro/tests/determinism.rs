//! Regression: parallel execution must be invisible in the outputs.
//!
//! Every experiment cell is a pure function of its configuration and the
//! harness reassembles results in job-index order, so running with worker
//! threads must produce byte-identical CSVs to a serial run. This pins the
//! tentpole guarantee at a miniature scale.

use hcq_common::Nanos;
use hcq_core::PolicyKind;
use hcq_repro::{monitor, ExpConfig, EXHIBITS};

fn cfg(jobs: usize, tag: &str) -> ExpConfig {
    ExpConfig {
        queries: 10,
        arrivals: 120,
        mean_gap: Nanos::from_millis(10),
        seed: 11,
        out_dir: std::env::temp_dir().join(format!("hcq_determinism_{tag}")),
        bursty: false,
        jobs,
        govern: false,
    }
}

/// Compare every CSV in two output directories byte for byte.
fn assert_dirs_identical(serial: &ExpConfig, parallel: &ExpConfig) {
    let mut names: Vec<String> = std::fs::read_dir(&serial.out_dir)
        .expect("serial out dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "serial run produced no CSVs");
    for name in &names {
        let a = std::fs::read(serial.out_dir.join(name)).expect("serial csv");
        let b = std::fs::read(parallel.out_dir.join(name))
            .unwrap_or_else(|_| panic!("parallel run missing {name}"));
        assert_eq!(a, b, "{name} differs between jobs=1 and jobs=4");
    }
}

/// Every registry row, under both sources, writes the same bytes at
/// `--jobs 1` and `--jobs 4`. Fault draws, shedding and governor decisions
/// and telemetry windows are keyed on virtual time and seeds, never on
/// worker scheduling, so this covers the overload, fault, transient and
/// recovery exhibits as much as the sweep.
#[test]
fn every_exhibit_is_byte_identical_across_job_counts() {
    for bursty in [false, true] {
        for e in EXHIBITS {
            let tag = format!("{}_{bursty}", e.names[0]);
            let mut serial = cfg(1, &format!("{tag}_serial"));
            let mut parallel = cfg(4, &format!("{tag}_parallel"));
            serial.bursty = bursty;
            parallel.bursty = bursty;
            (e.run)(&serial);
            (e.run)(&parallel);
            assert_dirs_identical(&serial, &parallel);
            std::fs::remove_dir_all(&serial.out_dir).ok();
            std::fs::remove_dir_all(&parallel.out_dir).ok();
        }
    }
}

/// A JSONL scheduling trace is a pure function of the configuration: the
/// harness's worker-thread setting and repeated invocations must stream the
/// exact same bytes.
#[test]
fn traces_are_byte_identical_across_job_counts_and_runs() {
    let serial = cfg(1, "trace_serial");
    let parallel = cfg(4, "trace_parallel");
    let (ra, a) = serial.run_single_traced(0.9, PolicyKind::Hnr);
    let (rb, b) = parallel.run_single_traced(0.9, PolicyKind::Hnr);
    let (_, c) = serial.run_single_traced(0.9, PolicyKind::Hnr);
    assert!(!a.is_empty(), "trace must carry events");
    assert_eq!(a, b, "trace differs between jobs=1 and jobs=4");
    assert_eq!(a, c, "trace differs between repeated runs");
    assert_eq!(ra.emitted, rb.emitted);
    assert_eq!(ra.overhead, rb.overhead);
}

/// Both telemetry exports — the JSONL snapshot stream and the Prometheus
/// exposition text — are pure functions of the configuration: repeated
/// `monitor` runs at different job counts must write the exact same bytes.
#[test]
fn monitor_exports_are_byte_identical_across_job_counts_and_runs() {
    let serial = cfg(1, "monitor_serial");
    let parallel = cfg(4, "monitor_parallel");
    let cadence = Nanos::from_millis(100);
    let a = monitor(&serial, cadence, false).expect("serial monitor");
    let b = monitor(&parallel, cadence, false).expect("parallel monitor");
    let a_jsonl = std::fs::read(&a.jsonl_path).unwrap();
    let b_jsonl = std::fs::read(&b.jsonl_path).unwrap();
    assert!(!a_jsonl.is_empty(), "snapshot stream must carry samples");
    assert_eq!(
        a_jsonl, b_jsonl,
        "telemetry.jsonl differs across job counts"
    );
    let a_prom = std::fs::read(&a.prom_path).unwrap();
    let b_prom = std::fs::read(&b.prom_path).unwrap();
    assert_eq!(a_prom, b_prom, "metrics.prom differs across job counts");
    let c = monitor(&serial, cadence, true).expect("repeat monitor");
    assert_eq!(
        std::fs::read(&c.jsonl_path).unwrap(),
        a_jsonl,
        "telemetry.jsonl differs between repeated runs"
    );
    assert_eq!(a.report.emitted, b.report.emitted);
    std::fs::remove_dir_all(&serial.out_dir).ok();
    std::fs::remove_dir_all(&parallel.out_dir).ok();
}
