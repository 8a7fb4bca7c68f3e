//! The benchmark against its contract: `BENCHMARK.json` and the harness's
//! tables name the same things, and what the harness prints parses back
//! with exactly the metrics the file lists.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use hcq_benchmark::json::{self, JsonValue};
use hcq_benchmark::metrics::{bound, MetricDef, END_TO_END, PER_LAYER};
use hcq_benchmark::workloads::Workload;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

fn benchmark_json() -> JsonValue {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).unwrap()
}

fn keys(v: &JsonValue) -> Vec<&str> {
    v.as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap()
}

#[test]
fn benchmark_json_has_the_contracts_shape() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = b
        .get("command")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<&str> = b
        .get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = b.get("run_seconds").unwrap().as_u64().unwrap();
    assert!((1..=60).contains(&seconds));
}

#[test]
fn benchmark_json_lists_the_harnesss_workloads_and_metrics() {
    let b = benchmark_json();
    let workloads = b.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (listed, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(listed), ["name", "why"]);
        assert_eq!(text(listed, "name"), w.name());
        assert_eq!(text(listed, "why"), w.why());
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }
    let same = |listed: &JsonValue, def: &MetricDef| {
        assert_eq!(text(listed, "name"), def.name);
        assert_eq!(text(listed, "unit"), def.unit);
        assert_eq!(text(listed, "better"), def.better.name());
    };
    let e2e = b.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (listed, def) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(keys(listed), ["name", "unit", "better", "bound"]);
        same(listed, def);
        let listed_bound = listed.get("bound").unwrap().as_f64().unwrap();
        assert_eq!(Some(listed_bound), bound(def.name));
        assert!(listed_bound > 0.0 && listed_bound <= 0.25);
    }
    let layers = b.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (listed, def) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(keys(listed), ["name", "unit", "better"]);
        same(listed, def);
    }
}

fn harness(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hcq-benchmark"))
        .args(args)
        .output()
        .unwrap();
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

/// The driver's form at the tests' tiny scale: the last line is one object
/// with exactly the contract's keys and exactly the listed metrics.
fn driver_line_names(trace: &str, defs: &[MetricDef]) {
    let (ok, stdout) = harness(&[
        "--workload",
        "sim_bsd",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--quick",
    ]);
    assert!(ok, "{stdout}");
    let line = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
    assert!(line.get("attempted").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(line.get("failed").unwrap().as_u64(), Some(0));
    let metrics = line.get("metrics").unwrap().as_obj().unwrap();
    let printed: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let listed: BTreeSet<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(printed, listed);
    for (name, body) in metrics {
        assert_eq!(keys(body), ["value", "unit"], "{name}");
        assert!(
            body.get("value").unwrap().as_f64().unwrap().is_finite(),
            "{name}"
        );
        let def = defs.iter().find(|d| d.name == name).unwrap();
        assert_eq!(text(body, "unit"), def.unit);
    }
}

#[test]
fn untraced_driver_line_names_every_end_to_end_metric() {
    driver_line_names("0", &END_TO_END);
}

#[test]
fn traced_driver_line_names_every_per_layer_metric() {
    driver_line_names("1", &PER_LAYER);
}

#[test]
fn quick_set_runs_every_check_end_to_end() {
    let (ok, stdout) = harness(&["--quick", "--seed", "5"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("all correctness checks passed"), "{stdout}");
    for w in Workload::ALL {
        assert!(
            stdout.contains(&format!("{} — 1 slices", w.name())),
            "{stdout}"
        );
    }
    for def in &END_TO_END {
        assert!(stdout.contains(def.name));
    }
}

#[test]
fn a_bad_command_line_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_hcq-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
