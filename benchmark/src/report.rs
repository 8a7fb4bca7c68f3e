//! What the benchmark prints and writes: the contract's result line, the
//! tables of a full set, the set's JSON record and the span files.

use std::path::{Path, PathBuf};

use crate::isolated::repo_root;
use crate::json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::runner::{Budget, Measured, SetResult, SetSpec};

/// `benchmark/out/`: everything a run leaves behind.
pub fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}

/// The one JSON object the benchmark contract asks for on the last line of
/// standard output: `defs` names the metrics it must hold.
pub fn contract_line(
    defs: &[MetricDef],
    measured: &[Measured],
    attempted: u64,
    failed: u64,
    correct: bool,
) -> String {
    let metrics = defs.iter().filter_map(|d| {
        let m = measured.iter().find(|m| m.name == d.name)?;
        Some((
            d.name,
            json::object([
                ("value", json::num(m.value())),
                ("unit", json::string(d.unit)),
            ]),
        ))
    });
    json::object([
        ("correct", correct.to_string()),
        ("attempted", attempted.max(1).to_string()),
        ("failed", failed.to_string()),
        ("metrics", json::object(metrics)),
    ])
}

fn measured_json(unit: &str, m: &Measured) -> String {
    json::object([
        ("unit", json::string(unit)),
        ("median", json::num(m.summary.median)),
        ("q1", json::num(m.summary.q1)),
        ("q3", json::num(m.summary.q3)),
        ("n", m.summary.n.to_string()),
        ("cov", json::num(m.summary.cov)),
    ])
}

fn unit_of(defs: &[MetricDef], name: &str) -> &'static str {
    defs.iter().find(|d| d.name == name).map_or("", |d| d.unit)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The full record of one set: every metric with its quartiles, the seed,
/// the slice counts, `nproc`, and every failed check.
pub fn set_json(spec: &SetSpec, set: &SetResult) -> String {
    let workloads = set.runs.iter().map(|(w, runs)| {
        let e2e = runs.end_to_end();
        let metrics = e2e.iter().map(|m| {
            (
                m.name.as_str(),
                measured_json(unit_of(&END_TO_END, &m.name), m),
            )
        });
        let (attempted, failed) = (runs.attempted(), runs.failed());
        let exact: Vec<String> = runs
            .untraced
            .iter()
            .map(|s| json::number_map(&s.exact))
            .collect();
        (
            w.name(),
            json::object([
                ("slices", runs.untraced.len().to_string()),
                ("traced_slices", runs.traced.len().to_string()),
                ("attempted", attempted.to_string()),
                ("failed", failed.to_string()),
                (
                    "failed_share",
                    json::num(failed as f64 / attempted.max(1) as f64),
                ),
                ("end_to_end", json::object(metrics)),
                ("exact", format!("[{}]", exact.join(","))),
            ]),
        )
    });
    let layers = set.per_layer();
    let per_layer = layers.iter().map(|m| {
        (
            m.name.as_str(),
            measured_json(unit_of(&PER_LAYER, &m.name), m),
        )
    });
    let budgets: Vec<String> = set.budgets().iter().map(budget_json).collect();
    let errors: Vec<String> = all_errors(set).iter().map(|e| json::string(e)).collect();
    let stalls: Vec<String> = all_stalls(set).iter().map(|e| json::string(e)).collect();
    json::object([
        ("seed", spec.seed.to_string()),
        ("quick", spec.quick.to_string()),
        ("nproc", nproc().to_string()),
        ("workloads", json::object(workloads)),
        ("per_layer", json::object(per_layer)),
        ("budgets", format!("[{}]", budgets.join(","))),
        ("errors", format!("[{}]", errors.join(","))),
        ("stalls", format!("[{}]", stalls.join(","))),
    ])
}

fn budget_json(b: &Budget) -> String {
    let rows = b.rows.iter().map(|r| (r.layer, json::num(r.ns_per_copy)));
    json::object([
        ("workload", json::string(b.workload.name())),
        ("e2e_ns_per_copy", json::num(b.e2e_ns_per_copy)),
        ("layers_ns_per_copy", json::object(rows)),
        ("loop_remainder_ns", json::num(b.remainder_ns)),
        ("explained_share", json::num(b.explained_share)),
    ])
}

/// Every failed check of a set.
pub fn all_errors(set: &SetResult) -> Vec<String> {
    set.runs
        .iter()
        .flat_map(|(w, r)| {
            r.all_errors()
                .into_iter()
                .map(move |e| format!("{}: {e}", w.name()))
        })
        .collect()
}

/// Every slice that fell behind without failing its run's backlog rule.
pub fn all_stalls(set: &SetResult) -> Vec<String> {
    set.runs
        .iter()
        .flat_map(|(w, r)| {
            r.stalls()
                .into_iter()
                .map(move |e| format!("{}: {e}", w.name()))
        })
        .collect()
}

fn fmt(x: f64) -> String {
    let a = x.abs();
    if a == 0.0 || (1e-3..1e7).contains(&a) {
        let digits = if a >= 1000.0 {
            0
        } else if a >= 10.0 {
            2
        } else {
            4
        };
        format!("{x:.digits$}")
    } else {
        format!("{x:.3e}")
    }
}

fn table_row(name: &str, unit: &str, m: &Measured) -> String {
    format!(
        "  {name:<44} {unit:<6} {:>12} {:>12} {:>12} {:>4} {:>6.1}%",
        fmt(m.value()),
        fmt(m.summary.q1),
        fmt(m.summary.q3),
        m.summary.n,
        100.0 * m.summary.cov
    )
}

const TABLE_HEAD: &str =
    "  metric                                       unit          value           q1           q3    n     CoV";

/// Print a set for a reader: every end-to-end metric of every workload,
/// every per-layer metric, the budgets, and the failed checks.
pub fn print_set(spec: &SetSpec, set: &SetResult) {
    println!(
        "seed {}  nproc {}{}",
        spec.seed,
        nproc(),
        if spec.quick {
            "  (quick: checks only, timings are not measurements)"
        } else {
            ""
        }
    );
    for (w, runs) in &set.runs {
        println!("\n{} — {} slices", w.name(), runs.untraced.len());
        println!("{TABLE_HEAD}");
        for m in runs.end_to_end() {
            println!("{}", table_row(&m.name, unit_of(&END_TO_END, &m.name), &m));
        }
        let (attempted, failed) = (runs.attempted(), runs.failed());
        println!(
            "  {:<44} {:<6} {:>12}   ({failed} of {attempted} copies)",
            "failed_share",
            "share",
            fmt(failed as f64 / attempted.max(1) as f64)
        );
    }
    let layers = set.per_layer();
    if !layers.is_empty() {
        println!("\nper layer");
        println!("{TABLE_HEAD}");
        for m in &layers {
            println!("{}", table_row(&m.name, unit_of(&PER_LAYER, &m.name), m));
        }
    }
    for b in set.budgets() {
        println!(
            "\nbudget {} — {} ns/copy end to end (untraced)",
            b.workload.name(),
            fmt(b.e2e_ns_per_copy)
        );
        for r in &b.rows {
            println!(
                "  {:<32} {:>10} ns/copy {:>6.1}%",
                r.layer,
                fmt(r.ns_per_copy),
                100.0 * r.ns_per_copy / b.e2e_ns_per_copy
            );
        }
        println!(
            "  {:<32} {:>10} ns/copy {:>6.1}%   (Σ layers + remainder == end to end; explained {:.1}%)",
            "executor loop (remainder)",
            fmt(b.remainder_ns),
            100.0 * b.remainder_ns / b.e2e_ns_per_copy,
            100.0 * b.explained_share
        );
    }
    for stall in all_stalls(set) {
        println!("\nnote: {stall}");
    }
    let errors = all_errors(set);
    if errors.is_empty() {
        println!("\nall correctness checks passed");
    } else {
        println!("\n{} correctness checks FAILED:", errors.len());
        for e in &errors {
            println!("  {e}");
        }
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write the set's record to `out/<name>.json`.
pub fn write_set(name: &str, spec: &SetSpec, set: &SetResult) -> Result<PathBuf, String> {
    let path = out_dir().join(format!("{name}.json"));
    write(&path, &(set_json(spec, set) + "\n"))?;
    Ok(path)
}

/// Write the spans of every traced workload to `out/trace-<workload>.json`,
/// once, after the last slice.
pub fn write_traces(set: &SetResult) -> Result<(), String> {
    for (w, runs) in set.runs.iter().filter(|(_, r)| !r.spans.is_empty()) {
        let text = format!(
            "{{\"workload\":{},\"calls_per_span\":{},\"spans\":[\n{}\n]}}\n",
            json::string(w.name()),
            crate::spans::CALLS_PER_SPAN,
            runs.spans.join(",\n")
        );
        write(&out_dir().join(format!("trace-{}.json", w.name())), &text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    fn m(name: &str, value: f64) -> Measured {
        Measured {
            name: name.into(),
            summary: summarize(&[value]),
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_named_metrics() {
        let measured: Vec<Measured> = END_TO_END
            .iter()
            .map(|d| m(d.name, 1.25))
            .chain([m("extra", 9.0)])
            .collect();
        let line = contract_line(&END_TO_END, &measured, 1000, 0, true);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1000));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, body), def) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(body.get("value").unwrap().as_f64(), Some(1.25));
            assert_eq!(body.get("unit").unwrap().as_str(), Some(def.unit));
        }
    }

    #[test]
    fn numbers_print_readably() {
        assert_eq!(fmt(0.0), "0.0000");
        assert_eq!(fmt(4_460_000.4), "4460000");
        assert_eq!(fmt(12.3456), "12.35");
        assert_eq!(fmt(0.00041), "4.100e-4");
    }
}
