//! The parent side: slices run as child processes, interleaved round-robin
//! over the requested workloads, and their results folded into metrics.
//!
//! The host this was sized on has speed modes that last seconds to minutes,
//! so one long run does not repeat while medians over many short slices do;
//! interleaving makes a slow phase cost every workload a few slices instead
//! of one workload all of them. A fresh process per slice gives each its own
//! heap and its own `VmHWM`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::isolated::{self, Samples};
use crate::json::{self, JsonValue};
use crate::metrics::layer_name;
use crate::spans::Span;
use crate::stats::{summarize, Summary};
use crate::workloads::{SliceOut, Workload};

/// What to run for one workload.
#[derive(Debug, Clone, Copy)]
pub struct Order {
    pub workload: Workload,
    /// Untraced slice processes. With three or more, the last repeats the
    /// inputs of the second and must reproduce its exact values.
    pub slices: usize,
    /// Traced slice processes (inputs 0, 1, …).
    pub traced: usize,
}

/// A set: the orders, plus whether the workload-independent cells run.
#[derive(Debug, Clone)]
pub struct SetSpec {
    pub seed: u64,
    pub quick: bool,
    pub orders: Vec<Order>,
    pub cells: bool,
}

/// The slices of one workload.
#[derive(Debug, Default)]
pub struct Runs {
    pub untraced: Vec<SliceOut>,
    pub traced: Vec<SliceOut>,
    /// Rendered spans of the traced slices, for `trace-<workload>.json`.
    pub spans: Vec<String>,
    /// Checks that failed across slices (the repeated slice disagreed).
    pub errors: Vec<String>,
}

#[derive(Debug, Default)]
pub struct SetResult {
    pub runs: Vec<(Workload, Runs)>,
    pub cells: Samples,
}

/// Input index of untraced slice `i` of `n`.
fn input_of(i: usize, n: usize) -> u64 {
    if n >= 3 && i == n - 1 {
        1
    } else {
        i as u64
    }
}

/// Run a set, round-robin over its orders.
pub fn run_set(spec: &SetSpec) -> Result<SetResult, String> {
    let mut result = SetResult {
        runs: spec
            .orders
            .iter()
            .map(|o| (o.workload, Runs::default()))
            .collect(),
        cells: Samples::new(),
    };
    if spec.cells {
        let mut args = vec!["cells".to_string(), "--seed".into(), spec.seed.to_string()];
        if spec.quick {
            args.push("--quick".into());
        }
        let (value, _) = child(&args)?;
        result.cells = value
            .get("layers")
            .and_then(read_samples)
            .ok_or("the cells child printed no layers")?;
    }
    let rounds = spec
        .orders
        .iter()
        .map(|o| o.slices.max(o.traced))
        .max()
        .unwrap_or(0);
    for round in 0..rounds {
        for (order, (_, runs)) in spec.orders.iter().zip(&mut result.runs) {
            let slice = |input: u64, traced: bool| -> Result<(SliceOut, Vec<String>), String> {
                let mut args = vec![
                    "slice".to_string(),
                    order.workload.name().into(),
                    "--seed".into(),
                    spec.seed.to_string(),
                    "--input".into(),
                    input.to_string(),
                ];
                if traced {
                    args.push("--traced".into());
                }
                if spec.quick {
                    args.push("--quick".into());
                }
                let (value, spans) = child(&args)?;
                let out = read_slice(&value)
                    .ok_or_else(|| format!("{}: malformed slice result", order.workload.name()))?;
                Ok((out, spans))
            };
            if round < order.slices {
                runs.untraced
                    .push(slice(input_of(round, order.slices), false)?.0);
            }
            if round < order.traced {
                let (out, spans) = slice(round as u64, true)?;
                runs.traced.push(out);
                runs.spans.extend(spans);
            }
        }
    }
    for (workload, runs) in &mut result.runs {
        let n = runs.untraced.len();
        if n >= 3 && runs.untraced[n - 1].exact != runs.untraced[1].exact {
            runs.errors.push(format!(
                "{}: the same inputs gave different exact values: {:?} then {:?}",
                workload.name(),
                runs.untraced[1].exact,
                runs.untraced[n - 1].exact
            ));
        }
    }
    Ok(result)
}

/// Run this executable with `args`, wait for it, and parse its `RESULT`
/// line; `SPANS` lines come back as raw JSON array bodies.
fn child(args: &[String]) -> Result<(JsonValue, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let what = args.join(" ");
    if !output.status.success() {
        return Err(format!("child `{what}` ended with {}", output.status));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| format!("child `{what}`: {e}"))?;
    let mut spans = Vec::new();
    let mut result = None;
    for line in stdout.lines() {
        if let Some(body) = line.strip_prefix("SPANS ") {
            spans.push(body.to_string());
        } else if let Some(body) = line.strip_prefix("RESULT ") {
            result = Some(json::parse(body).map_err(|e| format!("child `{what}`: {e}"))?);
        }
    }
    Ok((
        result.ok_or(format!("child `{what}` printed no result"))?,
        spans,
    ))
}

// ------------------------------------------------------ the child's output

/// Print a slice's result the way [`child`] reads it.
pub fn print_slice(workload: Workload, input: u64, out: &SliceOut) {
    if !out.spans.is_empty() {
        let spans: Vec<String> = out
            .spans
            .iter()
            .map(|s: &Span| s.to_json(workload.name(), input))
            .collect();
        println!("SPANS {}", spans.join(","));
    }
    println!("RESULT {}", slice_json(out));
}

fn slice_json(out: &SliceOut) -> String {
    let errors: Vec<String> = out.errors.iter().map(|e| json::string(e)).collect();
    json::object([
        ("setup_s", json::num(out.setup_s)),
        ("timed_s", json::num(out.timed_s)),
        ("copies", out.copies.to_string()),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("latency_p50_us", json::num(out.latency_p50_us)),
        ("avg_slowdown", json::num(out.avg_slowdown)),
        ("l2_slowdown", json::num(out.l2_slowdown)),
        ("peak_rss_mb", json::num(out.peak_rss_mb)),
        ("errors", format!("[{}]", errors.join(","))),
        (
            "behind",
            out.behind
                .as_deref()
                .map_or("null".to_string(), json::string),
        ),
        ("exact", json::number_map(&out.exact)),
        ("layers", samples_json(&out.layers)),
    ])
}

/// Print the cells child's result.
pub fn print_cells(cells: &Samples) {
    println!("RESULT {}", json::object([("layers", samples_json(cells))]));
}

fn samples_json(samples: &Samples) -> String {
    json::object(samples.iter().map(|(k, v)| {
        let values: Vec<String> = v.iter().map(|x| json::num(*x)).collect();
        (k.as_str(), format!("[{}]", values.join(",")))
    }))
}

fn read_samples(v: &JsonValue) -> Option<Samples> {
    v.as_obj()?
        .iter()
        .map(|(k, v)| {
            let values: Option<Vec<f64>> = v.as_arr()?.iter().map(JsonValue::as_f64).collect();
            Some((k.clone(), values?))
        })
        .collect()
}

fn read_slice(v: &JsonValue) -> Option<SliceOut> {
    let f = |k: &str| v.get(k).and_then(JsonValue::as_f64);
    let u = |k: &str| v.get(k).and_then(JsonValue::as_u64);
    Some(SliceOut {
        setup_s: f("setup_s")?,
        timed_s: f("timed_s")?,
        copies: u("copies")?,
        attempted: u("attempted")?,
        failed: u("failed")?,
        latency_p50_us: f("latency_p50_us")?,
        avg_slowdown: f("avg_slowdown")?,
        l2_slowdown: f("l2_slowdown")?,
        peak_rss_mb: f("peak_rss_mb")?,
        errors: v
            .get("errors")?
            .as_arr()?
            .iter()
            .map(|e| e.as_str().map(str::to_string))
            .collect::<Option<_>>()?,
        behind: match v.get("behind")? {
            JsonValue::Null => None,
            text => Some(text.as_str()?.to_string()),
        },
        exact: json::read_number_map(v.get("exact")?)?,
        layers: read_samples(v.get("layers")?)?,
        spans: Vec::new(),
    })
}

// ------------------------------------------------------------ aggregation

/// One reported metric: the summary of its samples. The median stands for
/// the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub summary: Summary,
}

impl Measured {
    pub fn value(&self) -> f64 {
        self.summary.median
    }
}

fn measured(name: &str, samples: &[f64]) -> Measured {
    Measured {
        name: name.to_string(),
        summary: summarize(samples),
    }
}

impl Runs {
    /// The end-to-end metrics of this workload: each the median over the
    /// untraced slices.
    pub fn end_to_end(&self) -> Vec<Measured> {
        let col = |f: fn(&SliceOut) -> f64| -> Vec<f64> { self.untraced.iter().map(f).collect() };
        vec![
            measured("setup_s", &col(|s| s.setup_s)),
            measured("throughput_tps", &col(SliceOut::throughput_tps)),
            measured("latency_p50_us", &col(|s| s.latency_p50_us)),
            measured("avg_slowdown", &col(|s| s.avg_slowdown)),
            measured("l2_slowdown", &col(|s| s.l2_slowdown)),
            measured("peak_rss_mb", &col(|s| s.peak_rss_mb)),
        ]
    }

    pub fn attempted(&self) -> u64 {
        self.slices().map(|s| s.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        let behind = if self.backlog_grows() {
            self.behind().map(|(s, _)| s.attempted - s.failed).sum()
        } else {
            0
        };
        self.slices().map(|s| s.failed).sum::<u64>() + behind
    }

    /// Slices that broke the backlog rule of `dsms_open`, and by how much.
    fn behind(&self) -> impl Iterator<Item = (&SliceOut, &str)> {
        self.slices()
            .filter_map(|s| s.behind.as_deref().map(|b| (s, b)))
    }

    /// The backlog rule for the run. Like every wall-clock value here it is
    /// the median slice that counts: a host stall of 100 ms puts one slice
    /// behind, a `Dsms` that cannot keep up with the rate most of them. Only
    /// then do the check and the copies of those slices fail.
    pub fn backlog_grows(&self) -> bool {
        2 * self.behind().count() > self.slices().count()
    }

    /// Slices that fell behind in a run whose backlog does not grow: a note,
    /// not a failure.
    pub fn stalls(&self) -> Vec<String> {
        if self.backlog_grows() {
            return Vec::new();
        }
        self.behind()
            .map(|(_, b)| format!("one slice fell behind (host stall): {b}"))
            .collect()
    }

    /// Every failed check, slice-level and cross-slice.
    pub fn all_errors(&self) -> Vec<String> {
        let backlog = self.backlog_grows().then(|| {
            let behind: Vec<&str> = self.behind().map(|(_, b)| b).collect();
            format!(
                "growing backlog in {} of {} slices: {}",
                behind.len(),
                self.slices().count(),
                behind.join("; ")
            )
        });
        self.slices()
            .flat_map(|s| s.errors.iter().cloned())
            .chain(self.errors.iter().cloned())
            .chain(backlog)
            .collect()
    }

    fn slices(&self) -> impl Iterator<Item = &SliceOut> {
        self.untraced.iter().chain(&self.traced)
    }

    /// Samples of `key` over all slices that recorded it.
    fn layer(&self, key: &str) -> Vec<f64> {
        layer_samples(self.slices(), key)
    }

    fn median_ns_per_copy(slices: &[SliceOut]) -> f64 {
        isolated::median(&slices.iter().map(SliceOut::ns_per_copy).collect::<Vec<_>>())
    }
}

fn layer_samples<'a>(slices: impl Iterator<Item = &'a SliceOut>, key: &str) -> Vec<f64> {
    slices
        .flat_map(|s| s.layers.iter().filter(|(k, _)| k == key))
        .flat_map(|(_, v)| v.iter().copied())
        .collect()
}

/// One row of an executor's budget: nanoseconds per copy in one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    pub layer: &'static str,
    pub ns_per_copy: f64,
}

/// `e2e ns/copy = Σ layer ns/copy + loop remainder` for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    pub workload: Workload,
    /// Untraced end-to-end nanoseconds per copy (median over slices).
    pub e2e_ns_per_copy: f64,
    pub rows: Vec<BudgetRow>,
    /// What the layers do not explain: the executor's own loop.
    pub remainder_ns: f64,
    pub explained_share: f64,
}

const BUDGET_LAYERS: [(&str, &str); 7] = [
    ("budget.core", "hcq-core"),
    ("budget.streams", "hcq-streams"),
    ("budget.engine", "hcq-engine (queues, exec)"),
    ("budget.join", "hcq-join"),
    ("budget.metrics", "hcq-metrics"),
    ("budget.runtime", "hcq-runtime (ring hop)"),
    ("budget.aqsios", "hcq-aqsios (push, run_once)"),
];

impl SetResult {
    pub fn runs_of(&self, workload: Workload) -> Option<&Runs> {
        self.runs
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, r)| r)
    }

    /// The budget of every workload that has both traced and untraced
    /// slices.
    pub fn budgets(&self) -> Vec<Budget> {
        self.runs
            .iter()
            .filter(|(_, r)| !r.traced.is_empty() && !r.untraced.is_empty())
            .map(|(workload, runs)| {
                let e2e = Runs::median_ns_per_copy(&runs.untraced);
                let rows: Vec<BudgetRow> = BUDGET_LAYERS
                    .iter()
                    .filter_map(|&(key, layer)| {
                        let samples = layer_samples(runs.traced.iter(), key);
                        (!samples.is_empty()).then(|| BudgetRow {
                            layer,
                            ns_per_copy: isolated::median(&samples),
                        })
                    })
                    .collect();
                let explained: f64 = rows.iter().map(|r| r.ns_per_copy).sum();
                Budget {
                    workload: *workload,
                    e2e_ns_per_copy: e2e,
                    remainder_ns: e2e - explained,
                    explained_share: explained / e2e,
                    rows,
                }
            })
            // An open loop idles by design and records no layer costs.
            .filter(|b| !b.rows.is_empty())
            .collect()
    }

    /// Every per-layer metric this set can name, under its `BENCHMARK.json`
    /// name, with all its samples.
    pub fn per_layer(&self) -> Vec<Measured> {
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (name, values) in &self.cells {
            by_name.entry(name.clone()).or_default().extend(values);
        }
        for (workload, runs) in &self.runs {
            let mut keys: Vec<&str> = runs
                .slices()
                .flat_map(|s| s.layers.iter().map(|(k, _)| k.as_str()))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            for key in keys {
                if let Some(name) = layer_name(*workload, key) {
                    by_name.entry(name).or_default().extend(runs.layer(key));
                }
            }
        }
        let mut overhead = Vec::new();
        for b in self.budgets() {
            let w = b.workload.name();
            match b.workload {
                Workload::SimHnr | Workload::SimBsd | Workload::SimJoin => {
                    by_name.insert(
                        format!("engine.sim_loop_remainder_ns.{w}"),
                        vec![b.remainder_ns],
                    );
                    by_name.insert(
                        format!("engine.explained_share.{w}"),
                        vec![b.explained_share],
                    );
                }
                Workload::RtSaturate => {
                    by_name.insert("runtime.loop_remainder_ns".into(), vec![b.remainder_ns]);
                }
                Workload::DsmsDrain | Workload::DsmsOpen => {}
            }
            if let Some(runs) = self.runs_of(b.workload) {
                overhead.push(Runs::median_ns_per_copy(&runs.traced) / b.e2e_ns_per_copy);
            }
        }
        if !overhead.is_empty() {
            by_name.insert("bench.trace_overhead_ratio".into(), overhead);
        }
        if let Some(rt) = self.runs_of(Workload::RtSaturate) {
            let tps: Vec<f64> = rt.untraced.iter().map(SliceOut::throughput_tps).collect();
            let best = tps.iter().copied().fold(0.0, f64::max);
            if !tps.is_empty() {
                let slow = tps.iter().filter(|&&t| t < 0.6 * best).count();
                by_name.insert(
                    "runtime.slow_slice_share".into(),
                    vec![slow as f64 / tps.len() as f64],
                );
            }
        }
        by_name
            .into_iter()
            .map(|(name, samples)| measured(&name, &samples))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(tps: f64, exact: f64) -> SliceOut {
        SliceOut {
            setup_s: 0.01,
            timed_s: 1.0,
            copies: tps as u64,
            attempted: 100,
            failed: 1,
            latency_p50_us: 5.0,
            avg_slowdown: 2.0,
            l2_slowdown: 3.0,
            peak_rss_mb: tps / 100.0,
            errors: vec!["bad \"thing\"".into()],
            behind: None,
            exact: vec![("emitted".into(), exact)],
            layers: vec![("runtime.setup_ms".into(), vec![1.0, 2.0])],
            spans: Vec::new(),
        }
    }

    #[test]
    fn the_last_slice_repeats_the_second_input() {
        assert_eq!(
            (0..5).map(|i| input_of(i, 5)).collect::<Vec<_>>(),
            [0, 1, 2, 3, 1]
        );
        assert_eq!((0..2).map(|i| input_of(i, 2)).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(input_of(0, 1), 0);
    }

    #[test]
    fn end_to_end_is_the_median_over_slices() {
        let runs = Runs {
            untraced: vec![slice(100.0, 1.0), slice(300.0, 1.0), slice(200.0, 1.0)],
            ..Runs::default()
        };
        let e2e = runs.end_to_end();
        let get = |n: &str| e2e.iter().find(|m| m.name == n).unwrap();
        assert_eq!(get("throughput_tps").value(), 200.0);
        assert_eq!(get("throughput_tps").summary.n, 3);
        assert_eq!(get("peak_rss_mb").value(), 2.0);
        assert_eq!((runs.attempted(), runs.failed()), (300, 3));
        assert_eq!(runs.all_errors().len(), 3);
    }

    #[test]
    fn the_backlog_rule_is_the_runs_not_the_slices() {
        let behind = |b: bool| SliceOut {
            behind: b.then(|| "150.0 ms drain tail".to_string()),
            failed: 0,
            errors: Vec::new(),
            ..slice(100.0, 1.0)
        };
        let stalled = Runs {
            untraced: vec![behind(false), behind(true), behind(false)],
            ..Runs::default()
        };
        assert!(!stalled.backlog_grows());
        assert_eq!((stalled.failed(), stalled.all_errors().len()), (0, 0));
        assert_eq!(stalled.stalls().len(), 1);
        let too_slow = Runs {
            untraced: vec![behind(true), behind(false)],
            traced: vec![behind(true)],
            ..Runs::default()
        };
        assert!(too_slow.backlog_grows());
        assert_eq!(too_slow.failed(), 200);
        assert!(too_slow.all_errors()[0].starts_with("growing backlog in 2 of 3 slices"));
        assert!(too_slow.stalls().is_empty());
    }

    #[test]
    fn per_layer_names_sources_and_derives_the_slow_share() {
        let set = SetResult {
            runs: vec![(
                Workload::RtSaturate,
                Runs {
                    untraced: vec![slice(100.0, 1.0), slice(50.0, 1.0), slice(90.0, 1.0)],
                    ..Runs::default()
                },
            )],
            cells: vec![("host.spin_ref_ns".into(), vec![1.5])],
        };
        let layers = set.per_layer();
        let get = |n: &str| layers.iter().find(|m| m.name == n).unwrap();
        assert_eq!(get("runtime.setup_ms").summary.n, 6);
        assert_eq!(get("host.spin_ref_ns").value(), 1.5);
        assert!((get("runtime.slow_slice_share").value() - 1.0 / 3.0).abs() < 1e-12);
        assert!(set.budgets().is_empty());
    }

    #[test]
    fn budget_identity_holds() {
        let mut traced = slice(50.0, 1.0);
        traced.layers = vec![
            ("budget.core".into(), vec![4e6]),
            ("budget.engine".into(), vec![3e6]),
        ];
        let set = SetResult {
            runs: vec![(
                Workload::SimHnr,
                Runs {
                    untraced: vec![slice(100.0, 1.0)],
                    traced: vec![traced],
                    ..Runs::default()
                },
            )],
            cells: Samples::new(),
        };
        let b = &set.budgets()[0];
        assert_eq!(b.e2e_ns_per_copy, 1e7);
        assert_eq!(b.rows.len(), 2);
        assert_eq!(b.remainder_ns, 3e6);
        assert!((b.explained_share - 0.7).abs() < 1e-12);
        let layers = set.per_layer();
        assert!(layers
            .iter()
            .any(|m| m.name == "engine.sim_loop_remainder_ns.sim_hnr"));
        assert!(layers
            .iter()
            .any(|m| m.name == "bench.trace_overhead_ratio" && m.value() == 2.0));
    }

    #[test]
    fn slice_results_survive_the_pipe() {
        let mut out = slice(123.0, 0.1 + 0.2);
        for behind in [None, Some("1.5 ms \"late\"".to_string())] {
            out.behind = behind;
            let text = slice_json(&out);
            assert_eq!(read_slice(&json::parse(&text).unwrap()).unwrap(), out);
        }
    }
}
