//! The command line: the driver's one-workload run, the full set for a
//! reader, the self-check and calibration modes, and the two child modes.

use crate::isolated;
use crate::metrics::{bound, END_TO_END, PER_LAYER};
use crate::report;
use crate::runner::{self, Order, SetResult, SetSpec};
use crate::workloads::{run_slice, SliceOpts, Workload};

pub const USAGE: &str = "\
usage: benchmark/run.sh [--workload W]... [--seed S] [--slices N] [--traced] [--quick]
                        [--selfcheck | --calibrate K]
       benchmark/run.sh --workload W --seed S --seconds T --trace 0|1

  --workload W   one of sim_hnr sim_bsd sim_join rt_saturate dsms_drain dsms_open
                 (repeatable; default: all six)
  --seed S       drives every draw of the inputs (default 1)
  --slices N     untraced slices per workload (default 15, or 25 for sim_bsd,
                 sim_join and rt_saturate)
  --traced       also run the traced slices and the isolated cells; writes
                 benchmark/out/trace-<workload>.json and prints the budgets
  --quick        one tiny slice per workload: correctness checks only
  --selfcheck    two full sets; fails unless every end-to-end metric agrees
                 within its bound and every exact value bit for bit
  --calibrate K  K full sets; prints the bound table
  --seconds T --trace 0|1
                 the driver's form: one workload, sized to about T seconds,
                 one JSON object on the last line (see ../BENCHMARK.json)";

#[derive(Debug, PartialEq)]
enum Mode {
    Once,
    Selfcheck,
    Calibrate(usize),
}

#[derive(Debug, PartialEq)]
enum Command {
    Slice {
        workload: Workload,
        seed: u64,
        input: u64,
        opts: SliceOpts,
    },
    Cells {
        seed: u64,
        quick: bool,
    },
    Driver {
        workload: Workload,
        seed: u64,
        seconds: f64,
        traced: bool,
        /// Tiny slices, for the package's own tests.
        quick: bool,
    },
    Set {
        workloads: Vec<Workload>,
        seed: u64,
        slices: Option<usize>,
        traced: bool,
        quick: bool,
        mode: Mode,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (child, mut rest) = match args.first().map(String::as_str) {
        Some(c @ ("slice" | "cells")) => (Some(c), args[1..].iter()),
        _ => (None, args.iter()),
    };
    let mut workloads = Vec::new();
    if child == Some("slice") {
        let name = rest.next().ok_or("slice needs a workload")?;
        workloads.push(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
    }
    let (mut seed, mut input, mut slices, mut seconds, mut trace) = (1, 0, None, None, None);
    let (mut traced, mut quick, mut mode) = (false, false, Mode::Once);
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| rest.next().ok_or(format!("{flag} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload")?;
                workloads.push(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = number(flag, value("a number")?)?,
            "--input" => input = number(flag, value("a number")?)?,
            "--slices" => slices = Some(number::<usize>(flag, value("a count")?)?.max(1)),
            "--seconds" => seconds = Some(number::<f64>(flag, value("a duration")?)?),
            "--trace" => trace = Some(number::<u8>(flag, value("0 or 1")?)? != 0),
            "--calibrate" => {
                mode = Mode::Calibrate(number::<usize>(flag, value("a count")?)?.max(2))
            }
            "--selfcheck" => mode = Mode::Selfcheck,
            "--traced" => traced = true,
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let opts = SliceOpts { traced, quick };
    match child {
        Some("slice") => Ok(Command::Slice {
            workload: workloads[0],
            seed,
            input,
            opts,
        }),
        Some(_) => Ok(Command::Cells { seed, quick }),
        None if seconds.is_some() || trace.is_some() => match workloads[..] {
            [workload] => Ok(Command::Driver {
                workload,
                seed,
                seconds: seconds
                    .filter(|s| *s > 0.0)
                    .ok_or("--trace needs --seconds T")?,
                traced: trace.unwrap_or(false),
                quick,
            }),
            _ => Err("--seconds runs exactly one --workload".into()),
        },
        None => Ok(Command::Set {
            workloads: if workloads.is_empty() {
                Workload::ALL.to_vec()
            } else {
                workloads
            },
            seed,
            slices,
            traced,
            quick,
            mode,
        }),
    }
}

/// Run the command line; the process's exit code.
pub fn run(args: Vec<String>) -> i32 {
    let command = match parse(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return 2;
        }
    };
    match execute(command) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `Ok(false)` when the benchmark ran but a check failed.
fn execute(command: Command) -> Result<bool, String> {
    match command {
        Command::Slice {
            workload,
            seed,
            input,
            opts,
        } => {
            let out = run_slice(workload, seed, input, opts);
            runner::print_slice(workload, input, &out);
            Ok(true)
        }
        Command::Cells { seed, quick } => {
            runner::print_cells(&isolated::cells(seed, quick));
            Ok(true)
        }
        Command::Driver {
            workload,
            seed,
            seconds,
            traced,
            quick,
        } => driver(workload, seed, seconds, traced, quick),
        Command::Set {
            workloads,
            seed,
            slices,
            traced,
            quick,
            mode,
        } => {
            let spec = SetSpec {
                seed,
                quick,
                cells: traced,
                orders: workloads
                    .iter()
                    .map(|&workload| {
                        let n = if quick {
                            1
                        } else {
                            slices.unwrap_or(workload.default_slices())
                        };
                        Order {
                            workload,
                            slices: n,
                            // A third of the slices again, traced.
                            traced: if traced { n.div_ceil(3) } else { 0 },
                        }
                    })
                    .collect(),
            };
            match mode {
                Mode::Once => {
                    let set = runner::run_set(&spec)?;
                    report::print_set(&spec, &set);
                    report::write_traces(&set)?;
                    let path = report::write_set(&format!("set-seed{seed}"), &spec, &set)?;
                    println!("\nwrote {}", path.display());
                    Ok(report::all_errors(&set).is_empty())
                }
                Mode::Selfcheck => selfcheck(&spec),
                Mode::Calibrate(k) => calibrate(&spec, k),
            }
        }
    }
}

/// The driver's run: one workload, sized from `--seconds` by the nominal
/// slice durations so that the work is the same on every host, and one
/// result line. A traced run must name every per-layer metric, so it runs
/// the cells and a traced and an untraced slice of every workload; the
/// named workload gets more.
fn driver(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<bool, String> {
    let spec = if traced {
        let extra = (seconds / 12.0).round() as usize;
        SetSpec {
            seed,
            quick,
            cells: true,
            orders: Workload::ALL
                .iter()
                .map(|&w| Order {
                    workload: w,
                    slices: if w == workload { 2 + extra } else { 2 },
                    traced: if w == workload { 1 + extra } else { 1 },
                })
                .collect(),
        }
    } else {
        SetSpec {
            seed,
            quick,
            cells: false,
            orders: vec![Order {
                workload,
                slices: ((seconds / workload.nominal_slice_s()).round() as usize).max(3),
                traced: 0,
            }],
        }
    };
    let set = runner::run_set(&spec)?;
    let errors = report::all_errors(&set);
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    for stall in report::all_stalls(&set) {
        eprintln!("note: {stall}");
    }
    let (attempted, failed) = set
        .runs
        .iter()
        .fold((0, 0), |(a, f), (_, r)| (a + r.attempted(), f + r.failed()));
    let line = if traced {
        report::write_traces(&set)?;
        report::contract_line(
            &PER_LAYER,
            &set.per_layer(),
            attempted,
            failed,
            errors.is_empty(),
        )
    } else {
        let runs = set.runs_of(workload).expect("the ordered workload ran");
        report::contract_line(
            &END_TO_END,
            &runs.end_to_end(),
            attempted,
            failed,
            errors.is_empty(),
        )
    };
    println!("{line}");
    Ok(true)
}

/// Relative distance of `b` from `a`.
fn rel(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        f64::from(u8::from(b != 0.0))
    } else {
        (b - a).abs() / a.abs()
    }
}

/// Two sets on the same tree and seed: every end-to-end metric must agree
/// within its bound, every exact value bit for bit.
fn selfcheck(spec: &SetSpec) -> Result<bool, String> {
    let first = runner::run_set(spec)?;
    let second = runner::run_set(spec)?;
    report::write_set(&format!("selfcheck-seed{}-1", spec.seed), spec, &first)?;
    report::write_set(&format!("selfcheck-seed{}-2", spec.seed), spec, &second)?;
    let mut ok = report::all_errors(&first).is_empty() && report::all_errors(&second).is_empty();
    for e in report::all_errors(&first)
        .iter()
        .chain(&report::all_errors(&second))
    {
        println!("check failed: {e}");
    }
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "differ", "bound"
    );
    for ((w, a), (_, b)) in first.runs.iter().zip(&second.runs) {
        for (ma, mb) in a.end_to_end().iter().zip(&b.end_to_end()) {
            let limit = bound(&ma.name).expect("every end-to-end metric has a bound");
            let differ = rel(ma.value(), mb.value());
            let verdict = if differ <= limit {
                ""
            } else {
                "  OUTSIDE ITS BOUND"
            };
            ok &= differ <= limit;
            println!(
                "{:<12} {:<16} {:>14.6e} {:>14.6e} {:>7.2}% {:>6.0}%{verdict}",
                w.name(),
                ma.name,
                ma.value(),
                mb.value(),
                100.0 * differ,
                100.0 * limit
            );
        }
        let exact = |r: &runner::Runs| -> Vec<(u64, Vec<(String, u64)>)> {
            r.untraced
                .iter()
                .map(|s| {
                    (
                        s.failed,
                        s.exact
                            .iter()
                            .map(|(k, v)| (k.clone(), v.to_bits()))
                            .collect(),
                    )
                })
                .collect()
        };
        if exact(a) != exact(b) {
            ok = false;
            println!("{:<12} exact values DIFFER between the two sets", w.name());
        }
    }
    println!(
        "{}",
        if ok {
            "selfcheck passed"
        } else {
            "selfcheck FAILED"
        }
    );
    Ok(ok)
}

/// `k` sets on the unchanged tree: the medians, their largest pairwise
/// difference, and the bound that follows (1.5 × that difference; the
/// contract caps a bound at 0.25 and keeps one per metric).
fn calibrate(spec: &SetSpec, k: usize) -> Result<bool, String> {
    let mut sets: Vec<SetResult> = Vec::new();
    for i in 0..k {
        let set = runner::run_set(spec)?;
        report::write_set(
            &format!("calibration-seed{}-{}", spec.seed, i + 1),
            spec,
            &set,
        )?;
        eprintln!("set {} of {k} done", i + 1);
        sets.push(set);
    }
    let ok = sets.iter().all(|s| report::all_errors(s).is_empty());
    println!(
        "{:<12} {:<16} {:>9} {:>9}   medians of the {k} sets",
        "workload", "metric", "max diff", "1.5 x"
    );
    // `measured[set][workload][metric]`
    let measured: Vec<Vec<Vec<f64>>> = sets
        .iter()
        .map(|s| {
            s.runs
                .iter()
                .map(|(_, r)| r.end_to_end().iter().map(|m| m.value()).collect())
                .collect()
        })
        .collect();
    let mut per_metric = vec![0.0f64; END_TO_END.len()];
    for (wi, (w, _)) in sets[0].runs.iter().enumerate() {
        for (mi, def) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = measured.iter().map(|set| set[wi][mi]).collect();
            let (lo, hi) = medians
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(lo, hi), &m| {
                    (lo.min(m), hi.max(m))
                });
            let diff = rel(lo, hi);
            per_metric[mi] = per_metric[mi].max(diff);
            let shown: Vec<String> = medians.iter().map(|m| format!("{m:.5e}")).collect();
            println!(
                "{:<12} {:<16} {:>8.2}% {:>8.2}%   {}",
                w.name(),
                def.name,
                100.0 * diff,
                150.0 * diff,
                shown.join(" ")
            );
        }
    }
    println!(
        "\n{:<16} {:>16} {:>10}",
        "metric", "1.5 x max diff", "in force"
    );
    for (def, diff) in END_TO_END.iter().zip(&per_metric) {
        println!(
            "{:<16} {:>15.2}% {:>9.0}%",
            def.name,
            150.0 * diff,
            100.0 * bound(def.name).expect("every end-to-end metric has a bound")
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        assert_eq!(
            parse(&args("--workload sim_bsd --seed 7 --seconds 10 --trace 1")).unwrap(),
            Command::Driver {
                workload: Workload::SimBsd,
                seed: 7,
                seconds: 10.0,
                traced: true,
                quick: false
            }
        );
        assert!(parse(&args("--seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args("--workload sim_bsd --trace 0")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }

    #[test]
    fn set_and_child_command_lines_parse() {
        assert_eq!(
            parse(&args("--quick")).unwrap(),
            Command::Set {
                workloads: Workload::ALL.to_vec(),
                seed: 1,
                slices: None,
                traced: false,
                quick: true,
                mode: Mode::Once
            }
        );
        assert_eq!(
            parse(&args(
                "--workload dsms_open --slices 4 --traced --calibrate 5 --seed 2"
            ))
            .unwrap(),
            Command::Set {
                workloads: vec![Workload::DsmsOpen],
                seed: 2,
                slices: Some(4),
                traced: true,
                quick: false,
                mode: Mode::Calibrate(5)
            }
        );
        assert_eq!(
            parse(&args("slice rt_saturate --seed 3 --input 4 --traced")).unwrap(),
            Command::Slice {
                workload: Workload::RtSaturate,
                seed: 3,
                input: 4,
                opts: SliceOpts {
                    traced: true,
                    quick: false
                }
            }
        );
        assert_eq!(
            parse(&args("cells --quick")).unwrap(),
            Command::Cells {
                seed: 1,
                quick: true
            }
        );
    }

    #[test]
    fn relative_distance() {
        assert_eq!(rel(2.0, 2.5), 0.25);
        assert_eq!(rel(0.0, 0.0), 0.0);
        assert_eq!(rel(0.0, 1.0), 1.0);
    }
}
