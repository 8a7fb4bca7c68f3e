//! One function per table/figure of §9, and [`EXHIBITS`], the registry
//! `repro` resolves its request names against.
//!
//! Every multi-cell exhibit fans its independent `(policy, load, seed, ...)`
//! cells out over `harness::run_cells` with `cfg.jobs` workers. Cells are pure
//! functions of the configuration and rows are assembled from the
//! index-ordered results, so the emitted tables and CSVs are byte-identical
//! at any job count.
//!
//! Adding an exhibit is one function plus one [`EXHIBITS`] row: `repro
//! <name>`, `repro all`, `repro --help` and the jobs-invariance test all read
//! the registry.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicUsize;

use hcq_common::{det, Nanos, StreamId};
use hcq_core::{ClusterConfig, PolicyKind, SharingStrategy};
use hcq_engine::{
    simulate, simulate_monitored, AdaptConfig, AdaptMode, AdmissionMode, SimConfig, SimReport,
    Simulator, VecTelemetry,
};
use hcq_metrics::TelemetrySnapshot;
use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq_streams::{
    ArrivalSource, DisconnectSource, DisconnectSpec, FaultSpec, FaultySource, PoissonSource,
    TraceReplay,
};
use hcq_workload::{multi_stream, shared, MultiStreamConfig, SharedConfig};

use crate::harness::{print_tick, run_cells, ExpConfig, SweepResults};
use crate::inspect::ext_inspect;
use crate::plot::Chart;
use crate::table::{fnum, AsciiTable};

// --------------------------------------------------------------- Registry

/// One row of [`EXHIBITS`].
pub struct Exhibit {
    /// The request names the row answers; the first is its own.
    pub names: &'static [&'static str],
    /// Runs the exhibit: prints each table and writes its CSV.
    pub run: ExhibitFn,
}

/// How an [`Exhibit`] runs.
pub type ExhibitFn = fn(&ExpConfig) -> Vec<ExhibitOutput>;

const fn row(names: &'static [&'static str], run: ExhibitFn) -> Exhibit {
    Exhibit { names, run }
}

/// Every exhibit, in the order `repro all` runs them. `fig5`…`fig10` are
/// slices of one sweep, which writes `fig11` as well; a standalone `fig11`
/// runs only its three cells.
pub const EXHIBITS: &[Exhibit] = &[
    row(
        &["fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"],
        fig5_to_10,
    ),
    row(&["fig11"], |c| vec![fig11(c)]),
    row(&["table1"], |c| vec![table1(c)]),
    row(&["fig12"], |c| vec![fig12(c)]),
    row(&["fig13"], |c| vec![fig13(c)]),
    row(&["fig14"], |c| vec![fig14(c)]),
    row(&["table2"], |c| vec![table2(c)]),
    row(&["table3"], |c| vec![table3(c)]),
    row(&["ext_memory"], |c| vec![ext_memory(c)]),
    row(&["ext_lp"], |c| vec![ext_lp(c)]),
    row(&["ext_preemption"], |c| vec![ext_preemption(c)]),
    row(&["ext_seeds"], |c| vec![ext_seeds(c)]),
    row(&["ext_overload"], |c| vec![ext_overload(c)]),
    row(&["ext_faults"], |c| vec![ext_faults(c)]),
    row(&["ext_overhead"], |c| vec![ext_overhead(c)]),
    row(&["ext_transient"], ext_transient),
    row(&["ext_recovery"], ext_recovery),
    row(&["ext_adaptive"], |c| vec![ext_adaptive(c)]),
    row(&["ext_inspect"], |c| vec![ext_inspect(c)]),
];

/// One resolved `repro` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The [`EXHIBITS`] row at this index.
    Exhibit(usize),
    /// `ext_large_q`: not a registry row, as it takes `--large-q-max` and
    /// writes a wall-clock column.
    LargeQ,
    /// `monitor`: one telemetry-sampled reference run.
    Monitor,
    /// `validate`: the §9 scorecard.
    Validate,
    /// `fuzz`: the invariant fuzzer.
    Fuzz,
    /// `run`: the reference workload on `hcq-runtime`'s threads.
    Run,
}

/// The request names of the steps that are not registry rows.
pub const MODES: [(&str, Step); 5] = [
    ("ext_large_q", Step::LargeQ),
    ("monitor", Step::Monitor),
    ("validate", Step::Validate),
    ("fuzz", Step::Fuzz),
    ("run", Step::Run),
];

/// Every name [`resolve`] accepts besides `all`, once each, in registry
/// order and then [`MODES`].
pub fn request_names() -> Vec<&'static str> {
    let mut names = Vec::new();
    for &name in EXHIBITS
        .iter()
        .flat_map(|e| e.names)
        .chain(MODES.iter().map(|(n, _)| n))
    {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// Resolve `repro`'s request names into the steps to run, before any of
/// them runs. `all` expands in place to every registry row; a step runs
/// once, at its first request; a row is dropped when another requested row
/// also answers its own name (the sweep writes `fig11` anyway). An unknown
/// name is an error.
pub fn resolve(requests: &[String]) -> Result<Vec<Step>, String> {
    let mut steps: Vec<Step> = Vec::new();
    for req in requests.iter().map(String::as_str) {
        let row = EXHIBITS
            .iter()
            .position(|e| e.names[0] == req)
            .or_else(|| EXHIBITS.iter().position(|e| e.names.contains(&req)));
        let found: Vec<Step> = if req == "all" {
            (0..EXHIBITS.len()).map(Step::Exhibit).collect()
        } else if let Some(i) = row {
            vec![Step::Exhibit(i)]
        } else if let Some(&(_, step)) = MODES.iter().find(|(name, _)| *name == req) {
            vec![step]
        } else {
            return Err(format!("unknown exhibit {req}"));
        };
        for step in found {
            if !steps.contains(&step) {
                steps.push(step);
            }
        }
    }
    let rows: Vec<usize> = steps
        .iter()
        .filter_map(|s| match *s {
            Step::Exhibit(i) => Some(i),
            _ => None,
        })
        .collect();
    steps.retain(|s| match *s {
        Step::Exhibit(i) => !rows
            .iter()
            .any(|&j| j != i && EXHIBITS[j].names.contains(&EXHIBITS[i].names[0])),
        _ => true,
    });
    Ok(steps)
}

// ---------------------------------------------------------------- Helpers

/// A rendered exhibit: the table plus where its CSV landed.
#[derive(Debug)]
pub struct ExhibitOutput {
    /// Exhibit id, e.g. `fig5`.
    pub name: &'static str,
    /// The series/rows the paper plots.
    pub table: AsciiTable,
}

/// Print `table` as exhibit `name` and write it to `<out>/<name>.csv`.
pub(crate) fn emit(cfg: &ExpConfig, name: &'static str, table: AsciiTable) -> ExhibitOutput {
    let path = cfg.out_dir.join(format!("{name}.csv"));
    table
        .write_csv(&path)
        .unwrap_or_else(|e| eprintln!("warning: could not write {path:?}: {e}"));
    println!("== {name} ==\n{}", table.render());
    ExhibitOutput { name, table }
}

/// A table whose first column is `first` and then one column per policy.
fn policy_columns(first: &str, policies: &[PolicyKind]) -> AsciiTable {
    AsciiTable::new(
        [first]
            .into_iter()
            .chain(policies.iter().map(|p| p.name()))
            .collect(),
    )
}

/// The `conserved` column: `yes` when every run accounts for each per-query
/// work unit. Each source arrival fans out to one unit per registered
/// query, and each such unit must end the run as exactly one of emitted,
/// dropped, shed, expired (missed its deadline), or still pending (queued
/// or quarantined after an operator failure — both are folded into
/// `pending_end`).
fn conserved(cfg: &ExpConfig, runs: &[&SimReport]) -> String {
    yes_no(runs.iter().all(|r| {
        r.emitted + r.dropped + r.shed + r.expired + r.pending_end as u64
            == r.arrivals * cfg.queries as u64
    }))
}

fn yes_no(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.to_string()
}

// ---------------------------------------------------------------- Table 1

/// The four Table 1 numbers `(HR response, HR slowdown, HNR response, HNR
/// slowdown)` in milliseconds/ratios — used by the scorecard.
pub fn table1_values() -> (f64, f64, f64, f64) {
    let hr = run_example1(PolicyKind::Hr);
    let hnr = run_example1(PolicyKind::Hnr);
    (
        hr.qos.avg_response_ms,
        hr.qos.avg_slowdown,
        hnr.qos.avg_response_ms,
        hnr.qos.avg_slowdown,
    )
}

/// Table 1 (§3.4, Example 1): HR vs HNR on the two-query example. Exact.
pub fn table1(cfg: &ExpConfig) -> ExhibitOutput {
    let mut t = AsciiTable::new(vec!["policy", "response_ms", "slowdown"]);
    for kind in [PolicyKind::Hr, PolicyKind::Hnr] {
        let r = run_example1(kind);
        t.row(vec![
            kind.name().to_string(),
            fnum(r.qos.avg_response_ms),
            fnum(r.qos.avg_slowdown),
        ]);
    }
    emit(cfg, "table1", t)
}

fn run_example1(kind: PolicyKind) -> SimReport {
    fn key_of(seed: u64, id: u64) -> u64 {
        det::unit_range(det::splitmix64(det::mix2(seed, id)), 1, 100)
    }
    // Example 1 needs exactly the middle tuple to pass Q2's 0.33-selective
    // predicate (`key ≤ 33`).
    let seed = (0..10_000u64)
        .find(|&s| key_of(s, 0) > 33 && key_of(s, 1) <= 33 && key_of(s, 2) > 33)
        .expect("suitable seed");
    let run = |kind: PolicyKind| -> SimReport {
        let mut plan = GlobalPlan::default();
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(Nanos::from_millis(5), 1.0)
                .build()
                .unwrap(),
        );
        plan.add_query(
            QueryBuilder::on(StreamId::new(0))
                .select(Nanos::from_millis(2), 0.33)
                .build()
                .unwrap(),
        );
        let trace = TraceReplay::from_arrivals(vec![Nanos::ZERO; 3]).unwrap();
        simulate(
            &plan,
            &StreamRates::none(),
            vec![Box::new(trace)],
            kind.build(),
            SimConfig::new(3).with_seed(seed),
        )
        .unwrap()
    };
    run(kind)
}

// ----------------------------------------------------------- Figures 5–10

/// Figures 5–10 share one policy × utilization sweep; regenerate them all
/// (and Figure 11, which reads the sweep's 0.9 cells).
pub fn fig5_to_10(cfg: &ExpConfig) -> Vec<ExhibitOutput> {
    println!(
        "running policy x load sweep ({} queries, {} arrivals per cell)...",
        cfg.queries, cfg.arrivals
    );
    let sweep = SweepResults::collect(cfg, |msg| println!("{msg}"));
    let series = |name: &'static str,
                  policies: &[PolicyKind],
                  metric: fn(&SimReport) -> f64|
     -> ExhibitOutput {
        let mut t = policy_columns("utilization", policies);
        for &util in &ExpConfig::UTILIZATIONS {
            let mut row = vec![format!("{util:.2}")];
            for &p in policies {
                row.push(fnum(metric(sweep.get(p, util))));
            }
            t.row(row);
        }
        // Terminal sketch of the figure (log-y; series letters per policy).
        let mut chart = Chart::new(
            format!("{name} (log y)"),
            ExpConfig::UTILIZATIONS
                .iter()
                .map(|u| format!("{u:.2}"))
                .collect(),
        );
        for &p in policies {
            chart = chart.series(
                p.name(),
                ExpConfig::UTILIZATIONS
                    .iter()
                    .map(|&u| metric(sweep.get(p, u)))
                    .collect(),
            );
        }
        let out = emit(cfg, name, t);
        println!("{}", chart.render(12));
        out
    };

    let avg_sd = |r: &SimReport| r.qos.avg_slowdown;
    let avg_rt = |r: &SimReport| r.qos.avg_response_ms;
    let max_sd = |r: &SimReport| r.qos.max_slowdown;
    let l2 = |r: &SimReport| r.qos.l2_slowdown;

    let classic = [
        PolicyKind::RoundRobin,
        PolicyKind::Fcfs,
        PolicyKind::Srpt,
        PolicyKind::Hr,
        PolicyKind::Hnr,
    ];
    let slowdown_trio = [PolicyKind::Hnr, PolicyKind::Lsf, PolicyKind::Bsd];

    vec![
        series("fig5", &classic, avg_sd),
        series("fig6", &classic, avg_rt),
        series(
            "fig7",
            &[PolicyKind::Hr, PolicyKind::Hnr, PolicyKind::Lsf],
            max_sd,
        ),
        series("fig8", &slowdown_trio, max_sd),
        series("fig9", &slowdown_trio, avg_sd),
        series("fig10", &slowdown_trio, l2),
        fig11_table(cfg, &FIG11_POLICIES.map(|p| sweep.get(p, 0.9))),
    ]
}

/// Figure 11's three policies, in column order.
const FIG11_POLICIES: [PolicyKind; 3] = [PolicyKind::Hr, PolicyKind::Hnr, PolicyKind::Bsd];

/// Figure 11: per-class slowdown of the low-cost queries (cost class 0) by
/// selectivity bucket, at 0.9 utilization. `reports` are the 0.9 cells of
/// [`FIG11_POLICIES`], in that order.
fn fig11_table(cfg: &ExpConfig, reports: &[&SimReport]) -> ExhibitOutput {
    let mut t = policy_columns("selectivity", &FIG11_POLICIES);
    for bucket in 0..10u8 {
        let mut row = vec![format!("{:.2}", 0.05 + 0.1 * f64::from(bucket))];
        let mut any = false;
        for r in reports {
            let cell = r
                .classes
                .by_cost_class(0)
                .into_iter()
                .find(|(b, _)| *b == bucket)
                .map(|(_, s)| {
                    any = true;
                    fnum(s.avg_slowdown)
                })
                .unwrap_or_else(|| "-".into());
            row.push(cell);
        }
        if any {
            t.row(row);
        }
    }
    emit(cfg, "fig11", t)
}

/// Figure 11 standalone entry point (runs just the three needed cells).
pub fn fig11(cfg: &ExpConfig) -> ExhibitOutput {
    let reports = run_cells(cfg, "fig11", &FIG11_POLICIES, |&p| cfg.run_single(0.9, p));
    fig11_table(cfg, &reports.iter().collect::<Vec<_>>())
}

// -------------------------------------------------------------- Figure 12

/// One Figure 12 cell: the §8 multi-stream (window-join) workload at
/// `utilization` under `kind`. The scorecard's `fig12` claim runs it too.
pub(crate) fn fig12_cell(cfg: &ExpConfig, utilization: f64, kind: PolicyKind) -> SimReport {
    // Window joins fan out; scale the population down and the inter-arrival
    // up so window occupancies stay in the paper's regime.
    let mean_gap = Nanos::from_millis(500);
    let w = multi_stream(&MultiStreamConfig {
        queries: (cfg.queries / 3).max(10),
        cost_classes: 5,
        utilization,
        mean_gap,
        window_range: (Nanos::from_secs(1), Nanos::from_secs(10)),
        seed: cfg.seed,
    })
    .expect("valid multi-stream config");
    let sources: Vec<Box<dyn ArrivalSource>> = vec![
        Box::new(PoissonSource::new(mean_gap, cfg.seed ^ 0xA)),
        Box::new(PoissonSource::new(mean_gap, cfg.seed ^ 0xB)),
    ];
    simulate(
        &w.plan,
        &w.rates,
        sources,
        kind.build(),
        SimConfig::new(cfg.arrivals).with_seed(cfg.seed),
    )
    .expect("valid simulation")
}

/// Figure 12: ℓ2 norm of slowdowns for multi-stream (window-join) queries.
pub fn fig12(cfg: &ExpConfig) -> ExhibitOutput {
    let policies = [
        PolicyKind::Fcfs,
        PolicyKind::RoundRobin,
        PolicyKind::Hnr,
        PolicyKind::Bsd,
    ];
    let utils = [0.5, 0.6, 0.7, 0.8, 0.9];
    // One cell per (utilization, policy); each job rebuilds its (fully
    // deterministic) workload so cells stay independent.
    let cells: Vec<(f64, PolicyKind)> = utils
        .iter()
        .flat_map(|&u| policies.map(|p| (u, p)))
        .collect();
    let l2s = run_cells(cfg, "fig12", &cells, |&(util, p)| {
        fig12_cell(cfg, util, p).qos.l2_slowdown
    });
    let mut t = policy_columns("utilization", &policies);
    for (util, row_l2s) in utils.iter().zip(l2s.chunks(policies.len())) {
        let mut row = vec![format!("{util:.2}")];
        row.extend(row_l2s.iter().map(|&v| fnum(v)));
        t.row(row);
    }
    emit(cfg, "fig12", t)
}

// -------------------------------------------------------------- Figure 13

/// Figure 13: ℓ2 vs number of clusters at 0.95 utilization, with scheduling
/// overhead charged at the cheapest operator's cost.
pub fn fig13(cfg: &ExpConfig) -> ExhibitOutput {
    let ms = [2, 4, 6, 8, 10, 12, 16, 24, 32];
    // (policy, charge overhead): the HNR reference, hypothetical (free)
    // BSD, then uniform and logarithmic clustering per m.
    let mut cells = vec![(PolicyKind::Hnr, true), (PolicyKind::Bsd, false)];
    for m in ms {
        cells.push((PolicyKind::Clustered(ClusterConfig::uniform(m)), true));
        cells.push((PolicyKind::Clustered(ClusterConfig::logarithmic(m)), true));
    }
    let l2s = run_cells(cfg, "fig13", &cells, |&(kind, charge)| {
        let r = cfg.run_single_with(0.95, kind, |c| c.with_overhead(charge));
        r.qos.l2_slowdown
    });
    let mut t = AsciiTable::new(vec![
        "clusters",
        "HNR",
        "BSD-Hypothetical",
        "BSD-Uniform",
        "BSD-Logarithmic",
    ]);
    for (m, pair) in ms.iter().zip(l2s[2..].chunks(2)) {
        t.row(vec![
            m.to_string(),
            fnum(l2s[0]),
            fnum(l2s[1]),
            fnum(pair[0]),
            fnum(pair[1]),
        ]);
    }
    emit(cfg, "fig13", t)
}

// -------------------------------------------------------------- Figure 14

/// Figure 14: incremental implementation gains of the §6 techniques at
/// m = 12 logarithmic clusters, 0.95 utilization.
pub fn fig14(cfg: &ExpConfig) -> ExhibitOutput {
    let log12 = ClusterConfig::logarithmic(12);
    let variants = [
        ("BSD-Naive", PolicyKind::Bsd, true),
        (
            "+Log-Clustering",
            PolicyKind::Clustered(ClusterConfig {
                use_fagin: false,
                batch: false,
                ..log12
            }),
            true,
        ),
        (
            "+FA-Pruning",
            PolicyKind::Clustered(ClusterConfig {
                batch: false,
                ..log12
            }),
            true,
        ),
        ("+Clustered-Processing", PolicyKind::Clustered(log12), true),
        ("BSD-Hypothetical", PolicyKind::Bsd, false),
    ];
    let reports = run_cells(cfg, "fig14", &variants, |&(_, kind, charge)| {
        cfg.run_single_with(0.95, kind, |c| c.with_overhead(charge))
    });
    let mut t = AsciiTable::new(vec![
        "variant",
        "l2_slowdown",
        "ops_per_point",
        "overhead_share",
    ]);
    for ((name, _, _), r) in variants.iter().zip(&reports) {
        let share = r.overhead_time.ratio(r.end_time.max(Nanos(1)));
        t.row(vec![
            name.to_string(),
            fnum(r.qos.l2_slowdown),
            fnum(r.ops_per_sched_point()),
            fnum(share),
        ]);
    }
    emit(cfg, "fig14", t)
}

// --------------------------------------------------------------- Table 2

/// One Table 2 cell: the shared-operator workload (groups of ten queries
/// sharing their select) at 0.9 utilization under `kind`, with `strategy`
/// pricing the shared operators. The scorecard's `table2` claim runs it too.
pub(crate) fn table2_cell(
    cfg: &ExpConfig,
    strategy: SharingStrategy,
    kind: PolicyKind,
) -> SimReport {
    let w = shared(&SharedConfig {
        groups: (cfg.queries / 10).max(3),
        group_size: 10,
        cost_classes: 5,
        utilization: 0.9,
        mean_gap: cfg.mean_gap,
        seed: cfg.seed,
    })
    .expect("valid shared config");
    simulate(
        &w.plan,
        &w.rates,
        vec![cfg.source(0)],
        kind.build(),
        SimConfig::new(cfg.arrivals)
            .with_seed(cfg.seed)
            .with_sharing(strategy),
    )
    .expect("valid simulation")
}

/// Table 2: operator sharing — Max vs Sum vs PDT priorities, measured on
/// the metric each policy optimizes.
pub fn table2(cfg: &ExpConfig) -> ExhibitOutput {
    // One cell per (strategy, policy); row-major by strategy, HNR then BSD.
    let cells: Vec<(SharingStrategy, PolicyKind)> = [
        SharingStrategy::Max,
        SharingStrategy::Sum,
        SharingStrategy::Pdt,
    ]
    .into_iter()
    .flat_map(|s| [PolicyKind::Hnr, PolicyKind::Bsd].map(move |p| (s, p)))
    .collect();
    let values = run_cells(cfg, "table2", &cells, |&(strategy, kind)| {
        let r = table2_cell(cfg, strategy, kind);
        match kind {
            PolicyKind::Hnr => r.qos.avg_slowdown,
            _ => r.qos.l2_slowdown,
        }
    });
    let mut t = AsciiTable::new(vec!["metric", "policy", "Max", "Sum", "PDT"]);
    for (ri, (metric, policy)) in [("avg_slowdown", "HNR"), ("l2_norm", "BSD")]
        .into_iter()
        .enumerate()
    {
        t.row(vec![
            metric.to_string(),
            policy.to_string(),
            fnum(values[ri]),
            fnum(values[2 + ri]),
            fnum(values[4 + ri]),
        ]);
    }
    emit(cfg, "table2", t)
}

// ------------------------------------------------- Extension: memory ablation

/// Extension exhibit (beyond the paper's figures): memory footprint versus
/// QoS across policies, including Chain (Babcock et al., SIGMOD'03 — the
/// memory-optimal policy the paper's Table 3 classifies). Chain should give
/// the lowest time-averaged queue population; the slowdown-oriented policies
/// pay some memory for their QoS.
pub fn ext_memory(cfg: &ExpConfig) -> ExhibitOutput {
    use hcq_core::{Policy, StaticPolicy};
    use hcq_engine::{SchedulingLevel, SimModel};

    let w = cfg.workload(0.9);
    let model = SimModel::build(
        &w.plan,
        &w.rates,
        SchedulingLevel::Query,
        SharingStrategy::Pdt,
    )
    .expect("valid model");
    let chain_priorities = model.chain_priorities();
    // `None` is Chain: its ranks come from the model, so it is the one cell
    // not named by a `PolicyKind`.
    let variants = [
        None,
        Some(PolicyKind::Fcfs),
        Some(PolicyKind::RoundRobin),
        Some(PolicyKind::Hr),
        Some(PolicyKind::Hnr),
        Some(PolicyKind::Bsd),
    ];
    let reports = run_cells(cfg, "ext_memory", &variants, |kind| {
        let policy: Box<dyn Policy> = match kind {
            Some(kind) => kind.build(),
            None => Box::new(StaticPolicy::custom("Chain", chain_priorities.clone())),
        };
        simulate(
            &w.plan,
            &w.rates,
            vec![cfg.source(0)],
            policy,
            SimConfig::new(cfg.arrivals).with_seed(cfg.seed),
        )
        .expect("valid simulation")
    });
    let mut t = AsciiTable::new(vec![
        "policy",
        "avg_pending",
        "peak_pending",
        "avg_slowdown",
        "l2_slowdown",
    ]);
    for (kind, r) in variants.iter().zip(&reports) {
        t.row(vec![
            kind.map_or("Chain", PolicyKind::name).to_string(),
            fnum(r.avg_pending),
            r.peak_pending.to_string(),
            fnum(r.qos.avg_slowdown),
            fnum(r.qos.l2_slowdown),
        ]);
    }
    emit(cfg, "ext_memory", t)
}

// ------------------------------------------------ Extension: the ℓp knob

/// Extension exhibit: the ℓp-norm generalization of BSD. The §4.2.2
/// derivation at exponent `p` gives priority `(S/(C̄·T^p))·W^(p−1)`, which
/// interpolates HNR (p = 1) → BSD (p = 2) → LSF-like (p → ∞). Sweeping `p`
/// shows the single knob trading average slowdown against maximum slowdown.
pub fn ext_lp(cfg: &ExpConfig) -> ExhibitOutput {
    let mut variants = vec![("HNR (=p1)".to_string(), PolicyKind::Hnr)];
    for p in [1.5, 2.0, 3.0, 6.0, 12.0] {
        variants.push((format!("Lp p={p}"), PolicyKind::Lp(p)));
    }
    variants.push(("LSF (~p inf)".into(), PolicyKind::Lsf));
    let reports = run_cells(cfg, "ext_lp", &variants, |&(_, kind)| {
        cfg.run_single(0.95, kind)
    });
    let mut t = AsciiTable::new(vec!["policy", "avg_slowdown", "max_slowdown", "l2_norm"]);
    for ((name, _), r) in variants.iter().zip(&reports) {
        t.row(vec![
            name.clone(),
            fnum(r.qos.avg_slowdown),
            fnum(r.qos.max_slowdown),
            fnum(r.qos.l2_slowdown),
        ]);
    }
    emit(cfg, "ext_lp", t)
}

// ------------------------------------- Extension: scheduling granularity

/// Extension exhibit: query-level (non-preemptive) versus operator-level
/// (preemptive) scheduling points (§6's two levels) for the same policies.
/// Preemption lets a newly arrived high-priority tuple interrupt a long
/// pipeline between operators, at the price of many more scheduling points.
pub fn ext_preemption(cfg: &ExpConfig) -> ExhibitOutput {
    use hcq_engine::SchedulingLevel;
    let cells: Vec<(PolicyKind, &'static str, SchedulingLevel)> =
        [PolicyKind::Hnr, PolicyKind::Bsd, PolicyKind::Lsf]
            .into_iter()
            .flat_map(|kind| {
                [
                    ("query", SchedulingLevel::Query),
                    ("operator", SchedulingLevel::Operator),
                ]
                .map(move |(label, level)| (kind, label, level))
            })
            .collect();
    let reports = run_cells(cfg, "ext_preemption", &cells, |&(kind, _, level)| {
        cfg.run_single_with(0.9, kind, |c| c.with_level(level))
    });
    let mut t = AsciiTable::new(vec![
        "policy",
        "level",
        "avg_slowdown",
        "max_slowdown",
        "sched_points",
    ]);
    for ((kind, label, _), r) in cells.iter().zip(&reports) {
        t.row(vec![
            kind.name().to_string(),
            label.to_string(),
            fnum(r.qos.avg_slowdown),
            fnum(r.qos.max_slowdown),
            r.sched_points.to_string(),
        ]);
    }
    emit(cfg, "ext_preemption", t)
}

// --------------------------------------------------------------- Table 3

/// Table 3: the paper's taxonomy of priority-based CQ scheduling policies,
/// annotated with where each lives in this repository.
pub fn table3(cfg: &ExpConfig) -> ExhibitOutput {
    let mut t = AsciiTable::new(vec![
        "policy",
        "objective",
        "metric",
        "multi_cq",
        "join_cq",
        "implementation",
    ]);
    let rows: [(&str, &str, &str, &str, &str, &str); 9] = [
        (
            "RB",
            "average",
            "response time",
            "no",
            "yes",
            "operator-level HR",
        ),
        (
            "ML",
            "average",
            "response time",
            "no",
            "no",
            "operator-level HR (≈)",
        ),
        (
            "RR",
            "average",
            "response time",
            "yes",
            "no",
            "RoundRobinPolicy",
        ),
        (
            "HR",
            "average",
            "response time",
            "yes",
            "yes",
            "StaticPolicy::hr",
        ),
        (
            "HNR",
            "average",
            "slowdown",
            "yes",
            "yes",
            "StaticPolicy::hnr",
        ),
        ("LSF", "maximum", "slowdown", "yes", "yes", "LsfPolicy"),
        (
            "BSD",
            "l2",
            "slowdown",
            "yes",
            "yes",
            "BsdPolicy / ClusteredBsdPolicy",
        ),
        (
            "Chain",
            "maximum",
            "memory",
            "yes",
            "yes",
            "StaticPolicy::custom + chain_priorities",
        ),
        (
            "FAS",
            "average",
            "freshness",
            "yes",
            "no",
            "not implemented (out of scope)",
        ),
    ];
    for (p, o, m, mc, jc, imp) in rows {
        t.row(vec![p, o, m, mc, jc, imp]);
    }
    emit(cfg, "table3", t)
}

// --------------------------------------------- Extension: overload management

/// Per-unit queue bound used by the overload exhibits. Small enough that
/// past-saturation runs at the default scale actually hit it, large enough
/// that sub-saturation runs rarely do.
const OVERLOAD_CAPACITY: usize = 32;

/// The QoS-shedding watermark for an experiment scale: total pending load
/// (across all queues) of four tuples per registered query.
fn overload_watermark(cfg: &ExpConfig) -> usize {
    cfg.queries * 4
}

/// The single-stream source with seeded burst faults: a 5% chance per
/// arrival of a 12-tuple volley inside one mean gap — instantaneous load
/// far past the calibrated utilization (`ext_faults`, `ext_recovery`).
fn bursty_source(cfg: &ExpConfig) -> Box<dyn ArrivalSource> {
    Box::new(FaultySource::new(
        cfg.source(0),
        FaultSpec::bursts(0.05, 12, cfg.mean_gap, cfg.seed ^ 0xB0),
    ))
}

/// Extension exhibit: overload management. Sweeps utilization from below to
/// well past saturation under the bursty ON/OFF source and compares the
/// three admission modes: `unbounded` (the paper's setting — backlog and
/// slowdown grow without bound past ρ = 1), `droptail` (hard per-queue bound,
/// arrivals discarded blindly), and `qos-shed` (bounded queues plus
/// shedding the tuple with the lowest static `S/(C̄·T)` contribution once
/// total pending load passes the watermark). The `conserved` column checks
/// tuple conservation per cell and is asserted by the CI smoke job.
pub fn ext_overload(cfg: &ExpConfig) -> ExhibitOutput {
    let modes = [
        ("unbounded", AdmissionMode::Unbounded),
        ("droptail", AdmissionMode::DropTail),
        ("qos-shed", AdmissionMode::QosShed),
    ];
    let policies = [
        PolicyKind::Fcfs,
        PolicyKind::Hnr,
        PolicyKind::Lsf,
        PolicyKind::Bsd,
    ];
    let watermark = overload_watermark(cfg);
    let mut cells: Vec<(f64, &str, AdmissionMode, PolicyKind)> = Vec::new();
    for u in [0.9, 1.1, 1.3, 1.5] {
        for (label, mode) in modes {
            for p in policies {
                cells.push((u, label, mode, p));
            }
        }
    }
    let reports = run_cells(cfg, "ext_overload", &cells, |&(util, _, mode, kind)| {
        cfg.run_single_with(util, kind, |c| match mode {
            AdmissionMode::Unbounded => c,
            AdmissionMode::DropTail => c.with_admission(mode, OVERLOAD_CAPACITY),
            AdmissionMode::QosShed => c
                .with_admission(mode, OVERLOAD_CAPACITY)
                .with_watermark(watermark),
        })
    });
    let mut t = AsciiTable::new(vec![
        "utilization",
        "mode",
        "policy",
        "avg_slowdown",
        "shed_fraction",
        "peak_pending",
        "pending_end",
        "overload_share",
        "conserved",
    ]);
    for ((util, label, _, kind), r) in cells.iter().zip(&reports) {
        t.row(vec![
            format!("{util:.2}"),
            label.to_string(),
            kind.name().to_string(),
            fnum(r.qos.avg_slowdown),
            fnum(r.shed_fraction()),
            r.peak_pending.to_string(),
            r.pending_end.to_string(),
            fnum(r.overload_share()),
            conserved(cfg, &[r]),
        ]);
    }
    emit(cfg, "ext_overload", t)
}

// ------------------------------------------------ Extension: fault injection

/// Extension exhibit: robustness under injected faults. Each scenario runs
/// the single-stream workload at 0.9 utilization with QoS-aware shedding
/// armed, and perturbs it one way: `burst` and `stall` inject seeded source
/// faults ([`FaultySource`]); `miscost` runs every operator at a persistent,
/// seeded multiple of its calibrated cost (actual cost ≠ C̄ₓ), so the
/// policies schedule on misestimates. Conservation must hold in every cell
/// and nothing may panic — overload is absorbed by shedding instead.
pub fn ext_faults(cfg: &ExpConfig) -> ExhibitOutput {
    let scenarios = ["baseline", "burst", "stall", "miscost"];
    let policies = [PolicyKind::Fcfs, PolicyKind::Hnr, PolicyKind::Bsd];
    let watermark = overload_watermark(cfg);
    let cells: Vec<(&str, PolicyKind)> = scenarios
        .iter()
        .flat_map(|&s| policies.map(|p| (s, p)))
        .collect();
    let reports = run_cells(cfg, "ext_faults", &cells, |&(scenario, kind)| {
        let w = cfg.workload(0.9);
        let mut sim_cfg = SimConfig::new(cfg.arrivals)
            .with_seed(cfg.seed)
            .with_admission(AdmissionMode::QosShed, OVERLOAD_CAPACITY)
            .with_watermark(watermark);
        if scenario == "miscost" {
            sim_cfg = sim_cfg.with_cost_miscalibration(0.3, cfg.seed ^ 0xFA);
        }
        let source: Box<dyn ArrivalSource> = match scenario {
            "burst" => bursty_source(cfg),
            // A 1% chance per arrival that the source lags by 50 mean gaps.
            "stall" => Box::new(FaultySource::new(
                cfg.source(0),
                FaultSpec::stalls(0.01, cfg.mean_gap.scale(50.0), cfg.seed ^ 0x57),
            )),
            _ => cfg.source(0),
        };
        simulate(&w.plan, &w.rates, vec![source], kind.build(), sim_cfg).unwrap_or_else(|e| {
            panic!(
                "simulating fault scenario '{scenario}' (seed={}): {e}",
                cfg.seed
            )
        })
    });
    let mut t = AsciiTable::new(vec![
        "scenario",
        "policy",
        "avg_slowdown",
        "max_slowdown",
        "shed_fraction",
        "peak_pending",
        "overload_share",
        "conserved",
    ]);
    for ((scenario, kind), r) in cells.iter().zip(&reports) {
        t.row(vec![
            scenario.to_string(),
            kind.name().to_string(),
            fnum(r.qos.avg_slowdown),
            fnum(r.qos.max_slowdown),
            fnum(r.shed_fraction()),
            r.peak_pending.to_string(),
            fnum(r.overload_share()),
            conserved(cfg, &[r]),
        ]);
    }
    emit(cfg, "ext_faults", t)
}

// ------------------------------------------ Extension: transient dynamics

/// Deterministic ON/OFF burst schedule: each cycle of [`BURST_PER_CYCLE`]
/// arrivals lands in the first fifth of a `BURST_PER_CYCLE · mean_gap`
/// span (5× the calibrated rate), followed by four fifths of silence. The
/// average rate over a cycle equals `1/mean_gap`, so the workload's
/// utilization calibration still describes the long-run load while the ON
/// phase runs well past saturation.
const BURST_PER_CYCLE: u64 = 100;

fn burst_arrivals(arrivals: u64, mean_gap: Nanos) -> Vec<Nanos> {
    let on_gap = Nanos(mean_gap.as_nanos() / 5);
    let cycle = mean_gap * BURST_PER_CYCLE;
    (0..arrivals)
        .map(|i| cycle * (i / BURST_PER_CYCLE) + on_gap * (i % BURST_PER_CYCLE))
        .collect()
}

/// A monitored run's report and its telemetry snapshots.
type Monitored = (SimReport, Vec<TelemetrySnapshot>);

/// The window table of `ext_transient` and `ext_recovery`. Rows are
/// telemetry window boundaries; per labelled run, `<label>_pending` is the
/// backlog gauge at the boundary and `<label>_p95` the 95th-percentile
/// slowdown of the emissions in the window ending there (`-` once that run
/// has finished). The final end-of-run snapshot can coincide with a
/// boundary whose sample was already taken — its summary window is then
/// empty, so the first (boundary-stamped) sample wins.
fn timeline(window: Nanos, labels: &[String], runs: &[Monitored]) -> AsciiTable {
    let per_run: Vec<BTreeMap<u64, (f64, f64)>> = runs
        .iter()
        .map(|(_, samples)| {
            let mut map = BTreeMap::new();
            for s in samples {
                if s.at.as_nanos() % window.as_nanos() == 0 {
                    let pending = s.gauge("hcq_pending_tuples").expect("registered gauge");
                    let p95 = s.summary("hcq_slowdown").expect("registered summary").p95;
                    map.entry(s.at.as_nanos()).or_insert((pending, p95));
                }
            }
            map
        })
        .collect();
    let boundaries: BTreeSet<u64> = per_run.iter().flat_map(|m| m.keys().copied()).collect();
    let mut columns = vec!["window_end_ms".to_string()];
    for label in labels {
        columns.push(format!("{label}_pending"));
        columns.push(format!("{label}_p95"));
    }
    let mut t = AsciiTable::new(columns);
    for at in &boundaries {
        let mut row = vec![(at / 1_000_000).to_string()];
        for m in &per_run {
            match m.get(at) {
                Some(&(pending, p95)) => row.extend([(pending as u64).to_string(), fnum(p95)]),
                None => row.extend(["-".to_string(), "-".to_string()]),
            }
        }
        t.row(row);
    }
    t
}

/// Extension exhibit: transient dynamics through an ON/OFF burst cycle,
/// rendered from sampled telemetry. Each policy runs the §8 workload at
/// 0.85 average utilization against the deterministic burst schedule with
/// telemetry sampled once per ON span (one fifth of a cycle), so every
/// cycle contributes five windows: the burst peak and four drain windows
/// (one `timeline` column pair per policy). The companion
/// `ext_transient_totals` table carries per-policy run totals with the
/// tuple-conservation check CI asserts on.
pub fn ext_transient(cfg: &ExpConfig) -> Vec<ExhibitOutput> {
    let policies = [PolicyKind::Hnr, PolicyKind::Lsf, PolicyKind::Bsd];
    let window = cfg.mean_gap * (BURST_PER_CYCLE / 5);
    let runs = run_cells(cfg, "ext_transient", &policies, |&kind| {
        let w = cfg.workload(0.85);
        let arrivals = burst_arrivals(cfg.arrivals, cfg.mean_gap);
        let replay = TraceReplay::from_arrivals(arrivals).expect("ordered arrivals");
        let sim_cfg = SimConfig::new(cfg.arrivals)
            .with_seed(cfg.seed)
            .with_telemetry_cadence(window);
        let (report, sink) = simulate_monitored(
            &w.plan,
            &w.rates,
            vec![Box::new(replay)],
            kind.build(),
            sim_cfg,
            VecTelemetry::new(),
        )
        .unwrap_or_else(|e| {
            panic!(
                "simulating transient workload ({}, seed={}): {e}",
                kind.name(),
                cfg.seed
            )
        });
        (report, sink.samples)
    });
    let mut totals = AsciiTable::new(vec![
        "policy",
        "arrivals",
        "emitted",
        "dropped",
        "shed",
        "pending_end",
        "peak_pending",
        "conserved",
    ]);
    for (p, (r, _)) in policies.iter().zip(&runs) {
        totals.row(vec![
            p.name().to_string(),
            r.arrivals.to_string(),
            r.emitted.to_string(),
            r.dropped.to_string(),
            r.shed.to_string(),
            r.pending_end.to_string(),
            r.peak_pending.to_string(),
            conserved(cfg, &[r]),
        ]);
    }
    let labels = policies.map(|p| p.name().to_string());
    vec![
        emit(cfg, "ext_transient", timeline(window, &labels, &runs)),
        emit(cfg, "ext_transient_totals", totals),
    ]
}

// --------------------------------------- Extension: graceful degradation

/// Extension exhibit: closed-loop recovery through injected fault episodes.
///
/// Three scenarios perturb the §8 single-stream workload at 0.9 utilization:
/// `burst` (seeded arrival volleys far past the calibrated rate),
/// `disconnect` (the source drops out and reconnects with exponential
/// backoff, losing arrivals while down), and `quarantine` (transient
/// operator failures park tuples for a cooldown before retrying). Each runs
/// twice — `static` keeps the paper's unbounded admission, `governed` arms
/// the [`ExpConfig::governed`] feedback loop — under windowed telemetry.
///
/// `ext_recovery` plots the backlog gauge and windowed p95 slowdown per
/// (scenario, mode) column (`timeline`): the governed runs should shed
/// through each episode and return to their pre-fault p95 band instead of
/// compounding backlog. `ext_recovery_totals` carries run totals (expired,
/// operator failures, governor transitions) with the conservation check
/// the CI smoke job greps for.
pub fn ext_recovery(cfg: &ExpConfig) -> Vec<ExhibitOutput> {
    let window = cfg.mean_gap * (BURST_PER_CYCLE / 5);
    let cells: Vec<(&str, bool)> = ["burst", "disconnect", "quarantine"]
        .into_iter()
        .flat_map(|s| [false, true].map(move |governed| (s, governed)))
        .collect();
    let runs = run_cells(cfg, "ext_recovery", &cells, |&(scenario, governed)| {
        let w = cfg.workload(0.9);
        let mut sim_cfg = SimConfig::new(cfg.arrivals)
            .with_seed(cfg.seed)
            .with_telemetry_cadence(window);
        if scenario == "quarantine" {
            sim_cfg = sim_cfg.with_op_failures(0.15, cfg.mean_gap * 4, 2);
        }
        if governed {
            sim_cfg = cfg.governed(sim_cfg);
        }
        let source: Box<dyn ArrivalSource> = match scenario {
            "burst" => bursty_source(cfg),
            // A 1% chance per arrival that the feed drops; reconnection
            // backs off exponentially and only lands with probability 0.7
            // per attempt, so downtime windows vary in length.
            "disconnect" => Box::new(DisconnectSource::new(
                cfg.source(0),
                DisconnectSpec {
                    disconnect_prob: 0.01,
                    retry_base: cfg.mean_gap * 10,
                    retry_factor: 2.0,
                    retry_jitter: 0.25,
                    max_retries: 6,
                    reconnect_prob: 0.7,
                    seed: cfg.seed ^ 0xD15C,
                },
            )),
            _ => cfg.source(0),
        };
        let (report, sink) = simulate_monitored(
            &w.plan,
            &w.rates,
            vec![source],
            PolicyKind::Hnr.build(),
            sim_cfg,
            VecTelemetry::new(),
        )
        .unwrap_or_else(|e| {
            panic!(
                "simulating recovery scenario '{scenario}' (governed={governed}, seed={}): {e}",
                cfg.seed
            )
        });
        (report, sink.samples)
    });
    let regime_name = |governed: bool| if governed { "gov" } else { "static" };
    let mut totals = AsciiTable::new(vec![
        "scenario",
        "mode",
        "emitted",
        "dropped",
        "shed",
        "expired",
        "pending_end",
        "peak_pending",
        "op_failures",
        "disconnects",
        "lost_arrivals",
        "transitions",
        "avg_slowdown",
        "max_slowdown",
        "conserved",
    ]);
    for (&(scenario, governed), (r, _)) in cells.iter().zip(&runs) {
        totals.row(vec![
            scenario.to_string(),
            regime_name(governed).to_string(),
            r.emitted.to_string(),
            r.dropped.to_string(),
            r.shed.to_string(),
            r.expired.to_string(),
            r.pending_end.to_string(),
            r.peak_pending.to_string(),
            r.op_failures.to_string(),
            r.source_disconnects.to_string(),
            r.source_lost_arrivals.to_string(),
            r.governor_transitions.to_string(),
            fnum(r.qos.avg_slowdown),
            fnum(r.qos.max_slowdown),
            conserved(cfg, &[r]),
        ]);
    }
    let labels: Vec<String> = cells
        .iter()
        .map(|&(scenario, governed)| format!("{scenario}_{}", regime_name(governed)))
        .collect();
    vec![
        emit(cfg, "ext_recovery", timeline(window, &labels, &runs)),
        emit(cfg, "ext_recovery_totals", totals),
    ]
}

// ------------------------------------------- Extension: seed sensitivity

/// Extension exhibit: robustness of the headline orderings across workload
/// seeds. Each row is an independent draw of the §8 workload (parameters
/// *and* arrivals); the orderings the paper reports should hold for every
/// seed, not just a lucky one.
pub fn ext_seeds(cfg: &ExpConfig) -> ExhibitOutput {
    let policies = [
        PolicyKind::Hnr,
        PolicyKind::Hr,
        PolicyKind::Lsf,
        PolicyKind::Bsd,
        PolicyKind::Fcfs,
    ];
    let seeds: Vec<u64> = (0..5u64).map(|s| cfg.seed.wrapping_add(s * 7919)).collect();
    // One cell per (seed, policy): 25 independent simulations.
    let cells: Vec<(u64, PolicyKind)> = seeds
        .iter()
        .flat_map(|&seed| policies.map(|p| (seed, p)))
        .collect();
    let reports = run_cells(cfg, "ext_seeds", &cells, |&(seed, kind)| {
        let seeded = ExpConfig {
            seed,
            ..cfg.clone()
        };
        seeded.run_single(0.9, kind)
    });
    let mut t = AsciiTable::new(vec![
        "seed",
        "hnr_best_avg",
        "hr_best_resp",
        "lsf_best_max",
        "bsd_best_l2",
    ]);
    for (seed, by) in seeds.iter().zip(reports.chunks(policies.len())) {
        let (hnr, hr, lsf, bsd, fcfs) =
            (&by[0].qos, &by[1].qos, &by[2].qos, &by[3].qos, &by[4].qos);
        t.row(vec![
            seed.to_string(),
            yes_no(hnr.avg_slowdown < hr.avg_slowdown && hnr.avg_slowdown < fcfs.avg_slowdown),
            yes_no(hr.avg_response_ms <= hnr.avg_response_ms),
            yes_no(lsf.max_slowdown < hnr.max_slowdown && lsf.max_slowdown < bsd.max_slowdown),
            yes_no(bsd.l2_slowdown < hnr.l2_slowdown && bsd.l2_slowdown < lsf.l2_slowdown),
        ]);
    }
    emit(cfg, "ext_seeds", t)
}

// ---------------------------------------- Extension: scheduler overhead

/// Extension exhibit: the §6 scheduler-cost comparison, measured in exact
/// operation counts instead of wall time. Sweeps the number of registered
/// queries `q` and runs four BSD implementations at 0.95 utilization:
/// the exact `O(q)` argmax scan, uniform and logarithmic Φ-clustering
/// (`m = 12` clusters), and logarithmic clustering with Fagin top-1
/// pruning. Columns report average priority evaluations and average total
/// scheduler work (scans + evals + comparisons + cluster + heap ops) per
/// scheduling point, from [`SimReport::overhead`] — deterministic and
/// machine-independent. The exact scan's evals/point grows ~linearly with
/// `q`; the clustered variants stay bounded by the cluster count.
pub fn ext_overhead(cfg: &ExpConfig) -> ExhibitOutput {
    let mut qs: Vec<usize> = [
        cfg.queries / 4,
        cfg.queries / 2,
        cfg.queries,
        cfg.queries * 2,
    ]
    .into_iter()
    .map(|q| q.max(5))
    .collect();
    qs.dedup();
    // Exact, uniform, logarithmic, logarithmic + Fagin; no batching.
    let unbatched = |config: ClusterConfig| {
        PolicyKind::Clustered(ClusterConfig {
            batch: false,
            ..config
        })
    };
    let variants = [
        PolicyKind::Bsd,
        unbatched(ClusterConfig {
            use_fagin: false,
            ..ClusterConfig::uniform(12)
        }),
        unbatched(ClusterConfig {
            use_fagin: false,
            ..ClusterConfig::logarithmic(12)
        }),
        unbatched(ClusterConfig::logarithmic(12)),
    ];
    // One cell per (q, variant); counters don't need long runs, so the
    // per-cell arrivals are capped.
    let cells: Vec<(usize, usize)> = qs
        .iter()
        .flat_map(|&q| (0..variants.len()).map(move |v| (q, v)))
        .collect();
    let reports = run_cells(cfg, "ext_overhead", &cells, |&(q, v)| {
        let scaled = ExpConfig {
            queries: q,
            arrivals: cfg.arrivals.min(1_000),
            ..cfg.clone()
        };
        scaled.run_single(0.95, variants[v])
    });
    let mut t = AsciiTable::new(vec![
        "queries",
        "exact_evals",
        "uniform_evals",
        "log_evals",
        "fagin_evals",
        "exact_work",
        "uniform_work",
        "log_work",
        "fagin_work",
    ]);
    for (q, by) in qs.iter().zip(reports.chunks(variants.len())) {
        let mut row = vec![q.to_string()];
        row.extend(by.iter().map(|r| fnum(r.evals_per_sched_point())));
        row.extend(by.iter().map(|r| fnum(r.overhead.work_per_point())));
        t.row(row);
    }
    emit(cfg, "ext_overhead", t)
}

// ---------------------------------------------- Extension: large-q sweep

/// Extension exhibit: the large-q scheduling-point sweep from
/// [`hcq_bench::large_q`] as a table/CSV — the exact O(q) BSD scan against
/// the incrementally-maintained clustered variants at q up to `max_q`
/// (capped at 10⁶). Cells run serially in deterministic order; the op
/// counts, byte footprints and selection digests are pure functions of the
/// fixture, so the CSV is byte-identical across hosts and `--jobs` values —
/// the digest column is what the CI smoke compares between job counts.
pub fn ext_large_q(cfg: &ExpConfig, max_q: usize) -> ExhibitOutput {
    let mut t = AsciiTable::new(vec![
        "policy",
        "q",
        "points",
        "ns_per_point",
        "evals_per_point",
        "work_per_point",
        "bytes_per_query",
        "digest",
    ]);
    let total = hcq_bench::large_q::QS
        .iter()
        .filter(|&&q| q <= max_q)
        .count()
        * hcq_bench::large_q::variants().len();
    let done = AtomicUsize::new(0);
    let cells = hcq_bench::large_q::sweep(max_q, |_| {
        print_tick(&done, total, "ext_large_q");
    });
    for c in &cells {
        t.row(vec![
            c.policy.to_string(),
            c.q.to_string(),
            c.points.to_string(),
            fnum(c.ns_per_point),
            fnum(c.evals_per_point),
            fnum(c.work_per_point),
            fnum(c.bytes_per_query),
            c.digest.clone(),
        ]);
    }
    emit(cfg, "ext_large_q", t)
}

// ------------------------------------------- Extension: adaptive statistics

/// Extension exhibit: closing the miscalibration gap online (ROADMAP item
/// 3). Every operator's actual cost runs at a persistent, seeded multiple
/// of its calibrated C̄ₓ (the ext_faults `miscost` fault at 3×), so a
/// static policy schedules on statics that are wrong for the whole run.
/// Three runs per (utilization × policy) cell:
///
/// * `stale` — the miscalibrated run, statics never corrected; an inert
///   windowed probe (publish off, cadence beyond the horizon) harvests the
///   observed per-unit means without touching a single decision;
/// * `adaptive` — the same run with batch-mean EWMA re-estimation
///   publishing corrected statics at every cadence;
/// * `oracle` — the same run with the probe's harvested statics installed
///   before the first arrival: the best any online estimator could reach.
///
/// `recovery` is the share of the stale → oracle QoS gap (average
/// slowdown) the adaptive run closes; the CI adaptive-smoke job gates
/// clustered BSD at ≥ 0.5 in every cell. The exhibit ignores `--govern`:
/// all three runs must differ only in estimation.
pub fn ext_adaptive(cfg: &ExpConfig) -> ExhibitOutput {
    const MISCALIBRATION: f64 = 3.0;
    let log = |m| PolicyKind::Clustered(ClusterConfig::logarithmic(m));
    let policies = [
        ("C-BSD-log3", log(3)),
        ("C-BSD-log8", log(8)),
        ("C-BSD-log16", log(16)),
        ("HNR", PolicyKind::Hnr),
    ];
    // The probe never flushes (cadence beyond any horizon) and never
    // publishes; the online config is the tuned batch-mean EWMA.
    let probe = AdaptConfig {
        enabled: true,
        mode: AdaptMode::Windowed,
        alpha: 0.1,
        cadence: Nanos::from_millis(1 << 40),
        min_observations: 2,
        refreeze_factor: 1.5,
        publish: false,
    };
    let online = AdaptConfig {
        mode: AdaptMode::Ewma,
        alpha: 0.05,
        cadence: Nanos::from_millis(200),
        publish: true,
        ..probe
    };

    let cells: Vec<(f64, usize)> = [0.9, 1.1, 1.3]
        .into_iter()
        .flat_map(|u| (0..policies.len()).map(move |p| (u, p)))
        .collect();
    let reports = run_cells(cfg, "ext_adaptive", &cells, |&(util, p)| {
        let kind = policies[p].1;
        let run = |adapt: Option<AdaptConfig>, preapply: Option<&[hcq_core::UnitStatics]>| {
            let w = cfg.workload(util);
            let mut sim_cfg = SimConfig::new(cfg.arrivals)
                .with_seed(cfg.seed)
                .with_cost_miscalibration(MISCALIBRATION, cfg.seed);
            if let Some(a) = adapt {
                sim_cfg = sim_cfg.with_adaptation(a);
            }
            let mut sim = Simulator::new(
                &w.plan,
                &w.rates,
                vec![cfg.source(0)],
                kind.build(),
                sim_cfg,
            )
            .expect("exhibit workloads are valid");
            if let Some(est) = preapply {
                for (u, s) in est.iter().enumerate() {
                    sim.update_unit_statics(u as u32, *s);
                }
            }
            sim.run().expect("built-in policies respect the contract")
        };
        let stale = run(Some(probe), None);
        let adaptive = run(Some(online), None);
        let est = stale
            .estimates
            .clone()
            .expect("the probe harvests estimates");
        let oracle = run(None, Some(&est));
        (stale, adaptive, oracle)
    });

    let mut t = AsciiTable::new(vec![
        "utilization",
        "policy",
        "stale_avg_slowdown",
        "adaptive_avg_slowdown",
        "oracle_avg_slowdown",
        "statics_updates",
        "refreezes",
        "recovery",
        "conserved",
    ]);
    for ((util, p), (stale, adaptive, oracle)) in cells.iter().zip(&reports) {
        let gap = stale.qos.avg_slowdown - oracle.qos.avg_slowdown;
        let recovery = if gap.abs() > f64::EPSILON {
            (stale.qos.avg_slowdown - adaptive.qos.avg_slowdown) / gap
        } else {
            1.0
        };
        t.row(vec![
            format!("{util:.2}"),
            policies[*p].0.to_string(),
            fnum(stale.qos.avg_slowdown),
            fnum(adaptive.qos.avg_slowdown),
            fnum(oracle.qos.avg_slowdown),
            adaptive.statics_updates.to_string(),
            adaptive.domain_refreezes.to_string(),
            fnum(recovery),
            conserved(cfg, &[stale, adaptive, oracle]),
        ]);
    }
    emit(cfg, "ext_adaptive", t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The own names of what `requests` resolves to, in run order.
    fn plan(requests: &[&str]) -> Result<Vec<&'static str>, String> {
        let requests: Vec<String> = requests.iter().map(|r| r.to_string()).collect();
        Ok(resolve(&requests)?
            .into_iter()
            .map(|step| match step {
                Step::Exhibit(i) => EXHIBITS[i].names[0],
                mode => MODES.iter().find(|(_, m)| *m == mode).unwrap().0,
            })
            .collect())
    }

    #[test]
    fn all_expands_in_place_and_keeps_what_follows() {
        // `all` runs in the order it always has: the sweep first, then the
        // rest; the standalone fig11 is inside the sweep.
        let all = [
            "fig5",
            "table1",
            "fig12",
            "fig13",
            "fig14",
            "table2",
            "table3",
            "ext_memory",
            "ext_lp",
            "ext_preemption",
            "ext_seeds",
            "ext_overload",
            "ext_faults",
            "ext_overhead",
            "ext_transient",
            "ext_recovery",
            "ext_adaptive",
            "ext_inspect",
        ];
        assert_eq!(plan(&["all"]).unwrap(), all);
        let mut expected = vec!["monitor"];
        expected.extend(all);
        expected.push("validate");
        assert_eq!(plan(&["monitor", "all", "validate"]).unwrap(), expected);
        // A row named next to `all` still runs once, at its first request.
        assert_eq!(plan(&["table3", "all"]).unwrap()[..2], ["table3", "fig5"]);
    }

    #[test]
    fn an_unknown_name_is_an_error_before_any_run() {
        assert_eq!(
            plan(&["fig5", "fgi12"]),
            Err("unknown exhibit fgi12".to_string())
        );
        assert!(plan(&["all", "validate", "sweep"]).is_err());
        assert!(plan(&["inspect"]).is_err(), "inspect takes a trace first");
        assert_eq!(plan(&[]), Ok(vec![]));
    }

    #[test]
    fn sweep_figures_dedupe_to_one_sweep() {
        let sweep = ["fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"];
        assert_eq!(plan(&sweep).unwrap(), ["fig5"]);
        assert_eq!(plan(&["fig11", "fig9"]).unwrap(), ["fig5"]);
        assert_eq!(plan(&["fig11", "fig12"]).unwrap(), ["fig11", "fig12"]);
        assert_eq!(
            plan(&["fig12", "fig12", "validate", "validate"]).unwrap(),
            ["fig12", "validate"]
        );
    }

    #[test]
    fn registry_names_are_unique() {
        let mut own: Vec<&str> = EXHIBITS.iter().map(|e| e.names[0]).collect();
        own.extend(MODES.map(|(name, _)| name));
        own.extend(["all", "inspect"]);
        for (i, name) in own.iter().enumerate() {
            assert!(!own[..i].contains(name), "{name} is listed twice");
        }
        // Besides the row it names, a name is answered by at most one row
        // (fig11: the sweep that covers it).
        for name in request_names() {
            let others = EXHIBITS
                .iter()
                .filter(|e| e.names[0] != name && e.names.contains(&name))
                .count();
            assert!(others <= 1, "{name} is answered by {others} rows");
        }
    }
}
