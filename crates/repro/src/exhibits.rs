//! One function per table/figure of §9.
//!
//! Every multi-cell exhibit fans its independent `(policy, load, seed, ...)`
//! cells out over [`run_jobs`] with `cfg.jobs` workers. Cells are pure
//! functions of the configuration and rows are assembled from the
//! index-ordered results, so the emitted tables and CSVs are byte-identical
//! at any job count.

use std::sync::atomic::AtomicUsize;

use hcq_common::{det, Nanos, StreamId};
use hcq_core::{ClusterConfig, ClusteredBsdPolicy, Clustering, PolicyKind, SharingStrategy};
use hcq_engine::{
    simulate, simulate_monitored, AdaptConfig, AdaptMode, AdmissionMode, SimConfig, SimReport,
    Simulator, VecTelemetry,
};
use hcq_plan::{GlobalPlan, QueryBuilder, StreamRates};
use hcq_streams::{
    DisconnectSource, DisconnectSpec, FaultSpec, FaultySource, PoissonSource, TraceReplay,
};
use hcq_workload::{multi_stream, shared, MultiStreamConfig, SharedConfig};

use crate::harness::{run_jobs, tick_progress, ExpConfig, SweepResults};
use crate::plot::Chart;
use crate::table::{fnum, AsciiTable};

/// A named policy factory: exhibits that fan variant runs out to worker
/// threads cannot move a prebuilt `Box<dyn Policy>` into a job (policies are
/// not `Send`), so each job builds its own instance from one of these.
type PolicyFactory = Box<dyn Fn() -> Box<dyn hcq_core::Policy> + Sync>;

/// Print one whole `  what: done/total cells done` line per finished cell.
/// Shared by the parallel exhibits below; whole-line writes keyed by a
/// completed-cell counter stay readable when workers finish concurrently.
fn print_tick(done: &AtomicUsize, total: usize, what: &str) {
    tick_progress(&|msg: &str| println!("{msg}"), done, total, what);
}

/// A rendered exhibit: the table plus where its CSV landed.
#[derive(Debug)]
pub struct ExhibitOutput {
    /// Exhibit id, e.g. `fig5`.
    pub name: &'static str,
    /// The series/rows the paper plots.
    pub table: AsciiTable,
}

impl ExhibitOutput {
    pub(crate) fn emit(self, cfg: &ExpConfig) -> ExhibitOutput {
        let path = cfg.out_dir.join(format!("{}.csv", self.name));
        self.table
            .write_csv(&path)
            .unwrap_or_else(|e| eprintln!("warning: could not write {path:?}: {e}"));
        println!("== {} ==\n{}", self.name, self.table.render());
        self
    }
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
    ExhibitOutput {
        name: "table1",
        table: t,
    }
    .emit(cfg)
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

/// Figures 5–10 share one policy × utilization sweep; regenerate them all.
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
        let mut header = vec!["utilization".to_string()];
        header.extend(policies.iter().map(|p| p.name().to_string()));
        let mut t = AsciiTable::new(header);
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
        let out = ExhibitOutput { name, table: t }.emit(cfg);
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
        fig11_from_sweep(cfg, &sweep),
    ]
}

/// Figure 11's three policies, in column order.
const FIG11_POLICIES: [PolicyKind; 3] = [PolicyKind::Hr, PolicyKind::Hnr, PolicyKind::Bsd];

/// Figure 11: per-class slowdown of the low-cost queries (cost class 0) by
/// selectivity bucket, at 0.9 utilization. `reports` are the 0.9 cells of
/// [`FIG11_POLICIES`], in that order.
fn fig11_table(cfg: &ExpConfig, reports: &[&SimReport]) -> ExhibitOutput {
    let mut header = vec!["selectivity".to_string()];
    header.extend(FIG11_POLICIES.iter().map(|p| p.name().to_string()));
    let mut t = AsciiTable::new(header);
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
    ExhibitOutput {
        name: "fig11",
        table: t,
    }
    .emit(cfg)
}

fn fig11_from_sweep(cfg: &ExpConfig, sweep: &SweepResults) -> ExhibitOutput {
    fig11_table(cfg, &FIG11_POLICIES.map(|p| sweep.get(p, 0.9)))
}

/// Figure 11 standalone entry point (runs just the three needed cells).
pub fn fig11(cfg: &ExpConfig) -> ExhibitOutput {
    let done = AtomicUsize::new(0);
    let reports: Vec<SimReport> = run_jobs(cfg.jobs, FIG11_POLICIES.len(), |i| {
        let r = cfg.run_single(0.9, FIG11_POLICIES[i].build());
        print_tick(&done, FIG11_POLICIES.len(), "fig11");
        r
    });
    fig11_table(cfg, &reports.iter().collect::<Vec<_>>())
}

// -------------------------------------------------------------- Figure 12

/// Figure 12: ℓ2 norm of slowdowns for multi-stream (window-join) queries.
pub fn fig12(cfg: &ExpConfig) -> ExhibitOutput {
    let policies = [
        PolicyKind::Fcfs,
        PolicyKind::RoundRobin,
        PolicyKind::Hnr,
        PolicyKind::Bsd,
    ];
    // Window joins fan out; scale the population down and the inter-arrival
    // up so window occupancies stay in the paper's regime.
    let queries = (cfg.queries / 3).max(10);
    let mean_gap = Nanos::from_millis(500);
    let mut header = vec!["utilization".to_string()];
    header.extend(policies.iter().map(|p| p.name().to_string()));
    let mut t = AsciiTable::new(header);
    let utils = [0.5, 0.6, 0.7, 0.8, 0.9];
    // One cell per (utilization, policy); each job rebuilds its (fully
    // deterministic) workload so cells stay independent.
    let cells: Vec<(f64, PolicyKind)> = utils
        .iter()
        .flat_map(|&u| policies.iter().map(move |&p| (u, p)))
        .collect();
    let done = AtomicUsize::new(0);
    let l2s: Vec<f64> = run_jobs(cfg.jobs, cells.len(), |i| {
        let (util, p) = cells[i];
        let w = multi_stream(&MultiStreamConfig {
            queries,
            cost_classes: 5,
            utilization: util,
            mean_gap,
            window_range: (Nanos::from_secs(1), Nanos::from_secs(10)),
            seed: cfg.seed,
        })
        .expect("valid multi-stream config");
        let sources: Vec<Box<dyn hcq_streams::ArrivalSource>> = vec![
            Box::new(PoissonSource::new(mean_gap, cfg.seed ^ 0xA)),
            Box::new(PoissonSource::new(mean_gap, cfg.seed ^ 0xB)),
        ];
        let r = simulate(
            &w.plan,
            &w.rates,
            sources,
            p.build(),
            SimConfig::new(cfg.arrivals).with_seed(cfg.seed),
        )
        .expect("valid simulation");
        print_tick(&done, cells.len(), "fig12");
        r.qos.l2_slowdown
    });
    for (ui, &util) in utils.iter().enumerate() {
        let mut row = vec![format!("{util:.2}")];
        for pi in 0..policies.len() {
            row.push(fnum(l2s[ui * policies.len() + pi]));
        }
        t.row(row);
    }
    ExhibitOutput {
        name: "fig12",
        table: t,
    }
    .emit(cfg)
}

// -------------------------------------------------------------- Figure 13

/// Figure 13: ℓ2 vs number of clusters at 0.95 utilization, with scheduling
/// overhead charged at the cheapest operator's cost.
pub fn fig13(cfg: &ExpConfig) -> ExhibitOutput {
    let util = 0.95;
    let ms: Vec<usize> = vec![2, 4, 6, 8, 10, 12, 16, 24, 32];
    let mut t = AsciiTable::new(vec![
        "clusters",
        "HNR",
        "BSD-Hypothetical",
        "BSD-Uniform",
        "BSD-Logarithmic",
    ]);
    /// One fig13 cell: which run a job performs.
    #[derive(Clone, Copy)]
    enum Cell {
        HnrRef,
        Hypothetical,
        Uniform(usize),
        Logarithmic(usize),
    }
    let mut cells = vec![Cell::HnrRef, Cell::Hypothetical];
    for &m in &ms {
        cells.push(Cell::Uniform(m));
        cells.push(Cell::Logarithmic(m));
    }
    let done = AtomicUsize::new(0);
    let l2s: Vec<f64> = run_jobs(cfg.jobs, cells.len(), |i| {
        let r = match cells[i] {
            Cell::HnrRef => {
                cfg.run_single_with(util, PolicyKind::Hnr.build(), |c| c.with_overhead(true))
            }
            Cell::Hypothetical => cfg.run_single(util, PolicyKind::Bsd.build()),
            Cell::Uniform(m) => cfg.run_single_with(
                util,
                Box::new(ClusteredBsdPolicy::new(ClusterConfig::uniform(m))),
                |c| c.with_overhead(true),
            ),
            Cell::Logarithmic(m) => cfg.run_single_with(
                util,
                Box::new(ClusteredBsdPolicy::new(ClusterConfig::logarithmic(m))),
                |c| c.with_overhead(true),
            ),
        };
        print_tick(&done, cells.len(), "fig13");
        r.qos.l2_slowdown
    });
    let (hnr, hypo) = (l2s[0], l2s[1]);
    for (mi, &m) in ms.iter().enumerate() {
        t.row(vec![
            m.to_string(),
            fnum(hnr),
            fnum(hypo),
            fnum(l2s[2 + 2 * mi]),
            fnum(l2s[3 + 2 * mi]),
        ]);
    }
    ExhibitOutput {
        name: "fig13",
        table: t,
    }
    .emit(cfg)
}

// -------------------------------------------------------------- Figure 14

/// Figure 14: incremental implementation gains of the §6 techniques at
/// m = 12 logarithmic clusters, 0.95 utilization.
pub fn fig14(cfg: &ExpConfig) -> ExhibitOutput {
    let util = 0.95;
    let m = 12;
    let clustered = |use_fagin: bool, batch: bool| -> PolicyFactory {
        Box::new(move || {
            Box::new(ClusteredBsdPolicy::new(ClusterConfig {
                clustering: Clustering::Logarithmic,
                clusters: m,
                use_fagin,
                batch,
            }))
        })
    };
    // Factories, not prebuilt policies: each worker thread builds its own
    // instance (`Box<dyn Policy>` cannot move across threads).
    type Variant = (&'static str, PolicyFactory, bool);
    let variants: Vec<Variant> = vec![
        ("BSD-Naive", Box::new(|| PolicyKind::Bsd.build()), true),
        ("+Log-Clustering", clustered(false, false), true),
        ("+FA-Pruning", clustered(true, false), true),
        ("+Clustered-Processing", clustered(true, true), true),
        (
            "BSD-Hypothetical",
            Box::new(|| PolicyKind::Bsd.build()),
            false,
        ),
    ];
    let mut t = AsciiTable::new(vec![
        "variant",
        "l2_slowdown",
        "ops_per_point",
        "overhead_share",
    ]);
    let done = AtomicUsize::new(0);
    let reports: Vec<SimReport> = run_jobs(cfg.jobs, variants.len(), |i| {
        let (_, factory, charge) = &variants[i];
        let r = cfg.run_single_with(util, factory(), |c| c.with_overhead(*charge));
        print_tick(&done, variants.len(), "fig14");
        r
    });
    for ((name, _, _), r) in variants.iter().zip(&reports) {
        let share = r.overhead_time.ratio(r.end_time.max(Nanos(1)));
        t.row(vec![
            name.to_string(),
            fnum(r.qos.l2_slowdown),
            fnum(r.ops_per_sched_point()),
            fnum(share),
        ]);
    }
    ExhibitOutput {
        name: "fig14",
        table: t,
    }
    .emit(cfg)
}

// --------------------------------------------------------------- Table 2

/// Table 2: operator sharing — Max vs Sum vs PDT priorities, measured on
/// the metric each policy optimizes.
pub fn table2(cfg: &ExpConfig) -> ExhibitOutput {
    let util = 0.9;
    let groups = (cfg.queries / 10).max(3);
    let mut t = AsciiTable::new(vec!["metric", "policy", "Max", "Sum", "PDT"]);
    let build = || {
        shared(&SharedConfig {
            groups,
            group_size: 10,
            cost_classes: 5,
            utilization: util,
            mean_gap: cfg.mean_gap,
            seed: cfg.seed,
        })
        .expect("valid shared config")
    };
    let strategies = [
        SharingStrategy::Max,
        SharingStrategy::Sum,
        SharingStrategy::Pdt,
    ];
    // One cell per (strategy, policy); row-major by strategy, HNR then BSD.
    let cells: Vec<(SharingStrategy, PolicyKind)> = strategies
        .iter()
        .flat_map(|&s| [PolicyKind::Hnr, PolicyKind::Bsd].map(move |p| (s, p)))
        .collect();
    let done = AtomicUsize::new(0);
    let values: Vec<f64> = run_jobs(cfg.jobs, cells.len(), |i| {
        let (strat, kind) = cells[i];
        let w = build();
        let r = simulate(
            &w.plan,
            &w.rates,
            vec![cfg.source(0)],
            kind.build(),
            SimConfig::new(cfg.arrivals)
                .with_seed(cfg.seed)
                .with_sharing(strat),
        )
        .expect("valid simulation");
        print_tick(&done, cells.len(), "table2");
        match kind {
            PolicyKind::Hnr => r.qos.avg_slowdown,
            _ => r.qos.l2_slowdown,
        }
    });
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
    ExhibitOutput {
        name: "table2",
        table: t,
    }
    .emit(cfg)
}

// ------------------------------------------------- Extension: memory ablation

/// Extension exhibit (beyond the paper's figures): memory footprint versus
/// QoS across policies, including Chain (Babcock et al., SIGMOD'03 — the
/// memory-optimal policy the paper's Table 3 classifies). Chain should give
/// the lowest time-averaged queue population; the slowdown-oriented policies
/// pay some memory for their QoS.
pub fn ext_memory(cfg: &ExpConfig) -> ExhibitOutput {
    use hcq_core::StaticPolicy;
    use hcq_engine::{SchedulingLevel, SimModel};

    let util = 0.9;
    let w = cfg.workload(util);
    let model = SimModel::build(
        &w.plan,
        &w.rates,
        SchedulingLevel::Query,
        SharingStrategy::Pdt,
    )
    .expect("valid model");
    let chain_priorities = model.chain_priorities();

    let mut t = AsciiTable::new(vec![
        "policy",
        "avg_pending",
        "peak_pending",
        "avg_slowdown",
        "l2_slowdown",
    ]);
    let variants: Vec<(&'static str, PolicyFactory)> = vec![
        (
            "Chain",
            Box::new(move || Box::new(StaticPolicy::custom("Chain", chain_priorities.clone()))),
        ),
        ("FCFS", Box::new(|| PolicyKind::Fcfs.build())),
        ("RR", Box::new(|| PolicyKind::RoundRobin.build())),
        ("HR", Box::new(|| PolicyKind::Hr.build())),
        ("HNR", Box::new(|| PolicyKind::Hnr.build())),
        ("BSD", Box::new(|| PolicyKind::Bsd.build())),
    ];
    let done = AtomicUsize::new(0);
    let reports: Vec<SimReport> = run_jobs(cfg.jobs, variants.len(), |i| {
        let r = simulate(
            &w.plan,
            &w.rates,
            vec![cfg.source(0)],
            variants[i].1(),
            SimConfig::new(cfg.arrivals).with_seed(cfg.seed),
        )
        .expect("valid simulation");
        print_tick(&done, variants.len(), "ext_memory");
        r
    });
    for ((name, _), r) in variants.iter().zip(&reports) {
        t.row(vec![
            name.to_string(),
            fnum(r.avg_pending),
            r.peak_pending.to_string(),
            fnum(r.qos.avg_slowdown),
            fnum(r.qos.l2_slowdown),
        ]);
    }
    ExhibitOutput {
        name: "ext_memory",
        table: t,
    }
    .emit(cfg)
}

// ------------------------------------------------ Extension: the ℓp knob

/// Extension exhibit: the ℓp-norm generalization of BSD. The §4.2.2
/// derivation at exponent `p` gives priority `(S/(C̄·T^p))·W^(p−1)`, which
/// interpolates HNR (p = 1) → BSD (p = 2) → LSF-like (p → ∞). Sweeping `p`
/// shows the single knob trading average slowdown against maximum slowdown.
pub fn ext_lp(cfg: &ExpConfig) -> ExhibitOutput {
    use hcq_core::LpPolicy;
    let util = 0.95;
    let mut t = AsciiTable::new(vec!["policy", "avg_slowdown", "max_slowdown", "l2_norm"]);
    let mut variants: Vec<(String, PolicyFactory)> =
        vec![("HNR (=p1)".into(), Box::new(|| PolicyKind::Hnr.build()))];
    for p in [1.5, 2.0, 3.0, 6.0, 12.0] {
        variants.push((
            format!("Lp p={p}"),
            Box::new(move || Box::new(LpPolicy::new(p))),
        ));
    }
    variants.push(("LSF (~p inf)".into(), Box::new(|| PolicyKind::Lsf.build())));
    let done = AtomicUsize::new(0);
    let reports: Vec<SimReport> = run_jobs(cfg.jobs, variants.len(), |i| {
        let r = cfg.run_single(util, variants[i].1());
        print_tick(&done, variants.len(), "ext_lp");
        r
    });
    for ((name, _), r) in variants.iter().zip(&reports) {
        t.row(vec![
            name.clone(),
            fnum(r.qos.avg_slowdown),
            fnum(r.qos.max_slowdown),
            fnum(r.qos.l2_slowdown),
        ]);
    }
    ExhibitOutput {
        name: "ext_lp",
        table: t,
    }
    .emit(cfg)
}

// ------------------------------------- Extension: scheduling granularity

/// Extension exhibit: query-level (non-preemptive) versus operator-level
/// (preemptive) scheduling points (§6's two levels) for the same policies.
/// Preemption lets a newly arrived high-priority tuple interrupt a long
/// pipeline between operators, at the price of many more scheduling points.
pub fn ext_preemption(cfg: &ExpConfig) -> ExhibitOutput {
    use hcq_engine::SchedulingLevel;
    let util = 0.9;
    let mut t = AsciiTable::new(vec![
        "policy",
        "level",
        "avg_slowdown",
        "max_slowdown",
        "sched_points",
    ]);
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
    let done = AtomicUsize::new(0);
    let reports: Vec<SimReport> = run_jobs(cfg.jobs, cells.len(), |i| {
        let (kind, _, level) = cells[i];
        let r = cfg.run_single_with(util, kind.build(), |c| c.with_level(level));
        print_tick(&done, cells.len(), "ext_preemption");
        r
    });
    for ((kind, label, _), r) in cells.iter().zip(&reports) {
        t.row(vec![
            kind.name().to_string(),
            label.to_string(),
            fnum(r.qos.avg_slowdown),
            fnum(r.qos.max_slowdown),
            r.sched_points.to_string(),
        ]);
    }
    ExhibitOutput {
        name: "ext_preemption",
        table: t,
    }
    .emit(cfg)
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
    ExhibitOutput {
        name: "table3",
        table: t,
    }
    .emit(cfg)
}

// --------------------------------------------- Extension: overload management

/// True when every per-query work unit is accounted for: each source arrival
/// fans out to one unit per registered query, and each such unit must end the
/// run as exactly one of emitted, dropped, shed, expired (missed its
/// deadline), or still pending (queued or quarantined after an operator
/// failure — both are folded into `pending_end`).
fn conserved(r: &SimReport, queries: usize) -> bool {
    r.emitted + r.dropped + r.shed + r.expired + r.pending_end as u64 == r.arrivals * queries as u64
}

/// Per-unit queue bound used by the overload exhibits. Small enough that
/// past-saturation runs at the default scale actually hit it, large enough
/// that sub-saturation runs rarely do.
const OVERLOAD_CAPACITY: usize = 32;

/// The QoS-shedding watermark for an experiment scale: total pending load
/// (across all queues) of four tuples per registered query.
fn overload_watermark(cfg: &ExpConfig) -> usize {
    cfg.queries * 4
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
    const UTILS: [f64; 4] = [0.9, 1.1, 1.3, 1.5];
    let modes: [(&'static str, AdmissionMode); 3] = [
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
    let mut cells: Vec<(f64, usize, PolicyKind)> = Vec::new();
    for &u in &UTILS {
        for m in 0..modes.len() {
            for &p in &policies {
                cells.push((u, m, p));
            }
        }
    }
    let done = AtomicUsize::new(0);
    let reports: Vec<SimReport> = run_jobs(cfg.jobs, cells.len(), |i| {
        let (util, mode_idx, kind) = cells[i];
        let r = cfg.run_single_with(util, kind.build(), |c| match modes[mode_idx].1 {
            AdmissionMode::Unbounded => c,
            AdmissionMode::DropTail => c.with_admission(AdmissionMode::DropTail, OVERLOAD_CAPACITY),
            AdmissionMode::QosShed => c
                .with_admission(AdmissionMode::QosShed, OVERLOAD_CAPACITY)
                .with_watermark(watermark),
        });
        print_tick(&done, cells.len(), "ext_overload");
        r
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
    for ((util, mode_idx, kind), r) in cells.iter().zip(&reports) {
        t.row(vec![
            format!("{util:.2}"),
            modes[*mode_idx].0.to_string(),
            kind.name().to_string(),
            fnum(r.qos.avg_slowdown),
            fnum(r.shed_fraction()),
            r.peak_pending.to_string(),
            r.pending_end.to_string(),
            fnum(r.overload_share()),
            if conserved(r, cfg.queries) {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    ExhibitOutput {
        name: "ext_overload",
        table: t,
    }
    .emit(cfg)
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
    #[derive(Clone, Copy)]
    enum Scenario {
        Baseline,
        Burst,
        Stall,
        Miscost,
    }
    let util = 0.9;
    let scenarios: [(&'static str, Scenario); 4] = [
        ("baseline", Scenario::Baseline),
        ("burst", Scenario::Burst),
        ("stall", Scenario::Stall),
        ("miscost", Scenario::Miscost),
    ];
    let policies = [PolicyKind::Fcfs, PolicyKind::Hnr, PolicyKind::Bsd];
    let watermark = overload_watermark(cfg);
    let cells: Vec<(usize, PolicyKind)> = (0..scenarios.len())
        .flat_map(|s| policies.iter().map(move |&p| (s, p)))
        .collect();
    let done = AtomicUsize::new(0);
    let reports: Vec<SimReport> = run_jobs(cfg.jobs, cells.len(), |i| {
        let (scenario_idx, kind) = cells[i];
        let scenario = scenarios[scenario_idx].1;
        let w = cfg.workload(util);
        let mut sim_cfg = SimConfig::new(cfg.arrivals)
            .with_seed(cfg.seed)
            .with_admission(AdmissionMode::QosShed, OVERLOAD_CAPACITY)
            .with_watermark(watermark);
        if let Scenario::Miscost = scenario {
            sim_cfg = sim_cfg.with_cost_miscalibration(0.3, cfg.seed ^ 0xFA);
        }
        let source: Box<dyn hcq_streams::ArrivalSource> = match scenario {
            // A 5% chance per arrival of a 12-tuple volley inside one mean
            // gap: instantaneous load far past the calibrated utilization.
            Scenario::Burst => Box::new(FaultySource::new(
                cfg.source(0),
                FaultSpec::bursts(0.05, 12, cfg.mean_gap, cfg.seed ^ 0xB0),
            )),
            // A 1% chance per arrival that the source lags by 50 mean gaps.
            Scenario::Stall => Box::new(FaultySource::new(
                cfg.source(0),
                FaultSpec::stalls(0.01, cfg.mean_gap.scale(50.0), cfg.seed ^ 0x57),
            )),
            _ => cfg.source(0),
        };
        let r =
            simulate(&w.plan, &w.rates, vec![source], kind.build(), sim_cfg).unwrap_or_else(|e| {
                panic!(
                    "simulating fault scenario '{}' (seed={}): {e}",
                    scenarios[scenario_idx].0, cfg.seed
                )
            });
        print_tick(&done, cells.len(), "ext_faults");
        r
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
    for ((scenario_idx, kind), r) in cells.iter().zip(&reports) {
        t.row(vec![
            scenarios[*scenario_idx].0.to_string(),
            kind.name().to_string(),
            fnum(r.qos.avg_slowdown),
            fnum(r.qos.max_slowdown),
            fnum(r.shed_fraction()),
            r.peak_pending.to_string(),
            fnum(r.overload_share()),
            if conserved(r, cfg.queries) {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    ExhibitOutput {
        name: "ext_faults",
        table: t,
    }
    .emit(cfg)
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

/// Extension exhibit: transient dynamics through an ON/OFF burst cycle,
/// rendered from sampled telemetry. Each policy runs the §8 workload at
/// 0.85 average utilization against the deterministic burst schedule with
/// telemetry sampled once per ON span (one fifth of a cycle), so every
/// cycle contributes five windows: the burst peak and four drain windows.
/// Rows are window boundaries; per policy, `pending` is the backlog gauge
/// at the boundary and `p95` the 95th-percentile slowdown of the emissions
/// in the window ending there (`-` once the policy's run has finished).
/// The companion `ext_transient_totals` table carries per-policy run totals
/// with the tuple-conservation check CI asserts on.
pub fn ext_transient(cfg: &ExpConfig) -> Vec<ExhibitOutput> {
    let util = 0.85;
    let policies = [PolicyKind::Hnr, PolicyKind::Lsf, PolicyKind::Bsd];
    let window = cfg.mean_gap * (BURST_PER_CYCLE / 5);
    let done = AtomicUsize::new(0);
    let runs = run_jobs(cfg.jobs, policies.len(), |i| {
        let w = cfg.workload(util);
        let arrivals = burst_arrivals(cfg.arrivals, cfg.mean_gap);
        let replay = TraceReplay::from_arrivals(arrivals).expect("ordered arrivals");
        let sim_cfg = SimConfig::new(cfg.arrivals)
            .with_seed(cfg.seed)
            .with_telemetry_cadence(window);
        let (report, sink) = simulate_monitored(
            &w.plan,
            &w.rates,
            vec![Box::new(replay)],
            policies[i].build(),
            sim_cfg,
            VecTelemetry::new(),
        )
        .unwrap_or_else(|e| {
            panic!(
                "simulating transient workload ({}, seed={}): {e}",
                policies[i].name(),
                cfg.seed
            )
        });
        print_tick(&done, policies.len(), "ext_transient");
        (report, sink.samples)
    });

    // Per policy: window boundary (ns) → (pending gauge, p95 slowdown of
    // the window ending there). The final end-of-run snapshot can coincide
    // with a boundary whose sample was already taken — its summary window
    // is then empty, so the first (boundary-stamped) sample wins.
    let per_policy: Vec<std::collections::BTreeMap<u64, (f64, f64)>> = runs
        .iter()
        .map(|(_, samples)| {
            let mut map = std::collections::BTreeMap::new();
            for s in samples {
                if s.at.as_nanos() % window.as_nanos() != 0 {
                    continue;
                }
                let pending = s.gauge("hcq_pending_tuples").expect("registered gauge");
                let p95 = s.summary("hcq_slowdown").expect("registered summary").p95;
                map.entry(s.at.as_nanos()).or_insert((pending, p95));
            }
            map
        })
        .collect();
    let boundaries: std::collections::BTreeSet<u64> =
        per_policy.iter().flat_map(|m| m.keys().copied()).collect();

    let mut columns = vec!["window_end_ms".to_string()];
    for p in &policies {
        columns.push(format!("{}_pending", p.name()));
        columns.push(format!("{}_p95", p.name()));
    }
    let mut t = AsciiTable::new(columns);
    for at in &boundaries {
        let mut row = vec![(at / 1_000_000).to_string()];
        for m in &per_policy {
            match m.get(at) {
                Some(&(pending, p95)) => {
                    row.push((pending as u64).to_string());
                    row.push(fnum(p95));
                }
                None => {
                    row.push("-".to_string());
                    row.push("-".to_string());
                }
            }
        }
        t.row(row);
    }

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
            if conserved(r, cfg.queries) {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }

    vec![
        ExhibitOutput {
            name: "ext_transient",
            table: t,
        }
        .emit(cfg),
        ExhibitOutput {
            name: "ext_transient_totals",
            table: totals,
        }
        .emit(cfg),
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
/// the [`ExpConfig::governor`] feedback loop — under windowed telemetry.
///
/// `ext_recovery` plots the backlog gauge and windowed p95 slowdown per
/// (scenario, mode) column: the governed runs should shed through each
/// episode and return to their pre-fault p95 band instead of compounding
/// backlog. `ext_recovery_totals` carries run totals (expired, operator
/// failures, governor transitions) with the conservation check the CI smoke
/// job greps for.
pub fn ext_recovery(cfg: &ExpConfig) -> Vec<ExhibitOutput> {
    #[derive(Clone, Copy)]
    enum Scenario {
        Burst,
        Disconnect,
        Quarantine,
    }
    let util = 0.9;
    let window = cfg.mean_gap * (BURST_PER_CYCLE / 5);
    let scenarios: [(&'static str, Scenario); 3] = [
        ("burst", Scenario::Burst),
        ("disconnect", Scenario::Disconnect),
        ("quarantine", Scenario::Quarantine),
    ];
    let cells: Vec<(usize, bool)> = (0..scenarios.len())
        .flat_map(|s| [false, true].map(move |governed| (s, governed)))
        .collect();
    let done = AtomicUsize::new(0);
    let runs = run_jobs(cfg.jobs, cells.len(), |i| {
        let (scenario_idx, governed) = cells[i];
        let scenario = scenarios[scenario_idx].1;
        let w = cfg.workload(util);
        let mut sim_cfg = SimConfig::new(cfg.arrivals)
            .with_seed(cfg.seed)
            .with_telemetry_cadence(window);
        if let Scenario::Quarantine = scenario {
            sim_cfg = sim_cfg.with_op_failures(0.15, cfg.mean_gap * 4, 2);
        }
        if governed {
            sim_cfg = sim_cfg.with_governor(cfg.governor());
        }
        let source: Box<dyn hcq_streams::ArrivalSource> = match scenario {
            // A 5% chance per arrival of a 12-tuple volley inside one mean
            // gap — the same episode shape `ext_faults` uses.
            Scenario::Burst => Box::new(FaultySource::new(
                cfg.source(0),
                FaultSpec::bursts(0.05, 12, cfg.mean_gap, cfg.seed ^ 0xB0),
            )),
            // A 1% chance per arrival that the feed drops; reconnection
            // backs off exponentially and only lands with probability 0.7
            // per attempt, so downtime windows vary in length.
            Scenario::Disconnect => Box::new(DisconnectSource::new(
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
            Scenario::Quarantine => cfg.source(0),
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
                "simulating recovery scenario '{}' (governed={governed}, seed={}): {e}",
                scenarios[scenario_idx].0, cfg.seed
            )
        });
        print_tick(&done, cells.len(), "ext_recovery");
        (report, sink.samples)
    });

    // Per cell: window boundary (ns) → (pending gauge, p95 slowdown of the
    // window ending there); boundary-stamped samples win over the end-of-run
    // snapshot, exactly as in `ext_transient`.
    let per_cell: Vec<std::collections::BTreeMap<u64, (f64, f64)>> = runs
        .iter()
        .map(|(_, samples)| {
            let mut map = std::collections::BTreeMap::new();
            for s in samples {
                if s.at.as_nanos() % window.as_nanos() != 0 {
                    continue;
                }
                let pending = s.gauge("hcq_pending_tuples").expect("registered gauge");
                let p95 = s.summary("hcq_slowdown").expect("registered summary").p95;
                map.entry(s.at.as_nanos()).or_insert((pending, p95));
            }
            map
        })
        .collect();
    let boundaries: std::collections::BTreeSet<u64> =
        per_cell.iter().flat_map(|m| m.keys().copied()).collect();

    let regime_name = |governed: bool| if governed { "gov" } else { "static" };
    let mut columns = vec!["window_end_ms".to_string()];
    for &(scenario_idx, governed) in &cells {
        let label = format!("{}_{}", scenarios[scenario_idx].0, regime_name(governed));
        columns.push(format!("{label}_pending"));
        columns.push(format!("{label}_p95"));
    }
    let mut t = AsciiTable::new(columns);
    for at in &boundaries {
        let mut row = vec![(at / 1_000_000).to_string()];
        for m in &per_cell {
            match m.get(at) {
                Some(&(pending, p95)) => {
                    row.push((pending as u64).to_string());
                    row.push(fnum(p95));
                }
                None => {
                    row.push("-".to_string());
                    row.push("-".to_string());
                }
            }
        }
        t.row(row);
    }

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
    for (&(scenario_idx, governed), (r, _)) in cells.iter().zip(&runs) {
        totals.row(vec![
            scenarios[scenario_idx].0.to_string(),
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
            if conserved(r, cfg.queries) {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }

    vec![
        ExhibitOutput {
            name: "ext_recovery",
            table: t,
        }
        .emit(cfg),
        ExhibitOutput {
            name: "ext_recovery_totals",
            table: totals,
        }
        .emit(cfg),
    ]
}

// ------------------------------------------- Extension: seed sensitivity

/// Extension exhibit: robustness of the headline orderings across workload
/// seeds. Each row is an independent draw of the §8 workload (parameters
/// *and* arrivals); the orderings the paper reports should hold for every
/// seed, not just a lucky one.
pub fn ext_seeds(cfg: &ExpConfig) -> ExhibitOutput {
    let util = 0.9;
    let mut t = AsciiTable::new(vec![
        "seed",
        "hnr_best_avg",
        "hr_best_resp",
        "lsf_best_max",
        "bsd_best_l2",
    ]);
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
        .flat_map(|&seed| policies.iter().map(move |&p| (seed, p)))
        .collect();
    let done = AtomicUsize::new(0);
    let reports: Vec<SimReport> = run_jobs(cfg.jobs, cells.len(), |i| {
        let (seed, kind) = cells[i];
        let seeded = ExpConfig {
            seed,
            ..cfg.clone()
        };
        let r = seeded.run_single(util, kind.build());
        print_tick(&done, cells.len(), "ext_seeds");
        r
    });
    for (si, &seed) in seeds.iter().enumerate() {
        let by = |pi: usize| &reports[si * policies.len() + pi];
        let (hnr, hr, lsf, bsd, fcfs) = (by(0), by(1), by(2), by(3), by(4));
        let mark = |ok: bool| if ok { "yes" } else { "NO" }.to_string();
        t.row(vec![
            seed.to_string(),
            mark(
                hnr.qos.avg_slowdown < hr.qos.avg_slowdown
                    && hnr.qos.avg_slowdown < fcfs.qos.avg_slowdown,
            ),
            mark(hr.qos.avg_response_ms <= hnr.qos.avg_response_ms),
            mark(
                lsf.qos.max_slowdown < hnr.qos.max_slowdown
                    && lsf.qos.max_slowdown < bsd.qos.max_slowdown,
            ),
            mark(
                bsd.qos.l2_slowdown < hnr.qos.l2_slowdown
                    && bsd.qos.l2_slowdown < lsf.qos.l2_slowdown,
            ),
        ]);
    }
    ExhibitOutput {
        name: "ext_seeds",
        table: t,
    }
    .emit(cfg)
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
    let util = 0.95;
    let m = 12;
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
    let clustered = |clustering: Clustering, use_fagin: bool| -> PolicyFactory {
        Box::new(move || {
            Box::new(ClusteredBsdPolicy::new(ClusterConfig {
                clustering,
                clusters: m,
                use_fagin,
                batch: false,
            }))
        })
    };
    type Variant = (&'static str, PolicyFactory);
    let variants: Vec<Variant> = vec![
        ("BSD-Exact", Box::new(|| PolicyKind::Bsd.build())),
        ("BSD-Uniform", clustered(Clustering::Uniform, false)),
        ("BSD-Log", clustered(Clustering::Logarithmic, false)),
        ("BSD-Log-Fagin", clustered(Clustering::Logarithmic, true)),
    ];
    // One cell per (q, variant); counters don't need long runs, so the
    // per-cell arrivals are capped.
    let cells: Vec<(usize, usize)> = qs
        .iter()
        .flat_map(|&q| (0..variants.len()).map(move |v| (q, v)))
        .collect();
    let done = AtomicUsize::new(0);
    let reports: Vec<SimReport> = run_jobs(cfg.jobs, cells.len(), |i| {
        let (q, v) = cells[i];
        let scaled = ExpConfig {
            queries: q,
            arrivals: cfg.arrivals.min(1_000),
            ..cfg.clone()
        };
        let r = scaled.run_single(util, variants[v].1());
        print_tick(&done, cells.len(), "ext_overhead");
        r
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
    for (qi, &q) in qs.iter().enumerate() {
        let by = |v: usize| &reports[qi * variants.len() + v];
        t.row(vec![
            q.to_string(),
            fnum(by(0).evals_per_sched_point()),
            fnum(by(1).evals_per_sched_point()),
            fnum(by(2).evals_per_sched_point()),
            fnum(by(3).evals_per_sched_point()),
            fnum(by(0).overhead.work_per_point()),
            fnum(by(1).overhead.work_per_point()),
            fnum(by(2).overhead.work_per_point()),
            fnum(by(3).overhead.work_per_point()),
        ]);
    }
    ExhibitOutput {
        name: "ext_overhead",
        table: t,
    }
    .emit(cfg)
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
    ExhibitOutput {
        name: "ext_large_q",
        table: t,
    }
    .emit(cfg)
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
    const UTILS: [f64; 3] = [0.9, 1.1, 1.3];
    const MISCALIBRATION: f64 = 3.0;
    let policies: Vec<(&'static str, PolicyFactory)> = vec![
        (
            "C-BSD-log3",
            Box::new(|| {
                Box::new(ClusteredBsdPolicy::new(ClusterConfig::logarithmic(3)))
                    as Box<dyn hcq_core::Policy>
            }),
        ),
        (
            "C-BSD-log8",
            Box::new(|| {
                Box::new(ClusteredBsdPolicy::new(ClusterConfig::logarithmic(8)))
                    as Box<dyn hcq_core::Policy>
            }),
        ),
        (
            "C-BSD-log16",
            Box::new(|| {
                Box::new(ClusteredBsdPolicy::new(ClusterConfig::logarithmic(16)))
                    as Box<dyn hcq_core::Policy>
            }),
        ),
        ("HNR", Box::new(|| PolicyKind::Hnr.build())),
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

    let cells: Vec<(f64, usize)> = UTILS
        .iter()
        .flat_map(|&u| (0..policies.len()).map(move |p| (u, p)))
        .collect();
    let done = AtomicUsize::new(0);
    let reports: Vec<(SimReport, SimReport, SimReport)> = run_jobs(cfg.jobs, cells.len(), |i| {
        let (util, p) = cells[i];
        let make = &policies[p].1;
        let run = |adapt: Option<AdaptConfig>, preapply: Option<&[hcq_core::UnitStatics]>| {
            let w = cfg.workload(util);
            let mut sim_cfg = SimConfig::new(cfg.arrivals)
                .with_seed(cfg.seed)
                .with_cost_miscalibration(MISCALIBRATION, cfg.seed);
            if let Some(a) = adapt {
                sim_cfg = sim_cfg.with_adaptation(a);
            }
            let mut sim = Simulator::new(&w.plan, &w.rates, vec![cfg.source(0)], make(), sim_cfg)
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
        print_tick(&done, cells.len(), "ext_adaptive");
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
        let all_conserved = conserved(stale, cfg.queries)
            && conserved(adaptive, cfg.queries)
            && conserved(oracle, cfg.queries);
        t.row(vec![
            format!("{util:.2}"),
            policies[*p].0.to_string(),
            fnum(stale.qos.avg_slowdown),
            fnum(adaptive.qos.avg_slowdown),
            fnum(oracle.qos.avg_slowdown),
            adaptive.statics_updates.to_string(),
            adaptive.domain_refreezes.to_string(),
            fnum(recovery),
            if all_conserved { "yes" } else { "NO" }.to_string(),
        ]);
    }
    ExhibitOutput {
        name: "ext_adaptive",
        table: t,
    }
    .emit(cfg)
}
