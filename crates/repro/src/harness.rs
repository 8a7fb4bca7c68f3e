//! Shared experiment machinery: configuration, sources, the parallel job
//! runner, and the policy × load sweep that Figures 5–10 are sliced from.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hcq_common::jobs::run_jobs;
use hcq_common::Nanos;
use hcq_core::PolicyKind;
use hcq_engine::{
    simulate, simulate_monitored, simulate_traced, GovernorConfig, JsonlTrace, SimConfig,
    SimReport, VecTelemetry,
};
use hcq_metrics::TelemetrySnapshot;
use hcq_streams::{ArrivalSource, OnOffSource, PoissonSource};
use hcq_workload::{single_stream, PaperWorkload, SingleStreamConfig};

/// Scale and seeding of a reproduction run.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Registered queries (paper: 500; default scaled down for minutes-long
    /// full reproductions — pass `--queries 500` for paper scale).
    pub queries: usize,
    /// Source arrivals per run.
    pub arrivals: u64,
    /// Mean inter-arrival time of each stream.
    pub mean_gap: Nanos,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Use the bursty on/off (LBL-like) source for single-stream
    /// experiments, as the paper does; `false` uses Poisson.
    pub bursty: bool,
    /// Worker threads for independent experiment cells (`1` = serial).
    /// Every cell is a pure function of its configuration and results are
    /// reassembled in deterministic order, so any job count produces
    /// byte-identical outputs.
    pub jobs: usize,
    /// Arm the closed-loop overload governor (`--govern`) on every
    /// single-stream run: the admission ladder starts Unbounded and the
    /// [`ExpConfig::governed`] feedback loop escalates/relaxes it. Off by
    /// default, in which case runs are byte-identical to ungoverned builds.
    pub govern: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            queries: 150,
            arrivals: 4_000,
            mean_gap: Nanos::from_millis(10),
            seed: 42,
            out_dir: PathBuf::from("results"),
            bursty: true,
            jobs: default_jobs(),
            govern: false,
        }
    }
}

/// The default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A thread-safe progress tick: bumps the shared completed-cell counter and
/// reports `what: done/total cells` through `progress`. Emitting whole lines
/// keyed by counts (rather than per-cell descriptions) keeps concurrent
/// workers from interleaving partial messages.
pub fn tick_progress(
    progress: &(impl Fn(&str) + Sync),
    done: &AtomicUsize,
    total: usize,
    what: &str,
) {
    let n = done.fetch_add(1, Ordering::SeqCst) + 1;
    progress(&format!("  {what}: {n}/{total} cells done"));
}

/// [`tick_progress`] to stdout.
pub(crate) fn print_tick(done: &AtomicUsize, total: usize, what: &str) {
    tick_progress(&|msg: &str| println!("{msg}"), done, total, what);
}

/// The one cell runner of the exhibits: `f` over every cell on `cfg.jobs`
/// workers ([`run_jobs`]), results in cell order, and one
/// `  what: done/total cells done` line printed per finished cell.
pub(crate) fn run_cells<C: Sync, T: Send>(
    cfg: &ExpConfig,
    what: &str,
    cells: &[C],
    f: impl Fn(&C) -> T + Sync,
) -> Vec<T> {
    let done = AtomicUsize::new(0);
    run_jobs(cfg.jobs, cells.len(), |i| {
        let result = f(&cells[i]);
        print_tick(&done, cells.len(), what);
        result
    })
}

impl ExpConfig {
    /// The load points the §9 figures sweep.
    pub const UTILIZATIONS: [f64; 7] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97];

    /// The single-stream source for stream index `s`.
    pub fn source(&self, s: usize) -> Box<dyn ArrivalSource> {
        if self.bursty {
            Box::new(OnOffSource::lbl_like(self.mean_gap, self.seed ^ s as u64))
        } else {
            Box::new(PoissonSource::new(self.mean_gap, self.seed ^ s as u64))
        }
    }

    /// Build the §8 single-stream workload at a utilization.
    pub fn workload(&self, utilization: f64) -> PaperWorkload {
        single_stream(&SingleStreamConfig {
            queries: self.queries,
            cost_classes: 5,
            utilization,
            mean_gap: self.mean_gap,
            seed: self.seed,
        })
        .unwrap_or_else(|e| {
            panic!(
                "building single-stream workload (queries={}, utilization={:.2}, seed={}): {e}",
                self.queries, utilization, self.seed
            )
        })
    }

    /// Arm the governor `--govern` (and `ext_recovery`) uses on `cfg`,
    /// scaled to the experiment: a decision every five mean gaps, a dwell of
    /// four decisions, and a pending-tuple hysteresis band of
    /// `(queries, 4·queries)` — the upper edge matching the watermark the
    /// static QoS-shedding exhibits use. Unset admission bounds become 32
    /// tuples per unit queue and a watermark of `2·queries`.
    pub fn governed(&self, mut cfg: SimConfig) -> SimConfig {
        if cfg.overload.capacity == 0 {
            cfg.overload.capacity = 32;
        }
        if cfg.overload.watermark == 0 {
            cfg.overload.watermark = (self.queries * 2).max(1);
        }
        cfg.with_governor(GovernorConfig {
            cadence: self.mean_gap * 5,
            min_dwell: self.mean_gap * 20,
            escalate_pending: self.queries * 4,
            deescalate_pending: self.queries,
            ..GovernorConfig::default()
        })
    }

    /// Apply the `--govern` switch to a finished [`SimConfig`].
    fn armed(&self, cfg: SimConfig) -> SimConfig {
        if self.govern {
            self.governed(cfg)
        } else {
            cfg
        }
    }

    /// Run one policy on the single-stream workload at one utilization.
    pub fn run_single(&self, utilization: f64, policy: PolicyKind) -> SimReport {
        self.run_single_with(utilization, policy, |c| c)
    }

    /// As [`ExpConfig::run_single`] with a [`SimConfig`] tweak (overhead
    /// charging, sharing strategy, ...).
    pub fn run_single_with(
        &self,
        utilization: f64,
        policy: PolicyKind,
        tweak: impl FnOnce(SimConfig) -> SimConfig,
    ) -> SimReport {
        let w = self.workload(utilization);
        let cfg = self.armed(tweak(SimConfig::new(self.arrivals).with_seed(self.seed)));
        simulate(&w.plan, &w.rates, vec![self.source(0)], policy.build(), cfg).unwrap_or_else(|e| {
            panic!(
                "simulating single-stream workload (utilization={:.2}, arrivals={}, seed={}): {e}",
                utilization, self.arrivals, self.seed
            )
        })
    }

    /// As [`ExpConfig::run_single`], additionally streaming the scheduling
    /// trace through a [`JsonlTrace`]; returns the report and the trace's
    /// JSONL bytes. The traced simulation makes identical decisions, so the
    /// report matches [`ExpConfig::run_single`] field for field.
    pub fn run_single_traced(&self, utilization: f64, policy: PolicyKind) -> (SimReport, Vec<u8>) {
        let w = self.workload(utilization);
        let cfg = self.armed(SimConfig::new(self.arrivals).with_seed(self.seed));
        let sink = JsonlTrace::new(Vec::new());
        let (report, sink) = simulate_traced(
            &w.plan,
            &w.rates,
            vec![self.source(0)],
            policy.build(),
            cfg,
            sink,
        )
        .unwrap_or_else(|e| {
            panic!(
                "simulating traced single-stream workload (utilization={:.2}, \
                 arrivals={}, seed={}): {e}",
                utilization, self.arrivals, self.seed
            )
        });
        let bytes = sink.finish().expect("in-memory trace writes cannot fail");
        (report, bytes)
    }

    /// As [`ExpConfig::run_single`], additionally sampling telemetry
    /// snapshots at `cadence` of virtual time; returns the report and the
    /// snapshot stream. The monitored simulation makes identical decisions,
    /// so the report matches [`ExpConfig::run_single`] field for field.
    pub fn run_single_monitored(
        &self,
        utilization: f64,
        policy: PolicyKind,
        cadence: Nanos,
    ) -> (SimReport, Vec<TelemetrySnapshot>) {
        let w = self.workload(utilization);
        let cfg = self.armed(
            SimConfig::new(self.arrivals)
                .with_seed(self.seed)
                .with_telemetry_cadence(cadence),
        );
        let (report, sink) = simulate_monitored(
            &w.plan,
            &w.rates,
            vec![self.source(0)],
            policy.build(),
            cfg,
            VecTelemetry::new(),
        )
        .unwrap_or_else(|e| {
            panic!(
                "simulating monitored single-stream workload (utilization={:.2}, \
                 arrivals={}, seed={}): {e}",
                utilization, self.arrivals, self.seed
            )
        });
        (report, sink.samples)
    }
}

/// Cached results of the policy × utilization sweep behind Figures 5–10.
#[derive(Debug)]
pub struct SweepResults {
    /// `(policy name, utilization·100) → report`.
    results: BTreeMap<(&'static str, u32), SimReport>,
}

impl SweepResults {
    /// Run the full sweep: all seven policies at all seven load points.
    ///
    /// Cells run on `cfg.jobs` worker threads; each is an independent
    /// simulation, and the result map is keyed deterministically, so the
    /// sweep is byte-for-byte identical at any job count.
    pub fn collect(cfg: &ExpConfig, progress: impl Fn(&str) + Sync) -> Self {
        let cells: Vec<(PolicyKind, f64)> = PolicyKind::ALL
            .into_iter()
            .flat_map(|kind| ExpConfig::UTILIZATIONS.into_iter().map(move |u| (kind, u)))
            .collect();
        let total = cells.len();
        let done = AtomicUsize::new(0);
        let reports = run_jobs(cfg.jobs, total, |i| {
            let (kind, util) = cells[i];
            let report = cfg.run_single(util, kind);
            tick_progress(&progress, &done, total, "sweep");
            report
        });
        let mut results = BTreeMap::new();
        for ((kind, util), report) in cells.into_iter().zip(reports) {
            results.insert((kind.name(), key(util)), report);
        }
        SweepResults { results }
    }

    /// The report for a policy at a load point.
    pub fn get(&self, policy: PolicyKind, util: f64) -> &SimReport {
        &self.results[&(policy.name(), key(util))]
    }
}

fn key(util: f64) -> u32 {
    (util * 100.0).round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            queries: 10,
            arrivals: 200,
            mean_gap: Nanos::from_millis(10),
            seed: 7,
            out_dir: std::env::temp_dir(),
            bursty: false,
            jobs: 1,
            govern: false,
        }
    }

    #[test]
    fn run_single_produces_emissions() {
        let r = tiny().run_single(0.5, PolicyKind::Hnr);
        assert!(r.emitted > 0);
        assert!(r.qos.avg_slowdown >= 1.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_yields_jsonl() {
        let cfg = tiny();
        let plain = cfg.run_single(0.5, PolicyKind::Hnr);
        let (traced, bytes) = cfg.run_single_traced(0.5, PolicyKind::Hnr);
        // Tracing observes; it must not steer.
        assert_eq!(plain.emitted, traced.emitted);
        assert_eq!(plain.sched_points, traced.sched_points);
        assert_eq!(plain.end_time, traced.end_time);
        assert_eq!(plain.overhead, traced.overhead);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.lines().count() > 0);
        assert!(text.lines().all(|l| l.starts_with("{\"type\":\"")));
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"type\":\"sched_point\""))
                .count() as u64,
            traced.sched_points
        );
    }

    #[test]
    fn monitored_run_matches_plain_and_yields_snapshots() {
        let cfg = tiny();
        let plain = cfg.run_single(0.5, PolicyKind::Hnr);
        let (monitored, samples) =
            cfg.run_single_monitored(0.5, PolicyKind::Hnr, Nanos::from_millis(100));
        // Telemetry observes; it must not steer.
        assert_eq!(plain.emitted, monitored.emitted);
        assert_eq!(plain.sched_points, monitored.sched_points);
        assert_eq!(plain.end_time, monitored.end_time);
        let last = samples.last().unwrap();
        assert_eq!(last.at, monitored.end_time);
        assert_eq!(last.counter("hcq_emitted_total"), Some(monitored.emitted));
    }

    #[test]
    fn govern_flag_is_inert_on_a_calm_workload() {
        let plain = tiny().run_single(0.5, PolicyKind::Hnr);
        let governed = ExpConfig {
            govern: true,
            ..tiny()
        }
        .run_single(0.5, PolicyKind::Hnr);
        // Well under saturation the ladder never needs to move, so the
        // governed run matches the ungoverned one decision for decision.
        assert_eq!(governed.governor_transitions, 0);
        assert_eq!(governed.emitted, plain.emitted);
        assert_eq!(governed.sched_points, plain.sched_points);
        assert_eq!(governed.end_time, plain.end_time);
    }

    #[test]
    fn workload_scales_with_utilization() {
        let cfg = tiny();
        let lo = cfg.workload(0.5);
        let hi = cfg.workload(1.0);
        assert!((hi.k_ns / lo.k_ns - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sources_are_seeded() {
        let cfg = tiny();
        let mut a = cfg.source(0);
        let mut b = cfg.source(0);
        let mut c = cfg.source(1);
        assert_eq!(a.next_arrival(), b.next_arrival());
        // Different stream index, different seed: overwhelmingly different.
        assert_ne!(a.next_arrival(), c.next_arrival());
    }

    #[test]
    fn sweep_progress_reports_counts() {
        let mut small = tiny();
        small.arrivals = 20;
        small.jobs = 2;
        let seen = std::sync::Mutex::new(Vec::new());
        let _ = SweepResults::collect(&small, |msg| {
            seen.lock().unwrap().push(msg.to_string());
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 49, "one tick per sweep cell");
        assert!(seen.iter().any(|m| m.contains("49/49 cells done")));
    }

    #[test]
    fn sweep_stores_every_cell() {
        let mut small = tiny();
        small.arrivals = 50;
        let sweep = SweepResults::collect(&small, |_| {});
        for kind in PolicyKind::ALL {
            for &util in &ExpConfig::UTILIZATIONS {
                let r = sweep.get(kind, util);
                assert!(r.arrivals == 50);
            }
        }
    }
}
