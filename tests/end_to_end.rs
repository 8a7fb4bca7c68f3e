//! Cross-crate invariants: workload → engine → metrics plumbing.

use hcq::common::Nanos;
use hcq::core::{ClusterConfig, ClusteredBsdPolicy, PolicyKind};
use hcq::engine::{simulate, SimConfig, SimReport};
use hcq::streams::{collect_arrivals, ArrivalStats, OnOffSource, PoissonSource};
use hcq::workload::{single_stream, SingleStreamConfig};

// Re-export shim: `hcq::workload` is `hcq-workload`, whose calibrate module
// exposes offered_load; alias locally for readability.
mod workload_shim {
    pub use hcq::workload::calibrate::offered_load;
}

fn build(utilization: f64) -> hcq::workload::PaperWorkload {
    single_stream(&SingleStreamConfig {
        queries: 30,
        cost_classes: 5,
        utilization,
        mean_gap: Nanos::from_millis(10),
        seed: 4,
    })
    .unwrap()
}

fn run(kind: PolicyKind, utilization: f64, seed: u64, bursty: bool) -> SimReport {
    let w = build(utilization);
    let gap = Nanos::from_millis(10);
    let src: Box<dyn hcq::streams::ArrivalSource> = if bursty {
        Box::new(OnOffSource::lbl_like(gap, seed))
    } else {
        Box::new(PoissonSource::new(gap, seed))
    };
    simulate(
        &w.plan,
        &w.rates,
        vec![src],
        kind.build(),
        SimConfig::new(1_000).with_seed(seed),
    )
    .unwrap()
}

/// With a Poisson source at the calibrated mean gap, measured utilization
/// lands near the target (drain-phase work and the source's sampling noise
/// perturb it slightly).
#[test]
fn calibration_matches_measured_utilization() {
    for target in [0.4, 0.7] {
        let r = run(PolicyKind::Fcfs, target, 2, false);
        let measured = r.measured_utilization();
        assert!(
            (measured - target).abs() < 0.12,
            "target {target}, measured {measured}"
        );
    }
}

/// The bursty LBL-like source keeps the same long-run mean rate as Poisson,
/// so arrivals-per-virtual-second agree even though the pattern differs.
#[test]
fn bursty_and_poisson_share_mean_rate() {
    let mut on_off = OnOffSource::lbl_like(Nanos::from_millis(10), 3);
    let mut poisson = PoissonSource::new(Nanos::from_millis(10), 3);
    let a = ArrivalStats::from_arrivals(&collect_arrivals(&mut on_off, 60_000));
    let b = ArrivalStats::from_arrivals(&collect_arrivals(&mut poisson, 60_000));
    let ratio = a.mean_gap().as_nanos() as f64 / b.mean_gap().as_nanos() as f64;
    assert!((0.4..2.5).contains(&ratio), "mean gap ratio {ratio}");
    // ...but the on/off source is much burstier.
    assert!(
        a.index_of_dispersion(Nanos::from_secs(2))
            > 3.0 * b.index_of_dispersion(Nanos::from_secs(2))
    );
}

/// Burstiness hurts: the same policy at the same mean load sees strictly
/// worse slowdowns under the on/off source than under Poisson.
#[test]
fn bursty_arrivals_increase_slowdown() {
    let smooth = run(PolicyKind::Hnr, 0.9, 6, false).qos.avg_slowdown;
    let bursty = run(PolicyKind::Hnr, 0.9, 6, true).qos.avg_slowdown;
    assert!(
        bursty > smooth,
        "bursty {bursty} should exceed poisson {smooth}"
    );
}

/// All policies agree on the workload realization (emissions/drops), and
/// every report's accounting is internally consistent.
#[test]
fn report_accounting_is_consistent() {
    let reference = run(PolicyKind::Fcfs, 0.8, 5, true);
    for kind in PolicyKind::ALL {
        let r = run(kind, 0.8, 5, true);
        assert_eq!(r.emitted, reference.emitted, "{}", kind.name());
        assert_eq!(r.qos.count, r.emitted, "{}", kind.name());
        assert_eq!(r.histogram.total(), r.emitted, "{}", kind.name());
        assert_eq!(r.classes.overall().count, r.emitted, "{}", kind.name());
        assert!(r.busy_time <= r.end_time, "{}", kind.name());
        assert!(r.sched_points > 0 && r.sched_ops >= r.sched_points);
    }
}

/// The clustered BSD implementations remain faithful to naive BSD outcomes
/// through the full stack.
#[test]
fn clustered_bsd_full_stack() {
    let w = build(0.9);
    let gap = Nanos::from_millis(10);
    let run_with = |policy: Box<dyn hcq::core::Policy>| {
        simulate(
            &w.plan,
            &w.rates,
            vec![Box::new(OnOffSource::lbl_like(gap, 11))],
            policy,
            SimConfig::new(800).with_seed(11),
        )
        .unwrap()
    };
    let naive = run_with(PolicyKind::Bsd.build());
    let clustered = run_with(Box::new(ClusteredBsdPolicy::new(
        ClusterConfig::logarithmic(12),
    )));
    assert_eq!(naive.emitted, clustered.emitted);
    // Approximation quality: clustered ℓ2 within 2× of exact BSD's.
    assert!(
        clustered.qos.l2_slowdown < naive.qos.l2_slowdown * 2.0,
        "clustered {} vs naive {}",
        clustered.qos.l2_slowdown,
        naive.qos.l2_slowdown
    );
}

/// `offered_load` (the calibration target) is an exported, stable API.
#[test]
fn offered_load_is_public() {
    let w = build(0.6);
    let load = workload_shim::offered_load(&w.plan, &w.rates);
    assert!((load - 0.6).abs() < 0.01, "{load}");
}

/// `hcq-inspect` on a real trace: a governed run with operator failures and
/// deadlines is traced to JSONL; the parsed events re-render to the bytes
/// the engine wrote, every span decomposes, and the trace reconciles with
/// the run's own report.
#[test]
fn governed_faulty_trace_reparses_to_its_bytes_and_reconciles() {
    use hcq::common::StreamId;
    use hcq::engine::{simulate_traced, AdmissionMode, GovernorConfig, JsonlTrace};
    use hcq::inspect::{parse_stream, reconcile, reconstruct, waterfalls};
    use hcq::plan::{GlobalPlan, QueryBuilder, StreamRates};

    let ms = Nanos::from_millis;
    let mut plan = GlobalPlan::default();
    for i in 0..6u64 {
        let b = QueryBuilder::on(StreamId::new(0))
            .select(ms(1 + i), 0.4 + 0.1 * (i % 4) as f64)
            .project(ms(1));
        let b = if i % 2 == 0 {
            b.with_deadline(ms(30 + 10 * i))
        } else {
            b
        };
        plan.add_query(b.build().unwrap());
    }
    let governor = GovernorConfig {
        cadence: ms(25),
        min_dwell: ms(50),
        escalate_pending: 24,
        deescalate_pending: 4,
        escalate_share: 0.4,
        deescalate_share: 0.1,
        overload_policy: Some(PolicyKind::Lsf),
        switch_sustain: 1,
        ..GovernorConfig::default()
    };
    let (report, sink) = simulate_traced(
        &plan,
        &StreamRates::none(),
        vec![Box::new(PoissonSource::new(ms(4), 7))],
        PolicyKind::Bsd.build(),
        SimConfig::new(300)
            .with_seed(23)
            .with_admission(AdmissionMode::Unbounded, 8)
            .with_watermark(16)
            .with_governor(governor)
            .with_op_failures(0.08, ms(5), 2)
            .with_overhead(true),
        JsonlTrace::new(Vec::new()),
    )
    .unwrap();
    assert!(report.op_failures > 0 && report.expired > 0);
    assert!(report.governor_transitions > 0 && report.policy_switches > 0);

    let written = sink.finish().unwrap();
    let log = parse_stream(std::str::from_utf8(&written).unwrap()).unwrap();
    let mut rendered = Vec::new();
    for ev in &log.events {
        ev.write_jsonl(&mut rendered).unwrap();
    }
    assert!(
        rendered == written,
        "re-rendered trace differs from the bytes written"
    );

    let w = waterfalls(&reconstruct(&log).unwrap());
    assert!(w.total_spans > 0);
    assert_eq!(w.conserved_spans, w.total_spans);
    let rec = reconcile(&log, &report);
    assert!(rec.all_ok(), "{:?}", rec.failures());
}

/// The static policies' counted scheduling work, pinned: 140 units (their
/// ranks span three 64-bit words of the ready set) at 0.9 load with §9.2
/// overhead charging on, so the counted ops feed back into virtual time
/// and the slowdowns. Constants captured on the lazy max-heap these
/// policies used before the rank-ordered ready bitmap; any change to which
/// units a scheduling point looks at, or in what order, moves them.
#[test]
fn static_policy_counted_ops_are_pinned() {
    let w = single_stream(&SingleStreamConfig {
        queries: 140,
        cost_classes: 5,
        utilization: 0.9,
        mean_gap: Nanos::from_millis(10),
        seed: 24,
    })
    .unwrap();
    // Per policy: (sched_points, sched_ops, heap_ops, overhead ns, emitted,
    // avg_slowdown bits, l2_slowdown bits).
    let pins = [
        (
            PolicyKind::Hnr,
            (
                280_000,
                459_653,
                818_960,
                2_233_453_927,
                104_707,
                0x4066_2c9b_7e9b_4f30,
                0x4119_d644_02ed_86d1,
            ),
        ),
        (
            PolicyKind::Srpt,
            (
                280_000,
                473_100,
                859_301,
                2_298_792_900,
                104_707,
                0x4084_7e8f_8a19_b1d1,
                0x4131_0f42_8d26_87a0,
            ),
        ),
    ];
    for (kind, want) in pins {
        let r = simulate(
            &w.plan,
            &w.rates,
            vec![Box::new(PoissonSource::new(Nanos::from_millis(10), 24))],
            kind.build(),
            SimConfig::new(2_000).with_seed(24).with_overhead(true),
        )
        .unwrap();
        let got = (
            r.sched_points,
            r.sched_ops,
            r.overhead.heap_ops,
            r.overhead_time.as_nanos(),
            r.emitted,
            r.qos.avg_slowdown.to_bits(),
            r.qos.l2_slowdown.to_bits(),
        );
        assert_eq!(got, want, "{}", kind.name());
    }
}

/// Forwards to a wait-linear policy (BSD, LSF, ℓp), which selects by
/// head-arrival group, and holds every selection to `scan_argmax` over the
/// same queue view; also holds its rebuilds from the view to at most one
/// per registration.
struct ScanChecked {
    inner: hcq::core::WaitPolicy,
    factor: fn(&hcq::core::UnitStatics) -> f64,
    wait_term: fn(f64) -> f64,
    factors: Vec<f64>,
    registrations: u64,
}

impl hcq::core::Policy for ScanChecked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_register(&mut self, units: &[hcq::core::UnitStatics]) {
        self.registrations += 1;
        self.factors = units.iter().map(self.factor).collect();
        self.inner.on_register(units);
    }
    fn on_enqueue(&mut self, unit: u32, tuple: hcq::common::TupleId, arrival: Nanos, now: Nanos) {
        self.inner.on_enqueue(unit, tuple, arrival, now);
    }
    fn on_shed(&mut self, unit: u32, tuple: hcq::common::TupleId) {
        self.inner.on_shed(unit, tuple);
    }
    fn select(
        &mut self,
        queues: &dyn hcq::core::QueueView,
        now: Nanos,
    ) -> Option<hcq::core::Selection> {
        let (ready, heads) = (queues.nonempty(), queues.head_arrivals());
        let want = hcq::core::soa::scan_argmax(ready, heads, &self.factors, now, self.wait_term);
        let got = self.inner.select(queues, now);
        assert_eq!(got, want, "{} at {now}", self.inner.name());
        let rebuilds = self.inner.rebuilds();
        assert!(
            rebuilds <= self.registrations,
            "{}: {rebuilds} rebuilds over {} registrations",
            self.inner.name(),
            self.registrations
        );
        got
    }
}

/// BSD, LSF and ℓp(2.5) on a `sim_bsd`-shaped run (500 queries, one
/// stream, 0.9 load): every scheduling point selects exactly what the
/// per-unit scan selects, and the simulator's callbacks announce every ready
/// unit (no rebuild from the queue view beyond one per registration).
#[test]
fn wait_linear_selection_equals_the_scan() {
    use hcq::core::{Policy, UnitStatics, WaitPolicy};
    let w = single_stream(&SingleStreamConfig {
        queries: 500,
        cost_classes: 5,
        utilization: 0.9,
        mean_gap: Nanos::from_millis(10),
        seed: 26,
    })
    .unwrap();
    fn checked(
        inner: WaitPolicy,
        factor: fn(&UnitStatics) -> f64,
        wait_term: fn(f64) -> f64,
    ) -> Box<dyn Policy> {
        Box::new(ScanChecked {
            inner,
            factor,
            wait_term,
            factors: Vec::new(),
            registrations: 0,
        })
    }
    let policies = [
        checked(WaitPolicy::bsd(), UnitStatics::bsd_static, |w| w),
        checked(WaitPolicy::lsf(), UnitStatics::lsf_slope, |w| w),
        checked(
            WaitPolicy::lp(2.5),
            |u| u.selectivity / (u.avg_cost_ns * u.ideal_time_ns.powf(2.5)),
            |w| w.powf(1.5),
        ),
    ];
    for policy in policies {
        let r = simulate(
            &w.plan,
            &w.rates,
            vec![Box::new(PoissonSource::new(Nanos::from_millis(10), 26))],
            policy,
            SimConfig::new(120).with_seed(26),
        )
        .unwrap();
        assert_eq!(r.sched_points, 120 * 500);
    }
}
