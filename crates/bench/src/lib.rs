//! Shared fixtures for the Criterion benchmarks.
//!
//! Each bench target maps to a claim in the paper's implementation sections:
//!
//! * `sched_overhead` — the per-scheduling-point cost that §6.2 reduces:
//!   naive-BSD's O(q) scan versus clustering (O(m)) versus Fagin pruning,
//!   alongside the static-priority policies' heap costs.
//! * `clustering` — cluster construction (`on_register`) for the uniform
//!   and logarithmic methods at various m and q.
//! * `fagin` — top-1 search versus a linear scan over two graded lists.
//! * `shj` — symmetric-hash-join insert/probe throughput versus window size.
//! * `pipeline` — end-to-end simulated tuple throughput per policy.
//! * `workload` — §8 plan-statistics derivation and utilization calibration.
//! * [`large_q`] — the 10³…10⁶-query scheduling-point sweep behind
//!   `repro bench --large-q` and the CI sub-linearity gate.

use hcq_common::{Nanos, TupleId};
use hcq_core::{Policy, QueueView, UnitId, UnitStatics};

pub mod large_q;

/// The fixed reference workload behind the `pipeline` bench and the
/// `repro bench` baseline emitter (`BENCH_*.json`). Both time exactly this
/// fixture, so Criterion trends and the JSON trajectory stay comparable.
pub mod pipeline {
    use hcq_common::Nanos;
    use hcq_core::PolicyKind;
    use hcq_engine::{
        simulate, simulate_monitored, AdaptConfig, AdaptMode, GovernorConfig, MetricsSink,
        SimConfig, SimReport, TelemetrySnapshot,
    };
    use hcq_streams::PoissonSource;
    use hcq_workload::{single_stream, PaperWorkload, SingleStreamConfig};

    /// Counts snapshots without storing them. Exporter-shaped: a real sink
    /// consumes the borrowed snapshot in place, so the bench should not pay
    /// for a deep clone the way the test-suite's `VecTelemetry` does.
    #[derive(Debug, Default)]
    struct CountingSink {
        samples: usize,
    }

    impl MetricsSink for CountingSink {
        fn sample(&mut self, _snapshot: &TelemetrySnapshot) {
            self.samples += 1;
        }
    }

    /// Source arrivals per simulation.
    pub const ARRIVALS: u64 = 500;
    /// Policies timed by the bench, in emission order.
    pub const POLICIES: [PolicyKind; 5] = [
        PolicyKind::Fcfs,
        PolicyKind::RoundRobin,
        PolicyKind::Hnr,
        PolicyKind::Lsf,
        PolicyKind::Bsd,
    ];

    /// Mean inter-arrival gap of the Poisson source.
    pub fn mean_gap() -> Nanos {
        Nanos::from_millis(10)
    }

    /// The reference workload: 60 queries, 5 cost classes, 0.9 utilization.
    pub fn workload() -> PaperWorkload {
        single_stream(&SingleStreamConfig {
            queries: 60,
            cost_classes: 5,
            utilization: 0.9,
            mean_gap: mean_gap(),
            seed: 5,
        })
        .expect("valid workload")
    }

    /// One timed simulation of the reference workload under `kind`.
    pub fn run(kind: PolicyKind, w: &PaperWorkload) -> SimReport {
        simulate(
            &w.plan,
            &w.rates,
            vec![Box::new(PoissonSource::new(mean_gap(), 9))],
            kind.build(),
            SimConfig::new(ARRIVALS).with_seed(3),
        )
        .expect("valid simulation")
    }

    /// Telemetry sampling cadence for the monitored variant of the fixture
    /// (virtual time between snapshots).
    pub fn telemetry_cadence() -> Nanos {
        Nanos::from_millis(250)
    }

    /// The governor configuration for the governed variant of the fixture:
    /// a decision every five mean gaps, a four-decision dwell, and a
    /// pending-tuple hysteresis band of (queries, 4·queries) — the same
    /// shape the repro harness's `--govern` switch arms.
    pub fn governor() -> GovernorConfig {
        GovernorConfig {
            enabled: true,
            cadence: mean_gap() * 5,
            min_dwell: mean_gap() * 20,
            escalate_pending: 240,
            deescalate_pending: 60,
            capacity: 32,
            watermark: 120,
            ..GovernorConfig::default()
        }
    }

    /// The same fixture as [`run`] with the closed-loop overload governor
    /// armed. The governed run may legitimately make different scheduling
    /// decisions (that is the point), so callers compare wall time and
    /// record the transition count rather than asserting identical output.
    pub fn run_governed(kind: PolicyKind, w: &PaperWorkload) -> SimReport {
        simulate(
            &w.plan,
            &w.rates,
            vec![Box::new(PoissonSource::new(mean_gap(), 9))],
            kind.build(),
            SimConfig::new(ARRIVALS)
                .with_seed(3)
                .with_governor(governor()),
        )
        .expect("valid simulation")
    }

    /// The adaptation configuration for the adaptive variant of the
    /// fixture: batch-mean EWMA re-estimation publishing every five mean
    /// gaps — the tuned shape the engine's adaptive test suite uses.
    pub fn adaptation() -> AdaptConfig {
        AdaptConfig {
            enabled: true,
            mode: AdaptMode::Ewma,
            alpha: 0.1,
            cadence: mean_gap() * 5,
            min_observations: 2,
            refreeze_factor: 1.5,
            publish: true,
        }
    }

    /// The miscalibrated baseline the adaptive overhead gate compares
    /// against: 3× seeded cost miscalibration and the policy-switching
    /// governor, but no re-estimation. Sharing the fault and governor
    /// settings with [`run_adaptive`] isolates what adaptation itself
    /// costs — a plain-fixture comparison would fold the (deliberately
    /// heavier) miscalibrated workload into the ratio.
    pub fn run_miscalibrated(kind: PolicyKind, w: &PaperWorkload) -> SimReport {
        simulate(
            &w.plan,
            &w.rates,
            vec![Box::new(PoissonSource::new(mean_gap(), 9))],
            kind.build(),
            SimConfig::new(ARRIVALS)
                .with_seed(3)
                .with_cost_miscalibration(3.0, 3)
                .with_governor(GovernorConfig {
                    switch_policy: true,
                    ..governor()
                }),
        )
        .expect("valid simulation")
    }

    /// [`run_miscalibrated`] with the full feedback stack armed on top:
    /// online re-estimation ([`adaptation`]) correcting the miscalibrated
    /// statics while the governor's policy-switching rung watches overload.
    /// The adaptive run legitimately makes different scheduling decisions;
    /// callers compare wall time and record the update/switch counts rather
    /// than asserting identical output.
    pub fn run_adaptive(kind: PolicyKind, w: &PaperWorkload) -> SimReport {
        simulate(
            &w.plan,
            &w.rates,
            vec![Box::new(PoissonSource::new(mean_gap(), 9))],
            kind.build(),
            SimConfig::new(ARRIVALS)
                .with_seed(3)
                .with_cost_miscalibration(3.0, 3)
                .with_adaptation(adaptation())
                .with_governor(GovernorConfig {
                    switch_policy: true,
                    ..governor()
                }),
        )
        .expect("valid simulation")
    }

    /// The same simulation as [`run`], but with telemetry sampling on.
    /// Returns the report plus the number of snapshots taken, so the
    /// `repro bench` overhead check can compare like against like.
    pub fn run_monitored(kind: PolicyKind, w: &PaperWorkload) -> (SimReport, usize) {
        let (report, telemetry) = simulate_monitored(
            &w.plan,
            &w.rates,
            vec![Box::new(PoissonSource::new(mean_gap(), 9))],
            kind.build(),
            SimConfig::new(ARRIVALS)
                .with_seed(3)
                .with_telemetry_cadence(telemetry_cadence()),
            CountingSink::default(),
        )
        .expect("valid simulation");
        (report, telemetry.samples)
    }
}

/// A heterogeneous unit population with Φ spread over several decades.
pub fn spread_units(n: usize) -> Vec<UnitStatics> {
    (0..n)
        .map(|i| {
            let c = Nanos::from_millis(1 << (i % 5));
            UnitStatics::new(0.15 + 0.1 * (i % 8) as f64, c, c * 3)
        })
        .collect()
}

/// A standalone queue fixture implementing [`QueueView`] for driving
/// policies outside the engine.
#[derive(Debug, Default)]
pub struct BenchQueues {
    lens: Vec<usize>,
    heads: Vec<Nanos>,
    nonempty: Vec<UnitId>,
}

impl BenchQueues {
    /// `n` units, all empty.
    pub fn new(n: usize) -> Self {
        BenchQueues {
            lens: vec![0; n],
            heads: vec![Nanos::ZERO; n],
            nonempty: Vec::new(),
        }
    }

    /// Mark one tuple pending on `unit` with the given head arrival.
    pub fn push(&mut self, unit: UnitId, arrival: Nanos) {
        if self.lens[unit as usize] == 0 {
            self.nonempty.push(unit);
            self.heads[unit as usize] = arrival;
        }
        self.lens[unit as usize] += 1;
    }

    /// Remove one tuple from `unit` (head arrival of any remainder bumps by
    /// 1 ms — benches only need plausible dynamics, not exact FIFO replay).
    pub fn pop(&mut self, unit: UnitId) {
        let len = &mut self.lens[unit as usize];
        *len -= 1;
        if *len == 0 {
            self.nonempty.retain(|&u| u != unit);
        } else {
            self.heads[unit as usize] += Nanos::from_millis(1);
        }
    }
}

impl QueueView for BenchQueues {
    fn len(&self, unit: UnitId) -> usize {
        self.lens[unit as usize]
    }
    fn head_arrivals(&self) -> &[Nanos] {
        &self.heads
    }
    fn nonempty(&self) -> &[UnitId] {
        &self.nonempty
    }
}

/// Load a policy with `n` ready units (one pending tuple each, staggered
/// arrivals) and return the pair ready for `select` benchmarking.
pub fn loaded_policy(mut policy: Box<dyn Policy>, n: usize) -> (Box<dyn Policy>, BenchQueues) {
    let units = spread_units(n);
    policy.on_register(&units);
    let mut q = BenchQueues::new(n);
    for u in 0..n as UnitId {
        let arrival = Nanos::from_millis(u as u64 * 3);
        q.push(u, arrival);
        policy.on_enqueue(u, TupleId::new(u as u64), arrival, arrival);
    }
    (policy, q)
}
