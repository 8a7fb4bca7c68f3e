//! Measurement fixtures shared by the repository's front ends.
//!
//! * [`pipeline`] — the 60-query reference workload the runtime ⇄ simulator
//!   differential test and `repro run` both execute.
//! * [`large_q`] — the 10³…10⁶-query scheduling-point sweep behind
//!   `repro ext_large_q`, the CI sub-linearity gates and the `q100k` cells
//!   of `benchmark/` (see `BENCHMARK.json`).
//!
//! The repository's one benchmark is the standalone `benchmark/` package;
//! nothing here times anything on its own.

pub mod large_q;

/// The fixed reference workload: one plan, one Poisson source, one seed.
pub mod pipeline {
    use hcq_common::Nanos;
    use hcq_core::PolicyKind;
    use hcq_engine::{simulate, SimConfig, SimReport};
    use hcq_streams::PoissonSource;
    use hcq_workload::{single_stream, PaperWorkload, SingleStreamConfig};

    /// Source arrivals per simulation.
    pub const ARRIVALS: u64 = 500;
    /// Policies run on the fixture, in emission order.
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

    /// One simulation of the reference workload under `kind`.
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
}
