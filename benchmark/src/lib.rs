//! The repository's benchmark. `README.md` explains the workloads, the
//! metrics and the slice/median protocol; `../BENCHMARK.json` names them
//! for the driver.
//!
//! The harness drives the three executors through their public APIs only —
//! `hcq_engine::simulate`, `hcq_runtime::run`, `hcq_aqsios::Dsms` — checks
//! every output, and produces the per-layer numbers in a separate traced
//! run by timing calls at the layers' public boundaries from this side.

pub mod cli;
pub mod inputs;
pub mod isolated;
pub mod json;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod wrappers;
