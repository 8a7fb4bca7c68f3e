//! Reproduction harness for every table and figure of §9.
//!
//! Each `figNN`/`tableN` function regenerates one exhibit: it builds the §8
//! workload at the requested scale, runs the relevant policies through the
//! simulator, prints the series the paper plots, and writes a CSV next to
//! the binary's `--out` directory. [`EXHIBITS`] is the registry the `repro`
//! binary resolves its request names against ([`resolve`]).
//! `EXPERIMENTS.md` records a reference run against the paper's reported
//! shapes.
//!
//! Absolute values are not expected to match the paper (different hardware
//! model, trace substitute, scaled-down defaults); orderings, gaps and
//! crossovers are the reproduction target.

pub mod exhibits;
pub mod fuzz;
pub mod harness;
pub mod inspect;
pub mod monitor;
pub mod plot;
pub mod runtime;
pub mod table;
pub mod validate;

pub use exhibits::{
    ext_adaptive, ext_faults, ext_large_q, ext_lp, ext_memory, ext_overhead, ext_overload,
    ext_preemption, ext_recovery, ext_seeds, ext_transient, fig11, fig12, fig13, fig14, fig5_to_10,
    request_names, resolve, table1, table2, table3, Exhibit, ExhibitOutput, Step, EXHIBITS, MODES,
};
pub use fuzz::{fuzz, fuzz_replay, FuzzSummary};
pub use harness::{run_jobs, ExpConfig, SweepResults};
pub use inspect::{ext_inspect, guard_overwrite, inspect_trace, InspectFormat};
pub use monitor::{monitor, MonitorOutput};
pub use plot::Chart;
pub use runtime::run_runtime;
pub use table::AsciiTable;
pub use validate::{validate, ClaimResult};
