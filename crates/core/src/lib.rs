//! Scheduling policies for heterogeneous continuous queries.
//!
//! This crate is the paper's primary contribution: given a set of
//! *schedulable units* (operator segments — whole single-stream queries, the
//! virtual per-leaf segments of window-join queries, shared-operator groups,
//! or individual operators under preemptive scheduling), decide at every
//! scheduling point which unit runs next.
//!
//! | Policy | Priority of unit `x` | Optimizes |
//! |---|---|---|
//! | [`FcfsPolicy`] | arrival order | — (baseline) |
//! | [`RoundRobinPolicy`] | rotation | — (Aurora's query-level scheme) |
//! | [`StaticPolicy`] (SRPT) | `1/T` | response time, deterministic workloads |
//! | [`StaticPolicy`] (HR) | `S/C̄` (Eq. 4) | average response time |
//! | [`StaticPolicy`] (HNR) | `S/(C̄·T)` (Eq. 3) | average slowdown |
//! | [`WaitPolicy`] (LSF) | `W/T` (Eq. 5) | maximum slowdown |
//! | [`WaitPolicy`] (BSD) | `(S/(C̄·T²))·W` (Eq. 6) | ℓ2 norm of slowdowns |
//! | [`ClusteredBsdPolicy`] | BSD via §6 clustering + Fagin pruning | ℓ2, cheaply |
//!
//! Policies interact with the engine through the [`Policy`] trait: the engine
//! reports enqueues, the policy answers `select` with the unit(s) to run and
//! the number of priority computations/comparisons it spent (so the engine
//! can charge scheduling overhead in virtual time, as §9.2 does). Callers
//! name a policy by a [`PolicyKind`] value and build it with
//! [`PolicyKind::build`].
//!
//! [`pdt`] implements the §7 Priority-Defining Tree for shared operators;
//! [`adaptive`] adds the §10 "dynamic environment" hook: online EWMA
//! estimation of operator cost/selectivity; [`WaitRank::Lp`] generalizes
//! BSD to arbitrary ℓp norms (an extension beyond the paper).
//!
//! Priorities can be evaluated directly from [`UnitStatics`]:
//!
//! ```
//! use hcq_common::Nanos;
//! use hcq_core::UnitStatics;
//!
//! // Example 1's two queries (§3.4): HR and HNR disagree about who runs
//! // first, which is the whole point of the paper.
//! let q1 = UnitStatics::new(1.0, Nanos::from_millis(5), Nanos::from_millis(5));
//! let q2 = UnitStatics::new(0.33, Nanos::from_millis(2), Nanos::from_millis(2));
//! assert!(q1.hr_priority() > q2.hr_priority());   // HR: Q1 first
//! assert!(q2.hnr_priority() > q1.hnr_priority()); // HNR: Q2 first
//! ```

pub mod adaptive;
pub mod cluster;
pub mod fagin;
pub mod fcfs;
mod headgroups;
pub mod pdt;
pub mod policy;
pub mod rr;
pub mod soa;
pub mod statics;
pub mod unit;
mod waitlist;

pub use adaptive::{EwmaEstimator, WindowedEstimator};
pub use cluster::{ClusterConfig, ClusteredBsdPolicy, Clustering};
pub use fcfs::FcfsPolicy;
pub use headgroups::{WaitPolicy, WaitRank};
pub use pdt::{shared_priority, PdtSelection, SharingStrategy};
pub use policy::{Policy, PolicyKind, QueueView, SchedStats, Selection, SelectionUnits, UnitId};
pub use rr::RoundRobinPolicy;
pub use statics::{StaticPolicy, StaticRank};
pub use unit::{PriorityKey, UnitStatics, MIN_TIME_NS};
