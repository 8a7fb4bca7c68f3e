//! An embeddable online mini-DSMS.
//!
//! The simulator in `hcq-engine` reproduces the paper's *evaluation*; this
//! crate is the *system* the paper was building toward (its conclusion:
//! "our next step is to incorporate our policies in our AQSIOS DSMS
//! prototype"). It executes continuous queries over **real records** with
//! **real predicates**, scheduled by the paper's policies:
//!
//! * Callers [`Dsms::push`] records onto streams and call [`Dsms::run_once`]
//!   (one scheduling decision + one pipelined segment execution) or
//!   [`Dsms::run_until_idle`]; emissions come back with per-tuple response
//!   time and slowdown.
//! * Time comes from a pluggable [`Clock`] — [`SystemClock`] for live use,
//!   [`ManualClock`] for deterministic tests and replays.
//! * A registered query is lowered once into the compiled plan the
//!   simulator and `hcq-runtime` use ([`hcq_plan::CompiledQuery`]), one
//!   schedulable unit per leaf.
//! * Operator selectivities and stream rates are *estimated online* (EWMA,
//!   §10's "dynamic environment" hook): every execution updates the
//!   estimates, and [`Dsms::refresh_priorities`] writes them into the
//!   compiled plan in place and hands the re-derived statics to the policy.
//!   Operator costs keep their declared estimates — a manual or replay
//!   clock cannot time an operator — so a query's `T` is fixed.
//! * Queries can be written in a tiny SQL-like dialect ([`cql`]):
//!   `SELECT f0 FROM s0 WHERE f1 >= 100`, including window joins with
//!   `JOIN … ON … WITHIN 5s`.
//!
//! ```
//! use hcq_aqsios::{Cmp, Dsms, DsmsConfig, Predicate, Record, RtOp, RtPlan, RuntimePolicy};
//! use hcq_common::{Nanos, StreamId};
//!
//! let mut dsms = Dsms::new(DsmsConfig::new(RuntimePolicy::Hnr)).unwrap();
//! // SELECT * FROM ticks WHERE price < 100
//! let q = dsms
//!     .register(RtPlan::single(
//!         StreamId::new(0),
//!         vec![RtOp::select(
//!             Predicate::new(0, Cmp::Lt, 100),
//!             Nanos::from_micros(10),
//!             0.5,
//!         )],
//!     ))
//!     .unwrap();
//! dsms.push(StreamId::new(0), Record::new(vec![42, 7]));
//! dsms.push(StreamId::new(0), Record::new(vec![180, 9]));
//! let out = dsms.run_until_idle();
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].query, q);
//! assert_eq!(out[0].record.fields(), &[42, 7]);
//! ```

pub mod clock;
pub mod cql;
pub mod dsms;
pub mod ops;
pub mod record;

pub use clock::{Clock, ManualClock, SystemClock};
pub use cql::parse as parse_cql;
pub use dsms::{Dsms, DsmsConfig, Emission, Emissions, RuntimePolicy, RuntimeStats};
pub use ops::{RtJoin, RtOp, RtOpKind, RtPlan};
pub use record::{Cmp, Predicate, Record};
