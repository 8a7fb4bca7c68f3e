//! The workspace's strict, number-text-preserving JSON codec, re-exported
//! under the path this crate has always offered (see [`hcq_common::json`]).

pub use hcq_common::json::*;
