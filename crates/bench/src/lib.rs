//! # legodb-bench
//!
//! The experiment harness: one `legodb-bench <experiment>` binary
//! (`src/main.rs`) for every table/figure of the paper, the experiments
//! themselves in [`harness`], the threshold checker CI runs over their
//! records in [`gate`], and micro-benches of the machinery under
//! `benches/`.

#![forbid(unsafe_code)]

pub mod gate;
pub mod harness;
