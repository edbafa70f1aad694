//! # legodb-util
//!
//! Std-only runtime support for the LegoDB workspace. This crate exists
//! so the whole workspace builds **fully offline**: it replaces every
//! external dependency the repository used to declare with small,
//! purpose-built equivalents.
//!
//! | Module | Replaces | Provides |
//! |---|---|---|
//! | [`rng`] | `rand` | seedable SplitMix64 / xoshiro256++ PRNG, `Rng` trait (`gen_range`, `gen_bool`, `shuffle`, `sample`) |
//! | [`par`] | `crossbeam::thread::scope` + `crossbeam::deque` | [`par::steal_map_catch`]: the one order-preserving, fault-isolated parallel map (work-stealing deques, caller's fault plan handed to every worker) with [`par::StealReport`] telemetry — the only place library code starts threads |
//! | [`governor`] | — | [`governor::Budget`] deadlines / evaluation / memory-estimate budgets with a cheap `checkpoint()` |
//! | [`fault`] | `fail` | deterministic, order-independent fault injection under a per-thread plan (seeded from `LEGODB_FAULT_SEED`, replaced by [`fault::override_for_test`]) |
//! | [`sync`] | `parking_lot` | poison-tolerant [`sync::RwLock`] / [`sync::Mutex`] with direct-guard API; [`sync::Striped`] lock-striped shards |
//! | [`lockcheck`] | `tsan`-style deadlock detection | debug-only runtime lock-order sanitizer fed by [`sync`] (held-lock stacks, acquisition-order graph, cycle panics with witnesses) |
//! | [`hash`] | — | [`hash::StableHasher`]: seeded, platform-stable FNV-1a fingerprints |
//! | [`prop`] | `proptest` | [`prop_check!`] macro: case generation, shrinking-by-halving, seed replay |
//! | [`bench`] | `criterion` | warmup + N-sample micro-bench harness, median/p95, JSON-lines output |
//! | [`json`] | `serde` | minimal JSON writer for the bench records, and a JSON-lines reader for the CI gate |
//! | [`fs`] | — | [`fs::DirHandle`] capability-style directory handle: the only sanctioned route to `std::fs` (atomic replace, append logs, truncation) |
//!
//! Everything here is deterministic where it matters (seeded streams are
//! stable across platforms) and dependency-free by policy: see the
//! README's "Building offline" section.

#![forbid(unsafe_code)]

pub mod bench;
pub mod fault;
pub mod fs;
pub mod governor;
pub mod hash;
pub mod json;
pub mod lockcheck;
pub mod par;
pub mod prop;
pub mod rng;
pub mod sync;

pub use fault::{failpoint, FaultConfig, FaultError, FaultMode};
pub use fs::{DirHandle, LogFile};
pub use governor::{Budget, BudgetExceeded, Governor};
pub use hash::StableHasher;
pub use par::{steal_map_catch, StealReport};
pub use rng::{Rng, SampleRange, SampleUniform, SplitMix64, StdRng};
pub use sync::{Mutex, RwLock, Striped};
