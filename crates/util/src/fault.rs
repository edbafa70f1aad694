//! Deterministic fault injection for robustness testing.
//!
//! Instrumented call sites declare a *failpoint*: a site name plus a
//! stable per-item key. Whether a given `(site, key)` fires — and whether
//! it fires as an `Err` or as a panic — is a **pure function** of the
//! active seed, independent of call order, thread interleaving, and
//! repetition. Sequential and parallel executions of the same work
//! therefore inject *identical* faults, which the search equivalence
//! properties rely on.
//!
//! Each thread carries its own fault *plan* (`Option<FaultConfig>`;
//! `None` means no faults):
//!
//! 1. A thread's plan starts as the environment config, read once per
//!    process: `LEGODB_FAULT_SEED` (CI fault pass), with optional
//!    `LEGODB_FAULT_RATE` (default 0.02) and `LEGODB_FAULT_MODE`
//!    (`error` | `panic` | `mixed`, default `mixed`).
//! 2. [`override_for_test`] replaces the calling thread's plan, and no
//!    other thread's, until its guard drops. `override_for_test(None)`
//!    lets a strict test disarm itself under the fault pass.
//! 3. [`crate::par::steal_map_catch`] — the only place library code
//!    starts threads — hands the caller's plan to every worker, so a
//!    parallel map injects exactly the faults its sequential run would.
//!
//! No process-global state changes after start-up, so concurrent tests
//! cannot observe each other's plans.

use crate::rng::{Rng, SplitMix64};
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// How an activated failpoint manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fire as a recoverable `Err` only.
    Error,
    /// Fire as a panic only.
    Panic,
    /// A deterministic per-key coin picks `Err` or panic.
    Mixed,
}

/// Fault-injection settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the decision function.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given `(site, key)` fires.
    pub rate: f64,
    /// How fired faults manifest.
    pub mode: FaultMode,
}

impl FaultConfig {
    /// A config that fires every failpoint (`rate = 1`).
    pub fn always(seed: u64, mode: FaultMode) -> FaultConfig {
        FaultConfig {
            seed,
            rate: 1.0,
            mode,
        }
    }
}

/// The error returned by a failpoint firing in error mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The instrumented site.
    pub site: String,
    /// The per-item key.
    pub key: String,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} ({})", self.site, self.key)
    }
}

impl std::error::Error for FaultError {}

/// The `LEGODB_FAULT_*` config, read once per process: every thread's
/// starting plan.
fn env_config() -> Option<FaultConfig> {
    static CONFIG: OnceLock<Option<FaultConfig>> = OnceLock::new();
    *CONFIG.get_or_init(|| {
        let seed: u64 = std::env::var("LEGODB_FAULT_SEED").ok()?.parse().ok()?;
        let rate = std::env::var("LEGODB_FAULT_RATE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.02f64)
            .clamp(0.0, 1.0);
        let mode = match std::env::var("LEGODB_FAULT_MODE").as_deref() {
            Ok("error") => FaultMode::Error,
            Ok("panic") => FaultMode::Panic,
            _ => FaultMode::Mixed,
        };
        Some(FaultConfig { seed, rate, mode })
    })
}

thread_local! {
    static PLAN: Cell<Option<FaultConfig>> = Cell::new(env_config());
}

/// The calling thread's fault plan (`None` = no faults).
pub fn active() -> Option<FaultConfig> {
    PLAN.with(Cell::get)
}

/// RAII guard for a replaced thread plan: dropping it restores the plan
/// the thread had before. Not `Send` — it must drop on the thread whose
/// plan it replaced.
pub struct OverrideGuard {
    previous: Option<FaultConfig>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        PLAN.with(|plan| plan.set(self.previous));
    }
}

/// Run the calling thread under `plan` until the returned guard drops.
pub(crate) fn scoped(plan: Option<FaultConfig>) -> OverrideGuard {
    OverrideGuard {
        previous: PLAN.with(|current| current.replace(plan)),
        _thread_bound: PhantomData,
    }
}

/// Replace the calling thread's fault plan until the returned guard
/// drops: a [`FaultConfig`] arms it, `None` disarms it. Other threads —
/// including concurrently running tests — keep their own plans; workers
/// of [`crate::par::steal_map_catch`] started under the guard inherit it.
pub fn override_for_test(plan: impl Into<Option<FaultConfig>>) -> OverrideGuard {
    scoped(plan.into())
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pure decision: does `(site, key)` fire under `config`, and how?
fn decide(config: &FaultConfig, site: &str, key: &str) -> Option<FaultMode> {
    let mixed = config
        .seed
        .wrapping_add(fnv1a(site).rotate_left(17))
        .wrapping_add(fnv1a(key).rotate_left(41));
    let mut rng = SplitMix64::new(mixed);
    let draw = rng.next_u64();
    // Top 53 bits → uniform f64 in [0, 1).
    let uniform = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if uniform >= config.rate {
        return None;
    }
    Some(match config.mode {
        FaultMode::Error => FaultMode::Error,
        FaultMode::Panic => FaultMode::Panic,
        FaultMode::Mixed => {
            if rng.next_u64() & 1 == 1 {
                FaultMode::Panic
            } else {
                FaultMode::Error
            }
        }
    })
}

/// The failpoint: returns `Ok(())` normally; under an active config,
/// deterministically returns `Err(FaultError)` or panics for the
/// configured fraction of `(site, key)` pairs.
pub fn failpoint(site: &str, key: &str) -> Result<(), FaultError> {
    let Some(config) = active() else {
        return Ok(());
    };
    match decide(&config, site, key) {
        None => Ok(()),
        Some(FaultMode::Panic) => panic!("injected fault (panic) at {site} ({key})"),
        Some(FaultMode::Error | FaultMode::Mixed) => Err(FaultError {
            site: site.to_string(),
            key: key.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `failpoint(site, key)` did on this thread: passed (`None`),
    /// returned an error, or panicked.
    fn outcome(site: &str, key: &str) -> Option<FaultMode> {
        match std::panic::catch_unwind(|| failpoint(site, key)) {
            Ok(Ok(())) => None,
            Ok(Err(_)) => Some(FaultMode::Error),
            Err(_) => Some(FaultMode::Panic),
        }
    }

    #[test]
    fn disarmed_failpoints_pass() {
        let _quiet = override_for_test(None);
        assert_eq!(active(), None);
        for i in 0..100 {
            assert!(failpoint("util.test", &i.to_string()).is_ok());
        }
    }

    #[test]
    fn decisions_are_pure_and_order_independent() {
        let cfg = FaultConfig {
            seed: 7,
            rate: 0.5,
            mode: FaultMode::Mixed,
        };
        let forward: Vec<_> = (0..64).map(|i| decide(&cfg, "s", &i.to_string())).collect();
        let mut backward: Vec<_> = (0..64)
            .rev()
            .map(|i| decide(&cfg, "s", &i.to_string()))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
        // Roughly half fire at rate 0.5.
        let fired = forward.iter().filter(|d| d.is_some()).count();
        assert!((16..=48).contains(&fired), "fired {fired}/64");
    }

    #[test]
    fn rate_one_error_mode_always_errors() {
        let _guard = override_for_test(FaultConfig::always(1, FaultMode::Error));
        for i in 0..16 {
            let err = failpoint("util.rate1", &i.to_string()).unwrap_err();
            assert_eq!(err.site, "util.rate1");
        }
    }

    #[test]
    fn panic_mode_panics_with_site_in_message() {
        let _guard = override_for_test(FaultConfig::always(1, FaultMode::Panic));
        let caught = std::panic::catch_unwind(|| failpoint("util.boom", "k"));
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("util.boom"), "{msg}");
    }

    #[test]
    fn override_guards_nest_and_restore_the_prior_plan() {
        let before = active();
        {
            let _error = override_for_test(FaultConfig::always(1, FaultMode::Error));
            assert!(failpoint("util.guard", "k").is_err());
            {
                let _quiet = override_for_test(None);
                assert!(failpoint("util.guard", "k").is_ok());
            }
            assert!(failpoint("util.guard", "k").is_err());
        }
        assert_eq!(active(), before);
    }

    #[test]
    fn one_threads_plan_never_reaches_another_thread() {
        // Thread A holds an always-panic plan for the whole time thread B
        // runs its failpoints; B installed nothing, so it must see only
        // the environment plan (no faults outside the CI fault pass).
        let armed = std::sync::Barrier::new(2);
        let checked = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _panic = override_for_test(FaultConfig::always(9, FaultMode::Panic));
                armed.wait();
                checked.wait();
                assert_eq!(outcome("util.thread_a", "k"), Some(FaultMode::Panic));
            });
            s.spawn(|| {
                armed.wait();
                let plan = active();
                let seen: Vec<_> = (0..100)
                    .map(|i| outcome("util.thread_b", &i.to_string()))
                    .collect();
                // Release A before asserting, so a failure cannot hang it.
                checked.wait();
                assert_eq!(plan, env_config());
                for (i, got) in seen.into_iter().enumerate() {
                    let key = i.to_string();
                    let expected = plan.and_then(|c| decide(&c, "util.thread_b", &key));
                    assert_eq!(got, expected, "key {key}");
                }
            });
        });
    }
}
