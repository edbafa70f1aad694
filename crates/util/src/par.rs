//! The fault-isolated parallel map on `std::thread::scope` — the
//! std-only replacement for `crossbeam::thread::scope` +
//! `crossbeam::deque` in the greedy-search candidate evaluation, and the
//! only place library code starts threads.
//!
//! [`steal_map_catch`] is work-stealing: each worker owns a LIFO deque
//! seeded with one contiguous chunk of the input, pops work from its
//! back, and — chase-lev style — steals the *oldest* item from the front
//! of a random victim's deque when its own runs dry, so skewed per-item
//! costs (reused candidates finish in microseconds while recosted ones
//! dominate) do not leave workers idle. Victim selection uses the in-repo
//! xoshiro256++ generator seeded deterministically per call and per
//! worker, so a given `(seed, worker)` probes victims in a reproducible
//! order. With one worker the map runs sequentially on the caller's
//! thread.
//!
//! Results keep input order, a panic is caught per item, and every
//! worker runs under the caller's fault plan (see [`crate::fault`]), so
//! scheduling never influences *what* an item computes: when `f` is pure
//! per item (the fault-injection layer's decisions are pure in
//! `(seed, site, key)` by construction), the result vector is
//! bit-identical across worker counts.

use crate::fault;
use crate::rng::{Rng, StdRng};
use crate::sync::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A panic payload captured by [`steal_map_catch`].
pub type CaughtPanic = Box<dyn std::any::Any + Send + 'static>;

/// Describe a caught panic payload (the `&str`/`String` message when the
/// payload carries one, a placeholder otherwise).
pub fn panic_message(payload: &CaughtPanic) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// The machine's available parallelism (1 when it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Scheduling telemetry from one [`steal_map_catch`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StealReport {
    /// Workers that ran (1 on the sequential path).
    pub workers: usize,
    /// Items executed per worker (sums to the input length).
    pub executed: Vec<u64>,
    /// Items obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Steal probes that found the victim's deque empty.
    pub failed_steals: u64,
    /// Per-worker time spent inside `f`, in nanoseconds.
    pub busy_ns: Vec<u64>,
    /// Wall-clock of the whole call, in nanoseconds.
    pub wall_ns: u64,
}

impl StealReport {
    /// Mean fraction of the call's wall-clock each worker spent executing
    /// items (1.0 = perfectly occupied, no idle spinning or stealing).
    pub fn occupancy(&self) -> f64 {
        if self.workers == 0 || self.wall_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy_ns.iter().sum();
        busy as f64 / (self.workers as f64 * self.wall_ns as f64)
    }

    /// Merge another report into this one (used by the search to
    /// accumulate across iterations). Wall-clocks add; per-worker vectors
    /// add elementwise, growing to the larger worker count.
    pub fn absorb(&mut self, other: &StealReport) {
        self.workers = self.workers.max(other.workers);
        self.steals += other.steals;
        self.failed_steals += other.failed_steals;
        self.wall_ns += other.wall_ns;
        if self.executed.len() < other.executed.len() {
            self.executed.resize(other.executed.len(), 0);
        }
        for (i, n) in other.executed.iter().enumerate() {
            self.executed[i] += n;
        }
        if self.busy_ns.len() < other.busy_ns.len() {
            self.busy_ns.resize(other.busy_ns.len(), 0);
        }
        for (i, n) in other.busy_ns.iter().enumerate() {
            self.busy_ns[i] += n;
        }
    }

    /// Total items executed.
    pub fn items(&self) -> u64 {
        self.executed.iter().sum()
    }
}

/// One worker's private accounting, merged into the [`StealReport`].
struct WorkerLog<U> {
    results: Vec<(usize, Result<U, CaughtPanic>)>,
    executed: u64,
    steals: u64,
    failed_steals: u64,
    busy_ns: u64,
}

/// Map `f` over `items` on up to `max_threads` workers, fault-isolated: a
/// panic in `f` is caught *per item* and surfaced as that item's
/// `Err(payload)` instead of tearing down the whole map. Each worker owns
/// a deque seeded with a contiguous chunk of item indices, pops its own
/// work LIFO (newest first, cache-warm), and steals the oldest item from
/// the front of a random victim's deque when its own is empty. Victim
/// order is drawn from xoshiro256++ seeded by `(seed, worker)`, so
/// scheduling decisions — though racy in real time — are reproducible in
/// distribution, and the *results* are a function of the items alone:
/// input order is preserved, and every worker runs under the caller's
/// fault plan. With an empty input, one item, or `max_threads <= 1`, no
/// threads are spawned and the items run in order on the caller's thread,
/// with the same per-item isolation.
///
/// Returns the results plus a [`StealReport`] (steal counts, per-worker
/// item counts and busy time, wall-clock) for the bench layer.
pub fn steal_map_catch<T, U, F>(
    items: &[T],
    max_threads: usize,
    seed: u64,
    f: F,
) -> (Vec<Result<U, CaughtPanic>>, StealReport)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let run = |item: &T| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
    let start = Instant::now();
    if items.len() <= 1 || max_threads <= 1 {
        let mut busy = 0u64;
        let results: Vec<_> = items
            .iter()
            .map(|item| {
                let t0 = Instant::now();
                let r = run(item);
                busy += t0.elapsed().as_nanos() as u64;
                r
            })
            .collect();
        let executed = items.len() as u64;
        let report = StealReport {
            workers: 1,
            executed: vec![executed],
            steals: 0,
            failed_steals: 0,
            busy_ns: vec![busy],
            wall_ns: (start.elapsed().as_nanos() as u64).max(1),
        };
        return (results, report);
    }

    let n = items.len();
    let workers = max_threads.min(n);
    // Seed each deque with one contiguous chunk, so with zero skew every
    // worker walks a cache-friendly run of neighbouring items.
    let chunk = n.div_ceil(workers);
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            Mutex::new_named((lo..hi.max(lo)).collect(), "par.deque")
        })
        .collect();
    let remaining = AtomicUsize::new(n);
    let plan = fault::active();

    let logs: Vec<WorkerLog<U>> = std::thread::scope(|scope| {
        let run = &run;
        let deques = &deques;
        let remaining = &remaining;
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                scope.spawn(move || {
                    let _plan = fault::scoped(plan);
                    let mut rng = StdRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x9E37));
                    let mut log = WorkerLog {
                        results: Vec::with_capacity(chunk),
                        executed: 0,
                        steals: 0,
                        failed_steals: 0,
                        busy_ns: 0,
                    };
                    loop {
                        // Own work first: LIFO from the back of my deque.
                        let mine = lock_deque(&deques[me]).pop_back();
                        if let Some(i) = mine {
                            execute(i, items, run, &mut log);
                            remaining.fetch_sub(1, Ordering::Release);
                            continue;
                        }
                        if remaining.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        // Steal: probe victims in seeded-random order;
                        // take the *oldest* item (front), the end the
                        // owner is not working.
                        let mut stolen = None;
                        for _ in 0..workers {
                            let v = rng.gen_range(0..workers);
                            if v == me {
                                continue;
                            }
                            match lock_deque(&deques[v]).pop_front() {
                                Some(i) => {
                                    stolen = Some(i);
                                    break;
                                }
                                None => log.failed_steals += 1,
                            }
                        }
                        match stolen {
                            Some(i) => {
                                log.steals += 1;
                                execute(i, items, run, &mut log);
                                remaining.fetch_sub(1, Ordering::Release);
                            }
                            // Everything is in flight on other workers;
                            // spin politely until `remaining` drains.
                            None => std::thread::yield_now(),
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(log) => log,
                // `run` catches panics from `f`; a join error can only be
                // a harness-level failure, which we do propagate.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut slots: Vec<Option<Result<U, CaughtPanic>>> = (0..n).map(|_| None).collect();
    let mut report = StealReport {
        workers,
        executed: Vec::with_capacity(workers),
        steals: 0,
        failed_steals: 0,
        busy_ns: Vec::with_capacity(workers),
        wall_ns: (start.elapsed().as_nanos() as u64).max(1),
    };
    for log in logs {
        report.executed.push(log.executed);
        report.busy_ns.push(log.busy_ns);
        report.steals += log.steals;
        report.failed_steals += log.failed_steals;
        for (i, r) in log.results {
            debug_assert!(slots[i].is_none(), "item {i} executed twice");
            slots[i] = Some(r);
        }
    }
    let results = slots
        .into_iter()
        .map(|s| match s {
            Some(r) => r,
            // Unreachable: every index 0..n is pushed to exactly one deque
            // and executed by exactly one worker before `remaining` hits 0.
            None => panic!("work-stealing scheduler lost an item"),
        })
        .collect();
    (results, report)
}

fn execute<T, U>(
    i: usize,
    items: &[T],
    run: &impl Fn(&T) -> Result<U, CaughtPanic>,
    log: &mut WorkerLog<U>,
) {
    let t0 = Instant::now();
    let r = run(&items[i]);
    log.busy_ns += t0.elapsed().as_nanos() as u64;
    log.executed += 1;
    log.results.push((i, r));
}

fn lock_deque(m: &Mutex<VecDeque<usize>>) -> MutexGuard<'_, VecDeque<usize>> {
    // A worker panicking while holding the deque lock is impossible (the
    // guarded section only pops an index), but `f` panics on *other*
    // threads can poison mutexes observed later; `sync::Mutex` shrugs
    // that off, and its lock-order tracking covers the steal path too.
    m.lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn steal_results_preserve_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let (out, report) = steal_map_catch(&items, threads, 42, |&x| x * 2);
            let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(
                values,
                items.iter().map(|x| x * 2).collect::<Vec<_>>(),
                "threads={threads}"
            );
            assert_eq!(report.items(), 257, "threads={threads}");
            assert_eq!(report.workers, threads.clamp(1, 257));
        }
    }

    #[test]
    fn steal_handles_empty_singleton_and_zero_workers() {
        let (out, report) = steal_map_catch(&[] as &[u8], 4, 0, |&x| x);
        assert!(out.is_empty());
        assert_eq!(report.workers, 1);
        assert_eq!(report.items(), 0);
        let (out, report) = steal_map_catch(&[7u8], 4, 0, |&x| x + 1);
        assert_eq!(out.len(), 1);
        assert_eq!(*out[0].as_ref().unwrap(), 8);
        assert_eq!(report.items(), 1);
        // Zero threads degrades to the sequential path, never to zero
        // workers.
        let (out, report) = steal_map_catch(&[1u8, 2, 3], 0, 0, |&x| x);
        assert_eq!(out.len(), 3);
        assert_eq!(report.workers, 1);
        assert_eq!(report.steals, 0);
    }

    #[test]
    fn steal_visits_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        let (out, report) = steal_map_catch(&items, 7, 9, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
        assert_eq!(report.items(), 500);
        assert_eq!(report.executed.iter().sum::<u64>(), 500);
    }

    #[test]
    fn skewed_workloads_get_rebalanced_by_stealing() {
        // 4 workers, 64 items. The items force the interleaving instead of
        // trusting the OS scheduler — which, with the suite running beside
        // this test on few cores, may not run a worker at all until the
        // others have drained every deque: no item finishes before all
        // four workers have started one, and the items of worker 0's
        // chunk (0..16) keep it busy until a second thread — which can
        // only have stolen one — has started one of them too.
        let items: Vec<u64> = (0..64).collect();
        let started = std::sync::Mutex::new(Vec::new());
        let threads_started = |slow_only: bool| {
            let mut ids = Vec::new();
            for &(id, slow) in started.lock().unwrap().iter() {
                if (slow || !slow_only) && !ids.contains(&id) {
                    ids.push(id);
                }
            }
            ids.len()
        };
        // The deadline only bounds a broken scheduler: the assertions
        // below then fail instead of the test hanging.
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        let (out, report) = steal_map_catch(&items, 4, 1, |&x| {
            let slow = x < 16;
            started
                .lock()
                .unwrap()
                .push((std::thread::current().id(), slow));
            while (threads_started(false) < 4 || (slow && threads_started(true) < 2))
                && Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            x
        });
        assert_eq!(out.len(), 64);
        assert!(
            report.executed.iter().all(|&n| n > 0),
            "executed: {:?}",
            report.executed
        );
        assert!(report.steals > 0, "{report:?}");
    }

    #[test]
    fn steal_isolates_panics_per_item_including_stolen_ones() {
        let items: Vec<u32> = (0..128).collect();
        for threads in [1, 4, 16] {
            let (out, _) = steal_map_catch(&items, threads, 5, |&x| {
                if x % 5 == 2 {
                    panic!("poisoned {x}");
                }
                x * 3
            });
            assert_eq!(out.len(), 128, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                let x = i as u32;
                match r {
                    Ok(v) => {
                        assert_ne!(x % 5, 2);
                        assert_eq!(*v, x * 3);
                    }
                    Err(payload) => {
                        assert_eq!(x % 5, 2);
                        assert_eq!(panic_message(payload), format!("poisoned {x}"));
                    }
                }
            }
        }
    }

    #[test]
    fn steal_matches_sequential_bit_for_bit() {
        // The permutation-invariance contract: execution order must not
        // leak into results. `f` is pure per item, so every worker count
        // and victim seed must produce the sequential vector.
        let items: Vec<u64> = (0..300).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xabc).collect();
        for threads in [2, 5, 8] {
            for seed in [0, 1, 99] {
                let (out, _) =
                    steal_map_catch(&items, threads, seed, |&x| x.wrapping_mul(x) ^ 0xabc);
                let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
                assert_eq!(values, sequential, "threads={threads} seed={seed}");
            }
        }
    }

    #[test]
    fn steal_report_occupancy_and_absorb() {
        let items: Vec<u64> = (0..32).collect();
        let (_, a) = steal_map_catch(&items, 4, 3, |&x| x);
        let occupancy = a.occupancy();
        assert!((0.0..=1.0).contains(&occupancy), "{occupancy}");
        let mut merged = StealReport::default();
        merged.absorb(&a);
        merged.absorb(&a);
        assert_eq!(merged.items(), 2 * a.items());
        assert_eq!(merged.steals, 2 * a.steals);
        assert_eq!(merged.wall_ns, 2 * a.wall_ns);
        assert_eq!(merged.workers, a.workers);
    }

    #[test]
    fn workers_run_under_the_callers_fault_plan() {
        // Items run on spawned workers (seeded or stolen) must see the
        // plan of the thread that called the map, armed or disarmed.
        let items: Vec<u32> = (0..64).collect();
        let probe = |x: &u32| {
            let fired = fault::failpoint("util.par", &x.to_string()).is_err();
            (fault::active(), fired)
        };
        for threads in [1, 4] {
            let armed = fault::FaultConfig::always(5, fault::FaultMode::Error);
            let _armed = fault::override_for_test(armed);
            let (out, _) = steal_map_catch(&items, threads, 7, probe);
            for r in out {
                assert_eq!(r.unwrap(), (Some(armed), true), "threads={threads}");
            }
            let _quiet = fault::override_for_test(None);
            let (out, _) = steal_map_catch(&items, threads, 7, probe);
            for r in out {
                assert_eq!(r.unwrap(), (None, false), "threads={threads}");
            }
        }
    }
}
