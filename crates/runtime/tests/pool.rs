//! The worker pool behind `par_range`, `par_reduce` and
//! `par_sort_unstable_by_key`: panics, concurrent submitters, nesting,
//! oversubscription and the contention counters.
//!
//! The tests share one process-wide pool, and a region submitted while
//! another test's region holds it runs inline, so they take turns.

use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use pscc_runtime::{
    par_range, par_reduce, par_sort_unstable_by_key, pool::available_parallelism, with_threads,
};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` on a fresh thread and fails the test if it has not finished
/// within a minute, instead of letting a lost wake-up hang the suite.
fn within<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Ok(r)) => r,
        Ok(Err(p)) => panic::resume_unwind(p),
        Err(_) => panic!("{what} did not finish within 60 s"),
    }
}

fn on_pool_worker() -> bool {
    thread::current().name().is_some_and(|n| n.starts_with("pscc-pool"))
}

/// A barrier each thread meets once, at its first call. Calling it at the
/// top of every block of a region forces `parties` participants to run
/// at once: none can claim a second block before all have claimed one.
struct Rendezvous {
    barrier: Barrier,
    met: Mutex<HashSet<ThreadId>>,
}

impl Rendezvous {
    fn new(parties: usize) -> Self {
        Self { barrier: Barrier::new(parties), met: Mutex::new(HashSet::new()) }
    }

    /// Waits for the other parties on this thread's first call; true
    /// then, false on later calls.
    fn meet(&self) -> bool {
        let first = self.met.lock().expect("met lock").insert(thread::current().id());
        if first {
            self.barrier.wait();
        }
        first
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// Runs a region of `width` participants through each primitive, each
/// participant calling `block` once after all have met: every region
/// completes only if `width` participants run at once.
fn meet_in_each_primitive(width: usize, block: &(dyn Fn() + Sync)) {
    let r = Rendezvous::new(width);
    par_range(0..width, 1, &|_| {
        if r.meet() {
            block();
        }
    });
    let r = Rendezvous::new(width);
    let total = par_reduce(
        width * 2048,
        0u64,
        |_| {
            if r.meet() {
                block();
            }
            1
        },
        u64::wrapping_add,
    );
    assert_eq!(total, (width * 2048) as u64);
    // The sort cuts one chunk per participant.
    let r = Rendezvous::new(width);
    let mut v: Vec<u64> = (0..(width as u64) * 10_000).rev().collect();
    par_sort_unstable_by_key(&mut v, |&x| {
        if r.meet() {
            block();
        }
        x
    });
    assert!(v.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn a_worker_panic_reaches_the_caller_and_the_pool_survives() {
    let _serial = serial();
    within("panic test", || {
        with_threads(2, || {
            let boom = || {
                if on_pool_worker() {
                    panic!("worker boom");
                }
            };
            let caught = |what: &str, f: &dyn Fn()| {
                let p = panic::catch_unwind(AssertUnwindSafe(f)).expect_err(what);
                assert_eq!(panic_message(&*p), "worker boom", "{what}");
            };
            let r = Rendezvous::new(2);
            caught("par_range", &|| {
                par_range(0..64, 1, &|_| {
                    if r.meet() {
                        boom();
                    }
                })
            });
            let r = Rendezvous::new(2);
            caught("par_reduce", &|| {
                par_reduce(
                    64 * 2048,
                    0u64,
                    |_| {
                        if r.meet() {
                            boom();
                        }
                        1
                    },
                    u64::wrapping_add,
                );
            });
            let r = Rendezvous::new(2);
            caught("par_sort_unstable_by_key", &|| {
                let mut v: Vec<u64> = (0..100_000).rev().collect();
                par_sort_unstable_by_key(&mut v, |&x| {
                    if r.meet() {
                        boom();
                    }
                    x
                });
            });
            // The next regions still run on the pool, two participants
            // at once.
            meet_in_each_primitive(2, &|| {});
        });
    });
}

#[test]
fn concurrent_submitters_each_visit_every_index_once() {
    let _serial = serial();
    within("four submitters", || {
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                thread::spawn(move || {
                    with_threads(2, || {
                        for round in 0..100 {
                            let n = 5_000 + 37 * t + round;
                            let hits: Vec<AtomicUsize> =
                                (0..n).map(|_| AtomicUsize::new(0)).collect();
                            par_range(0..n, 64, &|r| {
                                for i in r {
                                    hits[i].fetch_add(1, Ordering::Relaxed);
                                }
                            });
                            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                            let sum = par_reduce(n, 0u64, |i| i as u64, u64::wrapping_add);
                            assert_eq!(sum, (0..n as u64).sum::<u64>());
                            let mut v: Vec<u64> =
                                (0..n as u64).map(|i| i * 7919 % 10_007).collect();
                            let mut want = v.clone();
                            par_sort_unstable_by_key(&mut v, |&x| x);
                            want.sort_unstable();
                            assert_eq!(v, want);
                        }
                    })
                })
            })
            .collect();
        for s in submitters {
            s.join().expect("submitter panicked");
        }
    });
}

#[test]
fn regions_nested_in_a_worker_run_sequentially() {
    let _serial = serial();
    let inline = pscc_telemetry::counter("pscc_pool_inline_regions_total");
    let inline_before = inline.get();
    within("nesting test", || {
        let checked = AtomicUsize::new(0);
        with_threads(4, || {
            meet_in_each_primitive(4, &|| {
                if !on_pool_worker() {
                    return;
                }
                let me = thread::current().id();
                let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
                let note = || {
                    seen.lock().expect("seen lock").insert(thread::current().id());
                };
                par_range(0..10_000, 1, &|_| note());
                par_reduce(
                    100_000,
                    0u64,
                    |_| {
                        note();
                        1
                    },
                    u64::wrapping_add,
                );
                let mut v: Vec<u64> = (0..100_000).rev().collect();
                par_sort_unstable_by_key(&mut v, |&x| {
                    note();
                    x
                });
                assert_eq!(*seen.lock().expect("seen lock"), HashSet::from([me]));
                checked.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(checked.load(Ordering::Relaxed) > 0, "no worker ran a block");
    });
    // Nested calls are plain sequential loops, not regions that found the
    // pool busy.
    assert_eq!(inline.get(), inline_before);
}

#[test]
fn oversubscribed_regions_get_every_participant_at_once() {
    let _serial = serial();
    let k = available_parallelism() + 3;
    within("oversubscribed regions", move || {
        with_threads(k, || meet_in_each_primitive(k, &|| {}));
    });
}

#[test]
fn a_region_submitted_while_the_pool_is_held_runs_inline_and_is_counted() {
    let _serial = serial();
    let regions = pscc_telemetry::counter("pscc_pool_regions_total");
    let inline = pscc_telemetry::counter("pscc_pool_inline_regions_total");
    let (regions_before, inline_before) = (regions.get(), inline.get());
    within("racing submitters", || {
        let holding = AtomicBool::new(false);
        let done = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                with_threads(2, || {
                    par_range(0..2, 1, &|_| {
                        holding.store(true, Ordering::Release);
                        let start = Instant::now();
                        while !done.load(Ordering::Acquire)
                            && start.elapsed() < Duration::from_secs(30)
                        {
                            thread::yield_now();
                        }
                    });
                });
            });
            s.spawn(|| {
                while !holding.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                let ran_on = Mutex::new(HashSet::new());
                with_threads(2, || {
                    par_range(0..100, 1, &|_| {
                        ran_on.lock().expect("ran_on lock").insert(thread::current().id());
                    });
                });
                done.store(true, Ordering::Release);
                assert_eq!(
                    ran_on.into_inner().expect("ran_on lock"),
                    HashSet::from([thread::current().id()]),
                    "an inline region runs on its submitter only"
                );
            });
        });
    });
    assert!(inline.get() > inline_before, "the contended region was not counted inline");
    assert!(regions.get() >= regions_before + 2);
}
