//! Thread-width control and the worker pool behind every parallel region.
//!
//! The evaluation (Fig. 7, Fig. 8, Fig. 11) varies the number of processors
//! from 1 to the machine width. "Width" here is a per-thread *parallelism
//! budget*: [`with_threads`] overrides it for a closure — including
//! oversubscription beyond the physical core count, which the stress tests
//! rely on to force real interleavings on narrow CI hosts.
//!
//! Parallel regions run on one process-wide pool of parked workers, as in
//! ParlayLib's fork-join scheduler: spawning and joining OS threads for
//! every loop cost about 60 µs a region on a 2-vCPU Xeon, more than many
//! BGSS rounds do work; handing a region to parked workers costs about
//! 1.3 µs there. The rules:
//!
//! * a region of width `w` runs on its submitting thread plus `w − 1` pool
//!   workers; the pool grows lazily to the widest region requested;
//! * regions nested inside a region run sequentially on their thread;
//! * one region holds the pool at a time — a region submitted while
//!   another thread's region holds it runs inline on its submitter, so a
//!   submitter never waits for another submitter
//!   (`pscc_pool_inline_regions_total` counts these, out of
//!   `pscc_pool_regions_total`);
//! * idle workers spin for about 50 µs waiting for the next region, then
//!   park, so they do not busy-wait while the process is idle;
//! * a panic in any participant is re-raised on the submitter once the
//!   whole region has finished; the workers survive it.
//!
//! A region body is a loop that claims work until none is left (see
//! [`crate::par_range`]), so any number of participants — including just
//! the submitter — completes it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

thread_local! {
    /// Width override installed by [`with_threads`]; 0 = unset.
    static WIDTH_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// True while this thread is executing inside a parallel region, and
    /// always on pool workers; nested parallel calls then run sequentially.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// How long an idle worker, or a submitter waiting for its workers, spins
/// before parking. BGSS issues regions back to back with a few
/// microseconds of sequential work between them, and waking a parked
/// thread can take tens of microseconds.
const SPIN: Duration = Duration::from_micros(50);

/// Number of workers a parallel primitive may use from this context.
pub fn num_workers() -> usize {
    let o = WIDTH_OVERRIDE.with(Cell::get);
    if o != 0 {
        o
    } else {
        available_parallelism()
    }
}

/// Number of logical CPUs on this machine.
///
/// Cached: `std::thread::available_parallelism` re-reads cgroup quota files
/// on every call (~10µs), which dominated tight parallel loops.
pub fn available_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Runs `f` with the parallelism budget set to `threads` (clamped to ≥ 1).
///
/// Every parallel primitive in this workspace consults the calling thread's
/// budget, so everything inside `f` is limited to `threads` participants —
/// exactly what the scalability experiments need. `threads` may exceed the
/// physical core count to oversubscribe; the pool then grows to
/// `threads − 1` workers, which it keeps parked for later regions.
pub fn with_threads<R, F>(threads: usize, f: F) -> R
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH_OVERRIDE.with(|w| w.set(self.0));
        }
    }
    let prev = WIDTH_OVERRIDE.with(|w| w.replace(threads.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Width a new parallel region started on this thread should use: the
/// budget, except that regions nested inside a region stay sequential.
pub(crate) fn region_width() -> usize {
    if IN_PARALLEL.with(Cell::get) {
        1
    } else {
        num_workers()
    }
}

/// Marks this thread as executing inside a parallel region for the duration
/// of `f` (so nested primitives run sequentially).
fn enter_region<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PARALLEL.with(|p| p.set(self.0));
        }
    }
    let prev = IN_PARALLEL.with(|p| p.replace(true));
    let _restore = Restore(prev);
    f()
}

type Panic = Box<dyn Any + Send>;

/// One region's shared record. It lives on the submitter's stack, and the
/// submitter does not return before every worker has finished with it.
struct Region<'a> {
    body: &'a (dyn Fn() + Sync),
    /// Workers that have not finished their share yet.
    pending: AtomicUsize,
    /// The first panic a worker caught.
    panic: Mutex<Option<Panic>>,
    /// Unparked by the last worker to finish.
    submitter: Thread,
}

/// A pool worker as the region holder sees it.
struct Worker {
    /// The region the worker should join next; null while it has none.
    /// Lifetime-erased: see the SAFETY argument in [`work`].
    mailbox: Arc<AtomicPtr<Region<'static>>>,
    thread: Thread,
}

/// The workers; the mutex is held by the region that owns them.
fn crew() -> &'static Mutex<Vec<Worker>> {
    static CREW: OnceLock<Mutex<Vec<Worker>>> = OnceLock::new();
    CREW.get_or_init(|| Mutex::new(Vec::new()))
}

/// Cached handle for the `pscc_pool_regions_total` counter.
fn regions_counter() -> &'static Arc<pscc_telemetry::Counter> {
    static COUNTER: OnceLock<Arc<pscc_telemetry::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| pscc_telemetry::counter("pscc_pool_regions_total"))
}

/// Cached handle for the `pscc_pool_inline_regions_total` counter.
fn inline_regions_counter() -> &'static Arc<pscc_telemetry::Counter> {
    static COUNTER: OnceLock<Arc<pscc_telemetry::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| pscc_telemetry::counter("pscc_pool_inline_regions_total"))
}

/// Spins for up to [`SPIN`] until `ready` holds, then parks until it does.
/// Every wake-up re-checks `ready`, so spurious and stale unparks are
/// harmless.
fn wait_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    let mut spins = 0u32;
    let mut spinning = true;
    while !ready() {
        if spinning {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            spinning = !spins.is_multiple_of(64) || start.elapsed() < SPIN;
        } else {
            thread::park();
        }
    }
}

/// A pool worker's life: wait for a region, run the body, report, repeat.
/// Workers are never joined; they park between regions for the life of
/// the process.
fn work(mailbox: Arc<AtomicPtr<Region<'static>>>) {
    IN_PARALLEL.with(|p| p.set(true));
    loop {
        wait_until(|| !mailbox.load(Ordering::Acquire).is_null());
        let region = mailbox.swap(std::ptr::null_mut(), Ordering::Acquire);
        // SAFETY: the submitter published a pointer to its stack-held
        // Region (the `'static` in the mailbox type is erased, not real)
        // and does not return, or touch the Region mutably, until
        // `pending` reaches zero. This worker counts in `pending` until
        // the `fetch_sub` below, its last access to the Region, so every
        // use here happens while the Region and the body it borrows are
        // alive.
        let region = unsafe { &*region };
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(region.body)) {
            // Outside the catch: this must not panic, or the submitter
            // would wait for this worker forever. An `Option` is valid
            // whatever a poisoning thread left in it.
            region.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(p);
        }
        let submitter = region.submitter.clone();
        // Release: the submitter's Acquire load of a zero `pending` sees
        // every write of this worker's share, and its panic.
        if region.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            submitter.unpark();
        }
    }
}

/// Grows the crew to at least `want` workers; returns how many it has
/// (fewer than `want` only if the OS refused a thread).
fn grow(crew: &mut Vec<Worker>, want: usize) -> usize {
    while crew.len() < want {
        let mailbox: Arc<AtomicPtr<Region<'static>>> = Arc::default();
        let theirs = mailbox.clone();
        let spawned = thread::Builder::new()
            .name(format!("pscc-pool-{}", crew.len()))
            .spawn(move || work(theirs));
        match spawned {
            Ok(handle) => crew.push(Worker { mailbox, thread: handle.thread().clone() }),
            Err(_) => break,
        }
    }
    crew.len()
}

/// Runs `body` as a parallel region of `width` participants (the caller
/// and `width − 1` pool workers), or inline on the caller when another
/// thread's region holds the pool. Returns once every participant is done;
/// re-raises the first panic any of them hit.
pub(crate) fn run_region(width: usize, body: &(dyn Fn() + Sync)) {
    regions_counter().inc();
    let mut crew = match crew().try_lock() {
        Ok(guard) => guard,
        // A poisoned crew is still a consistent crew: nothing panics
        // while holding the guard except the region bodies, whose panics
        // are caught below before the guard is released.
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            inline_regions_counter().inc();
            return enter_region(body);
        }
    };
    let helpers = grow(&mut crew, width - 1).min(width - 1);
    let region = Region {
        body,
        pending: AtomicUsize::new(helpers),
        panic: Mutex::new(None),
        submitter: thread::current(),
    };
    let shared: *mut Region<'static> = (&region as *const Region<'_>).cast_mut().cast();
    for w in &crew[..helpers] {
        // Release, paired with the worker's Acquire load and swap: the
        // worker sees the Region fully initialized.
        w.mailbox.store(shared, Ordering::Release);
        w.thread.unpark();
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(|| enter_region(body)));
    wait_until(|| region.pending.load(Ordering::Acquire) == 0);
    drop(crew);
    let theirs = region.panic.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(p) = mine.err().or(theirs) {
        panic::resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_limits_pool_width() {
        let seen = with_threads(2, num_workers);
        assert_eq!(seen, 2);
    }

    #[test]
    fn with_threads_one_is_sequentialish() {
        let seen = with_threads(1, num_workers);
        assert_eq!(seen, 1);
    }

    #[test]
    fn with_threads_zero_clamps_to_one() {
        let seen = with_threads(0, num_workers);
        assert_eq!(seen, 1);
    }

    #[test]
    fn with_threads_returns_closure_value() {
        let v = with_threads(2, || crate::par_sum_u64(1000, |i| i as u64));
        assert_eq!(v, (0..1000u64).sum::<u64>());
    }

    #[test]
    fn with_threads_restores_previous_width() {
        let outer = num_workers();
        with_threads(3, || {
            assert_eq!(num_workers(), 3);
            with_threads(5, || assert_eq!(num_workers(), 5));
            assert_eq!(num_workers(), 3);
        });
        assert_eq!(num_workers(), outer);
    }

    #[test]
    fn available_parallelism_positive() {
        assert!(available_parallelism() >= 1);
    }
}
