//! Blocked parallel for-loops with explicit granularity control.
//!
//! These are the "horizontal granularity control" primitives of §3.1: the
//! index range is cut into blocks of at most `grain` indices, and the
//! region's participants — the calling thread plus parked workers of the
//! runtime's pool (see [`crate::pool`]) — claim blocks from a shared atomic
//! cursor until the range is exhausted. Dynamic claiming gives the same
//! load balance as the classic divide-and-conquer fork-join without a
//! work-stealing deque; nested parallel calls inside a block run
//! sequentially.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool;

/// Default sequential base-case size. The paper notes (§3.2) that a base
/// case of around a thousand operations is enough to hide scheduling
/// overhead; 1024 matches that guidance.
pub const DEFAULT_GRAIN: usize = 1024;

/// Runs `f(i)` for every `i` in `0..n` in parallel with the default grain.
pub fn par_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    par_range(0..n, DEFAULT_GRAIN, &|r: Range<usize>| {
        for i in r {
            f(i);
        }
    });
}

/// Runs `f` over disjoint subranges of `range` in parallel.
///
/// Each invocation of `f` receives a contiguous subrange of at most `grain`
/// indices (except that a `grain` of zero is treated as one). The union of
/// all subranges is exactly `range` and they never overlap, so `f` may
/// freely write to per-index slots of a shared structure.
pub fn par_range<F>(range: Range<usize>, grain: usize, f: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    let grain = grain.max(1);
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return;
    }
    let blocks = len.div_ceil(grain);
    let width = pool::region_width().min(blocks);
    let block_range = |b: usize| {
        let lo = range.start + b * grain;
        lo..(lo + grain).min(range.end)
    };
    if width <= 1 {
        for b in 0..blocks {
            f(block_range(b));
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    // Telemetry: participants inherit the submitting thread's trace
    // context (so spans opened inside `f` stay in the caller's causal
    // chain) and are counted in the live-worker gauge for the duration of
    // the region.
    let telemetry_on = pscc_telemetry::enabled();
    let ctx = if telemetry_on { pscc_telemetry::current_context() } else { None };
    pool::run_region(width, &|| {
        let _active = telemetry_on.then(|| active_workers_gauge().inc_scoped());
        pscc_telemetry::with_context(ctx, || loop {
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            if b >= blocks {
                break;
            }
            f(block_range(b));
        })
    });
}

/// Runs `f` on every element of `items` in parallel, one block per
/// element; each element is handed mutably to exactly one call.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    struct Items<T>(*mut T);
    // SAFETY: shared only with the loop below, which hands each index to
    // exactly one call, so no element is ever reachable from two threads;
    // T: Send lets the element move to the worker that claims it.
    unsafe impl<T: Send> Sync for Items<T> {}
    impl<T> Items<T> {
        fn get(&self) -> *mut T {
            self.0
        }
    }
    let ptr = Items(items.as_mut_ptr());
    par_range(0..items.len(), 1, &|r| {
        for i in r {
            // SAFETY: i < items.len() and par_range yields every index
            // exactly once, so this is the only live reference to
            // items[i]; `items` stays mutably borrowed for the whole call.
            f(unsafe { &mut *ptr.get().add(i) });
        }
    });
}

/// Cached handle for the `pscc_pool_active_workers` gauge (the registry
/// lookup takes a lock, so hot loops must not resolve the name per call).
fn active_workers_gauge() -> &'static std::sync::Arc<pscc_telemetry::Gauge> {
    static GAUGE: std::sync::OnceLock<std::sync::Arc<pscc_telemetry::Gauge>> =
        std::sync::OnceLock::new();
    GAUGE.get_or_init(|| pscc_telemetry::gauge("pscc_pool_active_workers"))
}

/// Runs `f(i)` for every `i` in `0..n` in parallel with a custom grain.
pub fn par_for_grain<F>(n: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    par_range(0..n, grain, &|r: Range<usize>| {
        for i in r {
            f(i);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn par_for_touches_every_index_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_range_is_noop() {
        let count = AtomicUsize::new(0);
        par_for(0, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn par_range_subranges_partition_the_input() {
        let total = AtomicU64::new(0);
        let calls = AtomicUsize::new(0);
        par_range(7..10_007, 64, &|r| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(r.end - r.start <= 64);
            total.fetch_add(r.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
        });
        let expected: u64 = (7u64..10_007).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
        assert!(calls.load(Ordering::Relaxed) >= (10_000 / 64));
    }

    #[test]
    fn par_range_grain_zero_behaves_like_grain_one() {
        let count = AtomicUsize::new(0);
        par_range(0..17, 0, &|r| {
            assert_eq!(r.end - r.start, 1);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn par_for_grain_respects_large_grain() {
        // With grain >= n the loop must degrade to a single sequential call.
        let n = 100;
        let sum = AtomicU64::new(0);
        par_for_grain(n, n * 2, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..n as u64).sum::<u64>());
    }
}
