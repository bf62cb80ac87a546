//! Parallel reductions over index ranges.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::atomic::atomic_max_u64;
use crate::parfor::par_range;

/// Parallel sum of `f(i)` over `0..n`.
pub fn par_sum_u64<F>(n: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    let total = AtomicU64::new(0);
    par_range(0..n, 2048, &|r| {
        let s: u64 = r.map(&f).sum();
        total.fetch_add(s, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

/// Parallel count of indices in `0..n` satisfying `pred`.
pub fn par_count<F>(n: usize, pred: F) -> usize
where
    F: Fn(usize) -> bool + Sync,
{
    let total = AtomicUsize::new(0);
    par_range(0..n, 2048, &|r| {
        let c = r.filter(|&i| pred(i)).count();
        total.fetch_add(c, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

/// Parallel max of `f(i)` over `0..n`; returns `None` for an empty range.
pub fn par_max<F>(n: usize, f: F) -> Option<u64>
where
    F: Fn(usize) -> u64 + Sync,
{
    if n == 0 {
        return None;
    }
    let best = AtomicU64::new(f(0));
    par_range(0..n, 2048, &|r| {
        if let Some(local) = r.map(&f).max() {
            atomic_max_u64(&best, local);
        }
    });
    Some(best.load(Ordering::Relaxed))
}

/// Generic associative parallel reduce of `f(i)` over `0..n` with identity
/// `id` and combiner `combine`.
pub fn par_reduce<T, F, C>(n: usize, id: T, f: F, combine: C) -> T
where
    T: Copy + Send + Sync,
    F: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    const GRAIN: usize = 2048;
    let fold = |lo: usize, hi: usize| {
        let mut acc = id;
        for i in lo..hi {
            acc = combine(acc, f(i));
        }
        acc
    };
    if n <= GRAIN || crate::pool::region_width() <= 1 {
        return fold(0, n);
    }
    // One result per block; combining them left to right equals any tree
    // order because `combine` is associative by contract.
    let parts: Vec<OnceLock<T>> = (0..n.div_ceil(GRAIN)).map(|_| OnceLock::new()).collect();
    par_range(0..n, GRAIN, &|r| {
        let _ = parts[r.start / GRAIN].set(fold(r.start, r.end));
    });
    parts.into_iter().filter_map(OnceLock::into_inner).fold(id, combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_sequential() {
        let got = par_sum_u64(100_000, |i| i as u64);
        assert_eq!(got, (0..100_000u64).sum::<u64>());
    }

    #[test]
    fn sum_empty_is_zero() {
        assert_eq!(par_sum_u64(0, |_| 1), 0);
    }

    #[test]
    fn count_matches_filter() {
        let got = par_count(100_000, |i| i % 3 == 0);
        assert_eq!(got, (0..100_000).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn max_matches_sequential() {
        let f = |i: usize| crate::rng::hash64(i as u64) % 999_983;
        assert_eq!(par_max(50_000, f), (0..50_000).map(f).max());
    }

    #[test]
    fn max_empty_is_none() {
        assert_eq!(par_max(0, |i| i as u64), None);
    }

    #[test]
    fn reduce_min() {
        let f = |i: usize| crate::rng::hash64(i as u64 + 7);
        let got = par_reduce(10_000, u64::MAX, f, u64::min);
        assert_eq!(got, (0..10_000).map(f).min().unwrap());
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let got = par_reduce(0, 42u64, |i| i as u64, u64::wrapping_add);
        assert_eq!(got, 42);
    }
}
