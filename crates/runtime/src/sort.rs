//! Parallel unstable sorting for `Copy` element types.
//!
//! The workspace sorts edge lists and keyed index vectors (both small
//! `Copy` tuples) on hot paths — CSR construction, random permutations,
//! and the LE-lists candidate pass. This module provides a chunked
//! merge sort: the slice is cut into one chunk per worker, chunks are
//! sorted with `slice::sort_unstable_by_key` in one parallel region, and
//! sorted runs are merged through a scratch buffer (ping-pong passes,
//! parallel across run pairs).

use crate::parfor::par_for_each_mut;
use crate::pool;

/// Minimum length worth parallelizing; below this the std sort wins.
const SEQ_CUTOFF: usize = 1 << 13;

/// Sorts `v` in parallel (unstable order for equal elements).
pub fn par_sort_unstable<T: Ord + Copy + Send + Sync>(v: &mut [T]) {
    par_sort_unstable_by_key(v, |&x| x);
}

/// Sorts `v` in parallel by the key extracted by `key`.
pub fn par_sort_unstable_by_key<T, K, F>(v: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = v.len();
    let width = pool::region_width();
    if width <= 1 || n < SEQ_CUTOFF {
        v.sort_unstable_by_key(|t| key(t));
        return;
    }
    let chunk = n.div_ceil(width);
    let key = &key;
    let mut parts: Vec<&mut [T]> = v.chunks_mut(chunk).collect();
    par_for_each_mut(&mut parts, |part| part.sort_unstable_by_key(|t| key(t)));

    // Ping-pong merge passes over runs of doubling length.
    let mut buf: Vec<T> = v.to_vec();
    let mut in_v = true;
    let mut run = chunk;
    while run < n {
        if in_v {
            merge_pass(v, &mut buf, run, key);
        } else {
            merge_pass(&buf, v, run, key);
        }
        in_v = !in_v;
        run *= 2;
    }
    if !in_v {
        v.copy_from_slice(&buf);
    }
}

/// Merges adjacent sorted runs of length `run` from `src` into `dst`,
/// one pair per block of a parallel region.
fn merge_pass<T, K, F>(src: &[T], dst: &mut [T], run: usize, key: &F)
where
    T: Copy + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = src.len();
    let mut merges: Vec<(&[T], &[T], &mut [T])> = Vec::new();
    let mut rest = dst;
    let mut lo = 0;
    while lo < n {
        let mid = (lo + run).min(n);
        let hi = (lo + 2 * run).min(n);
        let (out, tail) = rest.split_at_mut(hi - lo);
        rest = tail;
        merges.push((&src[lo..mid], &src[mid..hi], out));
        lo = hi;
    }
    par_for_each_mut(&mut merges, |(a, b, out)| merge_into(a, b, out, key));
}

/// Standard two-way merge of sorted `a` and `b` into `out`.
fn merge_into<T, K, F>(a: &[T], b: &[T], out: &mut [T], key: &F)
where
    T: Copy,
    K: Ord,
    F: Fn(&T) -> K,
{
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = j >= b.len() || (i < a.len() && key(&a[i]) <= key(&b[j]));
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::hash64;

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        (0..n as u64).map(|i| hash64(i ^ seed.wrapping_mul(0x9e37))).collect()
    }

    #[test]
    fn sorts_like_std() {
        for n in [0usize, 1, 2, 100, SEQ_CUTOFF + 17] {
            let mut a = random_vec(n, n as u64);
            let mut b = a.clone();
            par_sort_unstable(&mut a);
            b.sort_unstable();
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn sorts_under_explicit_width() {
        crate::with_threads(4, || {
            let mut a = random_vec(100_000, 3);
            let mut b = a.clone();
            par_sort_unstable(&mut a);
            b.sort_unstable();
            assert_eq!(a, b);
        });
    }

    #[test]
    fn by_key_orders_by_projection() {
        crate::with_threads(3, || {
            let mut a: Vec<(u64, u32)> =
                random_vec(50_000, 7).into_iter().map(|x| (x, (x % 97) as u32)).collect();
            par_sort_unstable_by_key(&mut a, |&(_, k)| k);
            assert!(a.windows(2).all(|w| w[0].1 <= w[1].1));
        });
    }

    #[test]
    fn already_sorted_and_reverse() {
        crate::with_threads(5, || {
            let mut a: Vec<u64> = (0..40_000).collect();
            par_sort_unstable(&mut a);
            assert!(a.windows(2).all(|w| w[0] <= w[1]));
            let mut d: Vec<u64> = (0..40_000).rev().collect();
            par_sort_unstable(&mut d);
            assert!(d.windows(2).all(|w| w[0] <= w[1]));
        });
    }

    #[test]
    fn merge_into_handles_skew() {
        let a = [1u32, 2, 3, 10];
        let b = [4u32];
        let mut out = [0u32; 5];
        merge_into(&a, &b, &mut out, &|&x| x);
        assert_eq!(out, [1, 2, 3, 4, 10]);
    }
}
