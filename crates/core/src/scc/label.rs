//! Labeling (§4.4): after each batch of reachability searches, finish the
//! vertices strongly connected to a source and refresh the signature labels
//! of everyone else.
//!
//! A vertex `v` is finished when some source `s` both reaches and is
//! reached by it — i.e. the pair `(v, s)` appears in both direction tables.
//! Its final label is the **maximum** such source (Alg. 1 line 11), which
//! is identical for every member of the SCC because the set of strongly
//! connected sources is an SCC invariant.
//!
//! Unfinished vertices get `L[v] ← hash(L[v], R1, R2)` (line 12), realized
//! as an XOR of per-source hashes (order-independent) folded into the
//! previous label.
//!
//! A multi-search batch visits only the vertices its pairs touch: both
//! pair lists are sorted, which groups each vertex's forward and backward
//! sources, and one task walks each vertex's group once — computing its
//! signatures and strongly connected sources, then finishing or relabeling
//! it, with plain loads and stores. Vertices no pair touches keep their
//! label. That refines the partition exactly as hashing them with empty
//! signatures would: vertices of one SCC are reached by, and reach, the
//! same sources, so they are always touched together, and a touched
//! vertex's new label differs from every untouched label unless 64-bit
//! hashes collide.

use std::sync::atomic::{AtomicUsize, Ordering};

use pscc_runtime::rng::{hash64, hash_combine};
use pscc_runtime::{num_workers, par_for, par_for_each_mut, par_for_grain, AtomicBits};
use pscc_table::{pair_source, pair_vertex};

use crate::state::{SccState, FINAL_TAG};

/// Labeling after the first-SCC single-reachability searches: `fvis`/`bvis`
/// are the forward/backward visited sets from source `s0`. Returns the
/// number of newly finished vertices.
pub fn label_from_single(state: &SccState, s0: u32, fvis: &AtomicBits, bvis: &AtomicBits) -> usize {
    let n = state.n();
    let newly = AtomicUsize::new(0);
    par_for(n, |v| {
        if state.is_done(v as u32) {
            return;
        }
        let in_f = fvis.get(v);
        let in_b = bvis.get(v);
        if in_f && in_b {
            state.finish(v as u32, s0);
            newly.fetch_add(1, Ordering::Relaxed);
        } else {
            let sig = in_f as u64 | (in_b as u64) << 1;
            let old = state.labels[v].load(Ordering::Relaxed);
            state.labels[v].store(hash_combine(old, sig) & !FINAL_TAG, Ordering::Relaxed);
        }
    });
    newly.load(Ordering::Relaxed)
}

/// Pairs per labeling task, at least.
const PART: usize = 2048;

/// Labeling after a batch of multi-reachability searches whose forward
/// and backward searches added the packed pairs `fwd` and `bwd` (each
/// pair once, in any order; both are sorted in place). Returns the number
/// of newly finished vertices.
pub fn label_from_multi(state: &SccState, fwd: &mut [u64], bwd: &mut [u64]) -> usize {
    // One sequential sort per list, both at once: the parallel sort's
    // sequential run merge made it slower than a plain sort for lists of
    // 10k–40k pairs.
    par_for_each_mut(&mut [&mut *fwd, &mut *bwd], |pairs| pairs.sort_unstable());
    let (fwd, bwd) = (&*fwd, &*bwd);
    // Cut both lists at the same vertices into parts of about equal size.
    let longer = if fwd.len() >= bwd.len() { fwd } else { bwd };
    let parts = (longer.len() / PART).clamp(1, 8 * num_workers());
    let mut cuts: Vec<u64> =
        (1..parts).map(|k| (pair_vertex(longer[k * longer.len() / parts]) as u64) << 32).collect();
    cuts.dedup();
    let newly = AtomicUsize::new(0);
    par_for_grain(cuts.len() + 1, 1, |k| {
        let lo = if k == 0 { 0 } else { cuts[k - 1] };
        let hi = cuts.get(k).copied().unwrap_or(u64::MAX);
        let finished = label_part(state, key_range(fwd, lo, hi), key_range(bwd, lo, hi));
        newly.fetch_add(finished, Ordering::Relaxed);
    });
    newly.load(Ordering::Relaxed)
}

/// The keys of sorted `pairs` in `lo..hi`.
fn key_range(pairs: &[u64], lo: u64, hi: u64) -> &[u64] {
    &pairs[pairs.partition_point(|&p| p < lo)..pairs.partition_point(|&p| p < hi)]
}

/// Labels the vertices of sorted pair lists `fwd` and `bwd`, walking both
/// in step so each vertex's forward and backward sources are visited
/// together, in increasing order. Returns the number of finished vertices.
fn label_part(state: &SccState, fwd: &[u64], bwd: &[u64]) -> usize {
    let (mut i, mut j) = (0, 0);
    let mut finished = 0;
    while i < fwd.len() || j < bwd.len() {
        let v = pair_vertex(
            fwd.get(i).copied().unwrap_or(u64::MAX).min(bwd.get(j).copied().unwrap_or(u64::MAX)),
        );
        let (mut f, mut b, mut winner) = (0u64, 0u64, None);
        loop {
            let x = fwd.get(i).copied().filter(|&p| pair_vertex(p) == v);
            let y = bwd.get(j).copied().filter(|&p| pair_vertex(p) == v);
            let (in_f, in_b) = match (x, y) {
                (Some(x), Some(y)) => (x <= y, y <= x),
                (Some(_), None) => (true, false),
                (None, Some(_)) => (false, true),
                (None, None) => break,
            };
            let s = pair_source(if in_f { fwd[i] } else { bwd[j] });
            if in_f {
                f ^= hash64((s as u64) << 1 | 1);
                i += 1;
            }
            if in_b {
                b ^= hash64((s as u64) << 1);
                j += 1;
            }
            if in_f && in_b {
                // Sources ascend, so the last one is the maximum.
                winner = Some(s);
            }
        }
        if state.is_done(v) {
            continue;
        }
        if let Some(s) = winner {
            state.finish(v, s);
            finished += 1;
        } else {
            let old = state.labels[v as usize].load(Ordering::Relaxed);
            let new = hash_combine(hash_combine(old, f), b) & !FINAL_TAG;
            state.labels[v as usize].store(new, Ordering::Relaxed);
        }
    }
    finished
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_table::pack_pair;

    #[test]
    fn single_labeling_finishes_intersection() {
        let state = SccState::new(4);
        let f = AtomicBits::new(4);
        let b = AtomicBits::new(4);
        // 0 reaches {0,1,2}; {0,3} reach 0.
        f.set(0);
        f.set(1);
        f.set(2);
        b.set(0);
        b.set(3);
        let newly = label_from_single(&state, 0, &f, &b);
        assert_eq!(newly, 1);
        assert!(state.is_done(0));
        assert_eq!(state.label(0), FINAL_TAG);
        // 1 and 2 share a signature (forward only) => same label;
        // 3 (backward only) differs.
        assert_eq!(state.label(1), state.label(2));
        assert_ne!(state.label(1), state.label(3));
    }

    #[test]
    fn multi_labeling_uses_max_strongly_connected_source() {
        let state = SccState::new(3);
        // Vertex 0 strongly connected to sources 1 and 2 (and others only
        // one-directionally).
        let mut fwd = vec![pack_pair(0, 1), pack_pair(0, 2), pack_pair(1, 1)];
        let mut bwd = vec![pack_pair(0, 2), pack_pair(1, 1), pack_pair(0, 1)];
        let newly = label_from_multi(&state, &mut fwd, &mut bwd);
        assert_eq!(newly, 2);
        assert_eq!(state.label(0), FINAL_TAG | 2, "max source wins");
        assert_eq!(state.label(1), FINAL_TAG | 1);
    }

    #[test]
    fn multi_labeling_signatures_distinguish_reach_sets() {
        let state = SccState::new(4);
        // v1 and v2 reached by source 5 forward; v3 backward only.
        let mut fwd = vec![pack_pair(1, 5), pack_pair(2, 5)];
        let mut bwd = vec![pack_pair(3, 5)];
        let newly = label_from_multi(&state, &mut fwd, &mut bwd);
        assert_eq!(newly, 0);
        assert_eq!(state.label(1), state.label(2));
        assert_ne!(state.label(1), state.label(3));
        // Untouched vertex 0 differs from all touched ones.
        assert_ne!(state.label(0), state.label(1));
        assert_ne!(state.label(0), state.label(3));
    }

    #[test]
    fn labeling_skips_done_vertices() {
        let state = SccState::new(2);
        state.finish(0, 0);
        let mut fwd = vec![pack_pair(0, 1)];
        let mut bwd = vec![pack_pair(0, 1)];
        let newly = label_from_multi(&state, &mut fwd, &mut bwd);
        assert_eq!(newly, 0);
        assert_eq!(state.label(0), FINAL_TAG, "done label untouched");
    }

    #[test]
    fn signature_accumulation_is_order_independent() {
        // Two runs listing the pairs in different orders must agree.
        let mk = |order: &[(u32, u32)]| {
            let state = SccState::new(2);
            let mut fwd: Vec<u64> = order.iter().map(|&(v, s)| pack_pair(v, s)).collect();
            label_from_multi(&state, &mut fwd, &mut []);
            state.label(0)
        };
        let a = mk(&[(0, 1), (0, 2), (0, 3)]);
        let b = mk(&[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn untouched_vertices_keep_their_label_and_finished_ones_are_skipped() {
        let n = 20_000u32;
        let state = SccState::new(n as usize);
        for v in 0..n {
            state.labels[v as usize].store(hash64(v as u64) & !FINAL_TAG, Ordering::Relaxed);
        }
        state.finish(7, 3);
        // Enough pairs for several parts: every third vertex is touched
        // forward by sources 1 and 2, every sixth also backward by 2, and
        // finished vertex 7 by both.
        let touched = |v: u32| v.is_multiple_of(3) || v == 7;
        let mut fwd: Vec<u64> = (0..n)
            .filter(|&v| touched(v))
            .flat_map(|v| [pack_pair(v, 1), pack_pair(v, 2)])
            .collect();
        let mut bwd: Vec<u64> =
            (0..n).filter(|&v| v.is_multiple_of(6) || v == 7).map(|v| pack_pair(v, 2)).collect();
        let before: Vec<u64> = (0..n).map(|v| state.label(v)).collect();
        let newly = pscc_runtime::with_threads(4, || label_from_multi(&state, &mut fwd, &mut bwd));
        assert_eq!(newly as u32, n.div_ceil(6), "every sixth vertex finishes");
        assert_eq!(state.label(7), FINAL_TAG | 3, "finished vertex skipped");
        for v in (0..n).filter(|&v| v != 7) {
            let now = state.label(v);
            if v.is_multiple_of(6) {
                assert_eq!(now, FINAL_TAG | 2, "v={v}");
            } else if v.is_multiple_of(3) {
                assert_ne!(now, before[v as usize], "touched v={v} relabeled");
                assert_eq!(now & FINAL_TAG, 0);
            } else {
                assert_eq!(now, before[v as usize], "untouched v={v} kept its label");
            }
        }
    }
}
