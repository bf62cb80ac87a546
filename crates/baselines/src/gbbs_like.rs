//! The GBBS-style BGSS implementation: parallel BFS reachability with the
//! **edge-revisit** frontier scheme, no VGC, and naive copy-on-growth pair
//! tables.
//!
//! This baseline isolates exactly the three costs the paper's techniques
//! remove (§6.2, Fig. 9):
//!
//! 1. every sparse round scans the frontier's edges **twice** — once to
//!    claim vertices (CAS) and count winners, once to write them into a
//!    pre-sized array (here: the winner re-check pass);
//! 2. reachability searches take `O(D)` rounds (no local search);
//! 3. pair tables start small and grow by rehash-copying, instead of the
//!    §4.5 `max(0.3 b, 1.5 a)` estimate.
//!
//! The driver structure (trim → first SCC → prefix-doubling batches →
//! labeling) is shared with `pscc-core`, so any timing difference comes
//! from the reachability internals — mirroring the paper's "our framework
//! is similar to GBBS's" comparison methodology.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pscc_core::config::SccConfig;
use pscc_core::scc::{label_from_multi, label_from_single, trim};
use pscc_core::state::SccState;
use pscc_core::stats::{SccStats, SearchRecord};
use pscc_core::verify::component_stats;
use pscc_core::SccResult;
use pscc_graph::{Csr, DiGraph, V};
use pscc_runtime::{par_range, random_permutation, scan_exclusive, AtomicBits, Timer};
use pscc_table::{pack_pair, pair_source, pair_vertex, Insert, PairTable};

const NONE: u32 = u32::MAX;

/// Computes SCCs with the GBBS-like baseline. `cfg` supplies the
/// permutation seed and β; its VGC/τ fields are ignored (this baseline
/// never local-searches).
pub fn gbbs_scc(g: &DiGraph, cfg: &SccConfig) -> (SccResult, SccStats) {
    let n = g.n();
    let mut stats = SccStats::default();
    let total = Timer::start();
    if n == 0 {
        return (SccResult { labels: Vec::new(), num_sccs: 0, largest_scc: 0 }, stats);
    }
    let state = SccState::new(n);
    stats.trimmed = stats.breakdown.run("trim", || trim(g, &state, false));
    let mut unfinished = n - stats.trimmed;
    let perm = stats.breakdown.run("other", || random_permutation(n, cfg.seed));
    // Per-search parent array for the edge-revisit scheme.
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NONE)).collect();

    let mut cursor = 0usize;
    let mut batch_size = 1usize;
    while cursor < n && unfinished > 0 {
        let end = (cursor + batch_size).min(n);
        let sources: Vec<V> =
            perm[cursor..end].iter().copied().filter(|&v| !state.is_done(v)).collect();
        cursor = end;
        batch_size = ((batch_size as f64 * cfg.beta).ceil() as usize).max(batch_size + 1);
        if sources.is_empty() {
            continue;
        }
        stats.num_batches += 1;
        let batch = stats.num_batches;

        if batch == 1 && sources.len() == 1 {
            let s0 = sources[0];
            let fvis = AtomicBits::new(n);
            let bvis = AtomicBits::new(n);
            let t = Timer::start();
            let f_rounds = single_reach_revisit(g, s0, true, &state, &parent, &fvis);
            let b_rounds = single_reach_revisit(g, s0, false, &state, &parent, &bvis);
            stats.breakdown.add("first_scc", t.elapsed());
            stats.searches.push(SearchRecord {
                batch,
                sources: 1,
                forward: true,
                multi: false,
                rounds: f_rounds,
                dense_rounds: 0,
                reached: fvis.count_ones(),
            });
            stats.searches.push(SearchRecord {
                batch,
                sources: 1,
                forward: false,
                multi: false,
                rounds: b_rounds,
                dense_rounds: 0,
                reached: bvis.count_ones(),
            });
            let newly =
                stats.breakdown.run("labeling", || label_from_single(&state, s0, &fvis, &bvis));
            unfinished -= newly;
        } else {
            // Naive sizing: fresh small tables every batch.
            let mut t_out = PairTable::with_capacity(1024);
            let mut t_in = PairTable::with_capacity(1024);
            let t = Timer::start();
            let (fr, f_resize) = multi_reach_revisit(g, &sources, true, &state, &mut t_out);
            let (br, b_resize) = multi_reach_revisit(g, &sources, false, &state, &mut t_in);
            let elapsed = t.seconds();
            let resize = f_resize + b_resize;
            stats
                .breakdown
                .add("multi_search", Duration::from_secs_f64((elapsed - resize).max(0.0)));
            stats.breakdown.add("table_resize", Duration::from_secs_f64(resize));
            stats.searches.push(SearchRecord {
                batch,
                sources: sources.len(),
                forward: true,
                multi: true,
                rounds: fr,
                dense_rounds: 0,
                reached: t_out.len(),
            });
            stats.searches.push(SearchRecord {
                batch,
                sources: sources.len(),
                forward: false,
                multi: true,
                rounds: br,
                dense_rounds: 0,
                reached: t_in.len(),
            });
            let newly = stats
                .breakdown
                .run("labeling", || label_from_multi(&state, &mut t_out.keys(), &mut t_in.keys()));
            unfinished -= newly;
        }
    }
    assert_eq!(unfinished, 0);
    let labels = state.labels_snapshot();
    let (num_sccs, largest_scc) = component_stats(&labels);
    stats.total_seconds = total.seconds();
    (SccResult { labels, num_sccs, largest_scc }, stats)
}

/// Single-source BFS with the literal edge-revisit scheme (Ligra-style).
/// Returns the number of rounds. `parent` must be a length-n array which
/// this function resets before use.
fn single_reach_revisit(
    g: &DiGraph,
    src: V,
    forward: bool,
    state: &SccState,
    parent: &[AtomicU32],
    visited: &AtomicBits,
) -> usize {
    let n = g.n();
    par_range(0..n, 4096, &|r| {
        for i in r {
            parent[i].store(NONE, Ordering::Relaxed);
        }
    });
    visited.set(src as usize);
    let csr = g.csr_dir(forward);
    let mut frontier: Vec<V> = vec![src];
    let mut rounds = 0usize;
    while !frontier.is_empty() {
        rounds += 1;
        frontier = revisit_round(csr, &frontier, state, parent, visited);
    }
    rounds
}

/// One edge-revisit round: visit all frontier edges twice.
fn revisit_round(
    csr: &Csr,
    frontier: &[V],
    state: &SccState,
    parent: &[AtomicU32],
    visited: &AtomicBits,
) -> Vec<V> {
    let k = frontier.len();
    let mut counts = vec![0u64; k + 1];

    // Visit 1: claim neighbours, count per-frontier-vertex wins.
    {
        struct P(*mut u64);
        // SAFETY: P is only shared with the count pass below, where each
        // frontier slot i < k has exactly one writer.
        unsafe impl Sync for P {}
        impl P {
            fn get(&self) -> *mut u64 {
                self.0
            }
        }
        let cptr = P(counts.as_mut_ptr());
        par_range(0..k, 1, &|r| {
            for i in r {
                let v = frontier[i];
                let lv = state.label(v);
                let mut won = 0u64;
                for &u in csr.neighbors(v) {
                    if state.label(u) == lv && visited.test_and_set(u as usize) {
                        parent[u as usize].store(v, Ordering::Relaxed);
                        won += 1;
                    }
                }
                // SAFETY: i < k indexes the k+1-entry counts buffer and
                // is visited by exactly one task.
                unsafe { *cptr.get().add(i) = won };
            }
        });
    }
    let total = scan_exclusive(&mut counts) as usize;

    // Visit 2: re-scan the same edges and write the winners into their
    // pre-assigned segment.
    let mut next: Vec<V> = vec![0; total];
    {
        struct P(*mut V);
        // SAFETY: P is only shared with the write pass below, where each
        // task fills its own disjoint segment of `next`.
        unsafe impl Sync for P {}
        impl P {
            fn get(&self) -> *mut V {
                self.0
            }
        }
        let nptr = P(next.as_mut_ptr());
        let counts = &counts;
        par_range(0..k, 1, &|r| {
            for i in r {
                let v = frontier[i];
                let mut pos = counts[i] as usize;
                for &u in csr.neighbors(v) {
                    if parent[u as usize].load(Ordering::Relaxed) == v {
                        // SAFETY: pos walks [counts[i], counts[i+1]),
                        // the segment of `next` the exclusive scan
                        // reserved for slot i's wins; segments tile the
                        // buffer without overlap (debug-asserted below).
                        unsafe { *nptr.get().add(pos) = u };
                        pos += 1;
                    }
                }
                debug_assert_eq!(pos as u64, counts[i + 1]);
            }
        });
    }
    next
}

/// Multi-source BFS over pairs: global table `table` plus a per-round
/// "new pairs" table whose pack is the next frontier (the GBBS approach to
/// regenerating multi-BFS frontiers). Returns (rounds, resize seconds).
fn multi_reach_revisit(
    g: &DiGraph,
    sources: &[V],
    forward: bool,
    state: &SccState,
    table: &mut PairTable,
) -> (usize, f64) {
    let csr = g.csr_dir(forward);
    let mut resize = 0.0f64;
    let mut frontier: Vec<u64> = Vec::with_capacity(sources.len());
    for &s in sources {
        let key = pack_pair(s, s);
        loop {
            match table.insert(key) {
                Insert::Added => {
                    frontier.push(key);
                    break;
                }
                Insert::Present => break,
                Insert::Full => {
                    let t = Timer::start();
                    table.grow();
                    resize += t.seconds();
                }
            }
        }
    }

    let overflow: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let mut rounds = 0usize;
    while !frontier.is_empty() {
        rounds += 1;
        if table.len() * 2 >= table.slot_count() {
            let t = Timer::start();
            table.grow();
            resize += t.seconds();
        }
        // Round-local table of freshly added pairs (the "next frontier").
        let round = PairTable::with_capacity(table.slot_count());
        {
            let table = &*table;
            let round = &round;
            let overflow = &overflow;
            par_range(0..frontier.len(), 1, &|r| {
                for i in r {
                    let pair = frontier[i];
                    let (v, s) = (pair_vertex(pair), pair_source(pair));
                    let lv = state.label(v);
                    for &u in csr.neighbors(v) {
                        if state.label(u) == lv {
                            let key = pack_pair(u, s);
                            match table.insert(key) {
                                Insert::Added => {
                                    let _ = round.insert(key);
                                }
                                Insert::Present => {}
                                Insert::Full => overflow.lock().expect("overflow lock").push(key),
                            }
                        }
                    }
                }
            });
        }
        // The revisit: pack the round table's slots into the frontier.
        let mut next = round.keys();
        loop {
            let pending = std::mem::take(&mut *overflow.lock().expect("overflow lock"));
            if pending.is_empty() {
                break;
            }
            let t = Timer::start();
            table.grow();
            resize += t.seconds();
            for key in pending {
                match table.insert(key) {
                    Insert::Added => next.push(key),
                    Insert::Present => {}
                    Insert::Full => overflow.lock().expect("overflow lock").push(key),
                }
            }
        }
        frontier = next;
    }
    (rounds, resize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tarjan::tarjan_scc;
    use pscc_core::verify::{partition_groups, same_partition};
    use pscc_graph::fixtures::{fig2_graph, fig2_sccs};
    use pscc_graph::generators::lattice::lattice_sqr_prime;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph};

    fn check(g: &DiGraph) {
        let (got, _) = gbbs_scc(g, &SccConfig::default());
        assert!(same_partition(&got.labels, &tarjan_scc(g)));
    }

    #[test]
    fn fig2_partition() {
        let (got, _) = gbbs_scc(&fig2_graph(), &SccConfig::default());
        assert_eq!(partition_groups(&got.labels), fig2_sccs());
    }

    #[test]
    fn cycle_and_path() {
        check(&cycle_digraph(300));
        check(&path_digraph(300));
    }

    #[test]
    fn random_graphs_match_tarjan() {
        for seed in 0..5u64 {
            check(&gnm_digraph(250, 900, seed));
        }
    }

    #[test]
    fn lattice_matches_tarjan() {
        check(&lattice_sqr_prime(20, 20, 3));
    }

    #[test]
    fn uses_more_rounds_than_vgc_version() {
        // The whole point of the baseline: O(D) rounds.
        let g = pscc_graph::generators::lattice::lattice_sqr(30, 30, 5);
        let (_, base_stats) = gbbs_scc(&g, &SccConfig::default());
        let (_, ours_stats) = pscc_core::parallel_scc_with_stats(&g, &SccConfig::default());
        assert!(
            ours_stats.total_rounds() * 2 <= base_stats.total_rounds(),
            "ours {} vs gbbs {}",
            ours_stats.total_rounds(),
            base_stats.total_rounds()
        );
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        let (got, _) = gbbs_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, 0);
    }
}
