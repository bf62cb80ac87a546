//! Single-source reachability with VGC local search and the dense-mode
//! direction optimization (§3.1, §4.2).
//!
//! The search explores the subgraph induced by vertices whose label equals
//! the source's label (cross edges are skipped, Alg. 1 comment on line 5).
//! Finished vertices carry `FINAL_TAG`-tagged labels, so the label check
//! also excludes them.

use std::sync::atomic::{AtomicU64, Ordering};

use pscc_bag::HashBag;
use pscc_graph::{DiGraph, V};
use pscc_runtime::{pack_index, par_range, AtomicBits};

use crate::config::ReachParams;
use crate::reach::frontier_grain;

/// Statistics of one single-reachability search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SingleReachOutcome {
    /// Number of frontier rounds (synchronization barriers).
    pub rounds: usize,
    /// How many of those ran in dense (bottom-up) mode.
    pub dense_rounds: usize,
    /// Vertices visited (including the source).
    pub visited: usize,
    /// Edge inspections performed (both successful and unsuccessful).
    pub edges_scanned: u64,
}

/// Frontiers at most this large are processed sequentially without the
/// hash bag (the bag's per-round extract cost dominates tiny rounds).
const SEQ_FRONTIER: usize = 64;

/// One sequential sparse round: expands `frontier` into the next frontier,
/// honouring the same label restriction and VGC local search as the
/// parallel path.
fn sparse_round_seq(
    csr: &pscc_graph::Csr,
    labels: &[AtomicU64],
    params: &ReachParams,
    visited: &AtomicBits,
    frontier: &[V],
    scanned: &mut u64,
) -> Vec<V> {
    let tau = params.effective_tau(frontier.len());
    let mut next: Vec<V> = Vec::new();
    let mut queue: Vec<V> = Vec::new();
    for &v in frontier {
        let lv = labels[v as usize].load(Ordering::Relaxed);
        if params.vgc && csr.degree(v) < tau {
            // Local search: sequential multi-hop exploration bounded by τ
            // visited neighbours (mirrors the parallel branch).
            queue.clear();
            queue.push(v);
            let mut head = 0usize;
            let mut t = 0usize;
            while head < queue.len() {
                let x = queue[head];
                head += 1;
                for &u in csr.neighbors(x) {
                    t += 1;
                    *scanned += 1;
                    if labels[u as usize].load(Ordering::Relaxed) == lv
                        && visited.test_and_set(u as usize)
                    {
                        if queue.len() < tau {
                            queue.push(u);
                        } else {
                            next.push(u);
                        }
                    }
                }
                if t >= tau {
                    break;
                }
            }
            next.extend_from_slice(&queue[head..]);
        } else {
            for &u in csr.neighbors(v) {
                *scanned += 1;
                if labels[u as usize].load(Ordering::Relaxed) == lv
                    && visited.test_and_set(u as usize)
                {
                    next.push(u);
                }
            }
        }
    }
    next
}

/// Runs a reachability search from `src` following out-edges if `forward`
/// (in-edges otherwise), restricted to vertices labelled like `src`.
///
/// `visited` must be all-clear on entry and has `visited[v]` set for every
/// reached vertex (including `src`) on exit.
pub fn single_reach(
    g: &DiGraph,
    src: V,
    forward: bool,
    labels: &[AtomicU64],
    params: &ReachParams,
    visited: &AtomicBits,
) -> SingleReachOutcome {
    let n = g.n();
    let m = g.m().max(1);
    debug_assert_eq!(visited.count_ones(), 0, "visited must start clear");
    visited.set(src as usize);

    let mut out = SingleReachOutcome::default();
    let mut frontier: Vec<V> = vec![src];
    let bag: HashBag<u32> = HashBag::with_config(n, params.bag);
    let csr = g.csr_dir(forward);
    let rev = g.csr_dir(!forward);
    let edges = std::sync::atomic::AtomicU64::new(0);
    // Frontier bitset reused across dense rounds.
    let cur_bits = AtomicBits::new(n);

    while !frontier.is_empty() {
        out.rounds += 1;
        let frontier_edges: u64 =
            pscc_runtime::par_sum_u64(frontier.len(), |i| csr.degree(frontier[i]) as u64);
        let go_dense = params.use_dense
            && frontier.len() as u64 + frontier_edges > m.div_ceil(params.dense_threshold) as u64;

        if !go_dense && frontier.len() <= SEQ_FRONTIER {
            // Tiny frontier: a sequential round into a plain Vec. Skipping
            // the hash bag here is what keeps high-diameter searches (one
            // vertex per round for thousands of rounds) from paying the
            // per-round bag extract cost — FW-BW on a path was cubic
            // without it.
            let mut scanned = 0u64;
            frontier = sparse_round_seq(csr, labels, params, visited, &frontier, &mut scanned);
            edges.fetch_add(scanned, Ordering::Relaxed);
        } else if go_dense {
            out.dense_rounds += 1;
            // Mark the current frontier in a bitset.
            cur_bits.clear_all();
            par_range(0..frontier.len(), 2048, &|r| {
                for i in r {
                    cur_bits.set(frontier[i] as usize);
                }
            });
            // Bottom-up: every unvisited, same-label vertex u checks its
            // *reverse*-direction neighbours; one hit suffices (early exit —
            // the work saving that makes dense mode pay off).
            let next_bits = AtomicBits::new(n);
            par_range(0..n, 1024, &|r| {
                let mut scanned = 0u64;
                for u in r {
                    if visited.get(u) {
                        continue;
                    }
                    let lu = labels[u].load(Ordering::Relaxed);
                    for &w in rev.neighbors(u as V) {
                        scanned += 1;
                        if cur_bits.get(w as usize)
                            && labels[w as usize].load(Ordering::Relaxed) == lu
                        {
                            visited.set(u);
                            next_bits.set(u);
                            break;
                        }
                    }
                }
                edges.fetch_add(scanned, Ordering::Relaxed);
            });
            frontier = pack_index(n, |u| next_bits.get(u)).into_iter().map(|u| u as V).collect();
        } else {
            // Sparse round: hash-bag frontier, optional VGC local search.
            let tau = params.effective_tau(frontier.len());
            par_range(0..frontier.len(), frontier_grain(frontier.len()), &|r| {
                let mut queue: Vec<V> = Vec::with_capacity(tau.min(1 << 14));
                let mut scanned = 0u64;
                for &v in &frontier[r] {
                    let lv = labels[v as usize].load(Ordering::Relaxed);
                    let deg = csr.degree(v);
                    if params.vgc && deg < tau {
                        // Local search: sequential multi-hop exploration
                        // bounded by τ visited neighbours.
                        queue.clear();
                        queue.push(v);
                        let mut head = 0usize;
                        let mut t = 0usize;
                        while head < queue.len() {
                            let x = queue[head];
                            head += 1;
                            for &u in csr.neighbors(x) {
                                t += 1;
                                scanned += 1;
                                if labels[u as usize].load(Ordering::Relaxed) == lv
                                    && visited.test_and_set(u as usize)
                                {
                                    if queue.len() < tau {
                                        queue.push(u);
                                    } else {
                                        bag.insert(u);
                                    }
                                }
                            }
                            if t >= tau {
                                break;
                            }
                        }
                        // Flush unprocessed queue entries to the frontier.
                        for &u in &queue[head..] {
                            bag.insert(u);
                        }
                    } else {
                        // Standard neighbour scan. The inner par_range runs
                        // sequentially when this round is already parallel
                        // (the runtime keeps nested regions on one worker);
                        // huge-frontier rounds are dense-mode's job instead.
                        scanned += deg as u64;
                        let ns = csr.neighbors(v);
                        par_range(0..ns.len(), 2048, &|rr| {
                            for &u in &ns[rr] {
                                if labels[u as usize].load(Ordering::Relaxed) == lv
                                    && visited.test_and_set(u as usize)
                                {
                                    bag.insert(u);
                                }
                            }
                        });
                    }
                }
                edges.fetch_add(scanned, Ordering::Relaxed);
            });
            frontier = bag.extract_all();
        }
    }
    out.visited = visited.count_ones();
    out.edges_scanned = edges.load(Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph};

    fn fresh_labels(n: usize) -> Vec<AtomicU64> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    fn reach_set(g: &DiGraph, src: V, forward: bool, params: &ReachParams) -> Vec<bool> {
        let labels = fresh_labels(g.n());
        let visited = AtomicBits::new(g.n());
        single_reach(g, src, forward, &labels, params, &visited);
        (0..g.n()).map(|v| visited.get(v)).collect()
    }

    fn seq_reach(g: &DiGraph, src: V, forward: bool) -> Vec<bool> {
        let mut vis = vec![false; g.n()];
        let mut stack = vec![src];
        vis[src as usize] = true;
        while let Some(v) = stack.pop() {
            for &u in g.neighbors_dir(v, forward) {
                if !vis[u as usize] {
                    vis[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        vis
    }

    #[test]
    fn path_forward_reaches_suffix() {
        let g = path_digraph(10);
        let got = reach_set(&g, 4, true, &ReachParams::default());
        for (v, &reached) in got.iter().enumerate() {
            assert_eq!(reached, v >= 4, "v={v}");
        }
    }

    #[test]
    fn path_backward_reaches_prefix() {
        let g = path_digraph(10);
        let got = reach_set(&g, 4, false, &ReachParams::default());
        for (v, &reached) in got.iter().enumerate() {
            assert_eq!(reached, v <= 4, "v={v}");
        }
    }

    #[test]
    fn cycle_reaches_everything() {
        let g = cycle_digraph(100);
        let got = reach_set(&g, 13, true, &ReachParams::default());
        assert!(got.iter().all(|&b| b));
    }

    #[test]
    fn vgc_reduces_rounds_on_long_path() {
        let g = path_digraph(2000);
        let labels = fresh_labels(g.n());

        let vis_plain = AtomicBits::new(g.n());
        let plain = single_reach(&g, 0, true, &labels, &ReachParams::plain(), &vis_plain);

        let vis_vgc = AtomicBits::new(g.n());
        let p = ReachParams { use_dense: false, ..ReachParams::default() };
        let vgc = single_reach(&g, 0, true, &labels, &p, &vis_vgc);

        assert_eq!(plain.visited, 2000);
        assert_eq!(vgc.visited, 2000);
        assert!(
            vgc.rounds * 10 <= plain.rounds,
            "VGC rounds {} vs plain {}",
            vgc.rounds,
            plain.rounds
        );
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..5u64 {
            let g = gnm_digraph(300, 900, seed);
            for &vgc in &[false, true] {
                for &dense in &[false, true] {
                    let params = ReachParams { vgc, use_dense: dense, ..ReachParams::default() };
                    let got = reach_set(&g, 0, true, &params);
                    let want = seq_reach(&g, 0, true);
                    assert_eq!(got, want, "seed={seed} vgc={vgc} dense={dense}");
                }
            }
        }
    }

    #[test]
    fn backward_matches_sequential() {
        let g = gnm_digraph(200, 800, 9);
        let got = reach_set(&g, 5, false, &ReachParams::default());
        let want = seq_reach(&g, 5, false);
        assert_eq!(got, want);
    }

    #[test]
    fn respects_label_boundaries() {
        // 0 -> 1 -> 2, but vertex 2 has a different label: unreachable.
        let g = path_digraph(3);
        let labels = fresh_labels(3);
        labels[2].store(99, Ordering::Relaxed);
        let visited = AtomicBits::new(3);
        single_reach(&g, 0, true, &labels, &ReachParams::default(), &visited);
        assert!(visited.get(0) && visited.get(1));
        assert!(!visited.get(2));
    }

    #[test]
    fn tau_one_equals_plain_visits() {
        let g = gnm_digraph(150, 600, 3);
        let p = ReachParams { tau: 1, ..ReachParams::default() };
        let got = reach_set(&g, 0, true, &p);
        let want = seq_reach(&g, 0, true);
        assert_eq!(got, want);
    }

    #[test]
    fn isolated_source_visits_only_itself() {
        let g = DiGraph::from_edges(5, &[(1, 2)]);
        let got = reach_set(&g, 0, true, &ReachParams::default());
        assert_eq!(got, vec![true, false, false, false, false]);
    }

    #[test]
    fn dense_mode_triggers_on_bushy_graph() {
        // A star from the source forces a huge frontier immediately.
        let n = 5000;
        let mut edges: Vec<(V, V)> = (1..n as V).map(|v| (0, v)).collect();
        // Add a second layer so dense mode has something to do.
        edges.extend((1..n as V).map(|v| (v, (v % 7) + 1)));
        let g = DiGraph::from_edges(n, &edges);
        let labels = fresh_labels(n);
        let visited = AtomicBits::new(n);
        let outcome = single_reach(&g, 0, true, &labels, &ReachParams::default(), &visited);
        assert_eq!(outcome.visited, n);
        assert!(outcome.dense_rounds >= 1, "expected a dense round");
        // Dense result must still match sequential reachability.
        let want = seq_reach(&g, 0, true);
        for (v, &w) in want.iter().enumerate() {
            assert_eq!(visited.get(v), w);
        }
    }

    #[test]
    fn self_loops_are_harmless() {
        let g = DiGraph::from_edges(3, &[(0, 0), (0, 1), (1, 1), (1, 2)]);
        let got = reach_set(&g, 0, true, &ReachParams::default());
        assert_eq!(got, vec![true, true, true]);
    }
}
