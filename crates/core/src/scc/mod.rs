//! The BGSS SCC driver (Alg. 1) assembled from trimming, single- and
//! multi-reachability searches, and labeling.
//!
//! Structure (§4): trim → first SCC via two single-reachability searches
//! (with the dense-mode optimization) → `O(log_β n)` prefix-doubling
//! batches of forward+backward multi-reachability searches, each followed
//! by a labeling step that finishes strongly connected vertices and
//! refreshes cross-edge-pruning signatures. Pair tables are sized with the
//! §4.5 heuristic.
//!
//! The search scratch — one [`PairSet`] per direction and the frontier
//! hash bag — is allocated once per call and reused by every batch. A
//! table keeps its slots while its §4.5 size stays the same, and is then
//! reset by clearing only the slots the previous batch used, so a batch
//! costs time in proportion to its pairs rather than to `n`.

pub mod label;
pub mod trim;

use std::time::Duration;

use pscc_bag::HashBag;
use pscc_graph::{DiGraph, V};
use pscc_runtime::{random_permutation, AtomicBits, Timer};
use pscc_table::next_table_capacity;

use crate::config::SccConfig;
use crate::reach::{multi_reach, single_reach, PairSet};
use crate::state::{SccState, FINAL_TAG};
use crate::stats::{SccStats, SearchRecord};

pub use label::{label_from_multi, label_from_single};
pub use trim::trim;

/// The result of an SCC computation.
#[derive(Clone, Debug)]
pub struct SccResult {
    /// Per-vertex component label. Labels are arbitrary but consistent:
    /// `labels[u] == labels[v]` iff `u` and `v` are strongly connected.
    pub labels: Vec<u64>,
    /// Number of strongly connected components.
    pub num_sccs: usize,
    /// Size of the largest SCC.
    pub largest_scc: usize,
}

/// Computes the strongly connected components of `g`.
pub fn parallel_scc(g: &DiGraph, cfg: &SccConfig) -> SccResult {
    parallel_scc_with_stats(g, cfg).0
}

/// Computes SCCs and returns detailed instrumentation ([`SccStats`]).
pub fn parallel_scc_with_stats(g: &DiGraph, cfg: &SccConfig) -> (SccResult, SccStats) {
    let n = g.n();
    let mut stats = SccStats::default();
    let total = Timer::start();
    if n == 0 {
        return (SccResult { labels: Vec::new(), num_sccs: 0, largest_scc: 0 }, stats);
    }

    let state = SccState::new(n);

    // Phase 1: trimming (§4.1).
    stats.trimmed = stats.breakdown.run("trim", || trim(g, &state, cfg.iterative_trim));
    let mut unfinished = n - stats.trimmed;

    // Random permutation and prefix-doubling batches (Alg. 1 line 2).
    let perm = stats.breakdown.run("other", || random_permutation(n, cfg.seed));
    // Multi-search scratch, reset and sized by every batch.
    let mut fwd = PairSet::with_capacity(0);
    let mut bwd = PairSet::with_capacity(0);
    let mut bag: HashBag<u64> = HashBag::with_config(0, cfg.bag);

    let mut cursor = 0usize;
    let mut batch_size = 1usize;
    let mut prev_pairs = 0usize;

    while cursor < n && unfinished > 0 {
        let end = (cursor + batch_size).min(n);
        let sources: Vec<V> =
            perm[cursor..end].iter().copied().filter(|&v| !state.is_done(v)).collect();
        cursor = end;
        batch_size = next_batch_size(batch_size, cfg.beta);
        if sources.is_empty() {
            continue;
        }
        stats.num_batches += 1;
        let batch = stats.num_batches;

        if batch == 1 && sources.len() == 1 {
            // Phase 2: first SCC via single-reachability with dense mode
            // (§4.2).
            let s0 = sources[0];
            let params = cfg.single_params();
            let fvis = AtomicBits::new(n);
            let bvis = AtomicBits::new(n);
            let (fo, bo) = {
                let t = Timer::start();
                let fo = single_reach(g, s0, true, &state.labels, &params, &fvis);
                let bo = single_reach(g, s0, false, &state.labels, &params, &bvis);
                stats.breakdown.add("first_scc", t.elapsed());
                (fo, bo)
            };
            stats.searches.push(SearchRecord {
                batch,
                sources: 1,
                forward: true,
                multi: false,
                rounds: fo.rounds,
                dense_rounds: fo.dense_rounds,
                reached: fo.visited,
            });
            stats.searches.push(SearchRecord {
                batch,
                sources: 1,
                forward: false,
                multi: false,
                rounds: bo.rounds,
                dense_rounds: bo.dense_rounds,
                reached: bo.visited,
            });
            let newly =
                stats.breakdown.run("labeling", || label_from_single(&state, s0, &fvis, &bvis));
            unfinished -= newly;
            prev_pairs = fo.visited + bo.visited;
        } else {
            // Phase 3: multi-reachability batches (§4.3).
            let cap = if cfg.naive_table_sizing {
                1024 // ablation: pay the copy-growth the heuristic avoids
            } else {
                next_table_capacity(prev_pairs, unfinished)
            };
            stats.breakdown.run("other", || {
                fwd.reset(cap);
                bwd.reset(cap);
            });
            let params = cfg.multi_params();
            let t = Timer::start();
            let fo = multi_reach(g, &sources, true, &state.labels, &params, &mut fwd, &mut bag);
            let bo = multi_reach(g, &sources, false, &state.labels, &params, &mut bwd, &mut bag);
            let elapsed = t.seconds();
            let resize = fo.resize_seconds + bo.resize_seconds;
            stats
                .breakdown
                .add("multi_search", Duration::from_secs_f64((elapsed - resize).max(0.0)));
            stats.breakdown.add("table_resize", Duration::from_secs_f64(resize));
            stats.searches.push(SearchRecord {
                batch,
                sources: sources.len(),
                forward: true,
                multi: true,
                rounds: fo.rounds,
                dense_rounds: 0,
                reached: fo.pairs_added,
            });
            stats.searches.push(SearchRecord {
                batch,
                sources: sources.len(),
                forward: false,
                multi: true,
                rounds: bo.rounds,
                dense_rounds: 0,
                reached: bo.pairs_added,
            });
            let newly = stats
                .breakdown
                .run("labeling", || label_from_multi(&state, fwd.pairs_mut(), bwd.pairs_mut()));
            unfinished -= newly;
            prev_pairs = fwd.len() + bwd.len();
        }
    }

    drop((fwd, bwd, bag));
    assert_eq!(unfinished, 0, "BGSS must finish every vertex");
    state.debug_assert_all_done();

    let labels = state.labels_snapshot();
    let (num_sccs, largest_scc) = final_label_stats(&labels);
    stats.total_seconds = total.seconds();
    (SccResult { labels, num_sccs, largest_scc }, stats)
}

/// Computes SCCs of the subgraph of `g` induced by `vertices`, overlaid
/// with `extra_arcs` (global endpoints, both inside `vertices`).
///
/// Returns one label per view vertex, aligned with `vertices`: positions
/// `i` and `j` share a label iff `vertices[i]` and `vertices[j]` are
/// strongly connected **within** the overlaid induced subgraph (paths
/// through vertices outside the view do not count).
///
/// This is the subgraph entry point the incremental condensation repair
/// in `pscc-engine` drives: when a delta merges components, the full BGSS
/// machinery runs on just the affected region of the condensation DAG
/// plus the freshly inserted arcs, not on the whole graph.
pub fn parallel_scc_induced(
    g: &DiGraph,
    vertices: &[V],
    extra_arcs: &[(V, V)],
    cfg: &SccConfig,
) -> Vec<u64> {
    let view = pscc_graph::SubgraphView::new(g, vertices);
    let sub = view.extract_with_arcs(extra_arcs);
    parallel_scc(&sub, cfg).labels
}

/// Component count and largest component size of a finished labeling,
/// whose labels are all `FINAL_TAG | representative vertex`: one counting
/// pass per vertex instead of hashing every label.
fn final_label_stats(labels: &[u64]) -> (usize, usize) {
    let mut sizes = vec![0u32; labels.len()];
    for &l in labels {
        debug_assert!(l & FINAL_TAG != 0, "unfinished label {l:#x}");
        sizes[(l & !FINAL_TAG) as usize] += 1;
    }
    let num = sizes.iter().filter(|&&c| c > 0).count();
    (num, sizes.iter().copied().max().unwrap_or(0) as usize)
}

/// Next prefix-doubling batch size: `max(s + 1, ceil(s·β))`.
fn next_batch_size(s: usize, beta: f64) -> usize {
    ((s as f64 * beta).ceil() as usize).max(s + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{component_stats, partition_groups, same_partition};
    use pscc_graph::fixtures::{fig2_graph, fig2_sccs, two_triangles_and_isolated};
    use pscc_graph::generators::random::{gnm_digraph, gnp_digraph};
    use pscc_graph::generators::simple::{bowtie_web, cycle_digraph, dag_layers, path_digraph};

    /// Sequential Tarjan oracle (iterative) for verification.
    fn tarjan_labels(g: &DiGraph) -> Vec<u32> {
        let n = g.n();
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut labels = vec![0u32; n];
        let mut next_index = 0u32;
        let mut next_label = 0u32;
        // Explicit DFS state machine: (vertex, neighbor cursor).
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != u32::MAX {
                continue;
            }
            call.push((root, 0));
            index[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
                let ns = g.out_neighbors(v);
                if *cursor < ns.len() {
                    let u = ns[*cursor];
                    *cursor += 1;
                    if index[u as usize] == u32::MAX {
                        index[u as usize] = next_index;
                        low[u as usize] = next_index;
                        next_index += 1;
                        stack.push(u);
                        on_stack[u as usize] = true;
                        call.push((u, 0));
                    } else if on_stack[u as usize] {
                        low[v as usize] = low[v as usize].min(index[u as usize]);
                    }
                } else {
                    call.pop();
                    if let Some(&mut (p, _)) = call.last_mut() {
                        low[p as usize] = low[p as usize].min(low[v as usize]);
                    }
                    if low[v as usize] == index[v as usize] {
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w as usize] = false;
                            labels[w as usize] = next_label;
                            if w == v {
                                break;
                            }
                        }
                        next_label += 1;
                    }
                }
            }
        }
        labels
    }

    fn check(g: &DiGraph, cfg: &SccConfig) {
        let got = parallel_scc(g, cfg);
        let want = tarjan_labels(g);
        assert!(
            same_partition(&got.labels, &want),
            "partition mismatch (n={}, m={})",
            g.n(),
            g.m()
        );
    }

    #[test]
    fn fig2_example_partition() {
        let g = fig2_graph();
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(partition_groups(&got.labels), fig2_sccs());
        assert_eq!(got.num_sccs, 6);
        assert_eq!(got.largest_scc, 4);
    }

    #[test]
    fn cycle_is_one_scc() {
        let got = parallel_scc(&cycle_digraph(500), &SccConfig::default());
        assert_eq!(got.num_sccs, 1);
        assert_eq!(got.largest_scc, 500);
    }

    #[test]
    fn path_is_all_singletons() {
        let got = parallel_scc(&path_digraph(200), &SccConfig::default());
        assert_eq!(got.num_sccs, 200);
        assert_eq!(got.largest_scc, 1);
    }

    #[test]
    fn dag_is_all_singletons() {
        let g = dag_layers(8, 20, 3, 1);
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, g.n());
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, 0);
    }

    #[test]
    fn edgeless_graph_is_singletons() {
        let g = DiGraph::from_edges(7, &[]);
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, 7);
    }

    #[test]
    fn disjoint_triangles() {
        let g = two_triangles_and_isolated();
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, 3);
        assert_eq!(got.largest_scc, 3);
    }

    #[test]
    fn matches_tarjan_on_random_graphs_all_variants() {
        for seed in 0..6u64 {
            let g = gnm_digraph(250, 1000, seed);
            for cfg in [
                SccConfig::default(),
                SccConfig::plain(),
                SccConfig::vgc1(),
                SccConfig { iterative_trim: true, ..SccConfig::default() },
                SccConfig::default().with_tau(4),
            ] {
                check(&g, &cfg);
            }
        }
    }

    #[test]
    fn matches_tarjan_on_sparse_random() {
        // Sub-critical density: many medium SCCs.
        for seed in 0..4u64 {
            check(&gnm_digraph(400, 480, seed), &SccConfig::default());
        }
    }

    #[test]
    fn matches_tarjan_on_dense_random() {
        check(&gnp_digraph(120, 0.08, 3), &SccConfig::default());
    }

    #[test]
    fn matches_tarjan_on_bowtie() {
        let g = bowtie_web(300, 0.4, 2, 9);
        check(&g, &SccConfig::default());
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.largest_scc, 120, "core is the giant SCC");
    }

    #[test]
    fn deterministic_labels_for_fixed_seed() {
        let g = gnm_digraph(300, 1200, 11);
        let a = parallel_scc(&g, &SccConfig::default());
        let b = parallel_scc(&g, &SccConfig::default());
        assert_eq!(a.labels, b.labels, "XOR/max labeling must be deterministic");
    }

    #[test]
    fn different_seeds_same_partition() {
        let g = gnm_digraph(300, 1200, 13);
        let a = parallel_scc(&g, &SccConfig { seed: 1, ..SccConfig::default() });
        let b = parallel_scc(&g, &SccConfig { seed: 2, ..SccConfig::default() });
        assert!(same_partition(&a.labels, &b.labels));
    }

    #[test]
    fn stats_are_populated() {
        let g = gnm_digraph(400, 900, 5);
        let (res, stats) = parallel_scc_with_stats(&g, &SccConfig::default());
        assert!(res.num_sccs > 0);
        assert!(stats.num_batches >= 1);
        assert!(!stats.searches.is_empty());
        assert!(stats.total_seconds > 0.0);
        // Breakdown phases should cover most of the total.
        assert!(stats.breakdown.total_seconds() <= stats.total_seconds + 0.1);
    }

    #[test]
    fn vgc_uses_fewer_rounds_than_plain() {
        // Large-diameter lattice: the Fig. 10 effect.
        let g = pscc_graph::generators::lattice::lattice_sqr(40, 40, 3);
        let (_, vgc) = parallel_scc_with_stats(&g, &SccConfig::default());
        let (_, plain) = parallel_scc_with_stats(&g, &SccConfig::plain());
        assert!(
            vgc.total_rounds() * 2 <= plain.total_rounds(),
            "vgc {} rounds vs plain {}",
            vgc.total_rounds(),
            plain.total_rounds()
        );
    }

    #[test]
    fn lattice_partition_matches_tarjan() {
        let g = pscc_graph::generators::lattice::lattice_sqr_prime(25, 25, 7);
        check(&g, &SccConfig::default());
        check(&g, &SccConfig::plain());
    }

    #[test]
    fn knn_partition_matches_tarjan() {
        let pts = pscc_graph::generators::knn::uniform_points(400, 21);
        let g = pscc_graph::generators::knn::knn_digraph(&pts, 3);
        check(&g, &SccConfig::default());
    }

    #[test]
    fn final_label_stats_match_component_stats() {
        let g = gnm_digraph(500, 700, 3);
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!((got.num_sccs, got.largest_scc), component_stats(&got.labels));
    }

    #[test]
    fn batch_sizes_grow_geometrically() {
        let mut s = 1usize;
        let sizes: Vec<usize> = (0..8)
            .map(|_| {
                let cur = s;
                s = next_batch_size(s, 1.5);
                cur
            })
            .collect();
        assert_eq!(sizes, vec![1, 2, 3, 5, 8, 12, 18, 27]);
    }

    #[test]
    fn naive_table_sizing_is_correct_but_resizes_more() {
        let g = gnm_digraph(2000, 8000, 17);
        let want = tarjan_labels(&g);
        let naive_cfg = SccConfig { naive_table_sizing: true, ..SccConfig::default() };
        let (res, naive) = parallel_scc_with_stats(&g, &naive_cfg);
        assert!(same_partition(&res.labels, &want));
        let (_, smart) = parallel_scc_with_stats(&g, &SccConfig::default());
        assert!(
            naive.phase_seconds("table_resize") >= smart.phase_seconds("table_resize"),
            "naive sizing should spend at least as much time resizing              (naive {:.6}s vs heuristic {:.6}s)",
            naive.phase_seconds("table_resize"),
            smart.phase_seconds("table_resize")
        );
    }

    #[test]
    fn reused_scratch_matches_tarjan_across_widths_and_table_sizings() {
        use pscc_graph::generators::knn::{knn_digraph, uniform_points};
        use pscc_graph::generators::lattice::{lattice_sqr, lattice_sqr_prime};
        let graphs = [
            bowtie_web(2000, 0.4, 3, 2),
            knn_digraph(&uniform_points(2000, 5), 3),
            lattice_sqr(40, 40, 4),
            lattice_sqr_prime(40, 40, 6),
        ];
        // Naive sizing gives every batch a 1024-pair table, so big batches
        // grow theirs mid-search and the next batch resets the grown set
        // to the small size again; the heuristic sizes them up front.
        let mut grew = false;
        for g in &graphs {
            let want = tarjan_labels(g);
            for threads in [1, 2, 4] {
                for naive_table_sizing in [false, true] {
                    let cfg = SccConfig { naive_table_sizing, ..SccConfig::default() };
                    let (got, stats) =
                        pscc_runtime::with_threads(threads, || parallel_scc_with_stats(g, &cfg));
                    assert!(
                        same_partition(&got.labels, &want),
                        "n={} threads={threads} naive={naive_table_sizing}",
                        g.n()
                    );
                    grew |= naive_table_sizing && stats.phase_seconds("table_resize") > 0.0;
                }
            }
        }
        assert!(grew, "no table grew mid-search");
    }

    #[test]
    fn adaptive_tau_is_correct() {
        let g = gnm_digraph(800, 2400, 23);
        let want = tarjan_labels(&g);
        let cfg = SccConfig { adaptive_tau: true, ..SccConfig::default() };
        let res = parallel_scc(&g, &cfg);
        assert!(same_partition(&res.labels, &want));
    }

    #[test]
    fn induced_scc_matches_tarjan_on_the_extracted_subgraph() {
        let g = gnm_digraph(200, 700, 31);
        // An arbitrary subset: every third vertex.
        let vertices: Vec<V> = (0..200).step_by(3).map(|v| v as V).collect();
        let labels = parallel_scc_induced(&g, &vertices, &[], &SccConfig::default());
        let view = pscc_graph::SubgraphView::new(&g, &vertices);
        let want = tarjan_labels(&view.extract());
        assert_eq!(labels.len(), vertices.len());
        assert!(same_partition(&labels, &want));
    }

    #[test]
    fn induced_scc_sees_extra_arcs() {
        // A path 0 -> 1 -> 2 -> 3: no cycles anywhere.
        let g = path_digraph(4);
        let vertices = vec![1, 2, 3];
        let plain = parallel_scc_induced(&g, &vertices, &[], &SccConfig::default());
        assert_eq!(component_stats(&plain).0, 3);
        // Overlaying the back arc 3 -> 1 collapses the view to one SCC.
        let closed = parallel_scc_induced(&g, &vertices, &[(3, 1)], &SccConfig::default());
        assert_eq!(component_stats(&closed).0, 1);
    }

    #[test]
    fn induced_scc_ignores_paths_through_outside_vertices() {
        // 0 <-> 1 via 2: 1 -> 2 -> 0 and 0 -> 1. With 2 outside the view,
        // 0 and 1 are *not* strongly connected in the induced subgraph.
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let labels = parallel_scc_induced(&g, &[0, 1], &[], &SccConfig::default());
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn self_loops_everywhere() {
        let edges: Vec<(V, V)> = (0..50).map(|v| (v, v)).collect();
        let g = DiGraph::from_edges(50, &edges);
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, 50);
    }
}
