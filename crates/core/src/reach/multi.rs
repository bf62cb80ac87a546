//! Multi-source reachability producing `(vertex, source)` pairs (§4.3).
//!
//! The frontier is a set of *pairs*: `(v, s)` means "the search from source
//! `s` reached `v` this round". Pairs are deduplicated globally by the
//! phase-concurrent [`PairTable`]; newly added pairs form the next frontier
//! via the hash bag (or a VGC local queue first). Dense mode is not
//! applicable here (§4.2): finding one in-neighbor in the frontier says
//! nothing about the *other* sources that may reach a vertex.
//!
//! Every added pair is also recorded in a list — including pairs a VGC
//! local search adds and expands within one round, which never reach a
//! frontier — so labeling and the next reset cost time proportional to
//! the pairs, not to the table's slot count. Workers claim the frontier in
//! blocks and hand back each block's pairs, overflowed keys and edge count
//! under one lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use pscc_bag::HashBag;
use pscc_graph::{DiGraph, V};
use pscc_runtime::{par_range, Timer};
use pscc_table::{pack_pair, pair_source, pair_vertex, Insert, PairTable};

use crate::config::ReachParams;
use crate::reach::frontier_grain;

/// Statistics of one multi-reachability search.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MultiReachOutcome {
    /// Number of frontier rounds.
    pub rounds: usize,
    /// Pairs added to the table by this search (including the seeds).
    pub pairs_added: usize,
    /// Seconds spent growing/rehashing the pair table (the Fig. 9
    /// "hash table resizing" category).
    pub resize_seconds: f64,
    /// Edge inspections performed.
    pub edges_scanned: u64,
}

/// The reachability pairs of one search: a phase-concurrent table that
/// deduplicates them and the list of the table's keys. One `PairSet` per
/// direction serves every batch of an SCC computation; [`PairSet::reset`]
/// clears only the slots the previous batch used.
pub struct PairSet {
    table: PairTable,
    /// Every key of `table`, in no particular order.
    pairs: Vec<u64>,
}

impl PairSet {
    /// An empty set sized for about `capacity` pairs.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { table: PairTable::with_capacity(capacity), pairs: Vec::new() }
    }

    /// Empties the set and sizes its table for about `capacity` pairs (see
    /// [`PairTable::reset`]: a table of the right size is kept and only
    /// the slots of the stored pairs are cleared).
    pub fn reset(&mut self, capacity: usize) {
        self.table.reset(&self.pairs, capacity);
        self.pairs.clear();
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The packed pairs, for reordering in place (labeling sorts them).
    pub fn pairs_mut(&mut self) -> &mut [u64] {
        &mut self.pairs
    }

    /// Grows the table, timing the rehash into `out.resize_seconds`.
    fn grow(&mut self, out: &mut MultiReachOutcome) {
        let t = Timer::start();
        self.table.grow();
        out.resize_seconds += t.seconds();
    }
}

/// What the blocks of one round hand back.
#[derive(Default)]
struct Harvest {
    /// Pairs added to the table.
    added: Vec<u64>,
    /// Keys the table had no room for, to retry after growing it.
    overflow: Vec<u64>,
    /// Edge inspections.
    scanned: u64,
}

impl Harvest {
    /// Moves a block's harvest into the round's: one lock per block.
    fn absorb(round: &Mutex<Harvest>, block: &mut Harvest) {
        let mut round = round.lock().expect("harvest lock");
        round.added.append(&mut block.added);
        round.overflow.append(&mut block.overflow);
        round.scanned += block.scanned;
    }

    /// Records the outcome of inserting `key`; true if it was added.
    #[inline]
    fn record(&mut self, key: u64, outcome: Insert) -> bool {
        match outcome {
            Insert::Added => {
                self.added.push(key);
                true
            }
            Insert::Present => false,
            Insert::Full => {
                self.overflow.push(key);
                false
            }
        }
    }
}

/// Runs a multi-reachability search from `sources` following out-edges if
/// `forward` (in-edges otherwise), restricted to same-label subgraphs.
/// Reachable pairs accumulate in `set`, which must be empty on entry and
/// may have its table grown by this call. `bag` holds the frontier between
/// rounds; it is grown with the table and left empty.
pub fn multi_reach(
    g: &DiGraph,
    sources: &[V],
    forward: bool,
    labels: &[AtomicU64],
    params: &ReachParams,
    set: &mut PairSet,
    bag: &mut HashBag<u64>,
) -> MultiReachOutcome {
    debug_assert!(set.is_empty(), "multi_reach needs an empty pair set");
    let mut out = MultiReachOutcome::default();
    if sources.is_empty() {
        return out;
    }
    let csr = g.csr_dir(forward);
    let mut edges = 0u64;

    // Seed (s, s) for every source.
    let mut frontier: Vec<u64> = Vec::with_capacity(sources.len());
    for &s in sources {
        let key = pack_pair(s, s);
        loop {
            match set.table.insert(key) {
                Insert::Added => {
                    frontier.push(key);
                    break;
                }
                Insert::Present => break,
                Insert::Full => set.grow(&mut out),
            }
        }
    }
    set.pairs.extend_from_slice(&frontier);
    bag.reserve(set.table.slot_count());

    while !frontier.is_empty() {
        out.rounds += 1;

        // Proactive growth keeps the load factor reasonable so Full events
        // (which force a mid-search rebuild) stay rare.
        if set.table.len() * 2 >= set.table.slot_count() {
            set.grow(&mut out);
            bag.reserve(set.table.slot_count());
        }

        let before = set.pairs.len();
        let round =
            Mutex::new(Harvest { added: std::mem::take(&mut set.pairs), ..Harvest::default() });
        {
            // Sharing &PairTable across tasks is safe: insert/contains are
            // phase-concurrent.
            let table = &set.table;
            let bag = &*bag;
            let round = &round;
            let tau = params.effective_tau(frontier.len());
            par_range(0..frontier.len(), frontier_grain(frontier.len()), &|r| {
                let mut queue: Vec<u64> = Vec::with_capacity(tau.min(1 << 14));
                let mut block = Harvest::default();
                for &pair in &frontier[r] {
                    let (x0, s) = (pair_vertex(pair), pair_source(pair));
                    let lx = labels[x0 as usize].load(Ordering::Relaxed);
                    let deg = csr.degree(x0);
                    if params.vgc && deg < tau {
                        // VGC local search over pairs from (x0, s).
                        queue.clear();
                        queue.push(pair);
                        let mut head = 0usize;
                        let mut t = 0usize;
                        while head < queue.len() {
                            let x = pair_vertex(queue[head]);
                            head += 1;
                            for &u in csr.neighbors(x) {
                                t += 1;
                                if labels[u as usize].load(Ordering::Relaxed) == lx {
                                    let key = pack_pair(u, s);
                                    if block.record(key, table.insert_uncounted(key)) {
                                        if queue.len() < tau {
                                            queue.push(key);
                                        } else {
                                            bag.insert(key);
                                        }
                                    }
                                }
                            }
                            if t >= tau {
                                break;
                            }
                        }
                        block.scanned += t as u64;
                        for &key in &queue[head..] {
                            bag.insert(key);
                        }
                    } else {
                        // Standard scan, nested-parallel for heavy vertices.
                        block.scanned += deg as u64;
                        let ns = csr.neighbors(x0);
                        par_range(0..ns.len(), 2048, &|rr| {
                            let mut inner = Harvest::default();
                            for &u in &ns[rr] {
                                if labels[u as usize].load(Ordering::Relaxed) == lx {
                                    let key = pack_pair(u, s);
                                    if inner.record(key, table.insert_uncounted(key)) {
                                        bag.insert(key);
                                    }
                                }
                            }
                            Harvest::absorb(round, &mut inner);
                        });
                    }
                }
                Harvest::absorb(round, &mut block);
            });
        }
        let harvest = round.into_inner().unwrap_or_else(PoisonError::into_inner);
        set.pairs = harvest.added;
        set.table.add_len(set.pairs.len() - before);
        edges += harvest.scanned;

        let mut next = bag.extract_all();
        // Resolve overflowed inserts: grow, retry, and splice the winners
        // into the next frontier. Loops until the table absorbs everything.
        let mut pending = harvest.overflow;
        while !pending.is_empty() {
            set.grow(&mut out);
            bag.reserve(set.table.slot_count());
            for key in std::mem::take(&mut pending) {
                match set.table.insert(key) {
                    Insert::Added => {
                        next.push(key);
                        set.pairs.push(key);
                    }
                    Insert::Present => {}
                    Insert::Full => pending.push(key),
                }
            }
        }
        frontier = next;
    }

    out.pairs_added = set.len();
    out.edges_scanned = edges;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph};
    use std::collections::HashSet;

    fn fresh_labels(n: usize) -> Vec<AtomicU64> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    /// Sequential oracle: the set of (v, s) pairs with s ⇝ v.
    fn seq_pairs(g: &DiGraph, sources: &[V], forward: bool) -> HashSet<(V, V)> {
        let mut pairs = HashSet::new();
        for &s in sources {
            let mut vis = vec![false; g.n()];
            let mut stack = vec![s];
            vis[s as usize] = true;
            while let Some(v) = stack.pop() {
                pairs.insert((v, s));
                for &u in g.neighbors_dir(v, forward) {
                    if !vis[u as usize] {
                        vis[u as usize] = true;
                        stack.push(u);
                    }
                }
            }
        }
        pairs
    }

    /// The set's pairs, checked against the table's keys: every added
    /// pair must be recorded exactly once.
    fn recorded(set: &PairSet) -> HashSet<(V, V)> {
        let mut listed = set.pairs.clone();
        let mut stored = set.table.keys();
        listed.sort_unstable();
        stored.sort_unstable();
        assert_eq!(listed, stored, "recorded pairs differ from the table's keys");
        assert_eq!(set.table.len(), set.len());
        listed.into_iter().map(|k| (pair_vertex(k), pair_source(k))).collect()
    }

    fn search(
        g: &DiGraph,
        sources: &[V],
        forward: bool,
        labels: &[AtomicU64],
        params: &ReachParams,
        set: &mut PairSet,
    ) -> (HashSet<(V, V)>, MultiReachOutcome) {
        let mut bag = HashBag::new(0);
        let outcome = multi_reach(g, sources, forward, labels, params, set, &mut bag);
        (recorded(set), outcome)
    }

    fn run(
        g: &DiGraph,
        sources: &[V],
        forward: bool,
        params: &ReachParams,
    ) -> (HashSet<(V, V)>, MultiReachOutcome) {
        let labels = fresh_labels(g.n());
        search(g, sources, forward, &labels, params, &mut PairSet::with_capacity(1024))
    }

    #[test]
    fn single_source_path() {
        let g = path_digraph(6);
        let (got, outcome) = run(&g, &[2], true, &ReachParams::default());
        let want = seq_pairs(&g, &[2], true);
        assert_eq!(got, want);
        assert_eq!(outcome.pairs_added, 4); // vertices 2..=5
    }

    #[test]
    fn two_sources_on_cycle_cover_everything_twice() {
        let g = cycle_digraph(50);
        let (got, _) = run(&g, &[0, 25], true, &ReachParams::default());
        assert_eq!(got.len(), 100);
        let want = seq_pairs(&g, &[0, 25], true);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_oracle_on_random_graphs_all_modes() {
        for seed in 0..4u64 {
            let g = gnm_digraph(200, 700, seed);
            let sources: Vec<V> = vec![0, 7, 42, 99];
            let want_f = seq_pairs(&g, &sources, true);
            let want_b = seq_pairs(&g, &sources, false);
            for &vgc in &[false, true] {
                let params = ReachParams { vgc, ..ReachParams::default() };
                let (got_f, _) = run(&g, &sources, true, &params);
                assert_eq!(got_f, want_f, "fwd seed={seed} vgc={vgc}");
                let (got_b, _) = run(&g, &sources, false, &params);
                assert_eq!(got_b, want_b, "bwd seed={seed} vgc={vgc}");
            }
        }
    }

    #[test]
    fn empty_sources_is_noop() {
        let g = path_digraph(5);
        let (got, outcome) = run(&g, &[], true, &ReachParams::default());
        assert!(got.is_empty());
        assert_eq!(outcome.rounds, 0);
    }

    #[test]
    fn vgc_reduces_rounds_on_long_paths() {
        let g = path_digraph(3000);
        let (_, plain) = run(&g, &[0], true, &ReachParams::plain());
        let (_, vgc) = run(&g, &[0], true, &ReachParams::default());
        assert!(vgc.rounds * 10 <= plain.rounds, "vgc {} vs plain {}", vgc.rounds, plain.rounds);
    }

    #[test]
    fn tiny_table_forces_growth_but_stays_correct() {
        let g = gnm_digraph(300, 1500, 7);
        let sources: Vec<V> = (0..20).collect();
        let labels = fresh_labels(g.n());
        let mut set = PairSet::with_capacity(1); // pathological start
        let (got, outcome) = search(&g, &sources, true, &labels, &ReachParams::default(), &mut set);
        assert_eq!(got, seq_pairs(&g, &sources, true));
        assert!(outcome.resize_seconds >= 0.0);
        assert_eq!(outcome.pairs_added, got.len());
    }

    #[test]
    fn label_boundaries_cut_searches() {
        // path 0->1->2->3 with label change at 2: sources {0} reach {0,1}.
        let g = path_digraph(4);
        let labels = fresh_labels(4);
        labels[2].store(5, Ordering::Relaxed);
        labels[3].store(5, Ordering::Relaxed);
        let mut set = PairSet::with_capacity(64);
        let (got, _) = search(&g, &[0], true, &labels, &ReachParams::default(), &mut set);
        let want: HashSet<(V, V)> = [(0, 0), (1, 0)].into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sources_in_same_label_region_share_pairs() {
        // Complete bipartite-ish overlap: both sources reach the whole
        // strongly connected cycle, giving 2n pairs.
        let g = cycle_digraph(40);
        let (got, outcome) = run(&g, &[3, 17], true, &ReachParams::default());
        assert_eq!(got.len(), 80);
        assert_eq!(outcome.pairs_added, 80);
    }

    #[test]
    fn a_reset_set_serves_a_smaller_search() {
        // A big search grows the set mid-search; the reset set then serves
        // a smaller one, in both modes, and records exactly its pairs.
        let g = gnm_digraph(300, 1500, 9);
        let labels = fresh_labels(g.n());
        for &vgc in &[false, true] {
            let params = ReachParams { vgc, ..ReachParams::default() };
            let mut set = PairSet::with_capacity(1);
            let big: Vec<V> = (0..40).collect();
            let (got, _) = search(&g, &big, true, &labels, &params, &mut set);
            assert_eq!(got, seq_pairs(&g, &big, true));
            let slots = set.table.slot_count();
            set.reset(slots / 2);
            assert!(set.is_empty() && set.table.is_empty());
            assert_eq!(set.table.slot_count(), slots, "a table of the right size is kept");
            let (got, _) = search(&g, &[7, 99], false, &labels, &params, &mut set);
            assert_eq!(got, seq_pairs(&g, &[7, 99], false), "vgc={vgc}");
        }
    }

    #[test]
    fn pairs_expanded_inside_a_local_search_are_recorded() {
        // On a path every pair after the seed is added and expanded by the
        // local search within round one: none reaches a frontier.
        let g = path_digraph(100);
        let (got, outcome) = run(&g, &[0], true, &ReachParams::default());
        assert_eq!(outcome.rounds, 1);
        assert_eq!(got.len(), 100);
        assert_eq!(outcome.pairs_added, 100);
    }
}
