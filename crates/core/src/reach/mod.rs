//! Reachability searches: the heart of the paper.
//!
//! * [`single::single_reach`] — one-source search with sparse (hash-bag +
//!   VGC local search) and dense (bottom-up) rounds;
//! * [`multi::multi_reach`] — multi-source search producing `(v, s)`
//!   reachability pairs in a phase-concurrent table, with VGC local search
//!   over pairs;
//! * [`bfs::parallel_bfs`] — distance-preserving BFS (hash-bag frontier,
//!   no VGC: levels must stay synchronized, §8).

pub mod bfs;
pub mod multi;
pub mod single;

pub use bfs::{parallel_bfs, BfsParams, BfsResult};
pub use multi::{multi_reach, MultiReachOutcome, PairSet};
pub use single::{single_reach, SingleReachOutcome};

/// Block size for a parallel pass over a frontier of `len` tasks: about
/// 16 blocks per worker, so uneven local searches still balance, while
/// the per-block costs — claiming the block, a local queue, one update of
/// the shared counters — stay off the per-task path.
pub(crate) fn frontier_grain(len: usize) -> usize {
    (len / (16 * pscc_runtime::num_workers())).max(1)
}
