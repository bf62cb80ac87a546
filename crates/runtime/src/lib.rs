//! # pscc-runtime
//!
//! Fork-join runtime and parallel primitives used throughout the
//! parallel-scc workspace. The paper ("Parallel Strong Connectivity Based on
//! Faster Reachability", SIGMOD 2023) assumes the binary fork-join
//! work-stealing model of ParlayLib; this crate provides an equivalent
//! blocked-loop model with dynamic block claiming, run on a persistent
//! pool of parked worker threads like ParlayLib's (no external
//! dependencies, see [`pool`]), plus the parallel building blocks the
//! algorithms need:
//!
//! * blocked [`par_for`] / [`par_range`] loops with explicit granularity
//!   (the classic *horizontal* granularity control of §3.1),
//! * [`scan`] (exclusive prefix sums), [`fn@pack`] / [`pack_index`]
//!   (parallel compaction, used by the hash bag's `extract_all`),
//! * [`reduce`]-style combinators,
//! * a deterministic splittable PRNG ([`rng::SplitMix64`]) and the
//!   bit-mixing hash [`rng::hash64`] used for sampling and signatures,
//! * [`permute::random_permutation`] for the BGSS prefix-doubling batches,
//! * atomic helpers ([`atomic::AtomicBits`], [`atomic::atomic_max_u64`]),
//! * [`pool::with_threads`] for the processor-count sweeps of Fig. 7/8,
//!   and the worker pool every parallel region runs on,
//! * [`PhaseTimer`] for the Fig. 9 breakdown (re-exported from
//!   `pscc_telemetry`, which owns the workspace's timing primitives),
//! * [`background::Background`], a named single-threaded worker for
//!   deferred maintenance (the engine's store compaction runs on one).
//!
//! The parallel primitives are telemetry-aware: `par_range` workers and
//! `Background` jobs propagate the submitting thread's
//! [`pscc_telemetry::TraceContext`], and expose a live-worker gauge, pool
//! region counters (`pscc_pool_regions_total`, and
//! `pscc_pool_inline_regions_total` for regions that found the pool busy)
//! and a job-latency histogram through the global metric registry.

pub mod atomic;
pub mod background;
pub mod pack;
pub mod parfor;
pub mod permute;
pub mod pool;
pub mod reduce;
pub mod rng;
pub mod scan;
pub mod sort;
#[deprecated(note = "use `pscc_runtime::{Timer, PhaseTimer}` or `pscc_telemetry::time`")]
pub mod timer;

pub use atomic::{atomic_max_u32, atomic_max_u64, atomic_min_u32, AtomicBits};
pub use background::Background;
pub use pack::{pack, pack_index, pack_map};
pub use parfor::{par_for, par_for_each_mut, par_for_grain, par_range, DEFAULT_GRAIN};
pub use permute::random_permutation;
pub use pool::{num_workers, with_threads};
pub use pscc_telemetry::{PhaseTimer, Timer};
pub use reduce::{par_count, par_max, par_reduce, par_sum_u64};
pub use rng::{hash32, hash64, SplitMix64};
pub use scan::scan_exclusive;
pub use sort::{par_sort_unstable, par_sort_unstable_by_key};
