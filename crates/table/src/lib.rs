//! # pscc-table — phase-concurrent hash table for reachability pairs
//!
//! The multi-reachability searches of the BGSS SCC algorithm maintain the
//! set of pairs `(v, s)` — "vertex `v` is reachable from source `s`" — in a
//! hash table supporting concurrent `insert` and `contains` within a phase
//! (Shun–Blelloch phase-concurrent table, ref. \[95\] in the paper). Keys are 64-bit packed
//! pairs; open addressing with linear probing over a power-of-two slot
//! array of `AtomicU64`.
//!
//! The table does not grow during concurrent insertion. Instead the SCC
//! driver sizes it up front with the paper's heuristic (§4.5,
//! [`heuristic::next_table_capacity`]) and, if an insert still hits the
//! probe limit, rebuilds into a doubled table between operations
//! ([`PairTable::grow`]) — that rebuild time is exactly the green
//! "hash table resizing" cost of Fig. 9.

pub mod heuristic;
pub mod pair;

pub use heuristic::next_table_capacity;
pub use pair::{pack_pair, pair_source, pair_vertex};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pscc_runtime::{hash64, pack_map, par_range};

/// Slot sentinel for "empty".
const EMPTY: u64 = u64::MAX;

/// Result of an insertion attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insert {
    /// The key was inserted by this call.
    Added,
    /// The key was already present.
    Present,
    /// The probe limit was hit; the caller must [`PairTable::grow`] (not
    /// concurrently) and retry.
    Full,
}

/// A phase-concurrent open-addressing hash set of `u64` keys.
///
/// `u64::MAX` is reserved as the empty sentinel and cannot be stored.
pub struct PairTable {
    slots: Box<[AtomicU64]>,
    mask: usize,
    len: AtomicUsize,
    /// Probe limit before reporting [`Insert::Full`].
    probe_limit: usize,
}

impl PairTable {
    /// Creates a table able to hold about `capacity` keys (rounded up to a
    /// power of two with 2× headroom).
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = slots_for(capacity);
        Self {
            slots: (0..slots).map(|_| AtomicU64::new(EMPTY)).collect(),
            mask: slots - 1,
            len: AtomicUsize::new(0),
            probe_limit: 128 + slots.trailing_zeros() as usize * 8,
        }
    }

    /// Number of slots (always a power of two).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `key`; returns whether it was added, already present, or the
    /// table needs growing. Concurrent-safe with other `insert`/`contains`.
    pub fn insert(&self, key: u64) -> Insert {
        let outcome = self.insert_uncounted(key);
        if outcome == Insert::Added {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// [`insert`](Self::insert) without updating [`len`](Self::len): for
    /// parallel loops that count the keys they add and report them in bulk
    /// with [`add_len`](Self::add_len), instead of updating one shared
    /// counter per key.
    pub fn insert_uncounted(&self, key: u64) -> Insert {
        debug_assert_ne!(key, EMPTY, "u64::MAX is the empty sentinel");
        let mut i = (hash64(key) as usize) & self.mask;
        for _ in 0..self.probe_limit {
            let cur = self.slots[i].load(Ordering::Relaxed);
            if cur == key {
                return Insert::Present;
            }
            if cur == EMPTY {
                match self.slots[i].compare_exchange(
                    EMPTY,
                    key,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Insert::Added,
                    Err(now) => {
                        if now == key {
                            return Insert::Present;
                        }
                        // Lost the race to a different key: fall through to
                        // probe the next slot.
                    }
                }
            }
            i = (i + 1) & self.mask;
        }
        Insert::Full
    }

    /// Counts `added` keys stored by [`insert_uncounted`](Self::insert_uncounted).
    pub fn add_len(&self, added: usize) {
        self.len.fetch_add(added, Ordering::Relaxed);
    }

    /// Membership test. Concurrent-safe with `insert`.
    ///
    /// Note: under the phase-concurrent discipline a `contains` racing an
    /// in-flight `insert` of the same key may return either answer; once
    /// the insert returns, `contains` is guaranteed `true`.
    pub fn contains(&self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY);
        let mut i = (hash64(key) as usize) & self.mask;
        for _ in 0..self.probe_limit {
            let cur = self.slots[i].load(Ordering::Acquire);
            if cur == key {
                return true;
            }
            if cur == EMPTY {
                return false;
            }
            i = (i + 1) & self.mask;
        }
        false
    }

    /// All stored keys, packed in slot order. Not concurrent with `insert`.
    pub fn keys(&self) -> Vec<u64> {
        pack_map(&self.slots, |s| {
            let v = s.load(Ordering::Relaxed);
            (v != EMPTY).then_some(v)
        })
    }

    /// Applies `f` to every stored key in parallel. Not concurrent with
    /// `insert`.
    pub fn for_each<F>(&self, f: F)
    where
        F: Fn(u64) + Sync,
    {
        par_range(0..self.slots.len(), 2048, &|r| {
            for i in r {
                let v = self.slots[i].load(Ordering::Relaxed);
                if v != EMPTY {
                    f(v);
                }
            }
        });
    }

    /// Rebuilds into a table with at least double the slots, rehashing all
    /// keys (parallel). This is the copy cost the §4.5 heuristic avoids.
    pub fn grow(&mut self) {
        let keys = self.keys();
        let mut bigger = PairTable::with_capacity(self.slots.len());
        debug_assert!(bigger.slot_count() > self.slot_count());
        loop {
            let ok = std::sync::atomic::AtomicBool::new(true);
            par_range(0..keys.len(), 1024, &|r| {
                for &k in &keys[r.clone()] {
                    if bigger.insert(k) == Insert::Full {
                        ok.store(false, Ordering::Relaxed);
                    }
                }
            });
            if ok.load(Ordering::Relaxed) {
                break;
            }
            // Extremely unlikely: double again.
            bigger = PairTable::with_capacity(bigger.slot_count());
        }
        *self = bigger;
    }

    /// Empties a table whose stored keys are exactly `keys` and gives it
    /// the slot count [`with_capacity(capacity)`](Self::with_capacity)
    /// would. When the count already matches, the slots are kept and only
    /// those holding `keys` are cleared, so the cost follows the keys, not
    /// the slot count. Otherwise the slots are replaced, the old array
    /// freed before the new one is allocated so two generations are never
    /// alive at once.
    pub fn reset(&mut self, keys: &[u64], capacity: usize) {
        debug_assert_eq!(keys.len(), self.len(), "reset needs exactly the stored keys");
        if slots_for(capacity) != self.slots.len() {
            self.slots = Box::default();
            *self = PairTable::with_capacity(capacity);
            return;
        }
        self.len.store(0, Ordering::Relaxed);
        if keys.len() * 8 >= self.slots.len() {
            // Dense: one streaming fill beats that many scattered writes.
            for slot in self.slots.iter_mut() {
                *slot.get_mut() = EMPTY;
            }
            return;
        }
        let this = &*self;
        par_range(0..keys.len(), 2048, &|r| {
            for &key in &keys[r] {
                // Probe past empty slots: other keys of the list may
                // already be cleared, but never move, so `key` is still
                // within the probe limit of its home slot.
                let mut i = (hash64(key) as usize) & this.mask;
                for _ in 0..this.probe_limit {
                    if this.slots[i].load(Ordering::Relaxed) == key {
                        this.slots[i].store(EMPTY, Ordering::Relaxed);
                        break;
                    }
                    i = (i + 1) & this.mask;
                }
            }
        });
    }

    /// Clears all keys (parallel), keeping the allocation.
    pub fn clear(&self) {
        par_range(0..self.slots.len(), 4096, &|r| {
            for i in r {
                self.slots[i].store(EMPTY, Ordering::Relaxed);
            }
        });
        self.len.store(0, Ordering::Relaxed);
    }
}

/// Slot count for a table of about `capacity` keys: a power of two with
/// 2× headroom.
fn slots_for(capacity: usize) -> usize {
    (capacity.max(8) * 2).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_runtime::par_for;
    use std::collections::HashSet;

    #[test]
    fn insert_and_contains() {
        let t = PairTable::with_capacity(100);
        assert_eq!(t.insert(42), Insert::Added);
        assert_eq!(t.insert(42), Insert::Present);
        assert!(t.contains(42));
        assert!(!t.contains(43));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn parallel_inserts_count_unique_keys() {
        let t = PairTable::with_capacity(100_000);
        // Each key inserted twice; Added must fire exactly once per key.
        use std::sync::atomic::AtomicUsize;
        let added = AtomicUsize::new(0);
        par_for(200_000, |i| {
            let key = (i / 2) as u64;
            if t.insert(key) == Insert::Added {
                added.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(added.load(Ordering::Relaxed), 100_000);
        assert_eq!(t.len(), 100_000);
    }

    #[test]
    fn keys_returns_exact_set() {
        let t = PairTable::with_capacity(1000);
        for k in 0..500u64 {
            t.insert(k * 3);
        }
        let got: HashSet<u64> = t.keys().into_iter().collect();
        let expected: HashSet<u64> = (0..500u64).map(|k| k * 3).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn grow_preserves_contents() {
        let mut t = PairTable::with_capacity(8);
        for k in 0..16u64 {
            // May report Full on a tiny table; grow and retry like the
            // driver does.
            while t.insert(k) == Insert::Full {
                t.grow();
            }
        }
        for k in 0..16u64 {
            assert!(t.contains(k), "lost key {k} after grow");
        }
        assert_eq!(t.len(), 16);
    }

    #[test]
    fn overfill_reports_full_eventually() {
        // Saturate a minimum-size table; at some point Full must appear.
        let t = PairTable::with_capacity(1);
        let mut got_full = false;
        for k in 0..100_000u64 {
            if t.insert(k) == Insert::Full {
                got_full = true;
                break;
            }
        }
        assert!(got_full);
    }

    #[test]
    fn clear_resets() {
        let t = PairTable::with_capacity(100);
        for k in 0..50u64 {
            t.insert(k);
        }
        t.clear();
        assert!(t.is_empty());
        assert!(!t.contains(7));
        assert_eq!(t.insert(7), Insert::Added);
    }

    #[test]
    fn uncounted_inserts_count_once_per_block() {
        let t = PairTable::with_capacity(1000);
        let added = (0..300u64).filter(|&k| t.insert_uncounted(k % 200) == Insert::Added).count();
        assert_eq!(added, 200);
        assert_eq!(t.len(), 0, "uncounted inserts leave len alone");
        t.add_len(added);
        assert_eq!(t.len(), 200);
        assert!(t.contains(199));
    }

    #[test]
    fn reset_empties_every_slot_and_accepts_a_new_batch() {
        // A small table so probe chains are long and keys cleared early
        // sit in front of keys cleared later.
        let mut t = PairTable::with_capacity(64);
        let slots = t.slot_count();
        let all_empty = |t: &PairTable| t.slots.iter().all(|s| s.load(Ordering::Relaxed) == EMPTY);
        let keys: Vec<u64> = (0..100u64).map(|k| k * 7919).collect();
        for &k in &keys {
            assert_eq!(t.insert(k), Insert::Added);
        }
        t.reset(&keys, 64);
        assert_eq!(t.slot_count(), slots, "same capacity keeps the slots");
        assert!(t.is_empty());
        assert!(all_empty(&t), "a slot kept a key");
        assert!(keys.iter().all(|&k| !t.contains(k)));
        // The reset table takes a new, smaller batch, whose few keys are
        // then cleared slot by slot.
        let small: Vec<u64> = (1..=10u64).collect();
        for &k in &small {
            assert_eq!(t.insert(k), Insert::Added);
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.keys().len(), 10);
        t.reset(&small, 64);
        assert!(t.is_empty());
        assert!(all_empty(&t), "a slot kept a key");
        assert_eq!(t.insert(3), Insert::Added);
    }

    #[test]
    fn reset_follows_the_requested_capacity() {
        let mut t = PairTable::with_capacity(1000);
        t.insert(5);
        t.reset(&[5], 100_000);
        assert_eq!(t.slot_count(), PairTable::with_capacity(100_000).slot_count());
        assert!(t.is_empty());
        t.insert(6);
        t.reset(&[6], 10);
        assert_eq!(t.slot_count(), PairTable::with_capacity(10).slot_count());
        assert!(t.is_empty() && !t.contains(6));
        assert_eq!(t.insert(5), Insert::Added);
    }

    #[test]
    fn for_each_visits_all() {
        use std::sync::atomic::AtomicU64;
        let t = PairTable::with_capacity(1000);
        for k in 1..=100u64 {
            t.insert(k);
        }
        let sum = AtomicU64::new(0);
        t.for_each(|k| {
            sum.fetch_add(k, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=100u64).sum::<u64>());
    }

    #[test]
    fn slot_count_is_power_of_two() {
        for cap in [1, 7, 100, 1000, 12345] {
            let t = PairTable::with_capacity(cap);
            assert!(t.slot_count().is_power_of_two());
            assert!(t.slot_count() >= cap);
        }
    }

    #[test]
    fn adversarial_colliding_keys() {
        // Keys engineered to collide in low bits still disperse via hash64.
        let t = PairTable::with_capacity(4096);
        let stride = t.slot_count() as u64;
        for k in 0..2000u64 {
            assert_ne!(t.insert(k * stride), Insert::Full);
        }
        assert_eq!(t.len(), 2000);
    }
}
