//! The bounded, deterministic memo behind every cache of the crate
//! ([`ScheduleCache`](crate::ScheduleCache),
//! [`PlanCache`](crate::PlanCache),
//! [`ServiceCostCache`](crate::ServiceCostCache), the
//! [`ScenarioClassifier`](crate::ScenarioClassifier)'s per-mix memo and
//! every [`StagePlan`](crate::StagePlan)'s timing memo).
//!
//! Every value a memo holds is a pure function of its key, so eviction
//! never changes a result, only forces a recomputation. What the memo
//! adds is that its counters and its contents are reproducible:
//! lookups are single-flight, hit/miss counts do not depend on worker
//! timing, and at capacity the oldest-inserted entry is the victim.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use q100_trace::Registry;

/// Capacity of the schedule and plan caches. One 19-query figure
/// inserts at most 2,850 keys (fig6: 150 mixes × 19 queries) and an
/// `all` run stays below this bound, so no shipped sweep evicts, while
/// a serving loop churning through degraded mixes stays bounded to a
/// few tens of MB.
pub(crate) const DEFAULT_CAPACITY: usize = 8192;

/// Hit/miss counters of a cache.
///
/// Defined deterministically: `misses` is the number of *distinct keys
/// inserted* since the last reset (a key inserted and later evicted
/// still counts as the miss it was), and `hits` is the remaining
/// lookups. Lookups of one fresh key are single-flight, and callers that
/// split lookup from insertion look each key up once, so these numbers
/// are identical for any `--jobs` count, a property the experiments
/// binary's stdout determinism check relies on. Eviction takes the
/// oldest-inserted entry, so a run that inserts keys in a fixed order
/// also evicts, and later re-misses, the same keys every time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that inserted a fresh value.
    pub misses: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} hits / {} misses", self.hits, self.misses)
    }
}

/// One entry of a [`Memo`].
#[derive(Debug)]
enum Slot<V> {
    /// A resident value.
    Ready(V),
    /// The first caller is computing this key right now; later callers
    /// wait on [`Memo::filled`] instead of computing it again.
    Pending,
}

#[derive(Debug)]
struct State<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Keys of the `Ready` slots, oldest-inserted first.
    order: VecDeque<K>,
    /// Lookups since the last reset.
    lookups: u64,
    /// Fresh insertions since the last reset: the miss count.
    inserts: u64,
    /// Entries evicted since construction.
    evictions: u64,
}

/// A thread-safe memo bounded to `capacity` resident values.
///
/// A lookup is a [`Memo::get`] call or a successful
/// [`Memo::get_or_try_insert_with`] call; see [`CacheStats`] for how
/// lookups and insertions become hits and misses. With a registry
/// attached, each lookup also bumps the memo's lookup metric and each
/// eviction bumps `cache.evictions`.
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    state: Mutex<State<K, V>>,
    /// Notified whenever a pending slot resolves (filled or released).
    filled: Condvar,
    capacity: usize,
    metrics: Option<(Arc<Registry>, &'static str)>,
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty memo bounded to `capacity` resident values (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Memo {
            state: Mutex::new(State {
                slots: HashMap::new(),
                order: VecDeque::new(),
                lookups: 0,
                inserts: 0,
                evictions: 0,
            }),
            filled: Condvar::new(),
            capacity: capacity.max(1),
            metrics: None,
        }
    }

    /// This memo, counting every lookup into `registry` under
    /// `lookups` and every eviction under `cache.evictions`.
    pub(crate) fn with_metrics(self, registry: Arc<Registry>, lookups: &'static str) -> Self {
        Memo { metrics: Some((registry, lookups)), ..self }
    }

    fn state(&self) -> MutexGuard<'_, State<K, V>> {
        // No caller code runs under the lock and every update leaves the
        // state consistent, so a poisoned lock still guards valid data.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn note(&self, lookups: u64, evictions: u64) {
        if let Some((registry, name)) = &self.metrics {
            for (metric, by) in [(*name, lookups), ("cache.evictions", evictions)] {
                if by > 0 {
                    registry.inc(metric, by);
                }
            }
        }
    }

    /// The value memoized under `key`, computing it with `compute` on a
    /// miss. Single-flight: while one caller computes a key, later
    /// callers for it wait for the result instead of computing it again,
    /// so `compute` runs once per insertion whatever the worker timing.
    /// `compute` runs outside the memo's lock.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error. Failures are not memoized: waiters
    /// and later callers try the key again.
    pub(crate) fn get_or_try_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut state = self.state();
        loop {
            match state.slots.get(&key) {
                Some(Slot::Ready(value)) => {
                    let value = value.clone();
                    state.lookups += 1;
                    drop(state);
                    self.note(1, 0);
                    return Ok(value);
                }
                Some(Slot::Pending) => {
                    state = self.filled.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        state.slots.insert(key.clone(), Slot::Pending);
        drop(state);
        // This caller owns the pending slot until it is filled; the guard
        // releases it if `compute` fails or unwinds, so waiters retry
        // instead of hanging.
        let pending = PendingSlot { memo: self, key: &key };
        let value = compute()?;
        std::mem::forget(pending);
        let mut state = self.state();
        state.lookups += 1;
        let evicted = self.store(&mut state, key, value.clone());
        drop(state);
        self.filled.notify_all();
        self.note(1, evicted);
        Ok(value)
    }

    /// The value memoized under `key`, counting the lookup either way.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        let mut state = self.state();
        state.lookups += 1;
        let value = match state.slots.get(key) {
            Some(Slot::Ready(value)) => Some(value.clone()),
            _ => None,
        };
        drop(state);
        self.note(1, 0);
        value
    }

    /// Inserts a freshly computed value for callers that split lookup
    /// from computation. A value already resident (or being computed)
    /// under `key` wins, so concurrent fills stay consistent.
    pub(crate) fn insert(&self, key: K, value: V) {
        let mut state = self.state();
        if state.slots.contains_key(&key) {
            return;
        }
        let evicted = self.store(&mut state, key, value);
        drop(state);
        self.note(0, evicted);
    }

    /// Makes `value` resident under `key`, evicting the oldest entries
    /// beyond capacity; returns how many it evicted.
    fn store(&self, state: &mut State<K, V>, key: K, value: V) -> u64 {
        state.slots.insert(key.clone(), Slot::Ready(value));
        state.order.push_back(key);
        state.inserts += 1;
        let mut evicted = 0;
        while state.order.len() > self.capacity {
            if let Some(victim) = state.order.pop_front() {
                state.slots.remove(&victim);
                evicted += 1;
            }
        }
        state.evictions += evicted;
        evicted
    }

    /// Current hit/miss counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let state = self.state();
        CacheStats { hits: state.lookups.saturating_sub(state.inserts), misses: state.inserts }
    }

    /// Zeroes the hit/miss counters while keeping every memoized value.
    pub(crate) fn reset_stats(&self) {
        let mut state = self.state();
        state.lookups = 0;
        state.inserts = 0;
    }

    /// Number of resident values (pending computations excluded).
    pub(crate) fn len(&self) -> usize {
        self.state().order.len()
    }

    /// Entries evicted to respect the capacity since construction.
    pub(crate) fn evictions(&self) -> u64 {
        self.state().evictions
    }
}

/// Releases a pending [`Slot`] whose compute failed or unwound and wakes
/// its waiters. The success path `mem::forget`s it and fills the slot.
struct PendingSlot<'a, K: Eq + Hash + Clone, V: Clone> {
    memo: &'a Memo<K, V>,
    key: &'a K,
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for PendingSlot<'_, K, V> {
    fn drop(&mut self) {
        self.memo.state().slots.remove(self.key);
        self.memo.filled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn fill(memo: &Memo<u64, u64>, key: u64) -> u64 {
        memo.get_or_try_insert_with(key, || Ok::<_, Infallible>(key * 10)).unwrap()
    }

    #[test]
    fn memoizes_per_key_and_counts_hits_and_misses() {
        let registry = Arc::new(Registry::new());
        let memo = Memo::new(DEFAULT_CAPACITY).with_metrics(Arc::clone(&registry), "t.lookups");
        assert_eq!(fill(&memo, 1), 10);
        assert_eq!(fill(&memo, 1), 10);
        assert_eq!(fill(&memo, 2), 20);
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(registry.counter("t.lookups"), 3);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn split_lookup_and_insert_count_like_a_fill() {
        let memo = Memo::new(DEFAULT_CAPACITY);
        assert_eq!(memo.get(&1), None);
        memo.insert(1, 10);
        memo.insert(1, 99);
        assert_eq!(memo.get(&1), Some(10), "the first insertion wins");
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn reset_stats_keeps_entries() {
        let memo = Memo::new(DEFAULT_CAPACITY);
        fill(&memo, 1);
        fill(&memo, 1);
        memo.reset_stats();
        assert_eq!(memo.stats(), CacheStats::default());
        assert_eq!(memo.len(), 1, "reset_stats must not drop memoized values");
        fill(&memo, 1);
        assert_eq!(memo.stats(), CacheStats { hits: 1, misses: 0 });
    }

    #[test]
    fn capacity_bounds_residency_and_counts_evictions() {
        let registry = Arc::new(Registry::new());
        let memo = Memo::new(2).with_metrics(Arc::clone(&registry), "t.lookups");
        for key in 0..5 {
            fill(&memo, key);
        }
        assert_eq!(memo.len(), 2, "capacity must bound resident entries");
        assert_eq!(memo.evictions(), 3);
        assert_eq!(registry.counter("cache.evictions"), 3);
        // Evicted entries still count as the misses they were.
        assert_eq!(memo.stats(), CacheStats { hits: 0, misses: 5 });
        // An evicted key is recomputed, not an error.
        assert_eq!(fill(&memo, 0), 0);
        assert_eq!(memo.stats(), CacheStats { hits: 0, misses: 6 });
    }

    #[test]
    fn eviction_takes_the_oldest_inserted_entry() {
        let memo = Memo::new(2);
        fill(&memo, 1);
        fill(&memo, 2);
        // A hit does not refresh an entry's age.
        fill(&memo, 1);
        fill(&memo, 3);
        assert_eq!(memo.get(&1), None, "key 1 was inserted first");
        assert_eq!(memo.get(&2), Some(20));
        assert_eq!(memo.get(&3), Some(30));
        fill(&memo, 4);
        assert_eq!(memo.get(&2), None);
        assert_eq!(memo.get(&3), Some(30));
    }

    #[test]
    fn default_capacity_sees_zero_evictions_in_ordinary_use() {
        let memo = Memo::new(DEFAULT_CAPACITY);
        for key in 0..2850 {
            fill(&memo, key);
        }
        assert_eq!(memo.evictions(), 0);
        assert_eq!(memo.len(), 2850);
    }

    #[test]
    fn failures_are_not_memoized() {
        let memo: Memo<u64, u64> = Memo::new(DEFAULT_CAPACITY);
        assert_eq!(memo.get_or_try_insert_with(1, || Err("no")), Err("no"));
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.stats(), CacheStats::default());
        assert_eq!(fill(&memo, 1), 10, "a failed key is computed again");
    }

    #[test]
    fn racing_threads_compute_a_fresh_key_once() {
        let n = 8;
        let memo = Memo::new(DEFAULT_CAPACITY);
        let (computes, arrived) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let start = Barrier::new(n);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    start.wait();
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let v = memo.get_or_try_insert_with(7, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the key pending until every thread has
                        // asked for it.
                        while arrived.load(Ordering::SeqCst) < n {
                            std::thread::yield_now();
                        }
                        Ok::<_, Infallible>(70)
                    });
                    assert_eq!(v, Ok(70));
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert_eq!(memo.stats(), CacheStats { hits: n as u64 - 1, misses: 1 });
    }

    #[test]
    fn a_panicking_compute_releases_its_key() {
        let memo: Memo<u64, u64> = Memo::new(DEFAULT_CAPACITY);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_try_insert_with(1, || -> Result<u64, Infallible> { panic!("compute") })
        }));
        assert!(unwound.is_err());
        assert_eq!(fill(&memo, 1), 10, "the key must not stay pending");
    }
}
