//! Temporal embedding cache for the serving hot path.
//!
//! A query's reply values are a pure function of (epoch parameters, node
//! memory + pending messages, event log, queried nodes, query time), so a
//! reply computed once can be replayed from cache *bit-identically* as long
//! as none of those inputs changed. The rule is: **an entry is valid until
//! the next applied `EVENT`.**
//!
//! * **Key** — the query signature: its nodes, the resolved query time
//!   (bit pattern, so `-0.0` vs `0.0` never aliases), and whether it is a
//!   `SCORE` (head applied) or an `EMB` (raw embedding).
//! * **Per-`EVENT` invalidation** — every applied event commits the
//!   pending memory update and adds a neighbour, so
//!   [`crate::engine::Engine`] empties the cache on each one
//!   ([`EmbedCache::invalidate`]). A refused `EVENT` (validation failure
//!   or failed WAL append) mutates nothing and drops nothing. `t`-less
//!   queries resolve to the newest event time, so after an `EVENT` that
//!   advances time they could not hit an older entry anyway.
//! * **Wholesale clears** — hot reload and epoch promotion (new
//!   parameters), WAL recovery, and drain flush drop everything too, and
//!   are counted per cause.
//! * **Capacity** — between two `EVENT`s, distinct queries (say, explicit
//!   times `EMB 0 1.0`, `EMB 0 2.0`, …) each add an entry; an insert that
//!   would exceed [`CAPACITY`] entries drops everything first.
//!
//! Counter semantics: `hits`/`misses` count *consulted* lookups (the cache
//! is consulted after breaker admission, before the `serve.infer` fault
//! point — mirroring where the forward pass would start), `invalidations`
//! counts every dropped entry, whatever dropped it. The counters live
//! here, one per engine, and `STATUS` reports them. A coalesced run of
//! queries looks each member up in FIFO order, like a run of singletons,
//! so a repeat query later in the same run hits exactly as it would alone
//! — and reply bytes are pinned bit-identical by the coalescing oracle
//! either way.

use cpdg_graph::NodeId;
use std::collections::HashMap;

/// Most entries the cache holds. Far above what a serving workload keeps
/// between two `EVENT`s, so only a query-only flood of distinct keys
/// reaches it.
pub const CAPACITY: usize = 4096;

/// Why the cache was wholesale-cleared. Reload, recovery, and epoch
/// promotion all drop every entry, but they are operationally very
/// different events (a promotion storm shows up as cache churn; so does a
/// crash-recovery loop) — so each cause is counted separately and
/// surfaced in `STATUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClearCause {
    /// Operator-driven hot reload (`RELOAD <path>`).
    Reload,
    /// Continual-trainer epoch promotion (or its probation rollback).
    Promotion,
    /// WAL crash recovery at startup.
    Recovery,
    /// Graceful drain flush (pending messages committed wholesale).
    Flush,
}

impl ClearCause {
    /// Every cause, in `STATUS` order (and counter index order).
    pub const ALL: [ClearCause; 4] = [
        ClearCause::Reload,
        ClearCause::Promotion,
        ClearCause::Recovery,
        ClearCause::Flush,
    ];

    /// Stable lowercase token used in `STATUS` fields.
    pub fn token(self) -> &'static str {
        match self {
            ClearCause::Reload => "reload",
            ClearCause::Promotion => "promotion",
            ClearCause::Recovery => "recovery",
            ClearCause::Flush => "flush",
        }
    }
}

/// A query signature: the unit of caching.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Queried nodes: `[node]` for `EMB`, `[src, dst]` for `SCORE`.
    nodes: Vec<NodeId>,
    /// Bit pattern of the resolved query time (`f64::to_bits`).
    t_bits: u64,
    /// Whether the link-prediction head was applied (`SCORE`).
    score: bool,
}

impl CacheKey {
    /// Key for a query over `nodes` at resolved time `t`; `score` marks a
    /// `SCORE` (two nodes through the head) vs an `EMB`.
    pub fn new(nodes: &[NodeId], t: f64, score: bool) -> Self {
        Self {
            nodes: nodes.to_vec(),
            t_bits: t.to_bits(),
            score,
        }
    }
}

/// The embedding/score cache. Owned by the engine's inner state, so every
/// access is already serialised under the engine lock.
#[derive(Default)]
pub struct EmbedCache {
    entries: HashMap<CacheKey, Vec<f32>>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    /// Wholesale-clear counts, indexed by [`ClearCause`] discriminant.
    clears: [u64; ClearCause::ALL.len()],
}

impl EmbedCache {
    /// An empty cache with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found a live entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped by `EVENT`s, by the capacity bound, or wholesale.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Counted lookup: returns the cached reply values, bumping the hit or
    /// miss counter.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Vec<f32>> {
        match self.entries.get(key) {
            Some(values) => {
                self.hits += 1;
                Some(values.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `values` for `key`, overwriting any previous entry for it.
    /// The engine inserts only after a missed lookup, so a full cache is
    /// emptied first and never holds more than [`CAPACITY`] entries.
    pub fn insert(&mut self, key: CacheKey, values: Vec<f32>) {
        if self.entries.len() >= CAPACITY {
            self.invalidate();
        }
        self.entries.insert(key, values);
    }

    /// Drops every entry, returning how many were dropped: the
    /// per-`EVENT` invalidation, which no `STATUS` clear cause counts.
    pub fn invalidate(&mut self) -> u64 {
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.invalidations += dropped;
        dropped
    }

    /// Drops everything, tagging the wholesale clear with its `cause`
    /// (reload vs. recovery vs. epoch promotion vs. flush).
    /// Returns how many entries were dropped. The per-cause *clear event*
    /// count (not the entry count) feeds `STATUS`.
    pub fn clear_all(&mut self, cause: ClearCause) -> u64 {
        self.clears[cause as usize] += 1;
        self.invalidate()
    }

    /// Number of wholesale clears attributed to `cause`.
    pub fn clears(&self, cause: ClearCause) -> u64 {
        self.clears[cause as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = EmbedCache::new();
        let k = CacheKey::new(&[3], 1.5, false);
        assert_eq!(c.lookup(&k), None);
        c.insert(k.clone(), vec![1.0, 2.0]);
        assert_eq!(c.lookup(&k), Some(vec![1.0, 2.0]));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn distinct_times_kinds_and_node_orders_never_alias() {
        let mut c = EmbedCache::new();
        c.insert(CacheKey::new(&[1, 2], 1.0, true), vec![0.5]);
        let mut hit = |k: CacheKey| c.lookup(&k).is_some();
        assert!(!hit(CacheKey::new(&[1, 2], 2.0, true)), "time differs");
        assert!(!hit(CacheKey::new(&[2, 1], 1.0, true)), "order differs");
        assert!(!hit(CacheKey::new(&[1, 2], 1.0, false)), "kind differs");
        assert!(
            !hit(CacheKey::new(&[1, 2], -0.0, true)) || !hit(CacheKey::new(&[1, 2], 0.0, true)),
            "-0.0 and 0.0 are distinct bit patterns"
        );
    }

    #[test]
    fn invalidate_drops_every_entry_without_a_clear_cause() {
        let mut c = EmbedCache::new();
        c.insert(CacheKey::new(&[1], 1.0, false), vec![1.0]);
        c.insert(CacheKey::new(&[4, 6], 2.0, true), vec![0.1]);
        assert_eq!(c.invalidate(), 2);
        assert!(c.is_empty());
        assert_eq!(c.invalidations(), 2);
        assert!(ClearCause::ALL.iter().all(|&cause| c.clears(cause) == 0));
        assert_eq!(c.invalidate(), 0, "idempotent");
    }

    #[test]
    fn a_full_cache_empties_before_the_next_insert() {
        let mut c = EmbedCache::new();
        let key = |i: usize| CacheKey::new(&[0], i as f64, false);
        for i in 0..CAPACITY {
            c.insert(key(i), vec![i as f32]);
        }
        assert_eq!((c.len(), c.invalidations()), (CAPACITY, 0));
        c.insert(key(CAPACITY), vec![0.0]);
        assert_eq!((c.len(), c.invalidations()), (1, CAPACITY as u64));
        assert_eq!(c.lookup(&key(0)), None, "the full cache was dropped");
    }

    #[test]
    fn clear_all_drops_everything_and_counts() {
        let mut c = EmbedCache::new();
        c.insert(CacheKey::new(&[1], 1.0, false), vec![1.0]);
        c.insert(CacheKey::new(&[3], 1.0, false), vec![3.0]);
        assert_eq!(c.clear_all(ClearCause::Reload), 2);
        assert!(c.is_empty());
        assert_eq!(c.invalidations(), 2);
        assert_eq!(c.lookup(&CacheKey::new(&[1], 1.0, false)), None);
    }

    #[test]
    fn wholesale_clears_are_attributed_to_their_cause() {
        let mut c = EmbedCache::new();
        c.insert(CacheKey::new(&[1], 1.0, false), vec![1.0]);
        c.clear_all(ClearCause::Reload);
        c.clear_all(ClearCause::Promotion);
        c.clear_all(ClearCause::Promotion);
        c.clear_all(ClearCause::Recovery);
        assert_eq!(c.clears(ClearCause::Reload), 1);
        assert_eq!(c.clears(ClearCause::Promotion), 2);
        assert_eq!(c.clears(ClearCause::Recovery), 1);
        assert_eq!(c.clears(ClearCause::Flush), 0);
        // Entry-count accounting is independent: only the first clear
        // actually dropped anything.
        assert_eq!(c.invalidations(), 1);
    }
}
