//! Temporal embedding cache for the serving hot path.
//!
//! A query's reply values are a pure function of (epoch parameters, node
//! memory + pending messages, event log, queried nodes, query time), so a
//! reply computed once can be replayed from cache *bit-identically* as long
//! as none of those inputs changed. The cache tracks exactly that:
//!
//! * **Key** — the query signature: its nodes, the resolved query time
//!   (bit pattern, so `-0.0` vs `0.0` never aliases), and whether it is a
//!   `SCORE` (head applied) or an `EMB` (raw embedding).
//! * **Dependency set** — the node ids whose state the forward pass read:
//!   the queried nodes themselves plus each one's recent temporal
//!   neighbours at the query time (attention reads their states; the JODIE
//!   gate reads the node's own `last_update`). An entry is dropped when any
//!   [`EVENT` touched set](cpdg_graph::touched_nodes) intersects it — the
//!   touched set of an applied event is its endpoints **plus the previous
//!   pending endpoints** (those get committed to memory by the same
//!   ingestion step), which is why [`crate::engine::Engine`] merges the
//!   encoder's [`pending_endpoints`](cpdg_dgnn::DgnnEncoder::pending_endpoints)
//!   into every invalidation.
//! * **Wholesale invalidation** — hot reload and epoch promotion (new
//!   parameters), WAL recovery, and drain flush clear everything: those
//!   replace state the per-node dependency sets do not model.
//!
//! Counter semantics: `hits`/`misses` count *consulted* lookups (the cache
//! is consulted after breaker admission, before the `serve.infer` fault
//! point — mirroring where the forward pass would start), `invalidations`
//! counts dropped entries. The counters live here, one per engine, and
//! `STATUS` reports them. A coalesced run of queries looks each member up
//! in FIFO order, like a run of singletons, so a repeat query later in the
//! same run hits exactly as it would alone — and reply bytes are pinned
//! bit-identical by the coalescing oracle either way.

use cpdg_graph::NodeId;
use std::collections::{HashMap, HashSet};

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

struct CacheEntry {
    values: Vec<f32>,
    deps: Vec<NodeId>,
}

/// The embedding/score cache. Owned by the engine's inner state, so every
/// access is already serialised under the engine lock.
#[derive(Default)]
pub struct EmbedCache {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Reverse index: node id → keys whose dependency set contains it.
    dep_index: HashMap<NodeId, HashSet<CacheKey>>,
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

    /// Entries dropped by per-node or wholesale invalidation.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Counted lookup: returns the cached reply values, bumping the hit or
    /// miss counter.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Vec<f32>> {
        match self.entries.get(key) {
            Some(entry) => {
                self.hits += 1;
                Some(entry.values.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `values` for `key`, depending on `deps` (the key's own nodes
    /// are always added, so callers only need to pass what the forward
    /// pass read *beyond* them). Overwrites any previous entry for the
    /// key.
    pub fn insert(&mut self, key: CacheKey, values: Vec<f32>, deps: &[NodeId]) {
        let mut all_deps: Vec<NodeId> = key
            .nodes
            .iter()
            .copied()
            .chain(deps.iter().copied())
            .collect();
        all_deps.sort_unstable();
        all_deps.dedup();
        if let Some(old) = self.entries.remove(&key) {
            self.unindex(&key, &old.deps);
        }
        for &d in &all_deps {
            self.dep_index.entry(d).or_default().insert(key.clone());
        }
        self.entries.insert(
            key,
            CacheEntry {
                values,
                deps: all_deps,
            },
        );
    }

    /// Drops every entry whose dependency set intersects `touched`,
    /// returning how many were dropped. This is the per-`EVENT`
    /// invalidation: `touched` must be the event's endpoints merged with
    /// the previously-pending endpoints the ingestion step committed.
    pub fn invalidate_nodes(&mut self, touched: &[NodeId]) -> u64 {
        let mut doomed: HashSet<CacheKey> = HashSet::new();
        for n in touched {
            if let Some(keys) = self.dep_index.get(n) {
                doomed.extend(keys.iter().cloned());
            }
        }
        let mut dropped = 0u64;
        for key in doomed {
            if let Some(entry) = self.entries.remove(&key) {
                self.unindex(&key, &entry.deps);
                dropped += 1;
            }
        }
        self.invalidations += dropped;
        dropped
    }

    /// Drops everything, tagging the wholesale clear with its `cause`
    /// (reload vs. recovery vs. epoch promotion vs. flush).
    /// Returns how many entries were dropped. The per-cause *clear event*
    /// count (not the entry count) feeds `STATUS`.
    pub fn clear_all(&mut self, cause: ClearCause) -> u64 {
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.dep_index.clear();
        self.invalidations += dropped;
        self.clears[cause as usize] += 1;
        dropped
    }

    /// Number of wholesale clears attributed to `cause`.
    pub fn clears(&self, cause: ClearCause) -> u64 {
        self.clears[cause as usize]
    }

    fn unindex(&mut self, key: &CacheKey, deps: &[NodeId]) {
        for d in deps {
            if let Some(set) = self.dep_index.get_mut(d) {
                set.remove(key);
                if set.is_empty() {
                    self.dep_index.remove(d);
                }
            }
        }
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
        c.insert(k.clone(), vec![1.0, 2.0], &[7]);
        assert_eq!(c.lookup(&k), Some(vec![1.0, 2.0]));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn distinct_times_kinds_and_node_orders_never_alias() {
        let mut c = EmbedCache::new();
        c.insert(CacheKey::new(&[1, 2], 1.0, true), vec![0.5], &[]);
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
    fn invalidation_is_per_dependency_node() {
        let mut c = EmbedCache::new();
        // Entry on node 1 depending on neighbour 5; entry on node 2 alone.
        c.insert(CacheKey::new(&[1], 1.0, false), vec![1.0], &[5]);
        c.insert(CacheKey::new(&[2], 1.0, false), vec![2.0], &[]);
        assert_eq!(c.invalidate_nodes(&[5, 9]), 1, "only the 5-dependent entry");
        assert_eq!(c.lookup(&CacheKey::new(&[1], 1.0, false)), None);
        assert_eq!(
            c.lookup(&CacheKey::new(&[2], 1.0, false)),
            Some(vec![2.0]),
            "unrelated survives"
        );
        assert_eq!(c.invalidations(), 1);
        assert_eq!(c.invalidate_nodes(&[5]), 0, "idempotent");
    }

    #[test]
    fn own_nodes_are_always_dependencies() {
        let mut c = EmbedCache::new();
        c.insert(CacheKey::new(&[4, 6], 2.0, true), vec![0.1], &[]);
        assert_eq!(
            c.invalidate_nodes(&[6]),
            1,
            "an event touching a queried node invalidates even with no extra deps"
        );
    }

    #[test]
    fn clear_all_drops_everything_and_counts() {
        let mut c = EmbedCache::new();
        c.insert(CacheKey::new(&[1], 1.0, false), vec![1.0], &[2]);
        c.insert(CacheKey::new(&[3], 1.0, false), vec![3.0], &[]);
        assert_eq!(c.clear_all(ClearCause::Reload), 2);
        assert!(c.is_empty());
        assert_eq!(c.invalidations(), 2);
        assert_eq!(c.lookup(&CacheKey::new(&[1], 1.0, false)), None);
    }

    #[test]
    fn wholesale_clears_are_attributed_to_their_cause() {
        let mut c = EmbedCache::new();
        c.insert(CacheKey::new(&[1], 1.0, false), vec![1.0], &[]);
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

    #[test]
    fn reinsert_replaces_stale_dependencies() {
        let mut c = EmbedCache::new();
        let k = CacheKey::new(&[1], 1.0, false);
        c.insert(k.clone(), vec![1.0], &[5]);
        c.insert(k.clone(), vec![2.0], &[8]);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.invalidate_nodes(&[5]),
            0,
            "the old dependency no longer pins the entry"
        );
        assert_eq!(c.invalidate_nodes(&[8]), 1);
    }
}
