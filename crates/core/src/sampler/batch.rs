//! Batched subgraph sampling with per-query RNG streams.
//!
//! Pre-training asks for η-BFS / ε-DFS subgraphs in batches — one positive
//! and one negative per contrast centre (paper §IV-B). [`BatchSampler`]
//! answers the `(root, t)` queries of each batch in order on the calling
//! thread, reading the graph's own time-sorted adjacency
//! ([`DynamicGraph::neighbors_before`]); nothing is built per graph.
//!
//! **Determinism contract.** Every query `i` of a batch draws from its own
//! RNG stream, [`query_rng`]`(batch_seed, i)` — the same splittable
//! reseeding discipline the training loop already uses per batch. A query's
//! result therefore depends only on `(batch_seed, i)` and the immutable
//! graph, never on the other queries of the batch (enforced by the
//! `sampler_determinism` suite).

use crate::sampler::bfs::{eta_bfs, BfsConfig};
use crate::sampler::dfs::{eps_dfs, DfsConfig};
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The RNG stream of query `index` within a batch seeded by `batch_seed`
/// (golden-ratio mixing, matching the per-batch discipline in
/// `pretrain::batch_rng`).
pub fn query_rng(batch_seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(batch_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Bumps the process-wide sampler counters for one batch of `queries`
/// centre queries (observation only — never touches the RNG streams, so the
/// determinism contract above is unaffected).
fn note_batch(queries: usize) {
    cpdg_obs::counter!("sampler.batches").inc();
    cpdg_obs::counter!("sampler.queries").add(queries as u64);
}

/// A reusable batched sampler over one graph.
pub struct BatchSampler<'g> {
    graph: &'g DynamicGraph,
}

impl<'g> BatchSampler<'g> {
    /// A sampler over `graph`.
    pub fn new(graph: &'g DynamicGraph) -> Self {
        Self { graph }
    }

    /// The temporal-contrast sampling pattern: per query, a positive η-BFS
    /// (chronological bias) then a negative η-BFS (reverse bias), both drawn
    /// from query `i`'s stream in that order.
    pub fn sample_bfs_pairs(
        &self,
        queries: &[(NodeId, Timestamp)],
        pos_cfg: &BfsConfig,
        neg_cfg: &BfsConfig,
        batch_seed: u64,
    ) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
        note_batch(queries.len());
        let mut out = Vec::with_capacity(queries.len());
        for (i, &(root, t)) in queries.iter().enumerate() {
            let mut rng = query_rng(batch_seed, i);
            let pos = eta_bfs(self.graph, root, t, pos_cfg, &mut rng);
            let neg = eta_bfs(self.graph, root, t, neg_cfg, &mut rng);
            out.push((pos, neg));
        }
        out
    }

    /// The structural-contrast sampling pattern: per query, the positive
    /// ε-DFS rooted at the centre plus a negative ε-DFS rooted at a random
    /// pool node `≠` centre (bounded retry, falling back to any pool node
    /// when the pool holds a single distinct id).
    ///
    /// # Panics
    /// Panics if `negative_pool` is empty.
    pub fn sample_dfs_pairs(
        &self,
        queries: &[(NodeId, Timestamp)],
        negative_pool: &[NodeId],
        cfg: &DfsConfig,
        batch_seed: u64,
    ) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
        assert!(
            !negative_pool.is_empty(),
            "sample_dfs_pairs: empty negative pool"
        );
        note_batch(queries.len());
        let mut out = Vec::with_capacity(queries.len());
        for (i, &(root, t)) in queries.iter().enumerate() {
            let mut rng = query_rng(batch_seed, i);
            let pos = eps_dfs(self.graph, root, t, cfg);
            let mut other = negative_pool[rng.random_range(0..negative_pool.len())];
            for _ in 0..8 {
                if other != root {
                    break;
                }
                other = negative_pool[rng.random_range(0..negative_pool.len())];
            }
            let neg = eps_dfs(self.graph, other, t, cfg);
            out.push((pos, neg));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::prob::TemporalBias;
    use cpdg_graph::{generate, SyntheticConfig};

    fn dataset() -> cpdg_graph::SyntheticDataset {
        generate(&SyntheticConfig::amazon_like(21).scaled(0.05))
    }

    fn queries(graph: &DynamicGraph, n: usize) -> Vec<(NodeId, Timestamp)> {
        let t = graph.t_max().unwrap() + 1.0;
        graph
            .active_nodes()
            .into_iter()
            .take(n)
            .map(|node| (node, t))
            .collect()
    }

    fn bfs_pair_cfgs() -> (BfsConfig, BfsConfig) {
        (
            BfsConfig::new(3, 2, 0.5, TemporalBias::Chronological),
            BfsConfig::new(3, 2, 0.5, TemporalBias::ReverseChronological),
        )
    }

    #[test]
    fn different_batch_seeds_differ() {
        let ds = dataset();
        let s = BatchSampler::new(&ds.graph);
        let q = queries(&ds.graph, 16);
        let (pos, neg) = bfs_pair_cfgs();
        let a = s.sample_bfs_pairs(&q, &pos, &neg, 1);
        let b = s.sample_bfs_pairs(&q, &pos, &neg, 2);
        assert_ne!(a, b, "distinct batch seeds must explore differently");
    }

    #[test]
    fn empty_batch_is_empty() {
        let ds = dataset();
        let s = BatchSampler::new(&ds.graph);
        let (pos, neg) = bfs_pair_cfgs();
        assert!(s.sample_bfs_pairs(&[], &pos, &neg, 0).is_empty());
        assert!(s
            .sample_dfs_pairs(&[], &[0], &DfsConfig::new(2, 1), 0)
            .is_empty());
    }

    #[test]
    fn negative_roots_avoid_center_when_pool_allows() {
        let ds = dataset();
        let s = BatchSampler::new(&ds.graph);
        let q = queries(&ds.graph, 8);
        let pool: Vec<NodeId> = q.iter().map(|&(n, _)| n).collect();
        let pairs = s.sample_dfs_pairs(&q, &pool, &DfsConfig::new(2, 2), 9);
        for (i, (pos, neg)) in pairs.iter().enumerate() {
            assert_eq!(pos[0], q[i].0, "positive rooted at the centre");
            assert_ne!(
                neg[0],
                q[i].0,
                "negative root must differ (pool has {} ids)",
                pool.len()
            );
        }
    }
}
