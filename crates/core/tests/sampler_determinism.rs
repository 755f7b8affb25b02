//! Determinism guarantees of the batched samplers.
//!
//! **Batch ≡ solo.** Entry `i` of a batch equals the stand-alone
//! `eta_bfs` / `eps_dfs` calls with `query_rng(batch_seed, i)`, so a
//! query's subgraphs never depend on the other queries of its batch.

use cpdg_core::sampler::batch::{query_rng, BatchSampler};
use cpdg_core::sampler::bfs::{eta_bfs, BfsConfig};
use cpdg_core::sampler::dfs::{eps_dfs, DfsConfig};
use cpdg_core::sampler::prob::TemporalBias;
use cpdg_graph::{generate, NodeId, SyntheticConfig, Timestamp};
use rand::RngExt;

fn workload() -> (cpdg_graph::SyntheticDataset, Vec<(NodeId, Timestamp)>) {
    let ds = generate(&SyntheticConfig::amazon_like(31).scaled(0.08));
    let t = ds.graph.t_max().unwrap() + 1.0;
    let queries: Vec<(NodeId, Timestamp)> = ds
        .graph
        .active_nodes()
        .into_iter()
        .take(40)
        .map(|n| (n, t))
        .collect();
    (ds, queries)
}

#[test]
fn bfs_pairs_equal_solo_calls_with_query_rng() {
    let (ds, queries) = workload();
    let sampler = BatchSampler::new(&ds.graph);
    let bfs = BfsConfig::new(4, 2, 0.4, TemporalBias::Chronological);
    let rev = BfsConfig::new(4, 2, 0.4, TemporalBias::ReverseChronological);
    let batch_seed = 0xC0FFEE;

    let pairs = sampler.sample_bfs_pairs(&queries, &bfs, &rev, batch_seed);
    for (i, &(root, t)) in queries.iter().enumerate() {
        let mut rng = query_rng(batch_seed, i);
        let pos = eta_bfs(&ds.graph, root, t, &bfs, &mut rng);
        let neg = eta_bfs(&ds.graph, root, t, &rev, &mut rng);
        assert_eq!(pairs[i], (pos, neg), "pair query {i}");
    }
}

#[test]
fn dfs_pairs_equal_solo_calls_with_query_rng() {
    let (ds, queries) = workload();
    let sampler = BatchSampler::new(&ds.graph);
    let dfs = DfsConfig::new(3, 2);
    let pool: Vec<NodeId> = queries.iter().map(|&(n, _)| n).collect();
    let batch_seed = 0xBADC0DE;

    let pairs = sampler.sample_dfs_pairs(&queries, &pool, &dfs, batch_seed);
    for (i, &(root, t)) in queries.iter().enumerate() {
        // The negative root is the first pool draw of query i's stream
        // that differs from the centre (at most nine draws).
        let mut rng = query_rng(batch_seed, i);
        let mut other = root;
        for _ in 0..9 {
            other = pool[rng.random_range(0..pool.len())];
            if other != root {
                break;
            }
        }
        let pos = eps_dfs(&ds.graph, root, t, &dfs);
        let neg = eps_dfs(&ds.graph, other, t, &dfs);
        assert_eq!(pairs[i], (pos, neg), "pair query {i}");
    }
}

#[test]
fn repeated_batches_are_reproducible() {
    // Same sampler, same seed, called twice — the graph is immutable and
    // each query reseeds from scratch, so nothing may carry over.
    let (ds, queries) = workload();
    let sampler = BatchSampler::new(&ds.graph);
    let bfs = BfsConfig::new(3, 3, 0.6, TemporalBias::Chronological);
    let rev = BfsConfig::new(3, 3, 0.6, TemporalBias::ReverseChronological);
    let a = sampler.sample_bfs_pairs(&queries, &bfs, &rev, 7);
    let b = sampler.sample_bfs_pairs(&queries, &bfs, &rev, 7);
    assert_eq!(a, b);
}
