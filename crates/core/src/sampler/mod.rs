//! The flexible structural-temporal subgraph sampler (paper §IV-A).

pub mod batch;
pub mod bfs;
pub mod dfs;
pub mod prob;

/// Seeded property cases, shared with the crate's integration tests.
#[cfg(test)]
#[path = "../../tests/common/mod.rs"]
mod cases;

pub use batch::{query_rng, BatchSampler};
pub use bfs::{eta_bfs, BfsConfig};
pub use dfs::{eps_dfs, DfsConfig};
pub use prob::{temporal_probs, TemporalBias};

use cpdg_graph::{DynamicGraph, NeighborEntry, NodeId, Timestamp};

/// `graph.neighbors_before(node, t)`, counted: every sampler lookup bumps
/// `graph.index_lookups`, and a non-empty neighbourhood `graph.index_hits`.
fn counted_before(graph: &DynamicGraph, node: NodeId, t: Timestamp) -> &[NeighborEntry] {
    let before = graph.neighbors_before(node, t);
    cpdg_obs::counter!("graph.index_lookups").inc();
    if !before.is_empty() {
        cpdg_obs::counter!("graph.index_hits").inc();
    }
    before
}
