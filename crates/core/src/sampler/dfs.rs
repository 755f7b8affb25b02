//! The ε-DFS sampling strategy (paper §IV-A, Eq. 5, Fig. 4).
//!
//! A recency-guided depth-first expansion: at each node, chronologically
//! sort the temporal neighbourhood and keep the ε *most recently*
//! interacted neighbours, then recurse on each, `k` levels deep. Unlike
//! η-BFS this selection is deterministic — the "discrete formulation" of
//! the same most-recent-first preference — and it is the generator of the
//! structural positive/negative subgraphs `SP_i^t` / `SN_{i'}^t`.

use crate::sampler::counted_before;
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};

/// ε-DFS hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DfsConfig {
    /// Branching width ε (most-recent neighbours per node).
    pub epsilon: usize,
    /// Recursion depth k.
    pub k: usize,
}

impl DfsConfig {
    /// A new configuration.
    pub fn new(epsilon: usize, k: usize) -> Self {
        Self { epsilon, k }
    }
}

/// Runs ε-DFS from `root` at time `t`. Returns the subgraph node set in
/// depth-first discovery order, root first, without duplicates. Only events
/// strictly before `t` are visible.
pub fn eps_dfs(graph: &DynamicGraph, root: NodeId, t: Timestamp, cfg: &DfsConfig) -> Vec<NodeId> {
    let mut seen: Vec<NodeId> = vec![root];
    expand(graph, root, t, cfg.k, cfg, &mut seen);
    seen
}

fn expand(
    graph: &DynamicGraph,
    node: NodeId,
    t: Timestamp,
    depth_left: usize,
    cfg: &DfsConfig,
    seen: &mut Vec<NodeId>,
) {
    if depth_left == 0 {
        return;
    }
    // Most recent first: exactly the ε suffix of the chronologically
    // sorted neighbourhood NS_i^t of Eq. 5.
    let before = counted_before(graph, node, t);
    for entry in before.iter().rev().take(cfg.epsilon) {
        if !seen.contains(&entry.neighbor) {
            seen.push(entry.neighbor);
            // Recurse at the *event* time: the child sees only history
            // strictly before the edge that led to it.
            expand(graph, entry.neighbor, entry.t, depth_left - 1, cfg, seen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::cases::for_each_case;
    use cpdg_graph::graph_from_triples;

    /// Matches the paper's Fig. 4 shape: root with neighbours u1..u5 at
    /// increasing times; u4 and u5 have their own later neighbours.
    fn fig4_like_graph() -> DynamicGraph {
        // ids: 0 = root, 1..=5 = u1..u5, 6..=9 = v5..v8
        graph_from_triples(
            10,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (0, 3, 3.0),
                (0, 4, 4.0),
                (0, 5, 5.0),
                (4, 6, 3.0),
                (4, 7, 3.5),
                (5, 8, 4.2),
                (5, 9, 4.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn selects_most_recent_neighbors_like_fig4() {
        let g = fig4_like_graph();
        let nodes = eps_dfs(&g, 0, 6.0, &DfsConfig::new(2, 2));
        // 1-hop ε-neighbours must be u5 (t=5) and u4 (t=4); their most
        // recent neighbours are the v's.
        assert!(nodes.contains(&5) && nodes.contains(&4), "{nodes:?}");
        assert!(!nodes.contains(&1) && !nodes.contains(&2) && !nodes.contains(&3));
        assert!(
            nodes.contains(&8) && nodes.contains(&9),
            "v's of u5: {nodes:?}"
        );
        assert!(
            nodes.contains(&6) && nodes.contains(&7),
            "v's of u4: {nodes:?}"
        );
    }

    #[test]
    fn deterministic() {
        let g = fig4_like_graph();
        let a = eps_dfs(&g, 0, 6.0, &DfsConfig::new(2, 2));
        let b = eps_dfs(&g, 0, 6.0, &DfsConfig::new(2, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn depth_first_order() {
        let g = fig4_like_graph();
        let nodes = eps_dfs(&g, 0, 6.0, &DfsConfig::new(2, 2));
        // First expanded neighbour is u5; its children (9, 8) must appear
        // before u4.
        assert_eq!(nodes[0], 0);
        assert_eq!(nodes[1], 5);
        let pos4 = nodes.iter().position(|&n| n == 4).unwrap();
        let pos9 = nodes.iter().position(|&n| n == 9).unwrap();
        assert!(pos9 < pos4, "DFS explores u5's subtree first: {nodes:?}");
    }

    #[test]
    fn respects_query_time() {
        let g = fig4_like_graph();
        // At t = 2.5 only u1, u2 are visible.
        let nodes = eps_dfs(&g, 0, 2.5, &DfsConfig::new(3, 1));
        assert!(nodes.contains(&1) && nodes.contains(&2));
        assert!(!nodes.contains(&3) && !nodes.contains(&5));
    }

    #[test]
    fn recursion_uses_child_event_time() {
        // Child expansion sees only events before the edge that led there:
        // node 4's own neighbours at times ≥ its discovery edge time must
        // be excluded when recursing via an *older* edge.
        let g = graph_from_triples(4, &[(0, 1, 5.0), (1, 2, 3.0), (1, 3, 7.0)]).unwrap();
        let nodes = eps_dfs(&g, 0, 6.0, &DfsConfig::new(2, 2));
        // Discover 1 via edge t=5; recursing from 1 only sees events < 5:
        // node 2 (t=3) yes, node 3 (t=7) no.
        assert!(nodes.contains(&2));
        assert!(!nodes.contains(&3), "{nodes:?}");
    }

    #[test]
    fn isolated_root_is_singleton() {
        let g = graph_from_triples(3, &[(1, 2, 1.0)]).unwrap();
        assert_eq!(eps_dfs(&g, 0, 5.0, &DfsConfig::new(2, 2)), vec![0]);
    }

    #[test]
    fn dfs_invariants_on_random_graphs() {
        for_each_case(32, |case| {
            let edges = case.triples(10, 1, 50, 50.0);
            let (eps, k) = (case.index(1, 4), case.index(1, 4));
            let g = graph_from_triples(10, &edges).unwrap();
            let nodes = eps_dfs(&g, 0, 25.0, &DfsConfig::new(eps, k));
            assert_eq!(nodes[0], 0);
            let mut d = nodes.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), nodes.len(), "no duplicates");
            let bound: usize = (0..=k).map(|h| eps.pow(h as u32)).sum();
            assert!(nodes.len() <= bound);
        });
    }
}
