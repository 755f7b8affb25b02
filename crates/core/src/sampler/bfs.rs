//! The η-BFS sampling strategy (paper §IV-A, Fig. 3).
//!
//! From a root node at time `t`, sample η of its temporal neighbours
//! according to a temporal-aware probability function, then recurse on each
//! sampled neighbour, `k` levels deep. With the chronological probability
//! (Eq. 7) this yields the *recent* subgraph `TP_i^t`; with the reverse
//! chronological probability (Eq. 8) the *agelong* subgraph `TN_i^t`.

use crate::sampler::counted_before;
use crate::sampler::prob::{temporal_probs, TemporalBias};
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};
use rand::rngs::StdRng;
use rand::RngExt;

/// η-BFS hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct BfsConfig {
    /// Sampling width η (neighbours sampled per expanded node).
    pub eta: usize,
    /// Sampling depth k (hops).
    pub k: usize,
    /// Softmax temperature τ of Eqs. 7–8.
    pub tau: f32,
    /// Which temporal probability to use.
    pub bias: TemporalBias,
}

impl BfsConfig {
    /// The paper's default geometry (η-BFS toy example uses η=2, k=2; the
    /// complexity analysis of §IV-D uses width 20, depth 2 — we default to
    /// a middle ground suited to the synthetic graphs).
    pub fn new(eta: usize, k: usize, tau: f32, bias: TemporalBias) -> Self {
        Self { eta, k, tau, bias }
    }
}

/// Runs η-BFS from `root` at time `t`. Returns the sampled subgraph's node
/// set: the root first, then sampled nodes in discovery order, without
/// duplicates. Only events strictly before `t` are visible (temporal
/// causality).
pub fn eta_bfs(
    graph: &DynamicGraph,
    root: NodeId,
    t: Timestamp,
    cfg: &BfsConfig,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    let mut seen: Vec<NodeId> = vec![root];
    let mut frontier: Vec<NodeId> = vec![root];
    // One timestamp buffer, refilled per frontier node.
    let mut times: Vec<Timestamp> = Vec::new();
    for _hop in 0..cfg.k {
        let mut next: Vec<NodeId> = Vec::new();
        for &node in &frontier {
            let neighbors = counted_before(graph, node, t);
            if neighbors.is_empty() {
                continue;
            }
            times.clear();
            times.extend(neighbors.iter().map(|e| e.t));
            let probs = temporal_probs(&times, t, cfg.tau, cfg.bias);
            for idx in sample_without_replacement(&probs, cfg.eta, rng) {
                let cand = neighbors[idx].neighbor;
                if !seen.contains(&cand) {
                    seen.push(cand);
                    next.push(cand);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen
}

/// Weighted sampling of up to `n` distinct indices without replacement
/// (Efraimidis–Spirakis exponential-keys method: draw `u^(1/w)` per item,
/// keep the `n` largest).
///
/// Degenerate inputs are handled rather than trusted away: items with
/// zero, negative, NaN, or infinite weight are excluded before any RNG
/// draw (so they can neither be selected nor poison the key ordering),
/// `n` larger than the candidate set returns every positive-weight index,
/// and the sort uses `total_cmp`, which cannot panic even if a key
/// underflows (`u^(1/w)` can reach 0.0 for tiny weights).
fn sample_without_replacement(weights: &[f32], n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut keyed: Vec<(f32, usize)> = weights
        .iter()
        .enumerate()
        .filter(|(_, &w)| w > 0.0 && w.is_finite())
        .map(|(i, &w)| {
            let u: f32 = rng.random::<f32>().max(f32::MIN_POSITIVE);
            (u.powf(1.0 / w), i)
        })
        .collect();
    let take = n.min(keyed.len());
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    keyed.truncate(take);
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::cases::for_each_case;
    use cpdg_graph::graph_from_triples;
    use rand::SeedableRng;

    /// Star around node 0 with increasing event times, plus a second hop.
    fn two_hop_graph() -> DynamicGraph {
        graph_from_triples(
            8,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (0, 3, 3.0),
                (1, 4, 1.5),
                (2, 5, 2.5),
                (3, 6, 3.5),
                (6, 7, 100.0), // after query time: must never appear
            ],
        )
        .unwrap()
    }

    fn cfg(bias: TemporalBias) -> BfsConfig {
        BfsConfig::new(2, 2, 0.5, bias)
    }

    #[test]
    fn respects_temporal_causality() {
        let g = two_hop_graph();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let nodes = eta_bfs(&g, 0, 10.0, &cfg(TemporalBias::Chronological), &mut rng);
            assert!(!nodes.contains(&7), "node 7's only edge is at t=100 > 10");
        }
    }

    #[test]
    fn root_always_included_first() {
        let g = two_hop_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let nodes = eta_bfs(&g, 0, 10.0, &cfg(TemporalBias::Chronological), &mut rng);
        assert_eq!(nodes[0], 0);
    }

    #[test]
    fn no_duplicates() {
        let g = two_hop_graph();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let nodes = eta_bfs(
                &g,
                0,
                10.0,
                &cfg(TemporalBias::ReverseChronological),
                &mut rng,
            );
            let mut sorted = nodes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), nodes.len(), "{nodes:?}");
        }
    }

    #[test]
    fn size_bounded_by_geometric_sum() {
        // |subgraph| ≤ 1 + η + η² for k = 2.
        let g = two_hop_graph();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let nodes = eta_bfs(&g, 0, 10.0, &cfg(TemporalBias::Chronological), &mut rng);
            assert!(nodes.len() <= 1 + 2 + 4);
        }
    }

    #[test]
    fn isolated_root_returns_singleton() {
        let g = graph_from_triples(3, &[(1, 2, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let nodes = eta_bfs(&g, 0, 10.0, &cfg(TemporalBias::Chronological), &mut rng);
        assert_eq!(nodes, vec![0]);
    }

    #[test]
    fn node_with_no_history_before_t() {
        let g = two_hop_graph();
        let mut rng = StdRng::seed_from_u64(5);
        // At t = 0.5 node 0 has no events yet.
        let nodes = eta_bfs(&g, 0, 0.5, &cfg(TemporalBias::Chronological), &mut rng);
        assert_eq!(nodes, vec![0]);
    }

    #[test]
    fn chronological_bias_picks_recent_more_often() {
        // Node 0's neighbours: 1 (t=1), 2 (t=2), 3 (t=3). With η = 1 and a
        // sharp temperature, chrono should mostly select node 3; reverse
        // mostly node 1.
        let g = two_hop_graph();
        let sharp_chrono = BfsConfig::new(1, 1, 0.05, TemporalBias::Chronological);
        let sharp_rev = BfsConfig::new(1, 1, 0.05, TemporalBias::ReverseChronological);
        let mut rng = StdRng::seed_from_u64(6);
        let mut chrono_recent = 0;
        let mut rev_old = 0;
        let trials = 200;
        for _ in 0..trials {
            let c = eta_bfs(&g, 0, 4.0, &sharp_chrono, &mut rng);
            if c.contains(&3) {
                chrono_recent += 1;
            }
            let r = eta_bfs(&g, 0, 4.0, &sharp_rev, &mut rng);
            if r.contains(&1) {
                rev_old += 1;
            }
        }
        assert!(
            chrono_recent > trials * 8 / 10,
            "chrono picked recent {chrono_recent}/{trials}"
        );
        assert!(
            rev_old > trials * 8 / 10,
            "reverse picked old {rev_old}/{trials}"
        );
    }

    #[test]
    fn weighted_sample_without_replacement_is_distinct_and_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = [0.5f32, 0.3, 0.2];
        for n in 0..5 {
            let s = sample_without_replacement(&w, n, &mut rng);
            assert_eq!(s.len(), n.min(3));
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), s.len());
        }
    }

    #[test]
    fn weighted_sample_all_zero_weights_is_empty() {
        let mut rng = StdRng::seed_from_u64(8);
        assert!(sample_without_replacement(&[0.0, 0.0, 0.0], 2, &mut rng).is_empty());
        assert!(sample_without_replacement(&[], 2, &mut rng).is_empty());
    }

    #[test]
    fn weighted_sample_n_exceeding_candidates_returns_all() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = sample_without_replacement(&[0.4, 0.0, 0.6], 10, &mut rng);
        s.sort_unstable();
        assert_eq!(s, vec![0, 2], "only the positive-weight indices, each once");
    }

    #[test]
    fn weighted_sample_single_candidate() {
        let mut rng = StdRng::seed_from_u64(10);
        assert_eq!(sample_without_replacement(&[1.0], 1, &mut rng), vec![0]);
        assert_eq!(sample_without_replacement(&[1.0], 5, &mut rng), vec![0]);
        assert!(sample_without_replacement(&[1.0], 0, &mut rng).is_empty());
    }

    #[test]
    fn weighted_sample_rejects_non_finite_and_negative_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = [f32::NAN, -1.0, f32::INFINITY, 0.5, f32::NEG_INFINITY];
        for _ in 0..20 {
            let s = sample_without_replacement(&w, 3, &mut rng);
            assert_eq!(s, vec![3], "only the finite positive weight survives");
        }
    }

    #[test]
    fn weighted_sample_tiny_weights_do_not_panic() {
        // u^(1/w) underflows to 0.0 for tiny w; total_cmp keeps the sort
        // well-defined where partial_cmp would have to handle equality of
        // degenerate keys.
        let mut rng = StdRng::seed_from_u64(12);
        let w = [1e-30f32, 1e-30, 1e-30, 1.0];
        for _ in 0..20 {
            let s = sample_without_replacement(&w, 2, &mut rng);
            assert_eq!(s.len(), 2);
        }
    }

    #[test]
    fn sampler_invariants_on_random_graphs() {
        for_each_case(32, |case| {
            let edges = case.triples(12, 1, 60, 50.0);
            let (seed, eta, k) = (
                case.index(0, 500) as u64,
                case.index(1, 4),
                case.index(1, 4),
            );
            let g = graph_from_triples(12, &edges).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = BfsConfig::new(eta, k, 0.5, TemporalBias::Chronological);
            let nodes = eta_bfs(&g, 0, 25.0, &cfg, &mut rng);
            // Root present, unique, bounded by Σ η^h.
            assert_eq!(nodes[0], 0);
            let mut d = nodes.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), nodes.len());
            let bound: usize = (0..=k).map(|h| eta.pow(h as u32)).sum();
            assert!(nodes.len() <= bound);
            // Every non-root node reachable before t=25 from sampled set.
            for &n in &nodes[1..] {
                assert!(g.degree_before(n, 25.0) > 0);
            }
        });
    }
}
