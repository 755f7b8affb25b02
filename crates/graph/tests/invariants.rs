//! Property tests over the CTDG store and splitters: the structural
//! invariants every consumer relies on.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{for_each_case, Lcg};
use cpdg_graph::builder::graph_from_triples;
use cpdg_graph::split::{chrono_boundaries, subgraph_where, time_transfer};
use cpdg_graph::{generate, NodeId, SyntheticConfig};

const N: u32 = 14;

/// 1..120 `(src, dst, t)` events over `0..N` with `t` in `[0, 1000)`.
fn arb_triples(rng: &mut Lcg) -> Vec<(u32, u32, f64)> {
    rng.triples(N as usize, 1, 120, 1000.0)
}

#[test]
fn adjacency_counts_match_event_incidences() {
    for_each_case(48, |rng| {
        let g = graph_from_triples(N as usize, &arb_triples(rng)).unwrap();
        for node in 0..N {
            let adj = g.neighbors_all(node).len();
            let incid = g
                .events()
                .iter()
                .map(|e| usize::from(e.src == node) + usize::from(e.dst == node))
                .sum::<usize>();
            assert_eq!(adj, incid, "node {node}");
        }
    });
}

#[test]
fn neighbors_before_is_prefix_of_full_adjacency() {
    for_each_case(48, |rng| {
        let g = graph_from_triples(N as usize, &arb_triples(rng)).unwrap();
        let t = rng.float(0.0, 1000.0);
        for node in 0..N {
            let before = g.neighbors_before(node, t);
            let all = g.neighbors_all(node);
            assert!(before.len() <= all.len());
            assert_eq!(before, &all[..before.len()], "prefix property");
            assert!(before.iter().all(|e| e.t < t));
            assert!(all[before.len()..].iter().all(|e| e.t >= t));
        }
    });
}

#[test]
fn time_transfer_partitions_events() {
    for_each_case(48, |rng| {
        let g = graph_from_triples(N as usize, &arb_triples(rng)).unwrap();
        let frac = rng.float(0.1, 0.9);
        if g.num_events() < 4 {
            return;
        }
        if let Ok(split) = time_transfer(&g, frac) {
            assert_eq!(
                split.pretrain.num_events() + split.downstream.num_events(),
                g.num_events()
            );
            let pre_max = split.pretrain.t_max().unwrap();
            let down_min = split.downstream.t_min().unwrap();
            assert!(pre_max <= down_min);
        }
    });
}

#[test]
fn subgraph_preserves_event_payloads() {
    for_each_case(48, |rng| {
        let g = graph_from_triples(N as usize, &arb_triples(rng)).unwrap();
        // Keep events touching node 0 only.
        if let Ok(sub) = subgraph_where(&g, |e| e.src == 0 || e.dst == 0) {
            for e in sub.events() {
                assert!(e.src == 0 || e.dst == 0);
                // The (src, dst, t) triple must exist in the parent.
                assert!(g
                    .events()
                    .iter()
                    .any(|p| p.src == e.src && p.dst == e.dst && p.t == e.t));
            }
        }
    });
}

#[test]
fn chrono_boundaries_monotone_and_complete() {
    for_each_case(48, |rng| {
        let g = graph_from_triples(N as usize, &arb_triples(rng)).unwrap();
        let (f1, f2) = (rng.float(0.1, 0.5), rng.float(0.1, 0.4));
        let b = chrono_boundaries(&g, &[f1, f2, 1.0 - f1 - f2]).unwrap();
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*b.last().unwrap(), g.num_events());
    });
}

#[test]
fn generator_field_structure_is_consistent_across_scales() {
    for scale in [0.2f64, 0.5] {
        let ds = generate(&SyntheticConfig::amazon_like(3).scaled(scale));
        // Items of field f occupy a contiguous id block.
        let per_field = ds.config.n_items_per_field;
        for e in ds.graph.events() {
            let local = e.dst as usize - ds.num_users;
            assert_eq!(
                local / per_field,
                e.field as usize,
                "item block matches field tag"
            );
        }
    }
}

#[test]
fn generator_users_active_in_multiple_fields() {
    // Field transfer only works if users span fields; check a busy user.
    let ds = generate(&SyntheticConfig::amazon_like(4).scaled(0.4));
    let mut field_count = vec![std::collections::HashSet::new(); ds.config.n_users];
    for e in ds.graph.events() {
        field_count[e.src as usize].insert(e.field);
    }
    let multi = field_count.iter().filter(|f| f.len() >= 2).count();
    assert!(
        multi > ds.config.n_users / 2,
        "most users should appear in several fields; got {multi}/{}",
        ds.config.n_users
    );
}

#[test]
fn recent_neighbors_agree_with_neighbors_before() {
    let ds = generate(&SyntheticConfig::gowalla_like(5).scaled(0.2));
    let g = &ds.graph;
    let t = g.t_max().unwrap() * 0.8;
    for node in g.active_nodes().into_iter().take(20) {
        let before = g.neighbors_before(node, t);
        let recent: Vec<_> = g.recent_neighbors(node, t, 5).collect();
        assert!(recent.len() <= 5.min(before.len()));
        // recent = the reversed tail of `before`.
        for (i, e) in recent.into_iter().enumerate() {
            assert_eq!(e, &before[before.len() - 1 - i]);
        }
    }
    let _: Vec<NodeId> = vec![];
}
