//! Static-graph GNN substrate for the paper's five static baselines
//! (GraphSAGE, GAT, GIN, DGI, GPT-GNN — §V-B).
//!
//! These methods see the dynamic graph as a time-collapsed snapshot:
//! [`StaticGraph`] deduplicates the temporal multigraph into plain
//! adjacency, and [`StaticGnn`] is a two-layer sampled GNN over learnable
//! node features with the aggregator of the chosen method. Ignoring time is
//! precisely why the paper finds these baselines weak on dynamic tasks —
//! the substrate reproduces that honestly.

use cpdg_graph::{DynamicGraph, NodeId};
use cpdg_tensor::nn::{init, Activation, Linear, Mlp, NeighborAttention};
use cpdg_tensor::{Forward, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::{Rng, RngExt};
use std::ops::Range;

/// A time-collapsed snapshot of a dynamic graph.
#[derive(Debug, Clone)]
pub struct StaticGraph {
    adj: Vec<Vec<NodeId>>,
}

impl StaticGraph {
    /// Collapses `graph`: each node's neighbour list holds distinct
    /// neighbours over all time.
    pub fn from_dynamic(graph: &DynamicGraph) -> Self {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); graph.num_nodes()];
        for (node, list) in adj.iter_mut().enumerate() {
            let mut ns: Vec<NodeId> = graph
                .neighbors_all(node as NodeId)
                .iter()
                .map(|e| e.neighbor)
                .collect();
            ns.sort_unstable();
            ns.dedup();
            *list = ns;
        }
        Self { adj }
    }

    /// Number of nodes in the universe.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// All distinct neighbours of `node`.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adj[node as usize]
    }

    /// Uniformly samples up to `n` distinct neighbours. Isolated nodes
    /// return `[node]` (self-loop fallback) so aggregation is never empty.
    pub fn sample_neighbors(&self, node: NodeId, n: usize, rng: &mut StdRng) -> Vec<NodeId> {
        let ns = &self.adj[node as usize];
        if ns.is_empty() {
            return vec![node];
        }
        if ns.len() <= n {
            return ns.clone();
        }
        // Partial Fisher–Yates over an index range.
        let mut idx: Vec<usize> = (0..ns.len()).collect();
        for i in 0..n {
            let j = rng.random_range(i..idx.len());
            idx.swap(i, j);
        }
        idx[..n].iter().map(|&i| ns[i]).collect()
    }
}

/// Which aggregator the two GNN layers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticKind {
    /// GraphSAGE: mean neighbour aggregation + concat + linear.
    Sage,
    /// GAT: attention over neighbours.
    Gat,
    /// GIN: sum aggregation with a learnable ε and MLP.
    Gin,
}

impl StaticKind {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            StaticKind::Sage => "GraphSAGE",
            StaticKind::Gat => "GAT",
            StaticKind::Gin => "GIN",
        }
    }
}

enum LayerModule {
    Sage(Linear),
    Gat(NeighborAttention),
    Gin { mlp: Mlp, eps: ParamId },
}

struct Layer {
    module: LayerModule,
}

impl Layer {
    fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        kind: StaticKind,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let module = match kind {
            StaticKind::Sage => {
                LayerModule::Sage(Linear::new(store, rng, name, 2 * in_dim, out_dim, true))
            }
            StaticKind::Gat => LayerModule::Gat(NeighborAttention::new(
                store, rng, name, in_dim, in_dim, out_dim, out_dim,
            )),
            StaticKind::Gin => LayerModule::Gin {
                mlp: Mlp::new(
                    store,
                    rng,
                    name,
                    &[in_dim, out_dim, out_dim],
                    Activation::Relu,
                ),
                eps: store.register(format!("{name}.eps"), Matrix::zeros(1, 1)),
            },
        };
        Self { module }
    }

    /// Combines row `i` of the `m × in` self features with rows
    /// `segments[i]` of the `N × in` neighbour features, giving `m × out`.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        own: Var,
        nbrs: Var,
        segments: &[Range<usize>],
    ) -> Var {
        match &self.module {
            LayerModule::Sage(lin) => {
                let mean = tape.mean_rows(nbrs, segments);
                let cat = tape.concat_cols(own, mean);
                let h = lin.forward(tape, store, cat);
                tape.relu(h)
            }
            LayerModule::Gat(att) => {
                let h = att.forward_rows(tape, store, own, nbrs, segments);
                tape.relu(h)
            }
            LayerModule::Gin { mlp, eps } => {
                let width = tape.value(nbrs).cols();
                let mean = tape.mean_rows(nbrs, segments);
                let counts: Vec<f32> = segments
                    .iter()
                    .flat_map(|s| vec![s.len() as f32; width])
                    .collect();
                let counts = tape.constant(Matrix::from_vec(segments.len(), width, counts));
                let sum = tape.mul(mean, counts);
                let e = tape.param(store, *eps);
                let ones = tape.constant(Matrix::ones(1, tape.value(own).cols()));
                let eps_row = tape.matmul(e, ones); // (1×1)·(1×d)
                let gate = tape.add_scalar(eps_row, 1.0); // 1 + ε
                let scaled_self = tape.mul_broadcast_row(own, gate);
                let agg = tape.add(scaled_self, sum);
                mlp.forward(tape, store, agg)
            }
        }
    }
}

/// Two-layer sampled static GNN over learnable node features.
pub struct StaticGnn {
    kind: StaticKind,
    features: ParamId,
    layer1: Layer,
    layer2: Layer,
    dim: usize,
    /// Neighbours sampled per hop.
    pub fanout: usize,
}

impl StaticGnn {
    /// Registers a new model under `name`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        kind: StaticKind,
        num_nodes: usize,
        dim: usize,
    ) -> Self {
        let features = store.register(
            format!("{name}.features"),
            init::uniform(rng, num_nodes, dim, 0.1),
        );
        let layer1 = Layer::new(store, rng, &format!("{name}.l1"), kind, dim, dim);
        let layer2 = Layer::new(store, rng, &format!("{name}.l2"), kind, dim, dim);
        Self {
            kind,
            features,
            layer1,
            layer2,
            dim,
            fanout: 6,
        }
    }

    /// Aggregator kind.
    pub fn kind(&self) -> StaticKind {
        self.kind
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn feat(&self, tape: &mut Tape, store: &ParamStore, nodes: &[NodeId]) -> Var {
        let table = tape.param(store, self.features);
        let idx: Vec<usize> = nodes.iter().map(|&n| n as usize).collect();
        tape.gather_rows(table, &idx)
    }

    /// Two-layer embeddings of many nodes (`m × dim`). Neighbours are
    /// drawn per node, in order: its own hop-1 sample, its layer-2
    /// neighbours, then each neighbour's hop-1 sample. Layer 1 then runs
    /// once over every hop-1 centre and layer 2 once over the batch.
    pub fn embed_many(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        sg: &StaticGraph,
        nodes: &[NodeId],
        rng: &mut StdRng,
    ) -> Var {
        assert!(!nodes.is_empty(), "embed_many: empty node set");
        // Hop-1 centres in draw order, each with a segment of `sampled`;
        // a node's layer-2 neighbours are the centres right after its own.
        let mut centres = Vec::new();
        let mut sampled = Vec::new();
        let mut hop1_segs = Vec::new();
        let mut own_rows = Vec::with_capacity(nodes.len());
        let mut hop2_segs = Vec::with_capacity(nodes.len());
        let mut add_centre = |centre: NodeId, rng: &mut StdRng| {
            let start = sampled.len();
            sampled.extend(sg.sample_neighbors(centre, self.fanout, rng));
            hop1_segs.push(start..sampled.len());
            centres.push(centre);
            centres.len() - 1
        };
        for &node in nodes {
            let own = add_centre(node, rng);
            let mut end = own + 1;
            for nb in sg.sample_neighbors(node, self.fanout, rng) {
                end = add_centre(nb, rng) + 1;
            }
            own_rows.push(own);
            hop2_segs.push(own + 1..end);
        }
        let own_feats = self.feat(tape, store, &centres);
        let nbr_feats = self.feat(tape, store, &sampled);
        let h1 = self
            .layer1
            .forward(tape, store, own_feats, nbr_feats, &hop1_segs);
        let own_h1 = tape.gather_rows(h1, &own_rows);
        self.layer2.forward(tape, store, own_h1, h1, &hop2_segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdg_graph::graph_from_triples;
    use rand::SeedableRng;

    fn sample_graph() -> DynamicGraph {
        graph_from_triples(
            6,
            &[
                (0, 1, 1.0),
                (0, 1, 2.0),
                (0, 2, 3.0),
                (1, 3, 4.0),
                (2, 4, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn static_graph_deduplicates() {
        let g = sample_graph();
        let sg = StaticGraph::from_dynamic(&g);
        assert_eq!(sg.neighbors(0), &[1, 2], "repeated (0,1) edges collapse");
        assert_eq!(sg.neighbors(5), &[] as &[NodeId]);
    }

    #[test]
    fn isolated_node_samples_itself() {
        let g = sample_graph();
        let sg = StaticGraph::from_dynamic(&g);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sg.sample_neighbors(5, 3, &mut rng), vec![5]);
    }

    #[test]
    fn sampling_is_bounded_and_distinct() {
        let g = sample_graph();
        let sg = StaticGraph::from_dynamic(&g);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = sg.sample_neighbors(0, 1, &mut rng);
            assert_eq!(s.len(), 1);
            assert!(s[0] == 1 || s[0] == 2);
        }
    }

    #[test]
    fn all_kinds_embed_and_train() {
        let g = sample_graph();
        let sg = StaticGraph::from_dynamic(&g);
        for kind in [StaticKind::Sage, StaticKind::Gat, StaticKind::Gin] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(2);
            let gnn = StaticGnn::new(&mut store, &mut rng, "g", kind, 6, 8);
            let mut tape = Tape::new();
            let mut srng = StdRng::seed_from_u64(3);
            let z = gnn.embed_many(&mut tape, &store, &sg, &[0, 1, 5], &mut srng);
            assert_eq!(tape.value(z).shape(), (3, 8), "{kind:?}");
            assert!(tape.value(z).all_finite());
            let loss = tape.mean_all(z);
            let grads = tape.backward(loss);
            assert!(!tape.param_grads(&grads).is_empty(), "{kind:?} trainable");
        }
    }

    /// One node's two-layer embedding as the per-node forward computed
    /// it: hop-1 of the node, then its neighbours' hop-1 rows stacked, each
    /// layer applied to a single centre with one-node arithmetic.
    fn per_row_embed(
        gnn: &StaticGnn,
        tape: &mut Tape,
        store: &ParamStore,
        sg: &StaticGraph,
        node: NodeId,
        rng: &mut StdRng,
    ) -> Var {
        let layer = |tape: &mut Tape, layer: &Layer, own: Var, nbrs: Var| {
            let n = tape.value(nbrs).rows();
            let whole = 0..n;
            match &layer.module {
                LayerModule::Sage(lin) => {
                    let mean = tape.mean_rows(nbrs, &[whole]);
                    let cat = tape.concat_cols(own, mean);
                    let h = lin.forward(tape, store, cat);
                    tape.relu(h)
                }
                LayerModule::Gat(att) => {
                    let h = att.forward_rows(tape, store, own, nbrs, &[whole]);
                    tape.relu(h)
                }
                LayerModule::Gin { mlp, eps } => {
                    let mean = tape.mean_rows(nbrs, &[whole]);
                    let sum = tape.scale(mean, n as f32);
                    let e = tape.param(store, *eps);
                    let gate = tape.add_scalar(e, 1.0);
                    let scaled_self = tape.matmul(gate, own);
                    let agg = tape.add(scaled_self, sum);
                    mlp.forward(tape, store, agg)
                }
            }
        };
        let hop1 = |tape: &mut Tape, n: NodeId, rng: &mut StdRng| {
            let own = gnn.feat(tape, store, &[n]);
            let nbrs = sg.sample_neighbors(n, gnn.fanout, rng);
            let nbr_feats = gnn.feat(tape, store, &nbrs);
            layer(tape, &gnn.layer1, own, nbr_feats)
        };
        let own_h1 = hop1(tape, node, rng);
        let nbrs = sg.sample_neighbors(node, gnn.fanout, rng);
        let nbr_h1: Vec<Var> = nbrs.iter().map(|&n| hop1(tape, n, rng)).collect();
        let nbr_mat = tape.stack_rows(&nbr_h1);
        layer(tape, &gnn.layer2, own_h1, nbr_mat)
    }

    #[test]
    fn batched_forward_matches_per_row_reference_bitwise() {
        // Node 0 has more neighbours than the fanout (3), the rest fewer
        // (ragged segments), and 7 none (self-loop); 0 repeats.
        let g = graph_from_triples(
            8,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (0, 3, 3.0),
                (0, 4, 4.0),
                (0, 5, 5.0),
                (1, 2, 6.0),
                (3, 6, 7.0),
            ],
        )
        .unwrap();
        let sg = StaticGraph::from_dynamic(&g);
        let nodes = [0, 7, 2, 0, 6];
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in [StaticKind::Sage, StaticKind::Gat, StaticKind::Gin] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(6);
            let mut gnn = StaticGnn::new(&mut store, &mut rng, "g", kind, 8, 8);
            gnn.fanout = 3;
            let mut batch_rng = StdRng::seed_from_u64(7);
            let mut ref_rng = batch_rng.clone();
            let mut tape = Tape::new();
            let z = gnn.embed_many(&mut tape, &store, &sg, &nodes, &mut batch_rng);
            let z_sum = tape.sum_all(z);
            let grads = tape.backward(z_sum);
            let batched = tape.param_grads(&grads);
            let mut ref_tape = Tape::new();
            let mut rows = Vec::new();
            for (i, &n) in nodes.iter().enumerate() {
                let row = per_row_embed(&gnn, &mut ref_tape, &store, &sg, n, &mut ref_rng);
                assert_eq!(
                    bits(ref_tape.value(row).row(0)),
                    bits(tape.value(z).row(i)),
                    "{kind:?}: row {i} (node {n})"
                );
                rows.push(row);
            }
            assert_eq!(
                batch_rng.random::<u64>(),
                ref_rng.random::<u64>(),
                "{kind:?}: the batch draws the same neighbours"
            );
            // The backward sums in another order, so gradients agree to
            // rounding only.
            let stacked = ref_tape.stack_rows(&rows);
            let ref_sum = ref_tape.sum_all(stacked);
            let grads = ref_tape.backward(ref_sum);
            let reference = ref_tape.param_grads(&grads);
            assert_eq!(batched.len(), reference.len(), "{kind:?}: same parameters");
            for ((id, g), (ref_id, r)) in batched.iter().zip(&reference) {
                assert_eq!(id, ref_id, "{kind:?}");
                let scale = r.data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
                assert!(
                    g.max_abs_diff(r) <= 1e-5 * scale,
                    "{kind:?}: gradient of {id:?}"
                );
            }
        }
    }

    #[test]
    fn different_nodes_different_embeddings() {
        let g = sample_graph();
        let sg = StaticGraph::from_dynamic(&g);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let gnn = StaticGnn::new(&mut store, &mut rng, "g", StaticKind::Sage, 6, 8);
        let mut tape = Tape::new();
        let mut srng = StdRng::seed_from_u64(5);
        let z = gnn.embed_many(&mut tape, &store, &sg, &[0, 3], &mut srng);
        let v = tape.value(z);
        assert!(v.row_matrix(0).max_abs_diff(&v.row_matrix(1)) > 1e-6);
    }

    #[test]
    fn kind_names() {
        assert_eq!(StaticKind::Sage.name(), "GraphSAGE");
        assert_eq!(StaticKind::Gin.name(), "GIN");
    }
}
