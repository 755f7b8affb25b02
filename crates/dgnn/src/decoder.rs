//! Downstream heads: the temporal link predictor (paper Eq. 15) with its
//! negative sampler, and the dynamic node classifier.

use cpdg_graph::{DynamicGraph, NodeId};
use cpdg_tensor::nn::{Activation, Mlp};
use cpdg_tensor::{Forward, Matrix, ParamStore, Var};
use rand::rngs::StdRng;
use rand::{Rng, RngExt};

/// Link-prediction head: `ŷ_{ij} = σ(MLP(z_i ‖ z_j))` (Eq. 15). The head
/// returns *logits*; apply a sigmoid (or feed to a logits loss) downstream.
#[derive(Debug, Clone)]
pub struct LinkPredictor {
    mlp: Mlp,
}

impl LinkPredictor {
    /// Registers a new head over `dim`-wide embeddings under `name`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        dim: usize,
    ) -> Self {
        Self {
            mlp: Mlp::new(store, rng, name, &[2 * dim, dim, 1], Activation::Relu),
        }
    }

    /// Scores row-aligned source/destination embeddings (`m × dim` each),
    /// returning `m × 1` logits.
    pub fn score<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        z_src: Var,
        z_dst: Var,
    ) -> Var {
        let cat = ev.concat_cols(z_src, z_dst);
        self.mlp.forward(ev, store, cat)
    }

    /// [`LinkPredictor::score`] of one pair given as the `2 × dim` rows
    /// `[z_src; z_dst]`, returning a `1 × 1` logit. Row-major storage makes
    /// those rows the `1 × 2·dim` row `[z_src ‖ z_dst]` that `score`
    /// concatenates, so the pair is taken as that row with no copy.
    ///
    /// # Panics
    /// Panics unless `pair` is `2 × dim`.
    pub fn score_pair<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        pair: Matrix,
    ) -> Var {
        assert_eq!(pair.shape(), (2, self.dim()), "score_pair: need 2 × dim");
        let cat = ev.constant(Matrix::from_vec(1, pair.len(), pair.into_data()));
        self.mlp.forward(ev, store, cat)
    }

    /// Embedding width this head expects.
    pub fn dim(&self) -> usize {
        self.mlp.in_dim() / 2
    }
}

/// Node-classification head: a two-layer MLP over (possibly EIE-enhanced)
/// node embeddings, producing one logit per row.
#[derive(Debug, Clone)]
pub struct NodeClassifier {
    mlp: Mlp,
}

impl NodeClassifier {
    /// Registers a new classifier over `in_dim`-wide embeddings.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        Self {
            mlp: Mlp::new(store, rng, name, &[in_dim, hidden, 1], Activation::Relu),
        }
    }

    /// Logits for `m × in_dim` embeddings.
    pub fn score<'s>(&self, ev: &mut impl Forward<'s>, store: &'s ParamStore, z: Var) -> Var {
        self.mlp.forward(ev, store, z)
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.mlp.in_dim()
    }
}

/// Uniform negative sampler over the destination universe of a graph
/// (the standard corruption scheme for Eq. 16's non-edge set `O`).
#[derive(Debug, Clone)]
pub struct NegativeSampler {
    dst_pool: Vec<NodeId>,
}

impl NegativeSampler {
    /// Builds the sampler from the distinct destinations in `graph`.
    pub fn from_graph(graph: &DynamicGraph) -> Self {
        let mut pool: Vec<NodeId> = graph.events().iter().map(|e| e.dst).collect();
        pool.sort_unstable();
        pool.dedup();
        Self { dst_pool: pool }
    }

    /// Draws one destination uniformly.
    pub fn sample(&self, rng: &mut StdRng) -> NodeId {
        self.dst_pool[rng.random_range(0..self.dst_pool.len())]
    }

    /// Size of the candidate pool.
    pub fn pool_size(&self) -> usize {
        self.dst_pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdg_tensor::{Matrix, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn link_predictor_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let head = LinkPredictor::new(&mut store, &mut rng, "lp", 6);
        assert_eq!(head.dim(), 6);
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::ones(4, 6));
        let b = tape.constant(Matrix::ones(4, 6));
        let logits = head.score(&mut tape, &store, a, b);
        assert_eq!(tape.value(logits).shape(), (4, 1));
    }

    #[test]
    fn link_predictor_is_trainable_to_separate_pairs() {
        use cpdg_tensor::loss::link_prediction_loss;
        use cpdg_tensor::optim::Adam;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let head = LinkPredictor::new(&mut store, &mut rng, "lp", 4);
        let mut opt = Adam::new(5e-2);
        let pos_a = Matrix::full(8, 4, 1.0);
        let pos_b = Matrix::full(8, 4, 1.0);
        let neg_a = Matrix::full(8, 4, 1.0);
        let neg_b = Matrix::full(8, 4, -1.0);
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            let mut tape = Tape::new();
            let (pa, pb) = (tape.constant(pos_a.clone()), tape.constant(pos_b.clone()));
            let (na, nb) = (tape.constant(neg_a.clone()), tape.constant(neg_b.clone()));
            let lp = head.score(&mut tape, &store, pa, pb);
            let ln = head.score(&mut tape, &store, na, nb);
            let loss = link_prediction_loss(&mut tape, lp, ln);
            last = tape.value(loss).get(0, 0);
            let grads = tape.backward(loss);
            let pg = tape.param_grads(&grads);
            opt.step(&mut store, &pg);
        }
        assert!(
            last < 0.5,
            "link predictor failed to fit toy data: loss {last}"
        );
    }

    #[test]
    fn node_classifier_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let clf = NodeClassifier::new(&mut store, &mut rng, "nc", 10, 8);
        assert_eq!(clf.in_dim(), 10);
        let mut tape = Tape::new();
        let z = tape.constant(Matrix::ones(3, 10));
        let logits = clf.score(&mut tape, &store, z);
        assert_eq!(tape.value(logits).shape(), (3, 1));
    }

    #[test]
    fn negative_sampler_draws_from_dst_pool() {
        // Users 0..10 only ever point at items 10..20.
        let triples: Vec<_> = (0..200u32)
            .map(|e| (e % 10, 10 + (e * 7) % 10, f64::from(e)))
            .collect();
        let g = cpdg_graph::graph_from_triples(20, &triples).unwrap();
        let s = NegativeSampler::from_graph(&g);
        assert_eq!(s.pool_size(), 10);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let d = s.sample(&mut rng);
            assert!((d as usize) >= 10, "negatives come from the item side");
        }
    }
}
