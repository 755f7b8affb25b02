//! Training and evaluation loops shared by the static baselines.
//!
//! The paper pre-trains GraphSAGE/GAT/GIN on link prediction (§V-B), then
//! fully fine-tunes on the downstream graph. Static models ignore event
//! times entirely: positives are the interaction edges, negatives are
//! uniformly corrupted destinations.

use crate::static_gnn::{StaticGnn, StaticGraph};
use cpdg_dgnn::metrics::link_prediction_metrics;
use cpdg_dgnn::{train_step, LinkPredictor};
use cpdg_graph::{DynamicGraph, NodeId};
use cpdg_tensor::loss::link_prediction_loss;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{Forward, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::RngExt;

/// Shared loop hyper-parameters for static baselines.
#[derive(Debug, Clone)]
pub struct StaticTrainConfig {
    /// Node pairs per step.
    pub batch_size: usize,
    /// Optimisation steps per stage (pre-train / fine-tune).
    pub steps: usize,
    /// Learning rate.
    pub lr: f32,
    /// Gradient clip.
    pub grad_clip: f32,
    /// Chronological fraction of downstream events used for fine-tuning.
    pub train_frac: f64,
}

impl Default for StaticTrainConfig {
    fn default() -> Self {
        Self {
            batch_size: 64,
            steps: 60,
            lr: 2e-2,
            grad_clip: 5.0,
            train_frac: 0.85,
        }
    }
}

/// Row-wise dot product of two `m × d` variables, producing `m × 1` — the
/// bilinear/critic primitive used by DGI and GPT-GNN style scorers.
pub fn rows_dot(tape: &mut Tape, a: Var, b: Var) -> Var {
    let prod = tape.mul(a, b);
    let d = tape.value(prod).cols();
    let ones = tape.constant(Matrix::ones(d, 1));
    tape.matmul(prod, ones)
}

/// Draws a batch of `(src, dst, corrupt_dst)` triples from the event list.
pub fn sample_edge_batch(
    events: &[cpdg_graph::Interaction],
    dst_pool: &[NodeId],
    n: usize,
    rng: &mut StdRng,
) -> (Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
    let mut srcs = Vec::with_capacity(n);
    let mut dsts = Vec::with_capacity(n);
    let mut negs = Vec::with_capacity(n);
    for _ in 0..n {
        let e = &events[rng.random_range(0..events.len())];
        srcs.push(e.src);
        dsts.push(e.dst);
        negs.push(dst_pool[rng.random_range(0..dst_pool.len())]);
    }
    (srcs, dsts, negs)
}

/// Distinct destination nodes of an event list (negative pool).
pub fn dst_pool(graph: &DynamicGraph) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = graph.events().iter().map(|e| e.dst).collect();
    pool.sort_unstable();
    pool.dedup();
    pool
}

/// Trains `(gnn, head)` on link prediction over the given `events` for
/// `cfg.steps` steps (negatives drawn from `pool`); returns the
/// final-step loss.
#[allow(clippy::too_many_arguments)]
pub fn train_static_link_prediction(
    gnn: &StaticGnn,
    head: &LinkPredictor,
    store: &mut ParamStore,
    opt: &mut Adam,
    sg: &StaticGraph,
    events: &[cpdg_graph::Interaction],
    pool: &[NodeId],
    cfg: &StaticTrainConfig,
    rng: &mut StdRng,
) -> f32 {
    assert!(
        !events.is_empty() && !pool.is_empty(),
        "train_static_link_prediction: empty input"
    );
    let mut last = 0.0;
    let mut tape = Tape::new();
    for _ in 0..cfg.steps {
        let (srcs, dsts, negs) = sample_edge_batch(events, pool, cfg.batch_size, rng);
        tape.reset();
        let z_src = gnn.embed_many(&mut tape, store, sg, &srcs, rng);
        let z_dst = gnn.embed_many(&mut tape, store, sg, &dsts, rng);
        let z_neg = gnn.embed_many(&mut tape, store, sg, &negs, rng);
        let pos = head.score(&mut tape, store, z_src, z_dst);
        let neg = head.score(&mut tape, store, z_src, z_neg);
        let loss = link_prediction_loss(&mut tape, pos, neg);
        last = tape.value(loss).get(0, 0);
        if let Ok(Some(update)) = train_step(&mut tape, loss, cfg.grad_clip, None) {
            update.apply(opt, store);
        }
    }
    last
}

/// Scores the chronological test tail of `graph` (events with index ≥
/// `score_from`) against sampled negatives; returns `(AUC, AP)`.
pub fn eval_static_link_prediction(
    gnn: &StaticGnn,
    head: &LinkPredictor,
    store: &ParamStore,
    sg: &StaticGraph,
    graph: &DynamicGraph,
    score_from: usize,
    rng: &mut StdRng,
) -> (f64, f64) {
    let pool = dst_pool(graph);
    let mut pos_scores = Vec::new();
    let mut neg_scores = Vec::new();
    for chunk in graph.events()[score_from..].chunks(128) {
        let srcs: Vec<NodeId> = chunk.iter().map(|e| e.src).collect();
        let dsts: Vec<NodeId> = chunk.iter().map(|e| e.dst).collect();
        let negs: Vec<NodeId> = chunk
            .iter()
            .map(|_| pool[rng.random_range(0..pool.len())])
            .collect();
        let mut tape = Tape::new();
        let z_src = gnn.embed_many(&mut tape, store, sg, &srcs, rng);
        let z_dst = gnn.embed_many(&mut tape, store, sg, &dsts, rng);
        let z_neg = gnn.embed_many(&mut tape, store, sg, &negs, rng);
        let pos = head.score(&mut tape, store, z_src, z_dst);
        let neg = head.score(&mut tape, store, z_src, z_neg);
        pos_scores.extend(tape.value(pos).data());
        neg_scores.extend(tape.value(neg).data());
    }
    link_prediction_metrics(&pos_scores, &neg_scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_gnn::StaticKind;
    use cpdg_graph::DynamicGraphBuilder;
    use rand::SeedableRng;

    fn planted_graph(seed: u64) -> DynamicGraph {
        // Even users ↔ even items, odd ↔ odd: learnable without time.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DynamicGraphBuilder::new(24);
        for e in 0..800usize {
            let u = rng.random_range(0..12usize);
            let item = 12 + 2 * rng.random_range(0..6usize).min(5) + (u % 2);
            b.add_interaction(u as NodeId, item.min(23) as NodeId, e as f64, 0);
        }
        b.build().unwrap()
    }

    #[test]
    fn rows_dot_matches_manual() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = tape.constant(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let d = rows_dot(&mut tape, a, b);
        assert_eq!(tape.value(d), &Matrix::from_rows(&[&[17.0], &[53.0]]));
    }

    #[test]
    fn static_training_learns_planted_rule() {
        let g = planted_graph(0);
        let sg = StaticGraph::from_dynamic(&g);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let gnn = StaticGnn::new(&mut store, &mut rng, "sage", StaticKind::Sage, 24, 16);
        let head = LinkPredictor::new(&mut store, &mut rng, "head", 16);
        let mut opt = Adam::new(2e-2);
        let cfg = StaticTrainConfig {
            steps: 120,
            ..Default::default()
        };
        let pool = dst_pool(&g);
        train_static_link_prediction(
            &gnn,
            &head,
            &mut store,
            &mut opt,
            &sg,
            g.events(),
            &pool,
            &cfg,
            &mut rng,
        );
        let (auc, _) = eval_static_link_prediction(&gnn, &head, &store, &sg, &g, 700, &mut rng);
        assert!(auc > 0.6, "static SAGE failed planted rule: AUC {auc}");
    }

    #[test]
    fn dst_pool_is_item_side() {
        let g = planted_graph(1);
        let pool = dst_pool(&g);
        assert!(pool.iter().all(|&d| d >= 12));
    }

    #[test]
    fn sample_edge_batch_shapes() {
        let g = planted_graph(2);
        let pool = dst_pool(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let (s, d, n) = sample_edge_batch(g.events(), &pool, 10, &mut rng);
        assert_eq!((s.len(), d.len(), n.len()), (10, 10, 10));
    }
}
