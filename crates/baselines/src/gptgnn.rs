//! GPT-GNN generative pre-training — §V-B.
//!
//! GPT-GNN pre-trains with masked node-attribute generation and edge
//! generation. The paper's datasets are ID-only (no node attributes), so —
//! as in the paper's own setting — the active ingredient is the *edge
//! generation* task: reconstruct a node's held-out edges from its
//! embedding, scored by dot product against candidate targets.

use crate::static_gnn::{StaticGnn, StaticGraph};
use crate::static_train::{dst_pool, rows_dot, sample_edge_batch, StaticTrainConfig};
use cpdg_dgnn::train_step;
use cpdg_graph::DynamicGraph;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{ParamStore, Tape};
use rand::rngs::StdRng;

/// Runs GPT-GNN edge-generation pre-training for `cfg.steps` steps;
/// returns the final loss.
pub fn pretrain_gptgnn(
    gnn: &StaticGnn,
    store: &mut ParamStore,
    opt: &mut Adam,
    sg: &StaticGraph,
    graph: &DynamicGraph,
    cfg: &StaticTrainConfig,
    rng: &mut StdRng,
) -> f32 {
    let pool = dst_pool(graph);
    let mut last = 0.0;
    let mut tape = Tape::new();
    for _ in 0..cfg.steps {
        let (srcs, dsts, negs) = sample_edge_batch(graph.events(), &pool, cfg.batch_size, rng);
        tape.reset();
        let z_src = gnn.embed_many(&mut tape, store, sg, &srcs, rng);
        let z_dst = gnn.embed_many(&mut tape, store, sg, &dsts, rng);
        let z_neg = gnn.embed_many(&mut tape, store, sg, &negs, rng);
        // Edge generation: does src's embedding generate dst (vs corrupt)?
        let pos = rows_dot(&mut tape, z_src, z_dst);
        let neg = rows_dot(&mut tape, z_src, z_neg);
        let loss = cpdg_tensor::loss::link_prediction_loss(&mut tape, pos, neg);
        last = tape.value(loss).get(0, 0);
        if let Ok(Some(update)) = train_step(&mut tape, loss, cfg.grad_clip, None) {
            update.apply(opt, store);
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_gnn::StaticKind;
    use cpdg_graph::graph_from_triples;
    use rand::SeedableRng;

    #[test]
    fn gptgnn_pretraining_runs_and_descends() {
        let g = graph_from_triples(
            12,
            &[
                (0, 6, 1.0),
                (1, 7, 2.0),
                (2, 8, 3.0),
                (3, 9, 4.0),
                (0, 6, 5.0),
                (1, 7, 6.0),
            ],
        )
        .unwrap();
        let sg = StaticGraph::from_dynamic(&g);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let gnn = StaticGnn::new(&mut store, &mut rng, "gpt", StaticKind::Gat, 12, 8);
        let mut opt = Adam::new(2e-2);
        let cfg = StaticTrainConfig {
            steps: 10,
            ..Default::default()
        };
        let first = pretrain_gptgnn(&gnn, &mut store, &mut opt, &sg, &g, &cfg, &mut rng);
        let cfg2 = StaticTrainConfig {
            steps: 60,
            ..Default::default()
        };
        let later = pretrain_gptgnn(&gnn, &mut store, &mut opt, &sg, &g, &cfg2, &mut rng);
        assert!(later.is_finite() && first.is_finite());
        assert!(
            later < first,
            "edge-generation loss should drop: {first} → {later}"
        );
    }
}
