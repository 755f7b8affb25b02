//! DGI (Deep Graph Infomax) pre-training — §V-B.
//!
//! Maximises mutual information between node ("patch") representations and
//! a global graph summary: positive pairs are real node embeddings vs the
//! summary, negatives are corrupted embeddings (embeddings of shuffled
//! node identities, the standard row-shuffle corruption) vs the same
//! summary, discriminated by a bilinear critic.

use crate::static_gnn::{StaticGnn, StaticGraph};
use crate::static_train::{rows_dot, StaticTrainConfig};
use cpdg_dgnn::train_step;
use cpdg_graph::NodeId;
use cpdg_tensor::nn::init::xavier_uniform;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{Forward, ParamId, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::RngExt;

/// The DGI bilinear discriminator weight.
pub struct DgiDiscriminator {
    w: ParamId,
}

impl DgiDiscriminator {
    /// Registers the discriminator for `dim`-wide embeddings.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, dim: usize) -> Self {
        Self {
            w: store.register(format!("{name}.w"), xavier_uniform(rng, dim, dim)),
        }
    }
}

/// Runs DGI pre-training on `(gnn, discriminator)` for `cfg.steps` steps;
/// returns the final loss.
#[allow(clippy::too_many_arguments)]
pub fn pretrain_dgi(
    gnn: &StaticGnn,
    disc: &DgiDiscriminator,
    store: &mut ParamStore,
    opt: &mut Adam,
    sg: &StaticGraph,
    active_nodes: &[NodeId],
    cfg: &StaticTrainConfig,
    rng: &mut StdRng,
) -> f32 {
    assert!(
        active_nodes.len() >= 2,
        "pretrain_dgi: need at least two active nodes"
    );
    let mut last = 0.0;
    let mut tape = Tape::new();
    for _ in 0..cfg.steps {
        let batch: Vec<NodeId> = (0..cfg.batch_size)
            .map(|_| active_nodes[rng.random_range(0..active_nodes.len())])
            .collect();
        // Corruption: a shuffled identity for every batch slot.
        let corrupt: Vec<NodeId> = (0..cfg.batch_size)
            .map(|_| active_nodes[rng.random_range(0..active_nodes.len())])
            .collect();

        tape.reset();
        let h = gnn.embed_many(&mut tape, store, sg, &batch, rng);
        let h_corrupt = gnn.embed_many(&mut tape, store, sg, &corrupt, rng);

        // Summary s = σ(mean(h)), broadcast to batch rows.
        let batch_rows = 0..cfg.batch_size;
        let mean = tape.mean_rows(h, &[batch_rows]);
        let summary = tape.sigmoid(mean);
        let srows: Vec<_> = (0..cfg.batch_size).map(|_| 0).collect();
        let s_batch = tape.gather_rows(summary, &srows);

        // Bilinear critic D(h, s) = (h·W) ⊙ s summed per row.
        let w = tape.param(store, disc.w);
        let hw = tape.matmul(h, w);
        let pos = rows_dot(&mut tape, hw, s_batch);
        let hw_c = tape.matmul(h_corrupt, w);
        let neg = rows_dot(&mut tape, hw_c, s_batch);

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
    fn dgi_pretraining_reduces_loss() {
        let g = graph_from_triples(
            10,
            &[
                (0, 5, 1.0),
                (1, 5, 2.0),
                (2, 6, 3.0),
                (3, 7, 4.0),
                (4, 8, 5.0),
                (0, 9, 6.0),
            ],
        )
        .unwrap();
        let sg = StaticGraph::from_dynamic(&g);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let gnn = StaticGnn::new(&mut store, &mut rng, "dgi", StaticKind::Sage, 10, 8);
        let disc = DgiDiscriminator::new(&mut store, &mut rng, "disc", 8);
        let mut opt = Adam::new(2e-2);
        let nodes: Vec<NodeId> = g.active_nodes();
        let cfg = StaticTrainConfig {
            steps: 5,
            ..Default::default()
        };
        let first = pretrain_dgi(
            &gnn, &disc, &mut store, &mut opt, &sg, &nodes, &cfg, &mut rng,
        );
        let cfg2 = StaticTrainConfig {
            steps: 40,
            ..Default::default()
        };
        let later = pretrain_dgi(
            &gnn, &disc, &mut store, &mut opt, &sg, &nodes, &cfg2, &mut rng,
        );
        assert!(later.is_finite());
        assert!(
            later <= first + 0.2,
            "DGI loss should not explode: {first} → {later}"
        );
    }
}
