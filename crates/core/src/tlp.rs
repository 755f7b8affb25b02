//! The temporal-link-prediction (TLP) protocol, written once.
//!
//! CPDG uses TLP twice: as the auxiliary pretext of pre-training (Eqs.
//! 15–16, weighted into Eq. 17) and as the downstream task fine-tuning and
//! EIE (Eqs. 18–19) are judged on. Both run the same batch: one negative
//! destination per event drawn from a [`NegativeSampler`], the source,
//! destination and negative embeddings at the event times, and the link
//! head's logits of the true and the corrupted edges.
//!
//! - [`forward_batch`] is that batch on any [`Forward`]: pre-training and
//!   fine-tuning run it on their training `Tape` and take
//!   `link_prediction_loss` of its logits themselves.
//! - [`score_stream`] replays a stream on the forward-only [`Eval`] and
//!   collects the logits of a scored index range: fine-tuning's validation
//!   and test passes and the promotion gate's held-out loss.

use crate::eie::EieModule;
use cpdg_dgnn::{
    metrics, BatchContext, DgnnEncoder, LinkPredictor, MemorySnapshot, NegativeSampler,
};
use cpdg_graph::{DynamicGraph, Interaction, NodeId, Timestamp};
use cpdg_tensor::{Eval, Forward, ParamStore, Var};
use rand::rngs::StdRng;
use std::collections::HashSet;
use std::ops::RangeBounds;

/// The EIE enhancement a batch applies (Eq. 19): the module and the
/// pre-training memory checkpoints it fuses. `None` scores plain
/// embeddings.
pub type Eie<'a> = Option<(&'a EieModule, &'a [MemorySnapshot])>;

/// One TLP batch's forward.
#[derive(Debug, Clone, Copy)]
pub struct TlpBatch {
    /// Source embeddings, one row per event (pre-training's contrast
    /// centres are rows of it).
    pub z_src: Var,
    /// Logits of the true edges.
    pub pos: Var,
    /// Logits of the corrupted edges.
    pub neg: Var,
}

/// Scores of one streaming pass: positives vs sampled negatives.
#[derive(Debug, Clone, Default)]
pub struct EvalScores {
    /// Logits of true future edges.
    pub pos: Vec<f32>,
    /// Logits of corrupted edges.
    pub neg: Vec<f32>,
}

impl EvalScores {
    /// `(AUC, AP)` of these scores.
    pub fn metrics(&self) -> (f64, f64) {
        metrics::link_prediction_metrics(&self.pos, &self.neg)
    }
}

/// Runs the TLP batch for `events` after `ctx`'s pending application:
/// draws one negative per event from `sampler` with `rng`, embeds the
/// sources, destinations and negatives at the event times (each enhanced
/// by `eie` when given) and scores both edge sets with `head`.
#[allow(clippy::too_many_arguments)]
pub fn forward_batch<'s, F: Forward<'s>>(
    ev: &mut F,
    encoder: &DgnnEncoder,
    head: &LinkPredictor,
    store: &'s ParamStore,
    ctx: &BatchContext,
    graph: &DynamicGraph,
    events: &[Interaction],
    sampler: &NegativeSampler,
    rng: &mut StdRng,
    eie: Eie<'_>,
) -> TlpBatch {
    let srcs: Vec<NodeId> = events.iter().map(|e| e.src).collect();
    let dsts: Vec<NodeId> = events.iter().map(|e| e.dst).collect();
    let times: Vec<Timestamp> = events.iter().map(|e| e.t).collect();
    let negs: Vec<NodeId> = events.iter().map(|_| sampler.sample(rng)).collect();

    let embed = |ev: &mut F, nodes: &[NodeId]| {
        let z = encoder.embed_many(ev, store, ctx, graph, nodes, &times);
        enhance(ev, store, eie, z, nodes)
    };
    let z_src = embed(ev, &srcs);
    let z_dst = embed(ev, &dsts);
    let z_neg = embed(ev, &negs);
    let pos = head.score(ev, store, z_src, z_dst);
    let neg = head.score(ev, store, z_src, z_neg);
    TlpBatch { z_src, pos, neg }
}

/// `z` for `nodes`, enhanced to `[z ‖ MLP(f_EI(checkpoints))]` (Eqs.
/// 18–19) when `eie` is given.
pub(crate) fn enhance<'s>(
    ev: &mut impl Forward<'s>,
    store: &'s ParamStore,
    eie: Eie<'_>,
    z: Var,
    nodes: &[NodeId],
) -> Var {
    match eie {
        None => z,
        Some((module, checkpoints)) => {
            let ei = module.fuse(ev, store, checkpoints, nodes);
            module.enhance(ev, store, z, ei)
        }
    }
}

/// Streams `graph.events()[stream_from..]` on a forward-only [`Eval`] in
/// chunks of `batch_size`, updating memory throughout (the encoder's state
/// must be that of having consumed every event before `stream_from`), and
/// scores the events whose index lies in `scored` with [`forward_batch`].
/// When `restrict_to` is given, only events with at least one endpoint in
/// the set are scored (the paper's *inductive* setting: pass the nodes
/// unseen during pre-training).
#[allow(clippy::too_many_arguments)]
pub fn score_stream(
    encoder: &mut DgnnEncoder,
    head: &LinkPredictor,
    store: &ParamStore,
    graph: &DynamicGraph,
    stream_from: usize,
    scored: impl RangeBounds<usize>,
    restrict_to: Option<&HashSet<NodeId>>,
    batch_size: usize,
    sampler: &NegativeSampler,
    rng: &mut StdRng,
    eie: Eie<'_>,
) -> EvalScores {
    let mut out = EvalScores::default();
    for chunk in graph.events()[stream_from..].chunks(batch_size.max(1)) {
        let mut ev = Eval::new();
        let ctx = encoder.apply_pending(&mut ev, store, graph);
        let events: Vec<Interaction> = chunk
            .iter()
            .filter(|e| {
                scored.contains(&e.idx)
                    && restrict_to.is_none_or(|set| set.contains(&e.src) || set.contains(&e.dst))
            })
            .copied()
            .collect();
        if !events.is_empty() {
            let b = forward_batch(
                &mut ev, encoder, head, store, &ctx, graph, &events, sampler, rng, eie,
            );
            out.pos.extend(ev.value(b.pos).data());
            out.neg.extend(ev.value(b.neg).data());
        }
        encoder.commit(&ev, ctx, chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdg_dgnn::{DgnnConfig, EncoderKind};
    use cpdg_graph::{generate, SyntheticConfig};
    use rand::SeedableRng;

    fn model(
        kind: EncoderKind,
        seed: u64,
    ) -> (DynamicGraph, ParamStore, DgnnEncoder, LinkPredictor) {
        let ds = generate(
            &SyntheticConfig {
                n_events: 400,
                ..SyntheticConfig::amazon_like(seed)
            }
            .scaled(0.1),
        );
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = DgnnConfig::preset(kind, 8, 10.0);
        let enc = DgnnEncoder::new(&mut store, &mut rng, "enc", ds.graph.num_nodes(), cfg);
        let head = LinkPredictor::new(&mut store, &mut rng, "head", 8);
        (ds.graph, store, enc, head)
    }

    fn score(
        graph: &DynamicGraph,
        store: &ParamStore,
        enc: &mut DgnnEncoder,
        head: &LinkPredictor,
        scored: impl RangeBounds<usize>,
        restrict_to: Option<&HashSet<NodeId>>,
    ) -> EvalScores {
        enc.reset_state();
        let sampler = NegativeSampler::from_graph(graph);
        let mut rng = StdRng::seed_from_u64(1);
        score_stream(
            enc,
            head,
            store,
            graph,
            0,
            scored,
            restrict_to,
            50,
            &sampler,
            &mut rng,
            None,
        )
    }

    #[test]
    fn scores_only_the_requested_range() {
        let (g, store, mut enc, head) = model(EncoderKind::Jodie, 1);
        let tail = score(&g, &store, &mut enc, &head, g.num_events() - 15.., None);
        assert_eq!((tail.pos.len(), tail.neg.len()), (15, 15));
        let middle = score(&g, &store, &mut enc, &head, 10..25, None);
        assert_eq!((middle.pos.len(), middle.neg.len()), (15, 15));
    }

    #[test]
    fn inductive_restriction_filters_events() {
        let (g, store, mut enc, head) = model(EncoderKind::DyRep, 2);
        let only: HashSet<NodeId> = [g.events()[0].src].into_iter().collect();
        let restricted = score(&g, &store, &mut enc, &head, .., Some(&only));
        let all = score(&g, &store, &mut enc, &head, .., None);
        assert!(restricted.pos.len() < all.pos.len());
        assert!(!restricted.pos.is_empty());
    }

    #[test]
    fn scoring_matches_the_batch_on_a_tape_and_leaves_parameters_alone() {
        let (g, store, mut enc, head) = model(EncoderKind::Tgn, 3);
        let before = crate::codec::to_bytes(&store);
        let scores = score(&g, &store, &mut enc, &head, .., None);
        assert_eq!(crate::codec::to_bytes(&store), before);

        // The same stream as one training-style pass on a tape: the Eval
        // scorer reads the very logits the batch records.
        enc.reset_state();
        let sampler = NegativeSampler::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = cpdg_tensor::Tape::new();
        let mut taped = EvalScores::default();
        for chunk in g.events().chunks(50) {
            tape.reset();
            let ctx = enc.apply_pending(&mut tape, &store, &g);
            let b = forward_batch(
                &mut tape, &enc, &head, &store, &ctx, &g, chunk, &sampler, &mut rng, None,
            );
            taped.pos.extend(tape.value(b.pos).data());
            taped.neg.extend(tape.value(b.neg).data());
            enc.commit(&tape, ctx, chunk);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores.pos), bits(&taped.pos));
        assert_eq!(bits(&scores.neg), bits(&taped.neg));
    }
}
