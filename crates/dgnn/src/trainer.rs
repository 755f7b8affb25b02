//! Task-supervised training and streaming evaluation for temporal link
//! prediction.
//!
//! This loop *is* the paper's DyRep/JODIE/TGN baseline treatment ("we adopt
//! temporal link prediction as its pre-training task", §V-B) and also the
//! auxiliary pretext component of CPDG's objective (Eq. 16). The CPDG
//! pre-trainer in `cpdg-core` reuses the same batch protocol and adds the
//! contrastive terms.

use crate::decoder::LinkPredictor;
use crate::encoder::DgnnEncoder;
use crate::guard::{DivergenceReport, GuardConfig, TrainGuard};
use crate::step::train_step;
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};
use cpdg_tensor::loss::link_prediction_loss;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{Eval, Forward, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// Hyper-parameters of the training/evaluation loops.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Events per mini-batch.
    pub batch_size: usize,
    /// Full passes over the stream.
    pub epochs: usize,
    /// Gradient clipping threshold (global L2 norm).
    pub grad_clip: f32,
    /// RNG seed for negative sampling.
    pub seed: u64,
    /// Divergence watchdog policy (NaN/Inf losses, exploding gradients).
    pub guard: GuardConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            batch_size: 200,
            epochs: 1,
            grad_clip: 5.0,
            seed: 0,
            guard: GuardConfig::default(),
        }
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

/// Trains `(encoder, head)` on temporal link prediction over `graph`.
/// Returns the mean loss of each epoch. Memory is reset at the start of
/// every epoch (each epoch replays the stream from scratch).
///
/// Poisoned steps (NaN/Inf losses, exploding gradients) are skipped under
/// `cfg.guard` rather than propagated into parameters; if the run exceeds
/// the guard's consecutive-failure budget, training stops early with a
/// warning and the epoch losses recorded so far are returned. Use
/// [`train_link_prediction_guarded`] to observe the divergence as a typed
/// error instead.
pub fn train_link_prediction(
    encoder: &mut DgnnEncoder,
    head: &LinkPredictor,
    store: &mut ParamStore,
    opt: &mut Adam,
    graph: &DynamicGraph,
    cfg: &TrainConfig,
) -> Vec<f32> {
    let mut guard = TrainGuard::new(cfg.guard.clone());
    match train_link_prediction_guarded(encoder, head, store, opt, graph, cfg, &mut guard) {
        Ok(losses) => losses,
        Err((losses, report)) => {
            cpdg_obs::warn!(
                "dgnn.trainer",
                format!("{report}; stopping training early");
                step = report.step,
                consecutive_bad = report.consecutive_bad,
            );
            losses
        }
    }
}

/// [`train_link_prediction`] with an external [`TrainGuard`], surfacing
/// divergence as a typed error. On divergence the epoch losses completed
/// before the failure accompany the report.
#[allow(clippy::type_complexity)]
pub fn train_link_prediction_guarded(
    encoder: &mut DgnnEncoder,
    head: &LinkPredictor,
    store: &mut ParamStore,
    opt: &mut Adam,
    graph: &DynamicGraph,
    cfg: &TrainConfig,
    guard: &mut TrainGuard,
) -> Result<Vec<f32>, (Vec<f32>, DivergenceReport)> {
    let sampler = NegativeSampler::from_graph(graph);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut step = 0usize;
    let mut tape = Tape::new();

    for _ in 0..cfg.epochs {
        encoder.reset_state();
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in graph.events().chunks(cfg.batch_size.max(1)) {
            tape.reset();
            let ctx = encoder.apply_pending(&mut tape, store, graph);

            let srcs: Vec<NodeId> = chunk.iter().map(|e| e.src).collect();
            let dsts: Vec<NodeId> = chunk.iter().map(|e| e.dst).collect();
            let times: Vec<Timestamp> = chunk.iter().map(|e| e.t).collect();
            let negs: Vec<NodeId> = chunk.iter().map(|_| sampler.sample(&mut rng)).collect();

            let z_src = encoder.embed_many(&mut tape, store, &ctx, graph, &srcs, &times);
            let z_dst = encoder.embed_many(&mut tape, store, &ctx, graph, &dsts, &times);
            let z_neg = encoder.embed_many(&mut tape, store, &ctx, graph, &negs, &times);

            let pos_logits = head.score(&mut tape, store, z_src, z_dst);
            let neg_logits = head.score(&mut tape, store, z_src, z_neg);
            let loss = link_prediction_loss(&mut tape, pos_logits, neg_logits);
            match train_step(&mut tape, loss, cfg.grad_clip, Some((&mut *guard, step))) {
                Ok(Some(update)) => {
                    total += f64::from(tape.value(loss).get(0, 0));
                    batches += 1;
                    update.apply(opt, store);
                    encoder.commit(&tape, ctx, chunk);
                }
                Ok(None) => encoder.skip_commit(chunk),
                Err(report) => return Err((epoch_losses, report)),
            }
            step += 1;
        }
        epoch_losses.push((total / batches.max(1) as f64) as f32);
    }
    Ok(epoch_losses)
}

/// Scores of one streaming evaluation pass: positives vs sampled negatives.
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
        crate::metrics::link_prediction_metrics(&self.pos, &self.neg)
    }
}

/// Streaming link-prediction evaluation: replays `graph` chronologically,
/// updating memory throughout, and records scores for events with index
/// `≥ score_from`. When `restrict_to` is given, only events with at least
/// one endpoint in the set are scored (the paper's *inductive* setting:
/// pass the nodes unseen during pre-training).
pub fn eval_link_prediction(
    encoder: &mut DgnnEncoder,
    head: &LinkPredictor,
    store: &ParamStore,
    graph: &DynamicGraph,
    score_from: usize,
    cfg: &TrainConfig,
    restrict_to: Option<&HashSet<NodeId>>,
) -> EvalScores {
    let sampler = NegativeSampler::from_graph(graph);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x9E37_79B9));
    let mut out = EvalScores::default();

    for chunk in graph.events().chunks(cfg.batch_size.max(1)) {
        let mut ev = Eval::new();
        let ctx = encoder.apply_pending(&mut ev, store, graph);

        let scored: Vec<_> = chunk
            .iter()
            .filter(|e| {
                e.idx >= score_from
                    && restrict_to
                        .map(|set| set.contains(&e.src) || set.contains(&e.dst))
                        .unwrap_or(true)
            })
            .collect();
        if !scored.is_empty() {
            let srcs: Vec<NodeId> = scored.iter().map(|e| e.src).collect();
            let dsts: Vec<NodeId> = scored.iter().map(|e| e.dst).collect();
            let times: Vec<Timestamp> = scored.iter().map(|e| e.t).collect();
            let negs: Vec<NodeId> = scored.iter().map(|_| sampler.sample(&mut rng)).collect();

            let z_src = encoder.embed_many(&mut ev, store, &ctx, graph, &srcs, &times);
            let z_dst = encoder.embed_many(&mut ev, store, &ctx, graph, &dsts, &times);
            let z_neg = encoder.embed_many(&mut ev, store, &ctx, graph, &negs, &times);
            let pos_logits = head.score(&mut ev, store, z_src, z_dst);
            let neg_logits = head.score(&mut ev, store, z_src, z_neg);
            out.pos.extend(ev.value(pos_logits).data());
            out.neg.extend(ev.value(neg_logits).data());
        }
        encoder.commit(&ev, ctx, chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DgnnConfig, EncoderKind};
    use cpdg_graph::DynamicGraphBuilder;

    /// A graph with a strongly learnable rule: even users interact with
    /// item A-group, odd users with B-group, repeatedly over time.
    fn planted_graph(n_users: usize, n_items: usize, n_events: usize, seed: u64) -> DynamicGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DynamicGraphBuilder::new(n_users + n_items);
        for e in 0..n_events {
            let u = rng.random_range(0..n_users);
            let group = u % 2;
            let item_local = 2 * rng.random_range(0..n_items / 2) + group;
            let item = (n_users + item_local.min(n_items - 1)) as NodeId;
            b.add_interaction(u as NodeId, item, e as f64, 0);
        }
        b.build().unwrap()
    }

    fn build(
        kind: EncoderKind,
        num_nodes: usize,
        seed: u64,
    ) -> (ParamStore, DgnnEncoder, LinkPredictor) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = DgnnConfig::preset(kind, 16, 50.0);
        let enc = DgnnEncoder::new(&mut store, &mut rng, "enc", num_nodes, cfg);
        let head = LinkPredictor::new(&mut store, &mut rng, "head", 16);
        (store, enc, head)
    }

    #[test]
    fn negative_sampler_draws_from_dst_pool() {
        let g = planted_graph(10, 10, 200, 0);
        let s = NegativeSampler::from_graph(&g);
        assert!(s.pool_size() <= 10);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let d = s.sample(&mut rng);
            assert!((d as usize) >= 10, "negatives come from the item side");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let g = planted_graph(12, 12, 900, 3);
        let (mut store, mut enc, head) = build(EncoderKind::Tgn, 24, 3);
        let mut opt = Adam::new(5e-3);
        let cfg = TrainConfig {
            batch_size: 64,
            epochs: 4,
            ..Default::default()
        };
        let losses = train_link_prediction(&mut enc, &head, &mut store, &mut opt, &g, &cfg);
        assert_eq!(losses.len(), 4);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss should drop: {losses:?}"
        );
    }

    #[test]
    fn trained_model_beats_chance_on_planted_rule() {
        let g = planted_graph(12, 12, 1200, 7);
        let (mut store, mut enc, head) = build(EncoderKind::Tgn, 24, 7);
        let mut opt = Adam::new(3e-2);
        let cfg = TrainConfig {
            batch_size: 64,
            epochs: 10,
            ..Default::default()
        };
        train_link_prediction(&mut enc, &head, &mut store, &mut opt, &g, &cfg);

        enc.reset_state();
        let score_from = g.num_events() * 7 / 10;
        let scores = eval_link_prediction(&mut enc, &head, &store, &g, score_from, &cfg, None);
        let (auc, ap) = scores.metrics();
        assert!(auc > 0.6, "AUC {auc} not above chance");
        assert!(ap > 0.55, "AP {ap} not above chance");
        let _ = ap;
    }

    #[test]
    fn eval_scores_only_requested_range() {
        let g = planted_graph(8, 8, 300, 1);
        let (store, mut enc, head) = {
            let (s, e, h) = build(EncoderKind::Jodie, 16, 1);
            (s, e, h)
        };
        let cfg = TrainConfig {
            batch_size: 50,
            ..Default::default()
        };
        let scores = eval_link_prediction(&mut enc, &head, &store, &g, 250, &cfg, None);
        assert_eq!(scores.pos.len(), 50);
        assert_eq!(scores.neg.len(), 50);
    }

    #[test]
    fn inductive_restriction_filters_events() {
        let g = planted_graph(8, 8, 300, 2);
        let (store, mut enc, head) = build(EncoderKind::DyRep, 16, 2);
        let cfg = TrainConfig {
            batch_size: 50,
            ..Default::default()
        };
        // Restrict to a single user: far fewer scored events.
        let only: HashSet<NodeId> = [0].into_iter().collect();
        let restricted = eval_link_prediction(&mut enc, &head, &store, &g, 0, &cfg, Some(&only));
        enc.reset_state();
        let all = eval_link_prediction(&mut enc, &head, &store, &g, 0, &cfg, None);
        assert!(restricted.pos.len() < all.pos.len());
        assert!(!restricted.pos.is_empty());
    }

    #[test]
    fn guarded_training_skips_poisoned_steps_without_touching_params() {
        let g = planted_graph(10, 10, 400, 11);
        let (mut store, mut enc, head) = build(EncoderKind::Tgn, 20, 11);
        let mut opt = Adam::new(1e-2);
        // A zero explosion threshold marks every step poisoned: the whole
        // run is skipped and parameters must come out bit-identical.
        let cfg = TrainConfig {
            batch_size: 50,
            epochs: 1,
            guard: GuardConfig {
                max_grad_norm: 0.0,
                max_retries: usize::MAX,
                ..GuardConfig::default()
            },
            ..Default::default()
        };
        let before = store.clone();
        let mut guard = TrainGuard::new(cfg.guard.clone());
        let losses = train_link_prediction_guarded(
            &mut enc, &head, &mut store, &mut opt, &g, &cfg, &mut guard,
        )
        .expect("never diverges with unbounded retries");
        assert_eq!(losses.len(), 1);
        assert!(guard.skipped() > 0);
        for id in before.ids() {
            assert_eq!(before.value(id), store.value(id), "{}", before.name(id));
        }
        // Memory was never written from poisoned tapes either.
        assert_eq!(enc.memory.rms(), 0.0);
    }

    #[test]
    fn guarded_training_reports_divergence_on_persistent_poison() {
        let g = planted_graph(8, 8, 300, 12);
        let (mut store, mut enc, head) = build(EncoderKind::Tgn, 16, 12);
        // Poison a parameter (the time encoder's first frequency): every
        // step's gradient norm is now NaN, so the guard skips each update.
        // Memory then stays zero and the loss a finite 2·ln 2, so the
        // divergence shows in the gradient norm, not the loss.
        let id = store.ids().next().unwrap();
        store.value_mut(id).data_mut()[0] = f32::NAN;
        let mut opt = Adam::new(1e-2);
        let cfg = TrainConfig {
            batch_size: 50,
            epochs: 1,
            guard: GuardConfig {
                max_retries: 2,
                ..GuardConfig::default()
            },
            ..Default::default()
        };
        let mut guard = TrainGuard::new(cfg.guard.clone());
        let (done, report) = train_link_prediction_guarded(
            &mut enc, &head, &mut store, &mut opt, &g, &cfg, &mut guard,
        )
        .expect_err("NaN params must diverge");
        assert!(done.is_empty(), "no epoch completed");
        assert_eq!(report.consecutive_bad, 3);
        assert!(!report.last_grad_norm.is_finite(), "{report}");
    }

    #[test]
    fn all_encoder_kinds_train_without_nan() {
        let g = planted_graph(10, 10, 300, 5);
        for kind in EncoderKind::all() {
            let (mut store, mut enc, head) = build(kind, 20, 5);
            let mut opt = Adam::new(1e-3);
            let cfg = TrainConfig {
                batch_size: 50,
                epochs: 1,
                ..Default::default()
            };
            let losses = train_link_prediction(&mut enc, &head, &mut store, &mut opt, &g, &cfg);
            assert!(
                losses.iter().all(|l| l.is_finite()),
                "{kind:?} produced NaN loss"
            );
        }
    }
}
