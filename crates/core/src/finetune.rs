//! Downstream fine-tuning (paper §IV-C, §V-C).
//!
//! Two downstream tasks are supported:
//!
//! * **Dynamic link prediction** — the pre-trained encoder (full fine-tune)
//!   plus a fresh head are trained on the chronological train portion of
//!   the downstream stream, selected on validation AUC, and evaluated on
//!   the test portion, optionally in the *inductive* regime (only events
//!   touching nodes unseen during pre-training are scored).
//! * **Dynamic node classification** — the encoder is first fine-tuned on
//!   the downstream stream (link prediction), then a classifier head is
//!   trained offline on the temporal embeddings captured at dynamic label
//!   events (the standard decoder protocol of the JODIE datasets).
//!
//! The `Eie(..)` strategy threads the paper's Evolution Information
//! Enhanced embeddings (Eq. 19) through both tasks.

use crate::eie::{EieFusion, EieModule};
use cpdg_dgnn::trainer::NegativeSampler;
use cpdg_dgnn::{metrics, train_step, DgnnEncoder, LinkPredictor, MemorySnapshot, NodeClassifier};
use cpdg_graph::split::chrono_boundaries;
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};
use cpdg_tensor::loss::link_prediction_loss;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{Forward, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// How downstream fine-tuning consumes the pre-trained model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinetuneStrategy {
    /// Plain full fine-tuning of all pre-trained weights.
    Full,
    /// Full fine-tuning plus EIE-enhanced embeddings (Eq. 19).
    Eie(EieFusion),
}

impl FinetuneStrategy {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            FinetuneStrategy::Full => "Full",
            FinetuneStrategy::Eie(f) => f.name(),
        }
    }
}

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone)]
pub struct FinetuneConfig {
    /// Events per mini-batch.
    pub batch_size: usize,
    /// Fine-tuning epochs (best epoch selected on validation AUC).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Gradient clipping.
    pub grad_clip: f32,
    /// Seed (negative sampling, head init).
    pub seed: u64,
    /// Strategy: Full or EIE variant.
    pub strategy: FinetuneStrategy,
    /// Chronological fraction of downstream events used for training.
    pub train_frac: f64,
    /// Fraction used for validation (the rest is test).
    pub val_frac: f64,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        Self {
            batch_size: 200,
            epochs: 2,
            lr: 2e-2,
            grad_clip: 5.0,
            seed: 0,
            strategy: FinetuneStrategy::Full,
            train_frac: 0.7,
            val_frac: 0.15,
        }
    }
}

/// Result of a downstream link-prediction run.
#[derive(Debug, Clone, Copy)]
pub struct LinkPredResult {
    /// Test ROC-AUC.
    pub auc: f64,
    /// Test Average Precision.
    pub ap: f64,
    /// Validation AUC of the selected epoch.
    pub val_auc: f64,
    /// True when an EIE strategy was requested but had to degrade to plain
    /// full fine-tuning because no pre-training checkpoints were available
    /// (set by the pipeline, so sweeps cannot mislabel conditions).
    pub eie_degraded: bool,
}

/// Bundles the per-run modules so embedding enhancement is uniform across
/// train / val / test passes.
struct FtModel {
    head: LinkPredictor,
    eie: Option<EieModule>,
}

impl FtModel {
    fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        dim: usize,
        strategy: FinetuneStrategy,
        name: &str,
    ) -> Self {
        let eie = match strategy {
            FinetuneStrategy::Full => None,
            FinetuneStrategy::Eie(fusion) => Some(EieModule::new(
                store,
                rng,
                &format!("{name}.eie"),
                dim,
                fusion,
            )),
        };
        let head_dim = if eie.is_some() { 2 * dim } else { dim };
        let head = LinkPredictor::new(store, rng, &format!("{name}.head"), head_dim);
        Self { head, eie }
    }

    /// Embeds `nodes` at `times` and applies EIE enhancement when active.
    #[allow(clippy::too_many_arguments)]
    fn embed(
        &self,
        tape: &mut Tape,
        encoder: &DgnnEncoder,
        store: &ParamStore,
        ctx: &cpdg_dgnn::BatchContext,
        graph: &DynamicGraph,
        checkpoints: &[MemorySnapshot],
        nodes: &[NodeId],
        times: &[Timestamp],
    ) -> Var {
        let z = encoder.embed_many(tape, store, ctx, graph, nodes, times);
        match &self.eie {
            None => z,
            Some(eie) => {
                let ei = eie.fuse(tape, store, checkpoints, nodes);
                eie.enhance(tape, store, z, ei)
            }
        }
    }
}

/// Fine-tunes a (pre-trained) encoder on downstream link prediction and
/// returns test metrics. `checkpoints` feeds the EIE strategies (pass the
/// pre-training output; ignored under `Full`). `inductive_nodes`, when
/// given, restricts test scoring to events touching that set.
pub fn finetune_link_prediction(
    encoder: &mut DgnnEncoder,
    store: &mut ParamStore,
    graph: &DynamicGraph,
    checkpoints: &[MemorySnapshot],
    cfg: &FinetuneConfig,
    inductive_nodes: Option<&HashSet<NodeId>>,
) -> LinkPredResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = FtModel::new(store, &mut rng, encoder.dim(), cfg.strategy, "ft");
    let mut opt = Adam::new(cfg.lr);
    let sampler = NegativeSampler::from_graph(graph);

    let bounds = chrono_boundaries(
        graph,
        &[
            cfg.train_frac,
            cfg.val_frac,
            1.0 - cfg.train_frac - cfg.val_frac,
        ],
    )
    .expect("FinetuneConfig train_frac/val_frac must be finite, non-negative, and sum to <= 1");
    let (train_end, val_end) = (bounds[0], bounds[1]);

    let mut best_val = f64::NEG_INFINITY;
    let mut best_params: Option<ParamStore> = None;
    let mut tape = Tape::new();

    for epoch in 0..cfg.epochs.max(1) {
        let _epoch_timer = cpdg_obs::span("finetune.epoch_us");
        encoder.reset_state();
        // --- train on [0, train_end) ---------------------------------
        for chunk in graph.events()[..train_end].chunks(cfg.batch_size.max(1)) {
            tape.reset();
            let ctx = encoder.apply_pending(&mut tape, store, graph);
            let srcs: Vec<NodeId> = chunk.iter().map(|e| e.src).collect();
            let dsts: Vec<NodeId> = chunk.iter().map(|e| e.dst).collect();
            let times: Vec<Timestamp> = chunk.iter().map(|e| e.t).collect();
            let negs: Vec<NodeId> = chunk.iter().map(|_| sampler.sample(&mut rng)).collect();

            let z_src = model.embed(
                &mut tape,
                encoder,
                store,
                &ctx,
                graph,
                checkpoints,
                &srcs,
                &times,
            );
            let z_dst = model.embed(
                &mut tape,
                encoder,
                store,
                &ctx,
                graph,
                checkpoints,
                &dsts,
                &times,
            );
            let z_neg = model.embed(
                &mut tape,
                encoder,
                store,
                &ctx,
                graph,
                checkpoints,
                &negs,
                &times,
            );
            let pos = model.head.score(&mut tape, store, z_src, z_dst);
            let neg = model.head.score(&mut tape, store, z_src, z_neg);
            let loss = link_prediction_loss(&mut tape, pos, neg);

            if let Ok(Some(update)) = train_step(&mut tape, loss, cfg.grad_clip, None) {
                update.apply(&mut opt, store);
            }
            encoder.commit(&tape, ctx, chunk);
        }
        // --- validation scores on [train_end, val_end): memory is warm
        // through the train region, so continue the stream from there.
        let val = score_range(
            encoder,
            store,
            &model,
            graph,
            checkpoints,
            &sampler,
            train_end,
            train_end,
            val_end,
            cfg,
            None,
            &mut rng,
        );
        let (val_auc, _) = metrics::link_prediction_metrics(&val.0, &val.1);
        let selected = val_auc > best_val;
        if selected {
            best_val = val_auc;
            best_params = Some(store.clone());
        }
        cpdg_obs::emit_metrics(
            "finetune_epoch",
            vec![
                ("epoch".into(), (epoch as u64).into()),
                ("strategy".into(), cfg.strategy.name().into()),
                ("val_auc".into(), val_auc.into()),
                ("selected".into(), selected.into()),
            ],
        );
    }

    if let Some(best) = best_params {
        *store = best;
    }

    // --- test on [val_end, n) with the selected parameters: reset and
    // replay the whole stream, warming memory through train+val without
    // scoring, then score the test region.
    encoder.reset_state();
    let test = score_range(
        encoder,
        store,
        &model,
        graph,
        checkpoints,
        &sampler,
        0,
        val_end,
        graph.num_events(),
        cfg,
        inductive_nodes,
        &mut rng,
    );
    // An inductive restriction can leave nothing to score; report NaN
    // rather than a misleading degenerate 0.5.
    let (auc, ap) = if test.0.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        metrics::link_prediction_metrics(&test.0, &test.1)
    };
    let result = LinkPredResult {
        auc,
        ap,
        val_auc: best_val.max(0.0),
        eie_degraded: false,
    };
    cpdg_obs::emit_metrics(
        "finetune_result",
        vec![
            ("strategy".into(), cfg.strategy.name().into()),
            ("auc".into(), result.auc.into()),
            ("ap".into(), result.ap.into()),
            ("val_auc".into(), result.val_auc.into()),
            ("scored_events".into(), test.0.len().into()),
            ("inductive".into(), inductive_nodes.is_some().into()),
        ],
    );
    result
}

/// Streams `graph.events()[stream_from..]` (the encoder's memory must
/// correspond to having consumed everything before `stream_from`), scoring
/// events whose index lies in `[score_from, score_to)`.
/// Returns `(pos_logits, neg_logits)`.
#[allow(clippy::too_many_arguments)]
fn score_range(
    encoder: &mut DgnnEncoder,
    store: &ParamStore,
    model: &FtModel,
    graph: &DynamicGraph,
    checkpoints: &[MemorySnapshot],
    sampler: &NegativeSampler,
    stream_from: usize,
    score_from: usize,
    score_to: usize,
    cfg: &FinetuneConfig,
    restrict_to: Option<&HashSet<NodeId>>,
    rng: &mut StdRng,
) -> (Vec<f32>, Vec<f32>) {
    let from = score_from;
    let to = score_to;
    let mut pos_out = Vec::new();
    let mut neg_out = Vec::new();
    for chunk in graph.events()[stream_from..].chunks(cfg.batch_size.max(1)) {
        let mut tape = Tape::new();
        let ctx = encoder.apply_pending(&mut tape, store, graph);
        let scored: Vec<_> = chunk
            .iter()
            .filter(|e| {
                e.idx >= from
                    && e.idx < to
                    && restrict_to
                        .map(|s| s.contains(&e.src) || s.contains(&e.dst))
                        .unwrap_or(true)
            })
            .collect();
        if !scored.is_empty() {
            let srcs: Vec<NodeId> = scored.iter().map(|e| e.src).collect();
            let dsts: Vec<NodeId> = scored.iter().map(|e| e.dst).collect();
            let times: Vec<Timestamp> = scored.iter().map(|e| e.t).collect();
            let negs: Vec<NodeId> = scored.iter().map(|_| sampler.sample(rng)).collect();
            let z_src = model.embed(
                &mut tape,
                encoder,
                store,
                &ctx,
                graph,
                checkpoints,
                &srcs,
                &times,
            );
            let z_dst = model.embed(
                &mut tape,
                encoder,
                store,
                &ctx,
                graph,
                checkpoints,
                &dsts,
                &times,
            );
            let z_neg = model.embed(
                &mut tape,
                encoder,
                store,
                &ctx,
                graph,
                checkpoints,
                &negs,
                &times,
            );
            let pos = model.head.score(&mut tape, store, z_src, z_dst);
            let neg = model.head.score(&mut tape, store, z_src, z_neg);
            pos_out.extend(tape.value(pos).data());
            neg_out.extend(tape.value(neg).data());
        }
        encoder.commit(&tape, ctx, chunk);
    }
    (pos_out, neg_out)
}

/// Fine-tunes for dynamic node classification and returns the test AUC.
///
/// Stage 1 fine-tunes the encoder on the downstream stream (link
/// prediction, train portion). Stage 2 captures (possibly EIE-enhanced)
/// embeddings at every dynamic label event, trains a classifier on the
/// train-portion labels, selects on validation labels, and reports test
/// AUC. Returns 0.5 when the graph carries no usable labels.
pub fn finetune_node_classification(
    encoder: &mut DgnnEncoder,
    store: &mut ParamStore,
    graph: &DynamicGraph,
    checkpoints: &[MemorySnapshot],
    cfg: &FinetuneConfig,
) -> f64 {
    if graph.labels().is_empty() {
        return 0.5;
    }
    // Stage 1: encoder fine-tuning (ignore returned metrics).
    let _ = finetune_link_prediction(encoder, store, graph, checkpoints, cfg, None);

    // Stage 2: capture embeddings at label events while streaming.
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(17));
    let eie = match cfg.strategy {
        FinetuneStrategy::Full => None,
        FinetuneStrategy::Eie(fusion) => Some(EieModule::new(
            store,
            &mut rng,
            "nc.eie",
            encoder.dim(),
            fusion,
        )),
    };
    let feat_dim = if eie.is_some() {
        2 * encoder.dim()
    } else {
        encoder.dim()
    };

    encoder.reset_state();
    let mut feats: Vec<Vec<f32>> = Vec::new();
    let mut labels: Vec<bool> = Vec::new();
    let mut label_times: Vec<Timestamp> = Vec::new();
    let mut li = 0usize;
    let all_labels = graph.labels();
    for chunk in graph.events().chunks(cfg.batch_size.max(1)) {
        let t_hi = chunk.last().expect("non-empty chunk").t;
        let mut tape = Tape::new();
        let ctx = encoder.apply_pending(&mut tape, store, graph);
        // Labels due in this window.
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut times: Vec<Timestamp> = Vec::new();
        while li < all_labels.len() && all_labels[li].t <= t_hi {
            nodes.push(all_labels[li].node);
            times.push(all_labels[li].t);
            labels.push(all_labels[li].label);
            label_times.push(all_labels[li].t);
            li += 1;
        }
        if !nodes.is_empty() {
            let z = encoder.embed_many(&mut tape, store, &ctx, graph, &nodes, &times);
            let z = match &eie {
                None => z,
                Some(eie) => {
                    let ei = eie.fuse(&mut tape, store, checkpoints, &nodes);
                    eie.enhance(&mut tape, store, z, ei)
                }
            };
            let v = tape.value(z);
            for r in 0..v.rows() {
                feats.push(v.row(r).to_vec());
            }
        }
        encoder.commit(&tape, ctx, chunk);
    }
    if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
        return 0.5;
    }

    // Chronological split of the label set.
    let n = labels.len();
    let train_end = ((n as f64 * cfg.train_frac) as usize).clamp(1, n - 1);
    let val_end = ((n as f64 * (cfg.train_frac + cfg.val_frac)) as usize).clamp(train_end, n - 1);

    // Offline classifier training.
    let mut clf_store = ParamStore::new();
    let clf = NodeClassifier::new(&mut clf_store, &mut rng, "clf", feat_dim, encoder.dim());
    let mut opt = Adam::new(1e-2);
    let train_x = Matrix::from_vec(
        train_end,
        feat_dim,
        feats[..train_end].iter().flatten().copied().collect(),
    );
    let train_y = Matrix::from_vec(
        train_end,
        1,
        labels[..train_end]
            .iter()
            .map(|&l| f32::from(l as u8))
            .collect(),
    );
    let mut best_val = f64::NEG_INFINITY;
    let mut best_clf = clf_store.clone();
    let mut tape = Tape::new();
    for _ in 0..60 {
        tape.reset();
        let x = tape.constant(train_x.clone());
        let logits = clf.score(&mut tape, &clf_store, x);
        let loss = tape.bce_with_logits(logits, train_y.clone());
        if let Ok(Some(update)) = train_step(&mut tape, loss, f32::INFINITY, None) {
            update.apply(&mut opt, &mut clf_store);
        }

        let val_scores = classify(&clf, &clf_store, &feats[train_end..val_end], feat_dim);
        let val_auc = metrics::roc_auc(&val_scores, &labels[train_end..val_end]);
        if val_auc > best_val {
            best_val = val_auc;
            best_clf = clf_store.clone();
        }
    }
    let test_scores = classify(&clf, &best_clf, &feats[val_end..], feat_dim);
    metrics::roc_auc(&test_scores, &labels[val_end..])
}

fn classify(clf: &NodeClassifier, store: &ParamStore, feats: &[Vec<f32>], dim: usize) -> Vec<f32> {
    if feats.is_empty() {
        return Vec::new();
    }
    let x = Matrix::from_vec(feats.len(), dim, feats.iter().flatten().copied().collect());
    let mut tape = Tape::new();
    let xv = tape.constant(x);
    let logits = clf.score(&mut tape, store, xv);
    tape.value(logits).data().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretrain::{pretrain, PretrainConfig};
    use cpdg_dgnn::{DgnnConfig, EncoderKind};
    use cpdg_graph::{generate, SyntheticConfig};

    fn quick_cfg() -> FinetuneConfig {
        FinetuneConfig {
            batch_size: 100,
            epochs: 1,
            lr: 2e-2,
            ..Default::default()
        }
    }

    #[test]
    fn link_prediction_full_pipeline_runs() {
        let ds = generate(
            &SyntheticConfig {
                n_events: 900,
                ..SyntheticConfig::amazon_like(0)
            }
            .scaled(0.12),
        );
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let dcfg = DgnnConfig::preset(EncoderKind::Tgn, 16, 10_000.0);
        let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", ds.graph.num_nodes(), dcfg);
        let head = LinkPredictor::new(&mut store, &mut rng, "pre_head", 16);
        let mut opt = Adam::new(1e-2);
        let out = pretrain(
            &mut enc,
            &head,
            &mut store,
            &mut opt,
            &ds.graph,
            &PretrainConfig {
                epochs: 1,
                batch_size: 100,
                ..Default::default()
            },
        );

        let res = finetune_link_prediction(
            &mut enc,
            &mut store,
            &ds.graph,
            &out.checkpoints,
            &quick_cfg(),
            None,
        );
        assert!(res.auc > 0.0 && res.auc <= 1.0);
        assert!(res.ap > 0.0 && res.ap <= 1.0 + 1e-6);
    }

    #[test]
    fn eie_strategies_change_head_width_and_run() {
        let ds = generate(
            &SyntheticConfig {
                n_events: 600,
                ..SyntheticConfig::amazon_like(1)
            }
            .scaled(0.1),
        );
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let dcfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 10_000.0);
        let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", ds.graph.num_nodes(), dcfg);
        let head = LinkPredictor::new(&mut store, &mut rng, "pre_head", 8);
        let mut opt = Adam::new(1e-2);
        let out = pretrain(
            &mut enc,
            &head,
            &mut store,
            &mut opt,
            &ds.graph,
            &PretrainConfig {
                epochs: 1,
                batch_size: 100,
                n_checkpoints: 4,
                ..Default::default()
            },
        );

        for fusion in EieFusion::all() {
            let mut s = store.clone();
            let cfg = FinetuneConfig {
                strategy: FinetuneStrategy::Eie(fusion),
                ..quick_cfg()
            };
            let res =
                finetune_link_prediction(&mut enc, &mut s, &ds.graph, &out.checkpoints, &cfg, None);
            assert!(res.auc.is_finite(), "{fusion:?}");
        }
    }

    #[test]
    fn node_classification_runs_on_labelled_data() {
        let ds = generate(
            &SyntheticConfig {
                n_events: 1200,
                ..SyntheticConfig::wikipedia_like(2)
            }
            .scaled(0.15),
        );
        assert!(!ds.graph.labels().is_empty());
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let dcfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 50_000.0);
        let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", ds.graph.num_nodes(), dcfg);
        let auc = finetune_node_classification(&mut enc, &mut store, &ds.graph, &[], &quick_cfg());
        assert!((0.0..=1.0).contains(&auc));
    }

    #[test]
    fn node_classification_without_labels_returns_half() {
        let ds = generate(
            &SyntheticConfig {
                n_events: 400,
                ..SyntheticConfig::amazon_like(3)
            }
            .scaled(0.1),
        );
        assert!(ds.graph.labels().is_empty());
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let dcfg = DgnnConfig::preset(EncoderKind::Jodie, 8, 10_000.0);
        let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", ds.graph.num_nodes(), dcfg);
        let auc = finetune_node_classification(&mut enc, &mut store, &ds.graph, &[], &quick_cfg());
        assert_eq!(auc, 0.5);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(FinetuneStrategy::Full.name(), "Full");
        assert_eq!(FinetuneStrategy::Eie(EieFusion::Gru).name(), "EIE-GRU");
    }
}
