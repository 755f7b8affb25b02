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
use crate::tlp::{enhance, forward_batch, score_stream};
use cpdg_dgnn::{
    metrics, train_step, DgnnEncoder, LinkPredictor, MemorySnapshot, NegativeSampler,
    NodeClassifier,
};
use cpdg_graph::split::chrono_boundaries;
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};
use cpdg_tensor::loss::link_prediction_loss;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{Eval, Forward, Matrix, ParamStore, Tape};
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
    /// True when an EIE strategy was requested but ran as plain full
    /// fine-tuning because no pre-training checkpoints were given, so
    /// sweeps cannot mislabel the condition.
    pub eie_degraded: bool,
}

/// The strategy fine-tuning runs: an EIE request degrades to `Full` when
/// there are no pre-training checkpoints to fuse, with a warning and a
/// `finetune.eie_degraded` count. Returns it and whether it degraded.
fn effective_strategy(
    strategy: FinetuneStrategy,
    checkpoints: &[MemorySnapshot],
) -> (FinetuneStrategy, bool) {
    if !checkpoints.is_empty() || strategy == FinetuneStrategy::Full {
        return (strategy, false);
    }
    cpdg_obs::counter!("finetune.eie_degraded").inc();
    cpdg_obs::warn!(
        "core.finetune",
        "EIE fine-tuning requested but no pre-training checkpoints exist; degrading to Full";
        strategy = strategy.name(),
    );
    (FinetuneStrategy::Full, true)
}

/// The EIE module `strategy` asks for, registered under `name`.
fn eie_module(
    store: &mut ParamStore,
    rng: &mut StdRng,
    name: &str,
    dim: usize,
    strategy: FinetuneStrategy,
) -> Option<EieModule> {
    match strategy {
        FinetuneStrategy::Full => None,
        FinetuneStrategy::Eie(fusion) => Some(EieModule::new(store, rng, name, dim, fusion)),
    }
}

/// Fine-tunes a (pre-trained) encoder on downstream link prediction and
/// returns test metrics. `checkpoints` feeds the EIE strategies (pass the
/// pre-training output; ignored under `Full`, and an EIE strategy without
/// them runs as `Full` with [`LinkPredResult::eie_degraded`] set).
/// `inductive_nodes`, when given, restricts test scoring to events
/// touching that set.
pub fn finetune_link_prediction(
    encoder: &mut DgnnEncoder,
    store: &mut ParamStore,
    graph: &DynamicGraph,
    checkpoints: &[MemorySnapshot],
    cfg: &FinetuneConfig,
    inductive_nodes: Option<&HashSet<NodeId>>,
) -> LinkPredResult {
    let (strategy, eie_degraded) = effective_strategy(cfg.strategy, checkpoints);
    // One rng draws the head initialisation, the training negatives and
    // the validation and test negatives, in that order.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dim = encoder.dim();
    let eie_module = eie_module(store, &mut rng, "ft.eie", dim, strategy);
    let head_dim = eie_module.as_ref().map_or(dim, EieModule::enhanced_dim);
    let head = LinkPredictor::new(store, &mut rng, "ft.head", head_dim);
    let eie = eie_module.as_ref().map(|m| (m, checkpoints));
    let mut opt = Adam::new(cfg.lr);
    let sampler = NegativeSampler::from_graph(graph);
    let batch_size = cfg.batch_size.max(1);

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
        for chunk in graph.events()[..train_end].chunks(batch_size) {
            tape.reset();
            let ctx = encoder.apply_pending(&mut tape, store, graph);
            let b = forward_batch(
                &mut tape, encoder, &head, store, &ctx, graph, chunk, &sampler, &mut rng, eie,
            );
            let loss = link_prediction_loss(&mut tape, b.pos, b.neg);
            if let Ok(Some(update)) = train_step(&mut tape, loss, cfg.grad_clip, None) {
                update.apply(&mut opt, store);
            }
            encoder.commit(&tape, ctx, chunk);
        }
        // --- validation scores on [train_end, val_end): memory is warm
        // through the train region, so continue the stream from there.
        let val = score_stream(
            encoder,
            &head,
            store,
            graph,
            train_end,
            train_end..val_end,
            None,
            batch_size,
            &sampler,
            &mut rng,
            eie,
        );
        let (val_auc, _) = val.metrics();
        let selected = val_auc > best_val;
        if selected {
            best_val = val_auc;
            best_params = Some(store.clone());
        }
        cpdg_obs::emit_metrics(
            "finetune_epoch",
            vec![
                ("epoch".into(), (epoch as u64).into()),
                ("strategy".into(), strategy.name().into()),
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
    let test = score_stream(
        encoder,
        &head,
        store,
        graph,
        0,
        val_end..,
        inductive_nodes,
        batch_size,
        &sampler,
        &mut rng,
        eie,
    );
    // An inductive restriction can leave nothing to score; report NaN
    // rather than a misleading degenerate 0.5.
    let (auc, ap) = if test.pos.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        test.metrics()
    };
    let result = LinkPredResult {
        auc,
        ap,
        val_auc: best_val.max(0.0),
        eie_degraded,
    };
    cpdg_obs::emit_metrics(
        "finetune_result",
        vec![
            ("strategy".into(), strategy.name().into()),
            ("auc".into(), result.auc.into()),
            ("ap".into(), result.ap.into()),
            ("val_auc".into(), result.val_auc.into()),
            ("scored_events".into(), test.pos.len().into()),
            ("inductive".into(), inductive_nodes.is_some().into()),
        ],
    );
    result
}

/// Fine-tunes for dynamic node classification and returns the test AUC.
///
/// Stage 1 fine-tunes the encoder on the downstream stream (link
/// prediction, train portion). Stage 2 captures (possibly EIE-enhanced)
/// embeddings at every dynamic label event, trains a classifier on the
/// train-portion labels, selects on validation labels, and reports test
/// AUC. Returns 0.5 when the graph carries no usable labels. An EIE
/// strategy without `checkpoints` runs as `Full`.
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
    let (strategy, _) = effective_strategy(cfg.strategy, checkpoints);
    let cfg = &FinetuneConfig {
        strategy,
        ..cfg.clone()
    };
    // Stage 1: encoder fine-tuning (ignore returned metrics).
    let _ = finetune_link_prediction(encoder, store, graph, checkpoints, cfg, None);

    // Stage 2: capture embeddings at label events while streaming.
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(17));
    let eie_module = eie_module(store, &mut rng, "nc.eie", encoder.dim(), strategy);
    let feat_dim = eie_module
        .as_ref()
        .map_or(encoder.dim(), EieModule::enhanced_dim);
    let eie = eie_module.as_ref().map(|m| (m, checkpoints));

    encoder.reset_state();
    let mut feats: Vec<Vec<f32>> = Vec::new();
    let mut labels: Vec<bool> = Vec::new();
    let mut li = 0usize;
    let all_labels = graph.labels();
    for chunk in graph.events().chunks(cfg.batch_size.max(1)) {
        let t_hi = chunk.last().expect("non-empty chunk").t;
        let mut ev = Eval::new();
        let ctx = encoder.apply_pending(&mut ev, store, graph);
        // Labels due in this window.
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut times: Vec<Timestamp> = Vec::new();
        while li < all_labels.len() && all_labels[li].t <= t_hi {
            nodes.push(all_labels[li].node);
            times.push(all_labels[li].t);
            labels.push(all_labels[li].label);
            li += 1;
        }
        if !nodes.is_empty() {
            let z = encoder.embed_many(&mut ev, store, &ctx, graph, &nodes, &times);
            let z = enhance(&mut ev, store, eie, z, &nodes);
            let v = ev.value(z);
            for r in 0..v.rows() {
                feats.push(v.row(r).to_vec());
            }
        }
        encoder.commit(&ev, ctx, chunk);
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
    let mut ev = Eval::new();
    let xv = ev.constant(x);
    let logits = clf.score(&mut ev, store, xv);
    ev.take(logits).into_data()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretrain::{pretrain, PretrainConfig};
    use cpdg_dgnn::{DgnnConfig, EncoderKind};
    use cpdg_graph::{generate, DynamicGraphBuilder, SyntheticConfig};
    use rand::RngExt;

    /// A graph with a strongly learnable rule: even users interact with
    /// even items, odd users with odd items, repeatedly over time.
    fn planted_graph(n_users: usize, n_items: usize, n_events: usize, seed: u64) -> DynamicGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DynamicGraphBuilder::new(n_users + n_items);
        for e in 0..n_events {
            let u = rng.random_range(0..n_users);
            let item_local = 2 * rng.random_range(0..n_items / 2) + u % 2;
            let item = (n_users + item_local.min(n_items - 1)) as NodeId;
            b.add_interaction(u as NodeId, item, e as f64, 0);
        }
        b.build().unwrap()
    }

    /// A freshly initialised (not pre-trained) encoder.
    fn fresh_encoder(
        kind: EncoderKind,
        graph: &DynamicGraph,
        seed: u64,
    ) -> (ParamStore, DgnnEncoder) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let dcfg = DgnnConfig::preset(kind, 16, 50.0);
        let enc = DgnnEncoder::new(&mut store, &mut rng, "enc", graph.num_nodes(), dcfg);
        (store, enc)
    }

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

    /// `(AUC, AP)` on the held-out test region after fine-tuning a fresh
    /// `kind` encoder on the planted parity rule, at the learning rate
    /// and epochs the planted-rule tests use.
    fn planted_rule_metrics(kind: EncoderKind, seed: u64) -> (f64, f64) {
        let g = planted_graph(12, 12, 1200, seed);
        let (mut store, mut enc) = fresh_encoder(kind, &g, seed);
        let cfg = FinetuneConfig {
            batch_size: 64,
            epochs: 10,
            lr: 3e-2,
            seed,
            ..Default::default()
        };
        let res = finetune_link_prediction(&mut enc, &mut store, &g, &[], &cfg, None);
        (res.auc, res.ap)
    }

    fn beats_chance((auc, ap): (f64, f64)) -> bool {
        auc > 0.6 && ap > 0.55
    }

    #[test]
    fn fine_tuning_learns_a_planted_rule() {
        // Half of the uniform negatives share the positive's parity, so
        // the rule caps AUC near 0.75. From a fresh init a run either
        // finds it or stays near chance (see
        // `every_seed_learns_the_planted_rule`), so each backbone must
        // learn on at least half of seeds 1-10; at this learning rate
        // DyRep learns on 9, JODIE on 7 and TGN on 5.
        for kind in EncoderKind::all() {
            let learned = (1..=10u64)
                .filter(|&seed| beats_chance(planted_rule_metrics(kind, seed)))
                .count();
            assert!(
                learned >= 5,
                "{kind:?}: only {learned} of 10 seeds beat chance"
            );
        }
    }

    #[test]
    #[ignore = "fails: a fresh encoder stays at chance on some seeds (ROADMAP item 11)"]
    fn every_seed_learns_the_planted_rule() {
        let missed: Vec<(EncoderKind, Vec<u64>)> = EncoderKind::all()
            .into_iter()
            .map(|kind| {
                let seeds = (1..=10u64)
                    .filter(|&seed| !beats_chance(planted_rule_metrics(kind, seed)))
                    .collect();
                (kind, seeds)
            })
            .filter(|(_, seeds): &(_, Vec<u64>)| !seeds.is_empty())
            .collect();
        assert!(missed.is_empty(), "seeds left at chance: {missed:?}");
    }

    #[test]
    fn fine_tuning_trains_parameters_and_is_seed_deterministic() {
        let g = planted_graph(10, 10, 400, 3);
        let initial = fresh_encoder(EncoderKind::Tgn, &g, 7).0;
        // The encoder's parameters, value by value. Fine-tuning registers
        // its head after them, so the fresh store's ids name exactly the
        // encoder's parameters in the fine-tuned store too.
        let encoder_bits = |store: &ParamStore| -> Vec<Vec<u32>> {
            initial
                .ids()
                .map(|id| store.value(id).data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let run = |seed: u64| {
            let (mut store, mut enc) = fresh_encoder(EncoderKind::Tgn, &g, 7);
            let cfg = FinetuneConfig {
                seed,
                ..quick_cfg()
            };
            let res = finetune_link_prediction(&mut enc, &mut store, &g, &[], &cfg, None);
            assert!(initial.ids().all(|id| store.name(id) == initial.name(id)));
            (
                encoder_bits(&store),
                res.auc.to_bits(),
                res.val_auc.to_bits(),
            )
        };
        let before = encoder_bits(&initial);
        let first = run(5);
        assert_eq!(run(5), first, "same seed, same parameters and metrics");
        for (id, (a, b)) in initial.ids().zip(before.iter().zip(&first.0)) {
            assert_ne!(a, b, "training left {} unchanged", initial.name(id));
        }
        // The seed draws the head's initialisation and the negatives; both
        // reach the encoder only through training.
        assert_ne!(run(6).0, first.0, "the seed changes the trained encoder");
    }

    #[test]
    fn eie_without_checkpoints_runs_as_full_and_says_so() {
        let g = planted_graph(10, 10, 400, 4);
        let run = |strategy: FinetuneStrategy| {
            let (mut store, mut enc) = fresh_encoder(EncoderKind::Tgn, &g, 4);
            let cfg = FinetuneConfig {
                strategy,
                ..quick_cfg()
            };
            finetune_link_prediction(&mut enc, &mut store, &g, &[], &cfg, None)
        };
        let eie = run(FinetuneStrategy::Eie(EieFusion::Gru));
        let full = run(FinetuneStrategy::Full);
        assert!(eie.eie_degraded);
        assert!(!full.eie_degraded);
        assert_eq!(
            (eie.auc.to_bits(), eie.ap.to_bits(), eie.val_auc.to_bits()),
            (
                full.auc.to_bits(),
                full.ap.to_bits(),
                full.val_auc.to_bits()
            )
        );
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

        // An EIE request without checkpoints classifies exactly as Full.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let dcfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 50_000.0);
        let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", ds.graph.num_nodes(), dcfg);
        let cfg = FinetuneConfig {
            strategy: FinetuneStrategy::Eie(EieFusion::Attn),
            ..quick_cfg()
        };
        let eie = finetune_node_classification(&mut enc, &mut store, &ds.graph, &[], &cfg);
        assert_eq!(eie.to_bits(), auc.to_bits());
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
