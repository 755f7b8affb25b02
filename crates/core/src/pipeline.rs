//! One-call pre-train → transfer → fine-tune → evaluate pipelines.
//!
//! [`PipelineConfig`] captures a full experimental condition (which encoder,
//! CPDG vs vanilla task-supervised pre-training vs no pre-training, which
//! fine-tuning strategy), and the `run_*` functions execute it on a
//! [`TransferSplit`]. These are the units the bench harness sweeps to
//! regenerate the paper's tables.

use crate::eie::EieFusion;
use crate::finetune::{
    finetune_link_prediction, finetune_node_classification, FinetuneConfig, FinetuneStrategy,
    LinkPredResult,
};
use crate::pretrain::{pretrain, PretrainConfig, PretrainOutput};
use cpdg_dgnn::{DgnnConfig, DgnnEncoder, EncoderKind, LinkPredictor};
use cpdg_graph::{DynamicGraph, NodeId, TransferSplit};
use cpdg_tensor::optim::Adam;
use cpdg_tensor::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// How the encoder is prepared before fine-tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PretrainMode {
    /// Full CPDG pre-training (Eq. 17).
    Cpdg,
    /// Task-supervised pre-training only (the paper's vanilla DyRep/JODIE/
    /// TGN baselines): Eq. 17 with both contrast terms off.
    Vanilla,
    /// No pre-training at all (Table IX's "No Pre-train" rows).
    None,
}

/// A full experimental condition.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// DGNN backbone.
    pub encoder: EncoderKind,
    /// Memory/embedding width.
    pub dim: usize,
    /// Pre-training mode.
    pub mode: PretrainMode,
    /// Pre-training hyper-parameters (contrast toggles are overridden by
    /// `mode`).
    pub pretrain: PretrainConfig,
    /// Fine-tuning hyper-parameters.
    pub finetune: FinetuneConfig,
    /// Learning rate of the pre-training optimiser.
    pub pretrain_lr: f32,
    /// Base RNG seed (init, sampling).
    pub seed: u64,
    /// Overrides the preset's message function (ablation studies).
    pub msg_override: Option<cpdg_dgnn::MsgKind>,
    /// Overrides the preset's memory updater (ablation studies).
    pub mem_override: Option<cpdg_dgnn::MemKind>,
}

impl PipelineConfig {
    /// CPDG pre-training with EIE-GRU fine-tuning — the paper's headline
    /// configuration.
    pub fn cpdg(encoder: EncoderKind) -> Self {
        Self {
            encoder,
            dim: 32,
            mode: PretrainMode::Cpdg,
            pretrain: PretrainConfig::default(),
            finetune: FinetuneConfig {
                strategy: FinetuneStrategy::Eie(EieFusion::Gru),
                ..FinetuneConfig::default()
            },
            pretrain_lr: 2e-2,
            seed: 0,
            msg_override: None,
            mem_override: None,
        }
    }

    /// Vanilla task-supervised pre-training with full fine-tuning — the
    /// paper's DyRep/JODIE/TGN baseline rows.
    pub fn vanilla(encoder: EncoderKind) -> Self {
        Self {
            mode: PretrainMode::Vanilla,
            finetune: FinetuneConfig::default(),
            ..Self::cpdg(encoder)
        }
    }

    /// No pre-training (Table IX).
    pub fn no_pretrain(encoder: EncoderKind) -> Self {
        Self {
            mode: PretrainMode::None,
            finetune: FinetuneConfig::default(),
            ..Self::cpdg(encoder)
        }
    }

    /// Sets the seed on all nested configs.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.pretrain.seed = seed;
        self.finetune.seed = seed;
        self
    }
}

/// A Δt divisor that puts a graph's typical horizon at O(100) time-encoder
/// inputs, regardless of the dataset's time unit.
pub fn auto_time_scale(graph: &DynamicGraph) -> f64 {
    match (graph.t_min(), graph.t_max()) {
        (Some(lo), Some(hi)) if hi > lo => (hi - lo) / 100.0,
        _ => 1.0,
    }
}

/// Everything a pipeline run produces.
#[derive(Debug)]
pub struct PipelineArtifacts {
    /// The (possibly pre-trained) encoder, post fine-tuning.
    pub encoder: DgnnEncoder,
    /// All parameters.
    pub store: ParamStore,
    /// Pre-training output (empty checkpoints when mode = None).
    pub pretrain: Option<PretrainOutput>,
}

fn prepare(split: &TransferSplit, cfg: &PipelineConfig) -> PipelineArtifacts {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let time_scale = auto_time_scale(&split.pretrain);
    let mut dcfg = DgnnConfig::preset(cfg.encoder, cfg.dim, time_scale);
    if let Some(msg) = cfg.msg_override {
        dcfg.msg = msg;
    }
    if let Some(mem) = cfg.mem_override {
        dcfg.mem = mem;
    }
    let mut encoder = DgnnEncoder::new(
        &mut store,
        &mut rng,
        "enc",
        split.pretrain.num_nodes(),
        dcfg,
    );

    let pretrain_out = match cfg.mode {
        PretrainMode::None => None,
        mode => {
            let head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", cfg.dim);
            let mut opt = Adam::new(cfg.pretrain_lr);
            let mut pcfg = cfg.pretrain.clone();
            if mode == PretrainMode::Vanilla {
                pcfg.objective.use_tc = false;
                pcfg.objective.use_sc = false;
            }
            Some(pretrain(
                &mut encoder,
                &head,
                &mut store,
                &mut opt,
                &split.pretrain,
                &pcfg,
            ))
        }
    };
    PipelineArtifacts {
        encoder,
        store,
        pretrain: pretrain_out,
    }
}

/// Nodes active in the downstream graph but never seen during
/// pre-training — the paper's inductive evaluation set.
pub fn unseen_nodes(split: &TransferSplit) -> HashSet<NodeId> {
    let seen: HashSet<NodeId> = split.pretrain.active_nodes().into_iter().collect();
    split
        .downstream
        .active_nodes()
        .into_iter()
        .filter(|n| !seen.contains(n))
        .collect()
}

/// Runs the downstream *dynamic link prediction* task under `cfg`.
/// With `inductive`, only test events touching nodes unseen in pre-training
/// are scored (falls back to transductive when no such nodes exist).
pub fn run_link_prediction(
    split: &TransferSplit,
    cfg: &PipelineConfig,
    inductive: bool,
) -> LinkPredResult {
    let mut art = prepare(split, cfg);
    let checkpoints = art.pretrain.as_ref().map_or(&[][..], |p| &p.checkpoints);
    let unseen = inductive
        .then(|| unseen_nodes(split))
        .filter(|s| !s.is_empty());
    finetune_link_prediction(
        &mut art.encoder,
        &mut art.store,
        &split.downstream,
        checkpoints,
        &cfg.finetune,
        unseen.as_ref(),
    )
}

/// Runs the downstream *dynamic node classification* task under `cfg`,
/// returning the test AUC.
pub fn run_node_classification(split: &TransferSplit, cfg: &PipelineConfig) -> f64 {
    let mut art = prepare(split, cfg);
    let checkpoints = art.pretrain.as_ref().map_or(&[][..], |p| &p.checkpoints);
    finetune_node_classification(
        &mut art.encoder,
        &mut art.store,
        &split.downstream,
        checkpoints,
        &cfg.finetune,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdg_graph::split::time_transfer;
    use cpdg_graph::{generate, SyntheticConfig};

    fn quick(cfg: &mut PipelineConfig) {
        cfg.dim = 8;
        cfg.pretrain.epochs = 1;
        cfg.pretrain.batch_size = 100;
        cfg.pretrain.contrast_centers = 8;
        cfg.finetune.epochs = 1;
        cfg.finetune.batch_size = 100;
    }

    fn tiny_split(seed: u64) -> TransferSplit {
        let ds = generate(
            &SyntheticConfig {
                n_events: 800,
                ..SyntheticConfig::amazon_like(seed)
            }
            .scaled(0.1),
        );
        time_transfer(&ds.graph, 0.6).unwrap()
    }

    #[test]
    fn cpdg_pipeline_end_to_end() {
        let split = tiny_split(0);
        let mut cfg = PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(0);
        quick(&mut cfg);
        let res = run_link_prediction(&split, &cfg, false);
        assert!(res.auc.is_finite() && (0.0..=1.0).contains(&res.auc));
    }

    #[test]
    fn vanilla_and_none_modes_run() {
        let split = tiny_split(1);
        for base in [
            PipelineConfig::vanilla(EncoderKind::Jodie),
            PipelineConfig::no_pretrain(EncoderKind::Jodie),
        ] {
            let mut cfg = base.with_seed(1);
            quick(&mut cfg);
            let res = run_link_prediction(&split, &cfg, false);
            assert!(res.auc.is_finite(), "{:?}", cfg.mode);
        }
    }

    #[test]
    fn inductive_mode_runs() {
        let split = tiny_split(2);
        let mut cfg = PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(2);
        quick(&mut cfg);
        let res = run_link_prediction(&split, &cfg, true);
        assert!(res.auc.is_finite());
    }

    #[test]
    fn unseen_nodes_disjoint_from_pretrain() {
        let split = tiny_split(3);
        let unseen = unseen_nodes(&split);
        let pre: std::collections::HashSet<_> = split.pretrain.active_nodes().into_iter().collect();
        assert!(unseen.iter().all(|n| !pre.contains(n)));
    }

    #[test]
    fn auto_time_scale_spans_graph() {
        let split = tiny_split(4);
        let s = auto_time_scale(&split.pretrain);
        assert!(s > 0.0);
    }

    #[test]
    fn eie_degradation_is_observable() {
        let split = tiny_split(6);
        // No pre-training → no checkpoints, yet EIE requested: the silent
        // fallback to Full must be surfaced on the result.
        let mut cfg = PipelineConfig::no_pretrain(EncoderKind::Tgn).with_seed(6);
        quick(&mut cfg);
        cfg.finetune.strategy = FinetuneStrategy::Eie(EieFusion::Gru);
        let cap = cpdg_obs::capture();
        let skips_before = cpdg_obs::metrics::counter("finetune.eie_degraded").get();
        let res = run_link_prediction(&split, &cfg, false);
        assert!(res.eie_degraded, "degraded EIE condition must be flagged");
        // ... and must leave a structured audit trail, not just a flag.
        assert!(cpdg_obs::metrics::counter("finetune.eie_degraded").get() > skips_before);
        let warns: Vec<_> = cap
            .records_for("core.finetune")
            .into_iter()
            .filter(|r| r.level == cpdg_obs::Level::Warn && r.message.contains("degrading to Full"))
            .collect();
        assert!(!warns.is_empty());
        assert_eq!(
            warns[0].field("strategy"),
            Some(&cpdg_obs::Json::from("EIE-GRU"))
        );

        // A genuine CPDG run with checkpoints must NOT be flagged.
        let mut cfg = PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(6);
        quick(&mut cfg);
        let res = run_link_prediction(&split, &cfg, false);
        assert!(!res.eie_degraded);
    }

    #[test]
    fn node_classification_pipeline_runs() {
        let ds = generate(
            &SyntheticConfig {
                n_events: 1000,
                ..SyntheticConfig::wikipedia_like(5)
            }
            .scaled(0.12),
        );
        let split = time_transfer(&ds.graph, 0.6).unwrap();
        let mut cfg = PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(5);
        quick(&mut cfg);
        let auc = run_node_classification(&split, &cfg);
        assert!((0.0..=1.0).contains(&auc));
    }
}
