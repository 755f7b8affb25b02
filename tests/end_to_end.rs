//! Cross-crate integration tests: the full pre-train → transfer →
//! fine-tune → evaluate pipelines over every transfer setting and task.

mod support;

use cpdg::core::pipeline::{
    run_link_prediction, run_node_classification, unseen_nodes, PipelineConfig,
};
use cpdg::core::{EieFusion, FinetuneStrategy};
use cpdg::dgnn::EncoderKind;
use cpdg::graph::split::time_transfer;
use cpdg::graph::{generate, SyntheticConfig};
use cpdg_bench::{transfer, Setting};

fn quick(mut cfg: PipelineConfig) -> PipelineConfig {
    cfg.dim = 8;
    cfg.pretrain.epochs = 1;
    cfg.pretrain.batch_size = 100;
    cfg.pretrain.contrast_centers = 8;
    cfg.finetune.epochs = 1;
    cfg.finetune.batch_size = 100;
    cfg
}

fn amazon_like(seed: u64) -> cpdg::graph::SyntheticDataset {
    generate(
        &SyntheticConfig {
            n_events: 1200,
            ..SyntheticConfig::amazon_like(seed)
        }
        .scaled(0.15),
    )
}

#[test]
fn all_three_transfer_settings_produce_valid_metrics() {
    let ds = amazon_like(0);
    let cfg = quick(PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(0));
    for setting in Setting::all() {
        // Field 2 pre-trains for field 0, as in the paper's Amazon split.
        let split = transfer(&ds, setting, 0, 2, 0.6);
        let res = run_link_prediction(&split, &cfg, false);
        assert!((0.0..=1.0).contains(&res.auc), "auc {}", res.auc);
        assert!((0.0..=1.0 + 1e-6).contains(&res.ap), "ap {}", res.ap);
        assert!(res.val_auc.is_finite());
    }
}

#[test]
fn every_encoder_backbone_completes_the_cpdg_pipeline() {
    let ds = amazon_like(1);
    let split = time_transfer(&ds.graph, 0.6).unwrap();
    for kind in EncoderKind::all() {
        let cfg = quick(PipelineConfig::cpdg(kind).with_seed(1));
        let res = run_link_prediction(&split, &cfg, false);
        assert!(res.auc.is_finite(), "{kind:?}");
    }
}

#[test]
fn every_eie_fusion_completes() {
    let ds = amazon_like(2);
    let split = time_transfer(&ds.graph, 0.6).unwrap();
    for fusion in EieFusion::all() {
        let mut cfg = quick(PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(2));
        cfg.finetune.strategy = FinetuneStrategy::Eie(fusion);
        let res = run_link_prediction(&split, &cfg, false);
        assert!(res.auc.is_finite(), "{fusion:?}");
    }
}

#[test]
fn inductive_evaluation_restricts_to_unseen_nodes() {
    let ds = amazon_like(3);
    let split = time_transfer(&ds.graph, 0.6).unwrap();
    let unseen = unseen_nodes(&split);
    // Field/time splits on synthetic data always surface some new nodes.
    assert!(
        !unseen.is_empty(),
        "expected unseen nodes in the downstream period"
    );
    let cfg = quick(PipelineConfig::cpdg(EncoderKind::Jodie).with_seed(3));
    let res = run_link_prediction(&split, &cfg, true);
    assert!(res.auc.is_finite());
}

#[test]
fn node_classification_pipeline_on_labelled_stream() {
    let ds = generate(
        &SyntheticConfig {
            n_events: 1500,
            ..SyntheticConfig::wikipedia_like(4)
        }
        .scaled(0.2),
    );
    assert!(!ds.graph.labels().is_empty());
    let split = time_transfer(&ds.graph, 0.6).unwrap();
    let cfg = quick(PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(4));
    let auc = run_node_classification(&split, &cfg);
    assert!((0.0..=1.0).contains(&auc));
}

#[test]
fn pipeline_is_deterministic_under_seed() {
    let ds = amazon_like(5);
    let split = time_transfer(&ds.graph, 0.6).unwrap();
    let cfg = quick(PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(5));
    let a = run_link_prediction(&split, &cfg, false);
    let b = run_link_prediction(&split, &cfg, false);
    assert_eq!(a.auc, b.auc, "same seed must reproduce exactly");
    assert_eq!(a.ap, b.ap);
}

#[test]
fn different_seeds_differ() {
    let ds = amazon_like(6);
    let split = time_transfer(&ds.graph, 0.6).unwrap();
    let a = run_link_prediction(
        &split,
        &quick(PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(1)),
        false,
    );
    let b = run_link_prediction(
        &split,
        &quick(PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(2)),
        false,
    );
    assert_ne!(
        a.auc, b.auc,
        "different seeds should (almost surely) differ"
    );
}

#[test]
fn vanilla_mode_skips_contrastive_terms() {
    // Vanilla = Eq. 17 with both contrast weights zeroed: verify through
    // the pretrainer's loss breakdown.
    use cpdg::core::pretrain::{pretrain, PretrainConfig};
    use cpdg::tensor::optim::Adam;

    let ds = amazon_like(7);
    let (mut store, mut enc, head) = support::build(ds.graph.num_nodes(), 7, 8);
    let mut opt = Adam::new(1e-2);
    let mut pcfg = PretrainConfig {
        epochs: 1,
        batch_size: 150,
        ..Default::default()
    };
    pcfg.objective.use_tc = false;
    pcfg.objective.use_sc = false;
    let out = pretrain(&mut enc, &head, &mut store, &mut opt, &ds.graph, &pcfg);
    assert_eq!(out.epoch_losses[0].tc, 0.0);
    assert_eq!(out.epoch_losses[0].sc, 0.0);
    assert!(out.epoch_losses[0].tlp > 0.0);
}
