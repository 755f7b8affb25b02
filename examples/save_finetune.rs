//! Pre-train once, save, fine-tune many times — the deployment workflow the
//! paper's introduction motivates: an industrial platform pre-trains a
//! single CPDG encoder on historical data, ships the artifact, and teams
//! fine-tune it for their own downstream windows without retraining from
//! scratch.
//!
//! Demonstrates the `ModelFile` envelope: encoder wiring + parameters +
//! EIE memory checkpoints round-trip through one JSON file.
//!
//! ```text
//! cargo run --release --example save_finetune
//! ```

// Examples narrate their results on stdout by design.
#![allow(clippy::disallowed_macros)]

use cpdg::core::finetune::{finetune_link_prediction, FinetuneConfig, FinetuneStrategy};
use cpdg::core::model_io::ModelFile;
use cpdg::core::pipeline::auto_time_scale;
use cpdg::core::pretrain::{pretrain, PretrainConfig};
use cpdg::core::EieFusion;
use cpdg::dgnn::{DgnnConfig, DgnnEncoder, EncoderKind, LinkPredictor};
use cpdg::graph::split::time_transfer;
use cpdg::graph::{generate, SyntheticConfig};
use cpdg::tensor::{optim::Adam, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ds = generate(&SyntheticConfig::amazon_like(21).scaled(0.4));
    let split = time_transfer(&ds.graph, 0.7).expect("split");

    // --- stage 1: pre-train and save ---------------------------------
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(21);
    let dcfg = DgnnConfig::preset(EncoderKind::Tgn, 16, auto_time_scale(&split.pretrain));
    let mut encoder = DgnnEncoder::new(
        &mut store,
        &mut rng,
        "enc",
        ds.graph.num_nodes(),
        dcfg.clone(),
    );
    let head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", 16);
    let mut opt = Adam::new(2e-2);
    let out = pretrain(
        &mut encoder,
        &head,
        &mut store,
        &mut opt,
        &split.pretrain,
        &PretrainConfig {
            epochs: 3,
            ..Default::default()
        },
    );
    println!(
        "pre-trained: final loss {:.4}, {} checkpoints",
        out.epoch_losses.last().unwrap().total,
        out.checkpoints.len()
    );

    let path = std::env::temp_dir().join("cpdg_example_model.cpdg");
    let model = ModelFile::new(dcfg, ds.graph.num_nodes(), store, out.checkpoints);
    model.save(&path).expect("save model");
    println!(
        "saved → {} ({} scalar params)",
        path.display(),
        model.params.scalar_count()
    );

    // --- stage 2: a fresh process would reload and fine-tune ----------
    let reloaded = ModelFile::load(&path).expect("load model");
    let mut store2 = ParamStore::new();
    let mut rng2 = StdRng::seed_from_u64(99); // different init — will be overwritten
    let mut encoder2 = DgnnEncoder::new(
        &mut store2,
        &mut rng2,
        "enc",
        reloaded.num_nodes,
        reloaded.encoder_config.clone(),
    );
    let copied = store2
        .load_matching(&reloaded.params)
        .expect("model fits its config");
    println!("reloaded {copied} tensors into a fresh encoder");

    for strategy in [
        FinetuneStrategy::Full,
        FinetuneStrategy::Eie(EieFusion::Gru),
    ] {
        let mut s = store2.clone();
        let cfg = FinetuneConfig {
            epochs: 2,
            strategy,
            ..Default::default()
        };
        let res = finetune_link_prediction(
            &mut encoder2,
            &mut s,
            &split.downstream,
            &reloaded.checkpoints,
            &cfg,
            None,
        );
        println!(
            "fine-tune [{}]: AUC {:.4}  AP {:.4}",
            strategy.name(),
            res.auc,
            res.ap
        );
    }
    std::fs::remove_file(&path).ok();
}
