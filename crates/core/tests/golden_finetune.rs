//! Golden pin of downstream scoring: the exact f64 bits of fine-tuning's
//! test AUC/AP and validation AUC under every strategy (transductive and
//! inductive), node classification's test AUC, and the promotion gate's
//! held-out loss, all on one fixed-seed mini transfer split.
//!
//! These figures sit on every draw of the temporal-link-prediction batch
//! and the streaming scorer (negatives, head init, the shared fine-tuning
//! rng), so a refactor of either must reproduce them bit for bit. The file
//! `tests/golden/finetune_metrics.json` is committed; a missing file fails.
//! Bless a legitimate change with
//! `CPDG_BLESS=1 cargo test -p cpdg-core --test golden_finetune`.

// Test binaries are exempt from the library-crate print ban.
#![allow(clippy::disallowed_macros)]

use cpdg_core::continual::holdout_loss;
use cpdg_core::finetune::{finetune_link_prediction, finetune_node_classification};
use cpdg_core::pipeline::unseen_nodes;
use cpdg_core::pretrain::{pretrain, PretrainConfig};
use cpdg_core::{EieFusion, FinetuneConfig, FinetuneStrategy, ModelFile};
use cpdg_dgnn::{DgnnConfig, DgnnEncoder, EncoderKind, LinkPredictor};
use cpdg_graph::split::{time_transfer, TransferSplit};
use cpdg_graph::{generate, SyntheticConfig};
use cpdg_obs::Json;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// A labelled stream split in time, and a small CPDG model pre-trained on
/// its first part with four EIE checkpoints.
fn pretrained() -> (TransferSplit, ModelFile) {
    let ds = generate(
        &SyntheticConfig {
            n_events: 4000,
            ..SyntheticConfig::wikipedia_like(23)
        }
        .scaled(0.25),
    );
    let split = time_transfer(&ds.graph, 0.3).unwrap();
    let num_nodes = ds.graph.num_nodes();
    let dcfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 50_000.0);
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(23);
    let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", num_nodes, dcfg.clone());
    let head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", 8);
    let mut opt = Adam::new(1e-2);
    let cfg = PretrainConfig {
        epochs: 1,
        batch_size: 100,
        n_checkpoints: 4,
        contrast_centers: 8,
        seed: 23,
        ..Default::default()
    };
    let out = pretrain(&mut enc, &head, &mut store, &mut opt, &split.pretrain, &cfg);
    let model = ModelFile::new(dcfg, num_nodes, store, out.checkpoints);
    (split, model)
}

/// The pre-trained encoder rebuilt from `model` into a fresh store.
fn load(model: &ModelFile) -> (ParamStore, DgnnEncoder) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let enc = DgnnEncoder::new(
        &mut store,
        &mut rng,
        "enc",
        model.num_nodes,
        model.encoder_config.clone(),
    );
    store.load_matching(&model.params).unwrap();
    (store, enc)
}

fn strategies() -> [FinetuneStrategy; 4] {
    [
        FinetuneStrategy::Full,
        FinetuneStrategy::Eie(EieFusion::Mean),
        FinetuneStrategy::Eie(EieFusion::Gru),
        FinetuneStrategy::Eie(EieFusion::Attn),
    ]
}

/// Every pinned figure, named, in a fixed order.
fn figures() -> Vec<(String, f64)> {
    let (split, model) = pretrained();
    let graph = &split.downstream;
    let unseen = unseen_nodes(&split);
    assert!(!unseen.is_empty(), "the split must have an inductive set");
    let mut out = Vec::new();
    for strategy in strategies() {
        let cfg = FinetuneConfig {
            batch_size: 60,
            epochs: 2,
            seed: 41,
            strategy,
            ..Default::default()
        };
        for (regime, restrict) in [("transductive", None), ("inductive", Some(&unseen))] {
            let (mut store, mut enc) = load(&model);
            let res = finetune_link_prediction(
                &mut enc,
                &mut store,
                graph,
                &model.checkpoints,
                &cfg,
                restrict,
            );
            let name = format!("lp.{}.{regime}", strategy.name());
            out.push((format!("{name}.auc"), res.auc));
            out.push((format!("{name}.ap"), res.ap));
            out.push((format!("{name}.val_auc"), res.val_auc));
        }
        let (mut store, mut enc) = load(&model);
        let auc =
            finetune_node_classification(&mut enc, &mut store, graph, &model.checkpoints, &cfg);
        out.push((format!("nc.{}.auc", strategy.name()), auc));
    }
    for (score_from, seed) in [(0, 3), (graph.num_events() / 2, 5)] {
        let (loss, scored) = holdout_loss(&model, graph, score_from, seed).unwrap();
        let name = format!("holdout.from{score_from}.seed{seed}");
        out.push((format!("{name}.loss"), loss));
        out.push((format!("{name}.scored"), scored as f64));
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/finetune_metrics.json")
}

#[test]
fn downstream_metrics_match_golden_bits() {
    let got = figures();
    let path = golden_path();

    if std::env::var_os("CPDG_BLESS").is_some() {
        let entries = got.iter().map(|(name, v)| {
            Json::obj(vec![
                ("name", Json::from(name.as_str())),
                ("bits", Json::from(format!("{:016x}", v.to_bits()).as_str())),
                ("value", Json::F64(*v)),
            ])
        });
        std::fs::write(&path, Json::Arr(entries.collect()).pretty()).unwrap();
        eprintln!(
            "blessed golden file at {} — rerun to verify",
            path.display()
        );
        return;
    }

    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); bless it with CPDG_BLESS=1",
            path.display()
        )
    });
    let want: Vec<(String, u64)> = Json::parse(&raw)
        .ok()
        .as_ref()
        .and_then(Json::as_array)
        .and_then(|entries| {
            entries
                .iter()
                .map(|e| {
                    let name = e.get("name")?.as_str()?.to_string();
                    let bits = u64::from_str_radix(e.get("bits")?.as_str()?, 16).ok()?;
                    Some((name, bits))
                })
                .collect()
        })
        .unwrap_or_else(|| panic!("corrupt golden file {}", path.display()));
    let got: Vec<(String, u64)> = got.into_iter().map(|(n, v)| (n, v.to_bits())).collect();
    let names = |v: &[(String, u64)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want), "pinned figures changed");
    for ((name, g), (_, w)) in got.iter().zip(&want) {
        assert_eq!(
            g,
            w,
            "{name} drifted from golden: got {}, want {} \
             (bless intentional changes with CPDG_BLESS=1)",
            f64::from_bits(*g),
            f64::from_bits(*w)
        );
    }
}
