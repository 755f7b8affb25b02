//! Cross-crate persistence and transfer-of-weights tests: parameter
//! serialisation round trips, pre-trained-weight hand-off, and memory
//! checkpoint integrity.

mod support;

use cpdg::core::chaos::FaultHook;
use cpdg::core::codec;
use cpdg::core::error::CpdgError;
use cpdg::core::pretrain::{pretrain, PretrainConfig};
use cpdg::core::{ContinualConfig, ContinualTrainer, ModelFile};
use cpdg::dgnn::{DgnnConfig, DgnnEncoder, EncoderKind, LinkPredictor};
use cpdg::graph::loader::{load_jodie_csv, write_jodie_csv};
use cpdg::graph::{generate, SyntheticConfig};
use cpdg::serve::{Command, Engine, EngineConfig, Reply, TrainerRuntime};
use cpdg::tensor::{optim::Adam, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use support::{build, test_dir, trained_model, trainer_cfg, with_one_shape_swapped};

fn tiny() -> cpdg::graph::SyntheticDataset {
    generate(
        &SyntheticConfig {
            n_events: 800,
            ..SyntheticConfig::amazon_like(0)
        }
        .scaled(0.12),
    )
}

#[test]
fn pretrained_params_round_trip_through_the_codec() {
    let ds = tiny();
    let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 0, 8);
    let mut opt = Adam::new(1e-2);
    pretrain(
        &mut enc,
        &head,
        &mut store,
        &mut opt,
        &ds.graph,
        &PretrainConfig {
            epochs: 1,
            batch_size: 150,
            ..Default::default()
        },
    );

    let bytes = codec::to_bytes(&store);
    let mut reader = codec::Reader::new(&bytes);
    let restored: ParamStore = codec::Decode::decode(&mut reader).expect("decodes");
    assert_eq!(reader.remaining(), 0);
    assert_eq!(codec::to_bytes(&restored), bytes);
    assert_eq!(restored.len(), store.len());
    assert_eq!(restored.scalar_count(), store.scalar_count());
    for id in store.ids() {
        let name = store.name(id);
        let rid = restored.lookup(name).expect("name preserved");
        assert_eq!(restored.value(rid), store.value(id), "{name}");
    }
}

#[test]
fn load_matching_transfers_encoder_but_not_new_head() {
    let ds = tiny();
    let mut pre_store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let dcfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 10_000.0);
    let mut enc = DgnnEncoder::new(
        &mut pre_store,
        &mut rng,
        "enc",
        ds.graph.num_nodes(),
        dcfg.clone(),
    );
    let head = LinkPredictor::new(&mut pre_store, &mut rng, "pretext_head", 8);
    let mut opt = Adam::new(1e-2);
    pretrain(
        &mut enc,
        &head,
        &mut pre_store,
        &mut opt,
        &ds.graph,
        &PretrainConfig {
            epochs: 1,
            batch_size: 150,
            ..Default::default()
        },
    );

    // A downstream model with the same encoder names plus a fresh head.
    let mut down_store = ParamStore::new();
    let mut rng2 = StdRng::seed_from_u64(99);
    let _enc2 = DgnnEncoder::new(
        &mut down_store,
        &mut rng2,
        "enc",
        ds.graph.num_nodes(),
        dcfg,
    );
    let _new_head = LinkPredictor::new(&mut down_store, &mut rng2, "downstream_head", 8);

    let copied = down_store.load_matching(&pre_store).expect("shapes agree");
    assert!(copied > 0, "encoder weights must transfer");
    // Every copied name exists in both; the fresh head names do not match.
    assert!(down_store.lookup("downstream_head.0.weight").is_some());
    assert!(pre_store.lookup("downstream_head.0.weight").is_none());
}

#[test]
fn memory_checkpoints_are_ordered_and_nontrivial() {
    let ds = tiny();
    let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 2, 8);
    let mut opt = Adam::new(1e-2);
    let out = pretrain(
        &mut enc,
        &head,
        &mut store,
        &mut opt,
        &ds.graph,
        &PretrainConfig {
            epochs: 2,
            batch_size: 120,
            n_checkpoints: 6,
            ..Default::default()
        },
    );
    assert_eq!(out.checkpoints.len(), 6);
    for w in out.checkpoints.windows(2) {
        assert!(w[0].progress <= w[1].progress);
    }
    // Checkpoints must not all be identical (memory evolves).
    let first = &out.checkpoints[0].states;
    let last = &out.checkpoints[5].states;
    assert!(first.max_abs_diff(last) > 1e-6);
    // The final checkpoint equals the encoder's final memory.
    assert_eq!(last, enc.memory.states());
}

#[test]
fn synthetic_dataset_round_trips_through_jodie_csv() {
    let ds = generate(
        &SyntheticConfig {
            n_events: 600,
            ..SyntheticConfig::wikipedia_like(3)
        }
        .scaled(0.12),
    );
    let mut buf = Vec::new();
    write_jodie_csv(&ds.graph, ds.num_users, &mut buf).expect("write");
    let loaded = load_jodie_csv(buf.as_slice()).expect("load");
    assert_eq!(loaded.graph.num_events(), ds.graph.num_events());
    let pos_before = ds.graph.labels().iter().filter(|l| l.label).count();
    let pos_after = loaded.graph.labels().iter().filter(|l| l.label).count();
    assert_eq!(pos_before, pos_after, "positive labels preserved");
    // Event times and endpoints preserved (ids may be re-compacted but the
    // synthetic generator already emits dense ids, so they match exactly).
    for (a, b) in ds.graph.events().iter().zip(loaded.graph.events()) {
        assert_eq!(a.t, b.t);
        assert_eq!(a.src, b.src);
    }
}

#[test]
fn loaded_csv_dataset_trains_end_to_end() {
    use cpdg::core::pipeline::{run_link_prediction, PipelineConfig};
    use cpdg::graph::split::time_transfer;

    let ds = generate(
        &SyntheticConfig {
            n_events: 700,
            ..SyntheticConfig::mooc_like(4)
        }
        .scaled(0.12),
    );
    let mut buf = Vec::new();
    write_jodie_csv(&ds.graph, ds.num_users, &mut buf).expect("write");
    let loaded = load_jodie_csv(buf.as_slice()).expect("load");

    let split = time_transfer(&loaded.graph, 0.6).expect("split");
    let mut cfg = PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(4);
    cfg.dim = 8;
    cfg.pretrain.epochs = 1;
    cfg.finetune.epochs = 1;
    let res = run_link_prediction(&split, &cfg, false);
    assert!(res.auc.is_finite());
}

/// Asserts `err` refuses `path` as corrupt (exit 4), naming the swapped
/// parameter.
fn assert_refused(err: &CpdgError, path: &Path, param: &str) {
    match err {
        CpdgError::Corrupt {
            path: named,
            reason,
        } => {
            assert_eq!(named, path, "{err}");
            assert!(reason.contains(param), "{err}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    assert_eq!(err.exit_code(), 4);
}

#[test]
fn a_resealed_model_with_one_parameter_shape_swapped_is_refused_as_corrupt() {
    let dir = test_dir("shape_swap");
    let good = trained_model(0);
    let (params, param) = with_one_shape_swapped(&good.params);
    let bad = ModelFile::new(
        good.encoder_config.clone(),
        good.num_nodes,
        params,
        good.checkpoints.clone(),
    );
    let (good_path, bad_path) = (dir.join("good.cpdg"), dir.join("bad.cpdg"));
    good.save(&good_path).unwrap();
    // Sealed with a valid CRC: the codec accepts the file.
    bad.save(&bad_path).unwrap();
    let bad = ModelFile::load(&bad_path).expect("the codec checks layout, not shapes");

    let cfg = || EngineConfig::default();
    let err = Engine::from_model_file(&bad_path, cfg(), FaultHook::none())
        .err()
        .expect("refused");
    assert_refused(&err, &bad_path, &param);

    // Reload, promotion and rollback keep serving the old epoch.
    let engine = Arc::new(Engine::from_model_file(&good_path, cfg(), FaultHook::none()).unwrap());
    let reply = engine.execute(Command::Reload {
        path: bad_path.display().to_string(),
    });
    assert!(matches!(reply, Reply::Err { .. }), "{reply:?}");
    assert_refused(
        &engine.promote_epoch(&bad_path).unwrap_err(),
        &bad_path,
        &param,
    );
    assert_refused(
        &engine.rollback_epoch(&bad_path).unwrap_err(),
        &bad_path,
        &param,
    );
    assert_eq!(engine.version(), 1);

    // The continual trainer refuses it too.
    let err = ContinualTrainer::from_model(&bad, &bad_path, ContinualConfig::default())
        .err()
        .expect("refused");
    assert_refused(&err, &bad_path, &param);
    let cfg = trainer_cfg(dir.join("epochs"));
    let err = TrainerRuntime::new(Arc::clone(&engine), &bad_path, cfg)
        .err()
        .expect("refused");
    assert_refused(&err, &bad_path, &param);
}
