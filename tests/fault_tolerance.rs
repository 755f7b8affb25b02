//! Fault-tolerance integration tests: kill-and-resume pre-training,
//! corrupt-checkpoint fallback, crash-safe model saves, and divergence
//! reporting — the runtime behaviours that keep long experiments alive.

mod support;

use cpdg::core::checkpoint::{CheckpointConfig, CheckpointManager};
use cpdg::core::error::CpdgError;
use cpdg::core::model_io::ModelFile;
use cpdg::core::pretrain::{pretrain_resumable, PretrainConfig, PretrainRuntime};
use cpdg::core::storage::fault::CrashingStorage;
use cpdg::core::storage::{Storage, FS_STORAGE};
use cpdg::dgnn::{DgnnConfig, EncoderKind, GuardConfig};
use cpdg::graph::SyntheticDataset;
use cpdg::tensor::optim::Adam;
use cpdg::tensor::ParamStore;
use std::path::PathBuf;
use support::{build, pcfg, pretrain_run, test_dir, tiny_dataset, with_one_shape_swapped};

/// Steps an uninterrupted run of `cfg` over `ds` takes: one per batch per
/// epoch. Kill points derive from it so they always land inside the run.
fn run_steps(ds: &SyntheticDataset, cfg: &PretrainConfig) -> usize {
    cfg.epochs * ds.graph.num_events().div_ceil(cfg.batch_size)
}

/// Asserts that `err` is the typed interruption after step `at` of `total`.
fn assert_interrupted(err: CpdgError, at: usize, total: usize) {
    match err {
        CpdgError::Interrupted { step, total_steps } => {
            assert_eq!((step, total_steps), (at, total))
        }
        other => panic!("expected Interrupted, got {other}"),
    }
}

#[test]
fn kill_and_resume_matches_uninterrupted_run_exactly() {
    let ds = tiny_dataset(0);
    let cfg = pcfg();

    // Reference: one uninterrupted run, no persistence.
    let (ref_store, reference) = pretrain_run(&ds.graph, 0, &PretrainRuntime::default());
    let reference = reference.expect("reference run");

    // Interrupted: kill one step before the end, with the last checkpoint
    // one step earlier still, so the resumed run must redo lost work.
    let steps = run_steps(&ds, &cfg);
    let kill = steps - 1;
    assert!(
        kill >= 2,
        "the run is too short to checkpoint before the kill ({steps} steps)"
    );
    let dir = test_dir("resume");
    let ckpt = CheckpointConfig {
        dir: dir.to_path_buf(),
        every_n_steps: kill - 1,
        keep: 3,
    };
    let runtime = PretrainRuntime {
        checkpoint: Some(ckpt.clone()),
        step_limit: Some(kill),
        ..PretrainRuntime::default()
    };
    assert_interrupted(
        pretrain_run(&ds.graph, 0, &runtime).1.unwrap_err(),
        kill,
        steps,
    );

    // Resume in a fresh, identically seeded process image.
    let runtime = PretrainRuntime {
        checkpoint: Some(ckpt),
        resume: true,
        ..PretrainRuntime::default()
    };
    let (store, resumed) = pretrain_run(&ds.graph, 0, &runtime);
    let resumed = resumed.expect("resumed run");

    // The resumed run must land exactly where the uninterrupted one did:
    // per-batch RNG reseeding makes the trajectories identical.
    assert_eq!(resumed.checkpoints.len(), cfg.n_checkpoints);
    assert_eq!(resumed.epoch_losses.len(), reference.epoch_losses.len());
    for (a, b) in resumed.epoch_losses.iter().zip(&reference.epoch_losses) {
        assert!(a.total.is_finite());
        assert!(
            (a.total - b.total).abs() < 1e-5,
            "{} vs {}",
            a.total,
            b.total
        );
    }
    assert_eq!(
        cpdg::core::codec::to_bytes(&store),
        cpdg::core::codec::to_bytes(&ref_store),
        "resumed parameters must be bit-identical to the uninterrupted run"
    );
}

#[test]
fn resume_skips_corrupt_newest_checkpoint() {
    let ds = tiny_dataset(1);
    let cfg = pcfg();
    let dir = test_dir("corrupt");
    // Checkpoint every step and kill one step before the end: at least two
    // checkpoints exist, so one can be corrupted and another resumed from.
    let steps = run_steps(&ds, &cfg);
    let kill = steps - 1;
    let ckpt = CheckpointConfig {
        dir: dir.to_path_buf(),
        every_n_steps: 1,
        keep: 3,
    };
    let runtime = PretrainRuntime {
        checkpoint: Some(ckpt.clone()),
        step_limit: Some(kill),
        ..PretrainRuntime::default()
    };
    assert_interrupted(
        pretrain_run(&ds.graph, 1, &runtime).1.unwrap_err(),
        kill,
        steps,
    );

    // Truncate the newest checkpoint file (torn legacy write / bad disk).
    let mut files: Vec<PathBuf> = FS_STORAGE
        .list(&dir)
        .unwrap()
        .into_iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with("ckpt-"))
                .unwrap_or(false)
        })
        .collect();
    assert!(
        files.len() >= 2,
        "expected at least two checkpoints, got {files:?}"
    );
    let newest = files.pop().unwrap();
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

    // Resume must fall back to the older valid checkpoint and complete.
    let runtime = PretrainRuntime {
        checkpoint: Some(ckpt),
        resume: true,
        ..PretrainRuntime::default()
    };
    let resumed = pretrain_run(&ds.graph, 1, &runtime)
        .1
        .expect("resume past the corrupt file");
    assert_eq!(resumed.checkpoints.len(), cfg.n_checkpoints);
    assert!(resumed.epoch_losses.iter().all(|e| e.total.is_finite()));
}

#[test]
fn resume_refuses_a_resealed_checkpoint_with_a_swapped_parameter_shape() {
    let ds = tiny_dataset(2);
    let cfg = pcfg();
    let dir = test_dir("shape_swap");
    let ckpt = CheckpointConfig {
        dir: dir.to_path_buf(),
        every_n_steps: 1,
        keep: 2,
    };
    let runtime = PretrainRuntime {
        checkpoint: Some(ckpt.clone()),
        step_limit: Some(2),
        ..PretrainRuntime::default()
    };
    let steps = run_steps(&ds, &cfg);
    assert_interrupted(
        pretrain_run(&ds.graph, 1, &runtime).1.unwrap_err(),
        2,
        steps,
    );

    // Re-seal the newest checkpoint with one parameter transposed.
    let (mut newest, path) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
        .unwrap()
        .expect("a checkpoint");
    let (params, param) = with_one_shape_swapped(&newest.params);
    newest.params = params;
    let resealed = CheckpointManager::new(ckpt.clone(), &FS_STORAGE)
        .unwrap()
        .save(&newest)
        .unwrap();
    assert_eq!(resealed, path);

    let runtime = PretrainRuntime {
        checkpoint: Some(ckpt),
        resume: true,
        ..PretrainRuntime::default()
    };
    let err = pretrain_run(&ds.graph, 1, &runtime).1.unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
    match &err {
        CpdgError::Corrupt {
            path: named,
            reason,
        } => {
            assert_eq!(named, &path);
            assert!(reason.contains(&param), "{err}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
}

#[test]
fn crashed_model_save_preserves_previous_version() {
    let dir = test_dir("model_crash");
    let path = dir.join("model.json");
    let storage = CrashingStorage::new();

    let mut params = ParamStore::new();
    params.register("w", cpdg::tensor::Matrix::full(1, 2, 1.0));
    let v1 = ModelFile::new(
        DgnnConfig::preset(EncoderKind::Tgn, 8, 1.0),
        3,
        params,
        vec![],
    );
    v1.save_with(&storage, &path).expect("first save");

    let mut params = ParamStore::new();
    params.register("w", cpdg::tensor::Matrix::full(1, 2, 2.0));
    let v2 = ModelFile::new(
        DgnnConfig::preset(EncoderKind::Tgn, 8, 1.0),
        3,
        params,
        vec![],
    );
    storage.crash_after(16);
    v2.save_with(&storage, &path)
        .expect_err("armed save must crash");
    assert_eq!(storage.crashes(), 1);

    // The bundle on disk is still the complete first version.
    let back = ModelFile::load_with(&storage, &path).expect("previous version intact");
    let id = back.params.lookup("w").unwrap();
    assert_eq!(back.params.value(id).get(0, 0), 1.0);
}

#[test]
fn poisoned_model_diverges_with_typed_report() {
    // Synthetic loss spike: every parameter is NaN, so every step is
    // poisoned and a small retry budget must trip the watchdog.
    let ds = tiny_dataset(2);
    let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 2, 16);
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        for v in store.value_mut(id).data_mut() {
            *v = f32::NAN;
        }
    }
    let mut opt = Adam::new(1e-2);
    let runtime = PretrainRuntime {
        guard: GuardConfig {
            max_retries: 2,
            ..GuardConfig::default()
        },
        ..PretrainRuntime::default()
    };
    let err = pretrain_resumable(
        &mut enc,
        &head,
        &mut store,
        &mut opt,
        &ds.graph,
        &pcfg(),
        &runtime,
    )
    .unwrap_err();
    match &err {
        CpdgError::Diverged(report) => {
            assert_eq!(report.consecutive_bad, 3);
            assert!(!report.last_loss.is_finite());
        }
        other => panic!("expected Diverged, got {other}"),
    }
    assert_eq!(err.exit_code(), 5, "divergence has its own exit code");
}
