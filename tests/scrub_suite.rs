//! Scrub suite: the self-healing artifact oracle.
//!
//! The contract under test: for **every artifact class** the serving
//! stack persists — sealed WAL segments, the drain checkpoint
//! `checkpoint.cpdg`, candidate epoch files, the promoted pointer
//! `promoted.cpdg` — flipping a byte of any *one* sealed copy must leave
//! serving replies **bit-identical** to an uncorrupted run (the read
//! path heals the bad copy from its replica; an epoch file, which
//! serving reads from the primary only, is healed by the scrubber), and
//! flipping a byte of *every* copy must produce a **typed refusal naming
//! the artifact** (exit code 4 at the CLI) — never a panic, never
//! silently wrong bytes.
//! The oracle runs with a continual trainer attached, because that is
//! the topology `cpdg serve --continual` actually deploys.
//!
//! Alongside the tentpole oracle:
//!
//! * **kill -9 mid-repair** — a crash between corruption *detection* and
//!   the repair write landing leaves the bad copy on disk; the restart
//!   resolves identically and this time the repair lands. Torn repair
//!   residue (`.{name}.tmp`) is ignored by catalog and loaders alike.
//! * **chaos bitflips** — the `integrity.bitflip` fault point corrupts
//!   reads *in memory*: a one-shot flip falls through to the replica, a
//!   permanent flip refuses with the artifact path, and the disk stays
//!   sound either way.
//! * **budgeted scrubbing** — a `Scrubber` with a tiny byte budget heals
//!   a corrupted tree across several cursor-resumed cycles.
//! * **exhaustive offset flips** — with the `.r1` replica deleted (no
//!   second copy on disk), a single byte flipped at *every* offset of a
//!   sealed pointer / epoch / checkpoint / WAL segment is refused by the
//!   loaders serving uses (plus a seeded property pinning the generic
//!   property for arbitrary payloads and arbitrary single-bit flips).
//!
//! The refusal assertions pin the exact user-facing failure: `cpdg`
//! prints `error: {Display}` and exits with `CpdgError::exit_code()`
//! (the CLI crate's inline tests cover the printing), so checking the
//! Display string and exit code here checks the `exit 4` message names
//! the artifact for each class. The scripted real-`dd` variant of the
//! flip oracle (against the `cpdg` binary) lives in CI's `cli-smoke`
//! job; this file is the in-process oracle it leans on.

mod support;

use cpdg::core::chaos::FaultKind::{Permanent, Transient};
use cpdg::core::chaos::{FaultHook, FaultPlan, FaultPoint, Trigger};
use cpdg::core::integrity;
use cpdg::core::scrub;
use cpdg::core::storage::{Storage, FS_STORAGE};
use cpdg::core::wal::{self, Wal, WalCheckpoint};
use cpdg::core::{CpdgError, ModelFile, ScrubConfig, Scrubber};
use cpdg::dgnn::{DgnnConfig, EncoderKind};
use cpdg::serve::{
    read_promoted, write_promoted, CycleOutcome, Engine, EngineConfig, TrainerRuntime,
};
use cpdg::tensor::{Matrix, ParamStore};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use support::cases::for_each_case;
use support::{
    attach, base_model, events, exec, feed, flip, recover, sealed_interior_segments, snap,
    test_dir, tiny_segments, trainer_cfg, TestDir,
};

/// Flips the primary *and* its `.r1` replica: no sound copy left.
fn flip_all(path: &Path) {
    flip(path);
    flip(&scrub::replica_path(path, 1));
}

fn backup_copies(path: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(path).unwrap(),
        std::fs::read(scrub::replica_path(path, 1)).unwrap(),
    )
}

fn restore_copies(path: &Path, saved: &(Vec<u8>, Vec<u8>)) {
    std::fs::write(path, &saved.0).unwrap();
    std::fs::write(scrub::replica_path(path, 1), &saved.1).unwrap();
}

/// One durable serving state with every artifact class present: a
/// promoted candidate epoch + pointer (continual trainer), a WAL
/// checkpoint, and sealed replicated segments written after it.
struct State {
    _dir: TestDir,
    base: PathBuf,
    epochs: PathBuf,
    wal: PathBuf,
}

fn build_state(tag: &str) -> State {
    let dir = test_dir(tag);
    let base = base_model(&dir);
    let epochs = dir.join("epochs");
    let wal = dir.join("wal");
    std::fs::create_dir_all(&wal).unwrap();
    let model = ModelFile::load(&base).unwrap();
    let engine = Arc::new(Engine::from_model(
        &model,
        EngineConfig::default(),
        FaultHook::none(),
    ));
    engine.open_wal(&wal, tiny_segments()).unwrap();
    let mut rt =
        TrainerRuntime::new(Arc::clone(&engine), &base, trainer_cfg(epochs.clone())).unwrap();
    let stream = events(0, 96);
    feed(&[&engine], &stream[..64]);
    match rt.run_cycle().unwrap() {
        CycleOutcome::Promoted { version, .. } => assert_eq!(version, 2),
        other => panic!("expected promotion, got {other:?}"),
    }
    // Checkpoint (truncating the replayed segments), then keep streaming
    // so fresh sealed segments exist *after* the checkpoint.
    assert!(engine.checkpoint_wal(&FS_STORAGE).unwrap().is_some());
    feed(&[&engine], &stream[64..]);
    // kill -9 analog: no drain, no second checkpoint, no shutdown.
    drop(rt);
    drop(engine);
    State {
        _dir: dir,
        base,
        epochs,
        wal,
    }
}

impl State {
    /// The restart `cpdg serve --continual` performs on this state.
    fn recover(&self) -> (Engine, PathBuf) {
        recover(&self.base, &self.epochs, &self.wal)
    }
}

/// The tentpole heal oracle: flip one sealed copy of each artifact class
/// and recovery (for an epoch file, a scrub pass before it) must repair
/// it — replies bit-identical to the uncorrupted reference, artifact
/// strictly verifiable on disk again.
#[test]
fn flipping_one_copy_of_each_artifact_class_heals_and_serving_stays_bit_identical() {
    let st = build_state("heal");
    let reference = {
        let (engine, serving) = st.recover();
        assert!(serving.ends_with("candidate-g1.json"));
        snap(&engine)
    };
    assert_eq!(
        snap(&st.recover().0),
        reference,
        "recovery must be deterministic before any corruption"
    );

    let pointer = st.epochs.join("promoted.cpdg");
    let epoch = read_promoted(&st.epochs).unwrap().unwrap().model;
    let checkpoint = st.wal.join("checkpoint.cpdg");
    let segments = sealed_interior_segments(&st.wal);
    assert!(!segments.is_empty(), "no sealed segments to corrupt");
    let segment = segments[0].clone();

    let targets: [(&str, &Path); 4] = [
        ("pointer", &pointer),
        ("epoch", &epoch),
        ("wal-checkpoint", &checkpoint),
        ("wal-segment", &segment),
    ];
    for (class, path) in targets {
        flip(path);
        if class == "epoch" {
            // Serving loads an epoch from its primary only: the scrubber
            // is what heals it from the replica before the restart.
            let report = Scrubber::new(vec![st.epochs.clone()], ScrubConfig::default())
                .scrub_all(&FS_STORAGE);
            assert_eq!(report.repaired, 1, "{report:?}");
        }
        let (engine, _) = st.recover();
        assert_eq!(
            snap(&engine),
            reference,
            "{class} flip changed served bytes"
        );
        drop(engine);
        let healed = std::fs::read(path).unwrap();
        let sound = if class == "wal-segment" {
            wal::segment_is_sound(&healed)
        } else {
            integrity::unseal(&healed, path).is_ok()
        };
        assert!(sound, "{class} primary not healed on disk");
    }

    // A continual trainer re-attached to the healed tree keeps
    // working on top of it — the generation sequence resumes.
    let (engine, serving) = st.recover();
    let engine = Arc::new(engine);
    let mut rt = TrainerRuntime::new(
        Arc::clone(&engine),
        &serving,
        trainer_cfg(st.epochs.clone()),
    )
    .unwrap();
    let outcome = rt.run_cycle().unwrap();
    assert!(
        matches!(outcome, CycleOutcome::Promoted { .. } | CycleOutcome::Idle),
        "trainer on healed tree: {outcome:?}"
    );
}

/// The tentpole refusal oracle: flip *every* sealed copy of each artifact
/// class and the responsible loader must refuse with a typed error that
/// names the artifact and maps to CLI exit code 4 — never panic, never
/// serve from garbage.
#[test]
fn flipping_every_copy_of_each_artifact_class_refuses_with_the_artifact_named() {
    let st = build_state("refuse");
    let reference = snap(&st.recover().0);

    // Pointer: refused by the pointer reader; full recovery falls
    // back to the base epoch, deterministically.
    let pointer = st.epochs.join("promoted.cpdg");
    let saved = backup_copies(&pointer);
    flip_all(&pointer);
    let err = read_promoted(&st.epochs).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
    assert!(err.to_string().contains("promoted.cpdg"), "{err}");
    let (fb_a, path_a) = st.recover();
    let (fb_b, path_b) = st.recover();
    assert!(path_a.ends_with("base.json"), "{}", path_a.display());
    assert_eq!(path_a, path_b, "fallback determinism");
    assert_eq!(snap(&fb_a), snap(&fb_b));
    drop((fb_a, fb_b));
    restore_copies(&pointer, &saved);

    // Epoch: refused by the model loader.
    let epoch = read_promoted(&st.epochs).unwrap().unwrap().model;
    let saved = backup_copies(&epoch);
    flip_all(&epoch);
    let err = ModelFile::load(&epoch).map(|_| ()).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
    assert!(err.to_string().contains("candidate-g1.json"), "{err}");
    restore_copies(&epoch, &saved);

    // Checkpoint: refused by WAL recovery before any replay.
    let checkpoint = st.wal.join("checkpoint.cpdg");
    let saved = backup_copies(&checkpoint);
    flip_all(&checkpoint);
    let model = ModelFile::load(&epoch).unwrap();
    let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
    let err = engine.open_wal(&st.wal, tiny_segments()).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
    assert!(err.to_string().contains("checkpoint.cpdg"), "{err}");
    drop(engine);
    restore_copies(&checkpoint, &saved);

    // WAL segment: quarantined, and recovery refuses with the typed
    // gap its records leave behind instead of replaying garbage.
    let segment = sealed_interior_segments(&st.wal)[0].clone();
    let saved = backup_copies(&segment);
    flip_all(&segment);
    let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
    let err = engine.open_wal(&st.wal, tiny_segments()).unwrap_err();
    assert!(matches!(err, CpdgError::WalGap { .. }), "{err}");
    assert_eq!(err.exit_code(), 4, "{err}");
    assert!(err.to_string().contains("gap"), "{err}");
    drop(engine);
    let qdir = segment.parent().unwrap().join(scrub::QUARANTINE_DIR);
    assert!(
        qdir.join(segment.file_name().unwrap()).exists(),
        "unrepairable segment not quarantined"
    );
    restore_copies(&segment, &saved);
    std::fs::remove_dir_all(&qdir).unwrap();

    // Every class restored: the tree serves the reference again.
    assert_eq!(snap(&st.recover().0), reference);
}

/// kill -9 between corruption *detection* and the repair write landing:
/// the restart resolves identically, the repair lands the second time,
/// and torn repair residue (`.{name}.tmp`) confuses nothing.
#[test]
fn a_crash_between_corruption_detection_and_repair_recovers_deterministically() {
    let dir = test_dir("midrepair");
    let base = base_model(&dir);
    let epochs = dir.join("epochs");
    std::fs::create_dir_all(&epochs).unwrap();
    write_promoted(&epochs, 1, &base, None).unwrap();
    let pointer = epochs.join("promoted.cpdg");
    flip(&pointer);

    // Crash window analog: the read detects the bad primary and falls
    // through to the replica, but every repair write is lost.
    let hook = FaultHook::install(&FaultPlan::new(9).with(
        FaultPoint::ScrubRepair,
        Permanent,
        Trigger::Every { k: 1 },
    ));
    let read = scrub::read_sealed_replicated(&Storage::new(hook.clone()), &pointer).unwrap();
    assert_eq!(read.corrupt_copies, 1);
    assert_eq!(read.repaired, 0, "suppressed repair = crash before rename");
    assert!(
        integrity::unseal(&std::fs::read(&pointer).unwrap(), &pointer).is_err(),
        "primary must still be bad on disk after the crashed repair"
    );
    // Residue a killed atomic publish leaves behind.
    std::fs::write(epochs.join(".promoted.cpdg.tmp"), b"half a repair").unwrap();

    // Restart: two independent resolutions agree, and the repair lands.
    let a = read_promoted(&epochs).unwrap().unwrap();
    let b = read_promoted(&epochs).unwrap().unwrap();
    assert_eq!(a.generation, b.generation);
    assert_eq!(a.model, b.model);
    assert!(a.model.ends_with("base.json"));
    assert!(
        integrity::unseal(&std::fs::read(&pointer).unwrap(), &pointer).is_ok(),
        "restarted read must heal the primary"
    );

    // A scrub pass over the directory skips the `.tmp` residue and finds
    // nothing left to repair.
    let report = Scrubber::new(vec![epochs.clone()], ScrubConfig::default()).scrub_all(&FS_STORAGE);
    assert_eq!(report.corrupt, 0, "{report:?}");
    assert!(report.unrepairable.is_empty(), "{report:?}");
}

/// The `integrity.bitflip` chaos point corrupts reads in memory: a
/// one-shot flip falls through to the replica, a permanent flip refuses
/// with the artifact path — and the disk stays sound either way.
#[test]
fn injected_bitflips_fall_through_replicas_or_refuse_without_touching_disk() {
    let dir = test_dir("bitflip");
    let path = dir.join("promoted.cpdg");
    scrub::write_replicated(&FS_STORAGE, &path, &integrity::seal(b"3\n/m.json")).unwrap();

    // First read flipped: the replica carries the payload through.
    let hook = FaultHook::install(&FaultPlan::new(1).with(
        FaultPoint::IntegrityBitflip,
        Transient,
        Trigger::Nth { n: 0 },
    ));
    let read = scrub::read_sealed_replicated(&Storage::new(hook.clone()), &path).unwrap();
    assert_eq!(read.payload, b"3\n/m.json");
    assert_eq!(read.corrupt_copies, 1);

    // Every read flipped: typed refusal naming the artifact.
    let hook = FaultHook::install(&FaultPlan::new(1).with(
        FaultPoint::IntegrityBitflip,
        Permanent,
        Trigger::Every { k: 1 },
    ));
    let err = scrub::read_sealed_replicated(&Storage::new(hook.clone()), &path)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err.exit_code(), 4);
    assert!(err.to_string().contains("promoted.cpdg"), "{err}");

    // The flips lived in memory only: both copies verify and a plain
    // read succeeds.
    for i in 0..scrub::REPLICAS {
        let p = scrub::copy_path(&path, i);
        assert!(integrity::unseal(&std::fs::read(&p).unwrap(), &p).is_ok());
    }
    scrub::read_sealed_replicated(&FS_STORAGE, &path).unwrap();
}

/// A scrubber with a tiny byte budget heals a corrupted tree
/// incrementally: several cursor-resumed cycles, then a clean full pass
/// and bit-identical recovery.
#[test]
fn a_byte_budgeted_scrubber_heals_a_tree_across_cycles() {
    let st = build_state("budget");
    let reference = snap(&st.recover().0);
    flip(&st.epochs.join("promoted.cpdg"));
    flip(&st.wal.join("checkpoint.cpdg"));
    let segment = sealed_interior_segments(&st.wal)[0].clone();
    flip(&segment);

    let mut scrubber = Scrubber::new(
        vec![st.wal.clone(), st.epochs.clone()],
        ScrubConfig {
            max_bytes_per_cycle: 200,
        },
    );
    let mut cycles = 0u32;
    let mut repaired = 0u64;
    while repaired < 3 && cycles < 1000 {
        let report = scrubber.scrub_cycle(&FS_STORAGE);
        assert!(report.unrepairable.is_empty(), "{report:?}");
        repaired += report.repaired;
        cycles += 1;
    }
    assert!(
        repaired >= 3,
        "only {repaired} repairs after {cycles} cycles"
    );
    assert!(cycles > 1, "a 200-byte budget must take multiple cycles");

    let clean = scrubber.scrub_all(&FS_STORAGE);
    assert_eq!(clean.corrupt, 0, "{clean:?}");
    assert!(clean.unrepairable.is_empty(), "{clean:?}");
    assert_eq!(snap(&st.recover().0), reference);
}

/// Satellite: rejected training work is accounted in `STATUS` — byte
/// totals of quarantined candidates and the most recent rejection cause.
#[test]
fn status_reports_quarantine_byte_totals_and_the_last_rejection_cause() {
    let dir = test_dir("qstatus");
    let base = base_model(&dir);
    let plan =
        FaultPlan::new(11).with(FaultPoint::TrainerPromote, Transient, Trigger::Nth { n: 0 });
    let (engine, mut rt) = attach(&base, &dir.join("epochs"), FaultHook::install(&plan));
    feed(&[&engine], &events(0, 64));
    match rt.run_cycle().unwrap() {
        CycleOutcome::Quarantined(reason) => assert!(reason.contains("trainer.promote")),
        other => panic!("expected promote quarantine, got {other:?}"),
    }
    let status = exec(&engine, "STATUS");
    let field = |key: &str| -> String {
        let prefix = format!("{key}=");
        status
            .split_whitespace()
            .find_map(|t| t.strip_prefix(&prefix))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("missing {prefix} in {status}"))
    };
    assert_eq!(field("trainer.quarantined"), "1");
    let bytes: u64 = field("trainer.quarantined_bytes").parse().unwrap();
    assert!(bytes > 0, "quarantined candidate bytes accounted: {status}");
    assert!(
        field("trainer.last_reject").contains("trainer.promote"),
        "{status}"
    );
}

/// Satellite: with no second copy on disk, a single byte flipped at EVERY
/// offset of the sealed promoted pointer and of a sealed epoch file is
/// refused by the exact loaders serving uses — typed error, never a
/// panic, never a load.
#[test]
fn every_single_byte_flip_of_pointer_and_epoch_files_is_refused_by_their_loaders() {
    let dir = test_dir("offsets_ptr");
    let epochs = dir.join("epochs");
    std::fs::create_dir_all(&epochs).unwrap();
    let model_path = dir.join("tiny.json");
    let mut params = ParamStore::new();
    params.register("w", Matrix::from_rows(&[&[1.5, -0.5]]));
    let tiny = ModelFile::new(
        DgnnConfig::preset(EncoderKind::Tgn, 4, 100.0),
        3,
        params,
        Vec::new(),
    );
    // The pointer's `.r1` is deleted (an epoch saved by `ModelFile::save`
    // has none): with no second copy, every flip must surface as an error
    // rather than heal. (The 0x40 mask never maps one hex digit to
    // another, so footer flips are always unparseable — the property
    // test below covers arbitrary bit positions.)
    tiny.save(&model_path).unwrap();
    write_promoted(&epochs, 1, &model_path, None).unwrap();
    let pointer = epochs.join("promoted.cpdg");
    std::fs::remove_file(scrub::replica_path(&pointer, 1)).unwrap();

    let pointer_pristine = std::fs::read(&pointer).unwrap();
    for off in 0..pointer_pristine.len() {
        let mut bad = pointer_pristine.clone();
        bad[off] ^= 0x40;
        std::fs::write(&pointer, &bad).unwrap();
        let got = catch_unwind(AssertUnwindSafe(|| read_promoted(&epochs).map(|_| ())))
            .unwrap_or_else(|_| panic!("pointer flip at {off}: panicked"));
        assert!(got.is_err(), "pointer flip at {off} was followed");
    }
    std::fs::write(&pointer, &pointer_pristine).unwrap();

    let epoch_pristine = std::fs::read(&model_path).unwrap();
    for off in 0..epoch_pristine.len() {
        let mut bad = epoch_pristine.clone();
        bad[off] ^= 0x40;
        std::fs::write(&model_path, &bad).unwrap();
        let got = catch_unwind(AssertUnwindSafe(|| {
            ModelFile::load(&model_path).map(|_| ())
        }))
        .unwrap_or_else(|_| panic!("epoch flip at {off}: panicked"));
        assert!(got.is_err(), "epoch flip at {off} loaded");
    }
}

/// Satellite: every offset of a real sealed WAL checkpoint — exhaustive
/// in memory against the unsealer, strided on disk against the
/// checkpoint loader with the `.r1` copy deleted.
#[test]
fn every_single_byte_flip_of_a_sealed_checkpoint_is_refused() {
    let dir = test_dir("offsets_ckpt");
    let base = base_model(&dir);
    let wal_dir = dir.join("wal");
    let engine =
        Engine::from_model_file(&base, EngineConfig::default(), FaultHook::none()).unwrap();
    engine.open_wal(&wal_dir, tiny_segments()).unwrap();
    feed(&[&engine], &events(0, 8));
    assert!(engine.checkpoint_wal(&FS_STORAGE).unwrap().is_some());
    drop(engine);

    let path = wal_dir.join("checkpoint.cpdg");
    std::fs::remove_file(scrub::replica_path(&path, 1)).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    for off in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[off] ^= 0x40;
        let got = catch_unwind(AssertUnwindSafe(|| integrity::unseal(&bad, &path).is_err()))
            .unwrap_or_else(|_| panic!("checkpoint flip at {off}: panicked"));
        assert!(got, "checkpoint flip at {off} unsealed");
    }
    // Strided pass through the real loader (every offset would be pure
    // IO repetition; the in-memory pass above already covered them all).
    let stride = (pristine.len() / 197).max(1);
    for off in (0..pristine.len()).step_by(stride) {
        let mut bad = pristine.clone();
        bad[off] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let got = WalCheckpoint::load(&FS_STORAGE, &path).map(|_| ());
        assert!(got.is_err(), "checkpoint flip at {off} loaded");
    }
}

/// Satellite: every offset of a sealed (non-tail) WAL segment — with no
/// replica to heal from (each case directory gets the segment primaries
/// only), `Wal::open` must quarantine and refuse with a typed gap at
/// every flip position, never panic, never replay garbage.
#[test]
fn every_single_byte_flip_of_a_sealed_wal_segment_is_refused_never_replayed() {
    let dir = test_dir("offsets_seg");
    let src = dir.join("wal");
    {
        let mut w = Wal::open(&src, tiny_segments(), FaultHook::none()).unwrap();
        for i in 0..12u32 {
            w.append(format!("record-{i}").as_bytes()).unwrap();
        }
    }
    let mut names: Vec<String> = std::fs::read_dir(&src)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| scrub::classify(n) == Some(scrub::ArtifactClass::WalSegment))
        .collect();
    names.sort();
    assert!(
        names.len() >= 2,
        "need a sealed interior segment: {names:?}"
    );
    let interior = names[0].clone();
    let files: Vec<(String, Vec<u8>)> = names
        .iter()
        .map(|n| (n.clone(), std::fs::read(src.join(n)).unwrap()))
        .collect();
    let interior_bytes = std::fs::read(src.join(&interior)).unwrap();

    for off in 0..interior_bytes.len() {
        let case = dir.join(format!("case-{off}"));
        std::fs::create_dir_all(&case).unwrap();
        for (name, bytes) in &files {
            if *name == interior {
                let mut bad = bytes.clone();
                bad[off] ^= 0x40;
                std::fs::write(case.join(name), &bad).unwrap();
            } else {
                std::fs::write(case.join(name), bytes).unwrap();
            }
        }
        let got = catch_unwind(AssertUnwindSafe(|| {
            Wal::open(&case, tiny_segments(), FaultHook::none()).map(|_| ())
        }))
        .unwrap_or_else(|_| panic!("segment flip at {off}: panicked"));
        let err = match got {
            Err(e) => e,
            Ok(()) => panic!("segment flip at {off} opened cleanly"),
        };
        assert_eq!(err.exit_code(), 4, "segment flip at {off}: {err}");
        std::fs::remove_dir_all(&case).unwrap();
    }
}

/// For ANY payload (64 cases of 0..200 bytes) and ANY single-bit flip
/// of its sealed bytes, the unsealer refuses (typed) — a footer hex
/// letter with its case flipped included. Silently wrong bytes are
/// impossible.
#[test]
fn prop_single_bit_flips_of_sealed_bytes_never_yield_wrong_payload() {
    for_each_case(64, |rng| {
        let len = rng.index(0, 200);
        let payload = rng.bytes(len);
        let mut bad = integrity::seal(&payload);
        let off = rng.index(0, bad.len());
        bad[off] ^= 1 << rng.index(0, 8);
        assert!(
            integrity::unseal(&bad, Path::new("sealed.cpdg")).is_err(),
            "flip at {off}"
        );
    });
}
