//! Rotating crash-safe training checkpoints.
//!
//! A [`CheckpointManager`] snapshots the full pre-training state — encoder
//! memory, parameters, optimiser moments, divergence-guard posture, the
//! EIE checkpoint sequence collected so far, and the epoch/step cursor —
//! every N steps into a directory:
//!
//! ```text
//! <dir>/
//!   ckpt-00000050.json     # TrainCheckpoint at global step 50
//!   ckpt-00000100.json
//!   latest                 # name of the newest fully-published checkpoint
//! ```
//!
//! Every file is published with [`Storage::write_atomic`], so a crash at
//! any instant leaves the directory with only whole files. Loading walks
//! candidates newest-first and *skips* corrupt or truncated files with a
//! warning, landing on the newest checkpoint that actually parses.

use crate::chaos::{Fault, FaultPoint, RetryPolicy};
use crate::error::{CpdgError, CpdgResult};
use crate::pretrain::LossBreakdown;
use crate::storage::Storage;
use cpdg_dgnn::{EncoderState, MemorySnapshot, TrainGuard};
use cpdg_tensor::optim::Adam;
use cpdg_tensor::ParamStore;
use std::path::{Path, PathBuf};

/// Checkpoint format version (bumped on breaking changes; 1 was the JSON
/// encoding).
pub const CHECKPOINT_VERSION: u32 = 2;

/// Name of the newest-checkpoint pointer file.
pub const LATEST_FILE: &str = "latest";

/// Everything needed to continue a pre-training run from mid-stream,
/// saved in the [`crate::codec`] layout.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Format version.
    pub version: u32,
    /// Global steps (batches) completed.
    pub step: usize,
    /// Epoch the run was in when saved.
    pub epoch: usize,
    /// Next EIE checkpoint index to capture (1-based).
    pub next_cp: usize,
    /// All trainable parameters.
    pub params: ParamStore,
    /// Optimiser with moment state.
    pub opt: Adam,
    /// Encoder memory / cell state / pending messages.
    pub encoder: EncoderState,
    /// Divergence-guard posture (backoff scale, retry counters).
    pub guard: TrainGuard,
    /// EIE memory checkpoints captured so far.
    pub eie_checkpoints: Vec<MemorySnapshot>,
    /// Mean losses of fully completed epochs.
    pub epoch_losses: Vec<LossBreakdown>,
    /// Loss sums of the in-flight epoch.
    pub partial_sums: LossBreakdown,
    /// Healthy batches accumulated into `partial_sums`.
    pub partial_batches: usize,
}

/// Where and how often to checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint directory (created if missing).
    pub dir: PathBuf,
    /// Save every N global steps.
    pub every_n_steps: usize,
    /// Rotating window: how many checkpoint files to retain.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` every 50 steps, keeping the 3 newest files.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_n_steps: 50,
            keep: 3,
        }
    }
}

/// Writes rotating checkpoints through a [`Storage`]. Every publish and
/// candidate read runs under a [`RetryPolicy`] and consults the
/// `ckpt.save` / `ckpt.load` fault points of the storage's hook — inert
/// for [`FS_STORAGE`](crate::storage::FS_STORAGE).
pub struct CheckpointManager {
    cfg: CheckpointConfig,
    storage: Storage,
    retry: RetryPolicy,
}

fn checkpoint_file_name(step: usize) -> String {
    format!("ckpt-{step:08}.json")
}

fn is_checkpoint_file(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .map(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
        .unwrap_or(false)
}

impl CheckpointManager {
    /// Creates the checkpoint directory and a manager writing into it
    /// (default retry policy).
    pub fn new(cfg: CheckpointConfig, storage: &Storage) -> CpdgResult<Self> {
        Self::with_retry(cfg, storage, RetryPolicy::default())
    }

    /// Like [`CheckpointManager::new`], but with an explicit retry policy.
    pub fn with_retry(
        cfg: CheckpointConfig,
        storage: &Storage,
        retry: RetryPolicy,
    ) -> CpdgResult<Self> {
        storage
            .create_dir_all(&cfg.dir)
            .map_err(|e| CpdgError::io(&cfg.dir, e))?;
        Ok(Self {
            cfg,
            storage: storage.clone(),
            retry,
        })
    }

    /// The directory this manager writes into.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Whether a checkpoint is due after completing `step` global steps.
    pub fn should_save(&self, step: usize) -> bool {
        let every = self.cfg.every_n_steps.max(1);
        step > 0 && step.is_multiple_of(every)
    }

    /// Atomically publishes `ckpt`, updates the `latest` pointer, and
    /// prunes files beyond the rotation window. Returns the file written.
    pub fn save(&self, ckpt: &TrainCheckpoint) -> CpdgResult<PathBuf> {
        let _timer = cpdg_obs::span("checkpoint.save_us");
        let name = checkpoint_file_name(ckpt.step);
        let path = self.cfg.dir.join(&name);
        let bytes = crate::integrity::seal(&crate::codec::encode_artifact(ckpt));
        let latest = self.cfg.dir.join(LATEST_FILE);
        // The whole publish (data file + pointer) is one retryable unit:
        // re-running it after a transient fault is idempotent, and the
        // `ckpt.save` fault point is consulted once per attempt.
        self.retry
            .run(FaultPoint::CkptSave.name(), || {
                self.storage
                    .hook()
                    .check(FaultPoint::CkptSave)
                    .map_err(Fault::into_io)?;
                self.storage.write_atomic(&path, &bytes)?;
                self.storage.write_atomic(&latest, name.as_bytes())
            })
            .map_err(|e| CpdgError::io(&path, e))?;
        self.prune()?;
        cpdg_obs::counter!("checkpoint.saves").inc();
        cpdg_obs::debug!(
            "core.checkpoint",
            "checkpoint published";
            step = ckpt.step,
            bytes = bytes.len(),
        );
        Ok(path)
    }

    fn prune(&self) -> CpdgResult<()> {
        let mut files: Vec<PathBuf> = self
            .storage
            .list(&self.cfg.dir)
            .map_err(|e| CpdgError::io(&self.cfg.dir, e))?
            .into_iter()
            .filter(|p| is_checkpoint_file(p))
            .collect();
        // `list` sorts by name and the zero-padded step makes name order
        // equal step order; drop the oldest beyond the window.
        let keep = self.cfg.keep.max(1);
        while files.len() > keep {
            let victim = files.remove(0);
            self.storage
                .remove_file(&victim)
                .map_err(|e| CpdgError::io(&victim, e))?;
        }
        Ok(())
    }

    /// Loads the newest checkpoint in `dir` that parses and version-checks,
    /// skipping corrupt/truncated candidates with a structured warning on
    /// the `core.checkpoint` target (and a `checkpoint.load_skips` counter
    /// bump). Returns `Ok(None)` when the directory has no usable
    /// checkpoint.
    pub fn load_latest(
        storage: &Storage,
        dir: &Path,
    ) -> CpdgResult<Option<(TrainCheckpoint, PathBuf)>> {
        Self::load_latest_with(storage, dir, &RetryPolicy::default())
    }

    /// Like [`CheckpointManager::load_latest`], but candidate reads run
    /// under `retry` and consult the storage hook's `ckpt.load` fault
    /// point. A candidate whose read faults permanently is skipped like a
    /// corrupt file, so resume falls back to the next-newest checkpoint.
    pub fn load_latest_with(
        storage: &Storage,
        dir: &Path,
        retry: &RetryPolicy,
    ) -> CpdgResult<Option<(TrainCheckpoint, PathBuf)>> {
        let mut candidates: Vec<PathBuf> = Vec::new();
        // The pointer names the newest fully-published file; try it first.
        if let Ok(bytes) = storage.read(&dir.join(LATEST_FILE)) {
            if let Ok(name) = String::from_utf8(bytes) {
                let p = dir.join(name.trim());
                if is_checkpoint_file(&p) {
                    candidates.push(p);
                }
            }
        }
        let mut all: Vec<PathBuf> = match storage.list(dir) {
            Ok(files) => files
                .into_iter()
                .filter(|p| is_checkpoint_file(p))
                .collect(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(CpdgError::io(dir, e)),
        };
        all.reverse(); // newest first
        for p in all {
            if !candidates.contains(&p) {
                candidates.push(p);
            }
        }

        for path in candidates {
            match Self::load_one(storage, &path, retry) {
                Ok(ckpt) => return Ok(Some((ckpt, path))),
                Err(e) => {
                    cpdg_obs::counter!("checkpoint.load_skips").inc();
                    cpdg_obs::warn!(
                        "core.checkpoint",
                        "skipping unusable checkpoint";
                        path = path.display().to_string(),
                        error = e.to_string(),
                    );
                }
            }
        }
        Ok(None)
    }

    fn load_one(
        storage: &Storage,
        path: &Path,
        retry: &RetryPolicy,
    ) -> CpdgResult<TrainCheckpoint> {
        let bytes = retry
            .run(FaultPoint::CkptLoad.name(), || {
                storage
                    .hook()
                    .check(FaultPoint::CkptLoad)
                    .map_err(Fault::into_io)?;
                storage.read(path)
            })
            .map_err(|e| CpdgError::io(path, e))?;
        let payload = crate::integrity::unseal(&bytes, path)?;
        crate::codec::decode_artifact(payload, path)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chaos::FaultHook;
    use crate::codec::{Decode, Reader};
    use crate::storage::FS_STORAGE;
    use cpdg_dgnn::{GuardConfig, Memory};
    use cpdg_tensor::Matrix;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdg_ckpt_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The guard's state rides in every checkpoint, so it must survive the
    /// codec round trip.
    #[test]
    fn guard_state_round_trips_through_the_codec() {
        let mut g = TrainGuard::new(GuardConfig {
            max_retries: 4,
            ..GuardConfig::default()
        });
        g.inspect(0, 1.0, 1.0).unwrap();
        g.inspect(1, f32::NAN, 1.0).unwrap();
        let bytes = crate::codec::to_bytes(&g);
        let back: TrainGuard = Decode::decode(&mut Reader::new(&bytes)).expect("decode");
        assert_eq!(back.consecutive_bad(), g.consecutive_bad());
        assert_eq!(crate::codec::to_bytes(&back), bytes);
        assert_eq!(back.lr_scale(), g.lr_scale());
        assert_eq!(back.skipped(), g.skipped());
        assert_eq!(back.recent_losses(), g.recent_losses());
    }

    pub(crate) fn dummy_checkpoint(step: usize) -> TrainCheckpoint {
        let mut params = ParamStore::new();
        params.register("w", Matrix::full(1, 2, step as f32));
        TrainCheckpoint {
            version: CHECKPOINT_VERSION,
            step,
            epoch: 0,
            next_cp: 1,
            params,
            opt: Adam::new(1e-2),
            encoder: EncoderState {
                memory: Memory::new(3, 2),
                cell_state: None,
                pending: vec![(0, 1, 1.0)],
            },
            guard: TrainGuard::new(GuardConfig::default()),
            eie_checkpoints: vec![],
            epoch_losses: vec![],
            partial_sums: LossBreakdown::default(),
            partial_batches: 0,
        }
    }

    #[test]
    fn save_load_round_trip_and_latest_pointer() {
        let dir = test_dir("round");
        let mgr = CheckpointManager::new(CheckpointConfig::new(&dir), &FS_STORAGE).unwrap();
        mgr.save(&dummy_checkpoint(10)).unwrap();
        mgr.save(&dummy_checkpoint(20)).unwrap();
        let (ckpt, path) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.step, 20);
        assert!(path.ends_with("ckpt-00000020.json"));
        assert_eq!(ckpt.encoder.pending, vec![(0, 1, 1.0)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_keeps_only_newest_files() {
        let dir = test_dir("rotate");
        let cfg = CheckpointConfig {
            keep: 2,
            ..CheckpointConfig::new(&dir)
        };
        let mgr = CheckpointManager::new(cfg, &FS_STORAGE).unwrap();
        for step in [5, 10, 15, 20] {
            mgr.save(&dummy_checkpoint(step)).unwrap();
        }
        let files: Vec<PathBuf> = FS_STORAGE
            .list(&dir)
            .unwrap()
            .into_iter()
            .filter(|p| is_checkpoint_file(p))
            .collect();
        assert_eq!(files.len(), 2);
        assert!(files[0].ends_with("ckpt-00000015.json"));
        assert!(files[1].ends_with("ckpt-00000020.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_checkpoint_is_skipped() {
        let dir = test_dir("corrupt");
        let mgr = CheckpointManager::new(CheckpointConfig::new(&dir), &FS_STORAGE).unwrap();
        mgr.save(&dummy_checkpoint(10)).unwrap();
        mgr.save(&dummy_checkpoint(20)).unwrap();
        // Truncate the newest file (simulating torn residue from a crashed
        // legacy writer) — load must fall back to step 10.
        let newest = dir.join(checkpoint_file_name(20));
        let bytes = FS_STORAGE.read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (ckpt, _) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.step, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skipped_checkpoint_emits_structured_warning() {
        let dir = test_dir("warnlog");
        let mgr = CheckpointManager::new(CheckpointConfig::new(&dir), &FS_STORAGE).unwrap();
        mgr.save(&dummy_checkpoint(10)).unwrap();
        mgr.save(&dummy_checkpoint(20)).unwrap();
        let newest = dir.join(checkpoint_file_name(20));
        std::fs::write(&newest, b"{ definitely not json").unwrap();

        let cap = cpdg_obs::capture();
        let (ckpt, _) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.step, 10);
        // The skip must be observable: a warn record naming the file, not
        // an invisible stderr line.
        let warns: Vec<_> = cap
            .records_for("core.checkpoint")
            .into_iter()
            .filter(|r| {
                r.level == cpdg_obs::Level::Warn
                    && matches!(r.field("path"), Some(cpdg_obs::Json::Str(p))
                        if p.ends_with("ckpt-00000020.json"))
            })
            .collect();
        assert_eq!(warns.len(), 1, "{warns:?}");
        assert!(warns[0].message.contains("skipping unusable checkpoint"));
        assert!(warns[0].field("error").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_rotted_checkpoint_fails_crc_and_is_skipped() {
        let dir = test_dir("bitrot");
        let mgr = CheckpointManager::new(CheckpointConfig::new(&dir), &FS_STORAGE).unwrap();
        mgr.save(&dummy_checkpoint(10)).unwrap();
        mgr.save(&dummy_checkpoint(20)).unwrap();
        // Flip one payload bit in the newest file: still valid JSON shape is
        // possible, but the CRC footer catches it regardless.
        let newest = dir.join(checkpoint_file_name(20));
        let mut bytes = FS_STORAGE.read(&newest).unwrap();
        bytes[20] ^= 0x04;
        std::fs::write(&newest, &bytes).unwrap();
        let direct = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(
            direct.0.step, 10,
            "crc failure must fall back to older checkpoint"
        );
        // An un-footered checkpoint is refused like a CRC failure, even
        // when the latest pointer names it.
        let unfootered = dir.join(checkpoint_file_name(40));
        let payload = crate::codec::encode_artifact(&dummy_checkpoint(40));
        std::fs::write(&unfootered, &payload).unwrap();
        std::fs::write(dir.join(LATEST_FILE), b"ckpt-00000040.json").unwrap();
        let (ckpt, _) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.step, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_latest_pointer_to_pruned_file_recovers() {
        let dir = test_dir("stale_ptr");
        let mgr = CheckpointManager::new(CheckpointConfig::new(&dir), &FS_STORAGE).unwrap();
        mgr.save(&dummy_checkpoint(10)).unwrap();
        mgr.save(&dummy_checkpoint(20)).unwrap();
        // Simulate a crash window where pruning outran the pointer: `latest`
        // names a file that no longer exists.
        std::fs::write(dir.join(LATEST_FILE), b"ckpt-00000005.json").unwrap();
        let cap = cpdg_obs::capture();
        let (ckpt, path) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.step, 20, "must recover to the newest parseable file");
        assert!(path.ends_with("ckpt-00000020.json"));
        // The dangling pointer itself is reported as a skipped candidate.
        let warned_missing = cap.records_for("core.checkpoint").iter().any(|r| {
            matches!(r.field("path"), Some(cpdg_obs::Json::Str(p))
                if p.ends_with("ckpt-00000005.json"))
        });
        assert!(warned_missing, "dangling latest pointer should warn");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_is_skipped_like_corruption() {
        let dir = test_dir("version");
        let mgr = CheckpointManager::new(CheckpointConfig::new(&dir), &FS_STORAGE).unwrap();
        let mut bad = dummy_checkpoint(30);
        bad.version = 999;
        mgr.save(&bad).unwrap();
        mgr.save(&dummy_checkpoint(20)).unwrap();
        // Step 30 is newest but has an alien version: fall back to 20.
        let (ckpt, _) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.step, 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_directory_yields_none() {
        let dir = test_dir("empty");
        assert!(CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .is_none());
        FS_STORAGE.create_dir_all(&dir).unwrap();
        assert!(CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_save_fault_clears_on_retry() {
        use crate::chaos::{FaultKind, FaultPlan, Trigger};
        let dir = test_dir("chaos_save_transient");
        let plan = FaultPlan::new(0).with(
            FaultPoint::CkptSave,
            FaultKind::Transient,
            Trigger::Nth { n: 1 },
        );
        let hook = FaultHook::install(&plan);
        let mgr = CheckpointManager::with_retry(
            CheckpointConfig::new(&dir),
            &Storage::new(hook.clone()),
            RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 0,
                max_delay_ms: 0,
            },
        )
        .unwrap();
        mgr.save(&dummy_checkpoint(10)).unwrap();
        assert_eq!(hook.injected_at(FaultPoint::CkptSave), 1);
        let (ckpt, _) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.step, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_save_fault_fails_but_older_checkpoints_survive() {
        use crate::chaos::{FaultKind, FaultPlan, Trigger};
        let dir = test_dir("chaos_save_permanent");
        // First publish is clean; the second hits a permanent fault.
        let plan = FaultPlan::new(0).with(
            FaultPoint::CkptSave,
            FaultKind::Permanent,
            Trigger::Nth { n: 2 },
        );
        let mgr = CheckpointManager::with_retry(
            CheckpointConfig::new(&dir),
            &Storage::new(FaultHook::install(&plan)),
            RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 0,
                max_delay_ms: 0,
            },
        )
        .unwrap();
        mgr.save(&dummy_checkpoint(10)).unwrap();
        assert!(matches!(
            mgr.save(&dummy_checkpoint(20)),
            Err(CpdgError::Io { .. })
        ));
        // The crash left only whole files behind; step 10 still loads.
        let (ckpt, _) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.step, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulted_load_candidate_falls_back_to_older_checkpoint() {
        use crate::chaos::{FaultKind, FaultPlan, Trigger};
        let dir = test_dir("chaos_load_fallback");
        let mgr = CheckpointManager::new(CheckpointConfig::new(&dir), &FS_STORAGE).unwrap();
        mgr.save(&dummy_checkpoint(10)).unwrap();
        mgr.save(&dummy_checkpoint(20)).unwrap();
        // The newest candidate's read faults permanently on every attempt.
        let plan = FaultPlan::new(0).with(
            FaultPoint::CkptLoad,
            FaultKind::Permanent,
            Trigger::Nth { n: 1 },
        );
        let (ckpt, path) = CheckpointManager::load_latest_with(
            &Storage::new(FaultHook::install(&plan)),
            &dir,
            &RetryPolicy::none(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(ckpt.step, 10, "faulted newest read must fall back");
        assert!(path.ends_with("ckpt-00000010.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn should_save_respects_interval() {
        let dir = test_dir("interval");
        let cfg = CheckpointConfig {
            every_n_steps: 25,
            ..CheckpointConfig::new(&dir)
        };
        let mgr = CheckpointManager::new(cfg, &FS_STORAGE).unwrap();
        assert!(!mgr.should_save(0));
        assert!(!mgr.should_save(24));
        assert!(mgr.should_save(25));
        assert!(mgr.should_save(50));
        std::fs::remove_dir_all(&dir).ok();
    }
}
