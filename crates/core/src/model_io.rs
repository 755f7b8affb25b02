//! On-disk model envelope: everything needed to reload a pre-trained CPDG
//! model for fine-tuning — encoder wiring, all parameters, and the EIE
//! memory checkpoints. Used by the `cpdg` CLI and directly loadable by
//! library consumers (see `examples/save_finetune.rs`).
//!
//! Saves are crash-safe: bytes are published through
//! [`Storage::write_atomic`] (temp sibling + fsync + rename), so a crash
//! mid-save leaves either the previous model file or the new one — never a
//! truncated hybrid. Loads return typed [`CpdgError`]s distinguishing
//! missing files, corrupt contents, and incompatible format versions. The
//! byte layout is [`crate::codec`]'s.

use crate::error::{CpdgError, CpdgResult};
use crate::storage::{Storage, FS_STORAGE};
use cpdg_dgnn::{DgnnConfig, MemorySnapshot};
use cpdg_tensor::ParamStore;
use std::path::Path;

/// Model bundle, saved in the [`crate::codec`] layout.
#[derive(Debug)]
pub struct ModelFile {
    /// Format version (bumped on breaking changes).
    pub version: u32,
    /// Encoder hyper-parameters (wiring + dims + time scale).
    pub encoder_config: DgnnConfig,
    /// Node universe size the encoder was built for.
    pub num_nodes: usize,
    /// All trainable parameters by name.
    pub params: ParamStore,
    /// EIE memory checkpoints captured during pre-training.
    pub checkpoints: Vec<MemorySnapshot>,
}

/// Current format version (1 was the JSON encoding).
pub const VERSION: u32 = 2;

impl ModelFile {
    /// Bundles a trained model.
    pub fn new(
        encoder_config: DgnnConfig,
        num_nodes: usize,
        params: ParamStore,
        checkpoints: Vec<MemorySnapshot>,
    ) -> Self {
        Self {
            version: VERSION,
            encoder_config,
            num_nodes,
            params,
            checkpoints,
        }
    }

    /// Writes the bundle via a crash-safe atomic publish.
    pub fn save(&self, path: &Path) -> CpdgResult<()> {
        self.save_with(&FS_STORAGE, path)
    }

    /// [`ModelFile::save`] through an explicit [`Storage`] (one holding a
    /// chaos plan's hook fails or tears the write).
    pub fn save_with(&self, storage: &Storage, path: &Path) -> CpdgResult<()> {
        let payload = crate::codec::encode_artifact(self);
        storage
            .write_atomic(path, &crate::integrity::seal(&payload))
            .map_err(|e| CpdgError::io(path, e))
    }

    /// Reads a bundle back, checking the version. Reads the primary only
    /// and verifies its CRC32 integrity footer; a file with no footer is
    /// refused like a checksum mismatch. A candidate epoch's `.r1` replica
    /// is healed by the scrubber, not here.
    pub fn load(path: &Path) -> CpdgResult<Self> {
        let bytes = FS_STORAGE.read(path).map_err(|e| CpdgError::io(path, e))?;
        let payload = crate::integrity::unseal(&bytes, path)?;
        crate::codec::decode_artifact(payload, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_artifact, encode_artifact, refused_payloads, to_bytes};
    use cpdg_dgnn::EncoderKind;
    use cpdg_tensor::Matrix;
    use std::path::PathBuf;

    /// `tiny_model`'s payload. Its parameter count sits at byte 56: after
    /// the 12-byte header, the 36-byte encoder config and the node count.
    fn model_payload() -> Vec<u8> {
        let payload = encode_artifact(&tiny_model());
        assert_eq!(payload[56..64], 1u64.to_le_bytes(), "one parameter");
        payload
    }

    /// A refusal is a typed corruption naming the file (exit 4).
    fn assert_refused<T: std::fmt::Debug>(loaded: CpdgResult<T>, file: &str, what: &str) {
        let err = loaded.expect_err(what);
        assert!(matches!(err, CpdgError::Corrupt { .. }), "{what}: {err}");
        assert_eq!(err.exit_code(), 4, "{what}");
        assert!(err.to_string().contains(file), "{what}: {err}");
    }

    fn tiny_model() -> ModelFile {
        let mut params = ParamStore::new();
        params.register("w", Matrix::from_rows(&[&[1.5, -0.5]]));
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 100.0);
        let snap = MemorySnapshot {
            states: Matrix::full(3, 8, 0.25),
            progress: 0.5,
        };
        ModelFile::new(cfg, 3, params, vec![snap])
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdg_model_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let dir = test_dir("round");
        let path = dir.join("model.json");
        let model = tiny_model();
        model.save(&path).unwrap();
        let back = ModelFile::load(&path).unwrap();
        assert_eq!(back.version, VERSION);
        assert_eq!(back.num_nodes, 3);
        assert_eq!(back.checkpoints.len(), 1);
        assert_eq!(back.params.len(), 1);
        let id = back.params.lookup("w").unwrap();
        assert_eq!(back.params.value(id), &Matrix::from_rows(&[&[1.5, -0.5]]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_rejected() {
        let dir = test_dir("version");
        let path = dir.join("bad.json");
        let mut model = tiny_model();
        model.version = 999;
        let payload = crate::codec::encode_artifact(&model);
        std::fs::write(&path, crate::integrity::seal(&payload)).unwrap();
        let err = ModelFile::load(&path).unwrap_err();
        assert!(matches!(
            err,
            CpdgError::VersionMismatch {
                found: 999,
                expected: VERSION
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ModelFile::load(Path::new("/nonexistent/cpdg/model.json")).unwrap_err();
        assert!(matches!(err, CpdgError::Io { .. }), "{err}");
    }

    #[test]
    fn truncated_json_is_corrupt_not_panic() {
        let dir = test_dir("truncated");
        let path = dir.join("model.json");
        tiny_model().save(&path).unwrap();
        // Chop the file mid-stream, as a torn legacy write would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert_refused(ModelFile::load(&path), "model.json", "torn file");
        // A payload cut short but sealed with a valid CRC.
        let [(what, short), ..] = refused_payloads(&model_payload(), 56);
        std::fs::write(&path, crate::integrity::seal(&short)).unwrap();
        assert_refused(ModelFile::load(&path), "model.json", what);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_json_is_corrupt() {
        let dir = test_dir("garbage");
        let path = dir.join("model.json");
        let garbage = crate::integrity::seal(b"{\"version\": \"not a number\"}");
        std::fs::write(&path, garbage).unwrap();
        assert_refused(ModelFile::load(&path), "model.json", "JSON text");

        // Every refused shape of the model file, re-sealed so only the
        // codec can catch it; then the same shapes of a training
        // checkpoint and the serving memory file.
        for (what, payload) in refused_payloads(&model_payload(), 56) {
            std::fs::write(&path, crate::integrity::seal(&payload)).unwrap();
            assert_refused(ModelFile::load(&path), "model.json", what);
        }
        let ckpt = crate::checkpoint::tests::dummy_checkpoint(7);
        let ckpt_path = dir.join("ckpt-00000007.json");
        // Header, then step, epoch and next_cp: the parameter count.
        for (what, payload) in refused_payloads(&encode_artifact(&ckpt), 36) {
            let loaded = decode_artifact::<crate::TrainCheckpoint>(&payload, &ckpt_path);
            assert_refused(loaded, "ckpt-00000007.json", what);
        }
        let memory = ckpt.encoder;
        let memory_path = dir.join("memory.cpdg");
        let pending_at = 12 + to_bytes(&memory.memory).len() + to_bytes(&memory.cell_state).len();
        for (what, payload) in refused_payloads(&encode_artifact(&memory), pending_at) {
            let loaded = decode_artifact::<cpdg_dgnn::EncoderState>(&payload, &memory_path);
            assert_refused(loaded, "memory.cpdg", what);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_checkpoint_bundle_round_trips() {
        let dir = test_dir("zerockpt");
        let path = dir.join("model.json");
        let mut model = tiny_model();
        model.checkpoints.clear();
        model.save(&path).unwrap();
        let back = ModelFile::load(&path).unwrap();
        assert!(back.checkpoints.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_files_carry_a_verified_crc_footer() {
        let dir = test_dir("crc");
        let path = dir.join("model.json");
        tiny_model().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(
            bytes.windows(8).any(|w| w == b"\n#crc32:"),
            "saved model must end with an integrity footer"
        );
        // A single flipped payload bit is caught before JSON parsing.
        let mut tampered = bytes.clone();
        tampered[10] ^= 0x01;
        std::fs::write(&path, &tampered).unwrap();
        let err = ModelFile::load(&path).unwrap_err();
        assert!(matches!(err, CpdgError::CorruptArtifact { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unfootered_model_is_refused_with_exit_4() {
        let dir = test_dir("unfootered");
        let path = dir.join("model.json");
        // A bare payload: exactly a sealed file cut at its footer.
        std::fs::write(&path, encode_artifact(&tiny_model())).unwrap();
        let err = ModelFile::load(&path).unwrap_err();
        assert!(matches!(err, CpdgError::Corrupt { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("model.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_residue_is_rejected_as_corrupt() {
        // Simulate a non-atomic writer dying mid-write directly on the
        // destination (the first 64 sealed bytes land), then prove the
        // loader flags it instead of parsing garbage or panicking.
        let dir = test_dir("torn");
        let path = dir.join("model.json");
        tiny_model().save(&path).unwrap();
        let sealed = std::fs::read(&path).unwrap();
        std::fs::write(&path, &sealed[..64]).unwrap();
        let err = ModelFile::load(&path).unwrap_err();
        assert!(matches!(err, CpdgError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
