//! Unified error type for the CPDG runtime.
//!
//! Replaces the ad-hoc `Result<_, String>` plumbing of model IO, pipeline
//! entry points, and the CLI with one typed enum, so callers (and the
//! process exit code) can distinguish "the disk failed" from "the model
//! file is corrupt" from "training diverged".

use crate::chaos::Fault;
use cpdg_dgnn::DivergenceReport;
use cpdg_graph::loader::LoadError;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Convenience alias used throughout `cpdg-core`.
pub type CpdgResult<T> = Result<T, CpdgError>;

/// Anything that can go wrong in the CPDG training/serving runtime.
#[derive(Debug)]
pub enum CpdgError {
    /// Underlying filesystem failure while touching `path`.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The OS-level error.
        source: io::Error,
    },
    /// A file exists but its contents are not a valid artifact — truncated
    /// JSON, wrong schema, mismatched shapes.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// A model/checkpoint file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this binary supports.
        expected: u32,
    },
    /// `--resume` was requested but the directory holds no valid checkpoint.
    NoCheckpoint {
        /// The checkpoint directory searched.
        dir: PathBuf,
    },
    /// The divergence watchdog exhausted its retry budget.
    Diverged(DivergenceReport),
    /// A graceful stop: the run's step budget for this invocation ran out
    /// before the stream was exhausted. Resume from the checkpoint
    /// directory to continue.
    Interrupted {
        /// Global steps completed when the run paused.
        step: usize,
        /// Total steps the full run comprises.
        total_steps: usize,
    },
    /// A data file and a model disagree on the node universe size.
    NodeCountMismatch {
        /// Nodes present in the data.
        data_nodes: usize,
        /// Nodes the model was built for.
        model_nodes: usize,
    },
    /// Dataset loading/parsing failed.
    Data(LoadError),
    /// Invalid arguments or configuration.
    Invalid(String),
    /// An input exceeded a configured resource guard (`--max-events`,
    /// `--max-nodes`) and was rejected before it could exhaust memory.
    ResourceLimit {
        /// Which guard tripped (`"events"` or `"nodes"`).
        what: &'static str,
        /// The configured ceiling.
        limit: usize,
        /// How many were seen when the guard tripped (a lower bound).
        seen: usize,
    },
    /// A chaos-injected fault survived every recovery attempt (retry
    /// budget exhausted, or a permanent fault at a non-storage point).
    Fault {
        /// Dotted fault-point name (`sampler.batch`, `ckpt.save`, …).
        point: String,
        /// Description of the injected fault.
        reason: String,
    },
    /// An artifact's CRC32 integrity footer does not match its payload:
    /// the bytes were silently altered after the atomic publish (bit rot,
    /// partial overwrite by a foreign tool). Distinct from [`Corrupt`]
    /// (unparseable contents) so operators know the file *was* valid once.
    ///
    /// [`Corrupt`]: CpdgError::Corrupt
    CorruptArtifact {
        /// The offending file.
        path: PathBuf,
        /// CRC32 recorded in the footer.
        expected: u32,
        /// CRC32 recomputed over the payload.
        found: u32,
    },
    /// The WAL's sealed segments are not a dense run of record indices: a
    /// segment was lost (quarantined with no good replica, or removed by a
    /// foreign tool), so replay would silently skip events. Refused rather
    /// than replayed — the gap names exactly which records are missing.
    WalGap {
        /// The WAL directory whose segment chain is broken.
        dir: PathBuf,
        /// First record index missing from the chain.
        expected: u64,
        /// Record index where the chain resumes.
        found: u64,
    },
    /// The process received SIGTERM/SIGINT and stopped gracefully after
    /// persisting a checkpoint. Resume from the checkpoint directory.
    Signalled {
        /// Signal number that triggered the stop (15 TERM, 2 INT).
        signal: i32,
        /// Global steps completed when the run stopped.
        step: usize,
    },
}

impl CpdgError {
    /// Wraps an IO error with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        CpdgError::Io {
            path: path.into(),
            source,
        }
    }

    /// Flags a corrupt artifact.
    pub fn corrupt(path: impl Into<PathBuf>, reason: impl Into<String>) -> Self {
        CpdgError::Corrupt {
            path: path.into(),
            reason: reason.into(),
        }
    }

    /// Process exit code for this error class, so scripts can branch on
    /// failure modes (`1` generic IO/data/injected-fault, `2` usage,
    /// `3` model/data mismatch, `4` corrupt/incompatible artifact,
    /// `5` divergence, `6` interrupted-resumable, `7` resource limit,
    /// `8` graceful signal stop).
    pub fn exit_code(&self) -> u8 {
        match self {
            CpdgError::Io { .. } | CpdgError::Data(_) | CpdgError::Fault { .. } => 1,
            CpdgError::Invalid(_) => 2,
            CpdgError::NodeCountMismatch { .. } => 3,
            CpdgError::Corrupt { .. }
            | CpdgError::CorruptArtifact { .. }
            | CpdgError::WalGap { .. }
            | CpdgError::VersionMismatch { .. }
            | CpdgError::NoCheckpoint { .. } => 4,
            CpdgError::Diverged(_) => 5,
            CpdgError::Interrupted { .. } => 6,
            CpdgError::ResourceLimit { .. } => 7,
            CpdgError::Signalled { .. } => 8,
        }
    }
}

impl fmt::Display for CpdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn disp(p: &Path) -> std::path::Display<'_> {
            p.display()
        }
        match self {
            CpdgError::Io { path, source } => write!(f, "io error on {}: {source}", disp(path)),
            CpdgError::Corrupt { path, reason } => {
                write!(f, "corrupt file {}: {reason}", disp(path))
            }
            CpdgError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "file format version {found} unsupported (expected {expected})"
                )
            }
            CpdgError::NoCheckpoint { dir } => {
                write!(f, "no valid checkpoint found in {}", disp(dir))
            }
            CpdgError::Diverged(report) => write!(f, "{report}"),
            CpdgError::Interrupted { step, total_steps } => write!(
                f,
                "run paused at step {step}/{total_steps}; resume from the checkpoint directory \
                 to continue"
            ),
            CpdgError::NodeCountMismatch {
                data_nodes,
                model_nodes,
            } => write!(
                f,
                "data has {data_nodes} nodes but the model was pre-trained for {model_nodes} — \
                 pre-train on the union id space first"
            ),
            CpdgError::Data(e) => write!(f, "data error: {e}"),
            CpdgError::Invalid(msg) => write!(f, "{msg}"),
            CpdgError::ResourceLimit { what, limit, seen } => write!(
                f,
                "resource limit exceeded: {what} limit {limit}, saw at least {seen}"
            ),
            CpdgError::Fault { point, reason } => {
                write!(f, "unrecovered injected fault at {point}: {reason}")
            }
            CpdgError::CorruptArtifact {
                path,
                expected,
                found,
            } => write!(
                f,
                "integrity check failed on {}: footer crc32 {expected:#010x}, payload crc32 \
                 {found:#010x}",
                disp(path)
            ),
            CpdgError::WalGap {
                dir,
                expected,
                found,
            } => write!(
                f,
                "WAL {} has a gap in its segment chain: records {expected}..{found} are \
                 missing (a segment was quarantined or removed); restore the segment or its \
                 replica, or start from a checkpoint that covers the gap",
                disp(dir)
            ),
            CpdgError::Signalled { signal, step } => write!(
                f,
                "stopped by signal {signal} at step {step} after checkpointing; resume from the \
                 checkpoint directory to continue"
            ),
        }
    }
}

impl std::error::Error for CpdgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CpdgError::Io { source, .. } => Some(source),
            CpdgError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LoadError> for CpdgError {
    fn from(e: LoadError) -> Self {
        match e {
            LoadError::ResourceLimit { what, limit, seen } => {
                CpdgError::ResourceLimit { what, limit, seen }
            }
            other => CpdgError::Data(other),
        }
    }
}

impl From<Fault> for CpdgError {
    fn from(f: Fault) -> Self {
        CpdgError::Fault {
            point: f.point.name().to_string(),
            reason: f.to_string(),
        }
    }
}

impl From<DivergenceReport> for CpdgError {
    fn from(r: DivergenceReport) -> Self {
        CpdgError::Diverged(r)
    }
}

impl From<String> for CpdgError {
    fn from(msg: String) -> Self {
        CpdgError::Invalid(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CpdgError::io(
            "/tmp/x.json",
            io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("/tmp/x.json"));
        let e = CpdgError::VersionMismatch {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = CpdgError::NodeCountMismatch {
            data_nodes: 10,
            model_nodes: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        let usage = CpdgError::Invalid("bad flag".into());
        let mismatch = CpdgError::NodeCountMismatch {
            data_nodes: 2,
            model_nodes: 1,
        };
        let corrupt = CpdgError::corrupt("/m.json", "truncated");
        assert_ne!(usage.exit_code(), mismatch.exit_code());
        assert_ne!(mismatch.exit_code(), corrupt.exit_code());
        assert_ne!(usage.exit_code(), corrupt.exit_code());
    }

    #[test]
    fn resource_limits_convert_and_get_their_own_exit_code() {
        let e: CpdgError = LoadError::ResourceLimit {
            what: "events",
            limit: 10,
            seen: 11,
        }
        .into();
        assert!(matches!(
            e,
            CpdgError::ResourceLimit {
                what: "events",
                limit: 10,
                seen: 11
            }
        ));
        assert_eq!(e.exit_code(), 7);
        assert!(e.to_string().contains("limit 10"), "{e}");
        // Other load errors still map to the Data class.
        let d: CpdgError = LoadError::Empty.into();
        assert!(matches!(d, CpdgError::Data(_)));
    }

    #[test]
    fn injected_faults_name_their_point() {
        let e = CpdgError::Fault {
            point: "sampler.batch".into(),
            reason: "boom".into(),
        };
        assert_eq!(e.exit_code(), 1);
        assert!(e.to_string().contains("sampler.batch"), "{e}");
    }

    #[test]
    fn checksum_and_signal_errors_have_distinct_codes() {
        let crc = CpdgError::CorruptArtifact {
            path: "/m.json".into(),
            expected: 0xDEAD_BEEF,
            found: 0x1234_5678,
        };
        assert_eq!(
            crc.exit_code(),
            4,
            "crc failures join the corrupt-artifact family"
        );
        assert!(crc.to_string().contains("0xdeadbeef"), "{crc}");
        assert!(crc.to_string().contains("/m.json"), "{crc}");
        let sig = CpdgError::Signalled {
            signal: 15,
            step: 7,
        };
        assert_eq!(sig.exit_code(), 8);
        assert!(sig.to_string().contains("signal 15"), "{sig}");
        assert!(sig.to_string().contains("step 7"), "{sig}");
    }

    #[test]
    fn string_errors_convert() {
        fn inner() -> CpdgResult<()> {
            Err("plain message".to_string())?;
            Ok(())
        }
        assert!(matches!(inner(), Err(CpdgError::Invalid(_))));
    }
}
