//! # cpdg-core
//!
//! CPDG — *Contrastive Pre-Training for Dynamic Graph Neural Networks*
//! (ICDE 2024) — implemented end-to-end:
//!
//! * the flexible **structural-temporal subgraph sampler** (η-BFS with
//!   chronological / reverse-chronological probabilities, ε-DFS) — §IV-A;
//! * **temporal and structural contrastive pre-training** with mean-pool
//!   readouts and triplet margin losses, plus the temporal-link-prediction
//!   pretext task, combined as `L_pre = (1−β)L_η + βL_ε + L_tlp` — §IV-B;
//! * **Evolution Information Enhanced (EIE) fine-tuning** from uniform
//!   memory checkpoints, with mean / attention / GRU fusions — §IV-C;
//! * one-call **pipelines** covering the paper's transfer settings and
//!   downstream tasks.
//!
//! ```no_run
//! use cpdg_core::pipeline::{run_link_prediction, PipelineConfig};
//! use cpdg_dgnn::EncoderKind;
//! use cpdg_graph::split::time_transfer;
//! use cpdg_graph::{generate, SyntheticConfig};
//!
//! let ds = generate(&SyntheticConfig::amazon_like(0));
//! let split = time_transfer(&ds.graph, 0.6).unwrap();
//! let cfg = PipelineConfig::cpdg(EncoderKind::Tgn).with_seed(0);
//! let res = run_link_prediction(&split, &cfg, false);
//! println!("AUC {:.4}  AP {:.4}", res.auc, res.ap);
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_macros)]

pub mod chaos;
pub mod checkpoint;
pub mod codec;
pub mod continual;
pub mod contrast;
pub mod eie;
pub mod error;
pub mod finetune;
pub mod integrity;
pub mod model_io;
pub mod objective;
pub mod pipeline;
pub mod pretrain;
pub mod sampler;
pub mod scrub;
pub mod storage;
pub mod wal;

pub use chaos::{
    load_jodie_chaos, Fault, FaultHook, FaultKind, FaultPlan, FaultPoint, FaultSpec, RetryPolicy,
    Trigger,
};
pub use checkpoint::{CheckpointConfig, CheckpointManager, TrainCheckpoint};
pub use continual::{
    slice_windows, validate_candidate, ContinualConfig, ContinualTrainer, CycleReport, EventWindow,
    GateConfig, GateReport, WindowConfig,
};
pub use eie::{EieFusion, EieModule};
pub use error::{CpdgError, CpdgResult};
pub use finetune::{FinetuneConfig, FinetuneStrategy, LinkPredResult};
pub use model_io::ModelFile;
pub use objective::CpdgObjective;
pub use pipeline::{PipelineConfig, PretrainMode};
pub use pretrain::{
    pretrain, pretrain_resumable, LossBreakdown, PretrainConfig, PretrainOutput, PretrainRuntime,
};
pub use scrub::{
    read_sealed_replicated, write_replicated, ArtifactClass, CycleReport as ScrubCycleReport,
    ReplicatedRead, ScrubConfig, Scrubber,
};
pub use storage::{Storage, FS_STORAGE};
pub use wal::{FsyncPolicy, RecoveryStats, Wal, WalCheckpoint, WalConfig};
