//! The CPDG pre-trainer (paper §IV-B): chronological batch loop combining
//! the temporal-contrast, structural-contrast, and temporal-link-prediction
//! pretext losses under Eq. 17, with uniform memory checkpointing for the
//! EIE fine-tuning module (Eq. 18).
//!
//! Two entry points share one loop:
//!
//! - [`pretrain`] — the legacy infallible API: no persistence, poisoned
//!   steps are skipped forever (never a divergence error).
//! - [`pretrain_resumable`] — the fault-tolerant runtime: a
//!   [`TrainGuard`] watches every step for NaN/Inf losses and exploding
//!   gradients (skipping poisoned updates with learning-rate backoff and
//!   declaring [`CpdgError::Diverged`] once the retry budget is spent), and
//!   an optional [`CheckpointConfig`] snapshots the full training state
//!   every N steps through crash-safe atomic writes so an interrupted run
//!   continues from its newest valid checkpoint.
//!
//! Resume determinism: instead of one RNG threaded through the whole run,
//! each batch derives its RNG from `(cfg.seed, global step)`, so a resumed
//! run samples exactly the negatives/contrast paths the uninterrupted run
//! would have. Contrast subgraphs are drawn by a [`BatchSampler`] over the
//! graph's own time-sorted adjacency; per-centre RNG streams derive from
//! the batch seed.

use crate::chaos::{Fault, FaultHook, FaultPoint, RetryPolicy};
use crate::checkpoint::{CheckpointConfig, CheckpointManager, TrainCheckpoint, CHECKPOINT_VERSION};
use crate::contrast::structural::{structural_contrast_loss, StructuralContrastConfig};
use crate::contrast::temporal::{temporal_contrast_loss, TemporalContrastConfig};
use crate::error::{CpdgError, CpdgResult};
use crate::objective::CpdgObjective;
use crate::sampler::batch::BatchSampler;
use crate::storage::Storage;
use cpdg_dgnn::trainer::NegativeSampler;
use cpdg_dgnn::{train_step, DgnnEncoder, GuardConfig, LinkPredictor, MemorySnapshot, TrainGuard};
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};
use cpdg_tensor::loss::link_prediction_loss;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pre-training hyper-parameters.
#[derive(Debug, Clone)]
pub struct PretrainConfig {
    /// Events per batch.
    pub batch_size: usize,
    /// Passes over the pre-training stream.
    pub epochs: usize,
    /// Objective weights/toggles (Eq. 17).
    pub objective: CpdgObjective,
    /// Temporal-contrast settings.
    pub tc: TemporalContrastConfig,
    /// Structural-contrast settings.
    pub sc: StructuralContrastConfig,
    /// Maximum contrast centre nodes per batch (bounds sampling cost; the
    /// paper's Monte-Carlo batching trick, §IV-D).
    pub contrast_centers: usize,
    /// Number of uniformly spaced memory checkpoints `l` to record
    /// (paper default 10).
    pub n_checkpoints: usize,
    /// Gradient clipping (global L2).
    pub grad_clip: f32,
    /// Seed for sampling.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self {
            batch_size: 200,
            epochs: 1,
            objective: CpdgObjective::default(),
            tc: TemporalContrastConfig::default(),
            sc: StructuralContrastConfig::default(),
            contrast_centers: 24,
            n_checkpoints: 10,
            grad_clip: 5.0,
            seed: 0,
        }
    }
}

/// Per-epoch loss breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct LossBreakdown {
    /// Temporal link prediction pretext (Eq. 16).
    pub tlp: f32,
    /// Temporal contrast (Eq. 11).
    pub tc: f32,
    /// Structural contrast (Eq. 14).
    pub sc: f32,
    /// Combined objective (Eq. 17).
    pub total: f32,
}

/// Fault-tolerance policy for [`pretrain_resumable`]: divergence guarding,
/// checkpoint persistence, resume, and an optional step budget.
pub struct PretrainRuntime<'s> {
    /// Divergence watchdog thresholds and backoff policy.
    pub guard: GuardConfig,
    /// Where/how often to checkpoint; `None` disables persistence.
    pub checkpoint: Option<CheckpointConfig>,
    /// Continue from the newest valid checkpoint in `checkpoint.dir`
    /// instead of starting fresh.
    pub resume: bool,
    /// Stop with [`CpdgError::Interrupted`] after this many steps *in this
    /// invocation* (used by kill-and-resume tests and time-boxed jobs).
    pub step_limit: Option<usize>,
    /// Fault-injection hook (inert by default). When a plan is installed,
    /// `storage.*`, `sampler.batch`, `memory.update`, and `ckpt.*` fault
    /// points are consulted throughout the run; checkpoints go through a
    /// [`Storage`] holding this hook.
    pub chaos: FaultHook,
    /// Retry policy for storage/checkpoint I/O and transient injected
    /// faults.
    pub retry: RetryPolicy,
    /// Cooperative stop flag, polled between batches. When it becomes
    /// non-zero (conventionally the signal number a handler stored), the
    /// loop publishes a final checkpoint and returns
    /// [`CpdgError::Signalled`] — the graceful-SIGTERM path of
    /// `cpdg pretrain`.
    pub stop: Option<&'s std::sync::atomic::AtomicI32>,
}

impl Default for PretrainRuntime<'static> {
    fn default() -> Self {
        Self {
            guard: GuardConfig::default(),
            checkpoint: None,
            resume: false,
            step_limit: None,
            chaos: FaultHook::none(),
            retry: RetryPolicy::default(),
            stop: None,
        }
    }
}

/// Artifacts of a pre-training run.
#[derive(Debug)]
pub struct PretrainOutput {
    /// The `l` uniformly spaced memory checkpoints `[S^1, …, S^l]`.
    pub checkpoints: Vec<MemorySnapshot>,
    /// Mean loss breakdown per epoch (healthy batches only).
    pub epoch_losses: Vec<LossBreakdown>,
    /// Poisoned steps the divergence guard skipped.
    pub skipped_steps: usize,
}

/// Decorrelates the structural-contrast stream from the temporal-contrast
/// stream of the same batch (both derive from [`batch_seed`]).
const SC_STREAM_SALT: u64 = 0x5343_5343_5343_5343;

/// The deterministic seed of batch `step` under run seed `seed`
/// (golden-ratio mixing). Resumed runs replay the exact sampling sequence,
/// and the batched contrast samplers derive per-query streams from it.
fn batch_seed(seed: u64, step: usize) -> u64 {
    seed ^ (step as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The per-batch RNG: a deterministic function of the run seed and the
/// global step, so resumed runs replay the exact sampling sequence.
fn batch_rng(seed: u64, step: usize) -> StdRng {
    StdRng::seed_from_u64(batch_seed(seed, step))
}

/// Pre-trains `(encoder, head)` with the CPDG objective over `graph`.
///
/// The encoder's memory is reset at each epoch; checkpoints are captured
/// uniformly across the whole run (all epochs) so the sequence reflects the
/// full evolution of pre-training, and the final state is always the last
/// checkpoint.
///
/// This entry point is infallible: it never persists anything and skips
/// poisoned steps indefinitely instead of erroring. Use
/// [`pretrain_resumable`] for crash-safe, divergence-bounded runs.
pub fn pretrain(
    encoder: &mut DgnnEncoder,
    head: &LinkPredictor,
    store: &mut ParamStore,
    opt: &mut Adam,
    graph: &DynamicGraph,
    cfg: &PretrainConfig,
) -> PretrainOutput {
    let runtime = PretrainRuntime {
        guard: GuardConfig::never_diverge(),
        ..PretrainRuntime::default()
    };
    pretrain_resumable(encoder, head, store, opt, graph, cfg, &runtime)
        .expect("guard never diverges and no storage is touched")
}

/// Fault-tolerant pre-training: divergence-guarded, optionally checkpointed
/// every N steps, optionally resuming from the newest valid checkpoint.
///
/// On resume, `(encoder, head, store, opt)` must be freshly built with the
/// same architecture/seed as the original run; parameters, optimiser
/// moments, encoder memory, guard posture, and the epoch/step cursor are
/// then restored from the checkpoint.
///
/// # Errors
/// - [`CpdgError::Diverged`] when the guard's consecutive-failure budget is
///   exhausted (partial progress is still in the last saved checkpoint).
/// - [`CpdgError::Interrupted`] when `step_limit` pauses the run mid-stream.
/// - [`CpdgError::NoCheckpoint`] when `resume` finds nothing usable.
/// - IO/corruption errors from checkpoint persistence.
#[allow(clippy::too_many_lines)]
pub fn pretrain_resumable(
    encoder: &mut DgnnEncoder,
    head: &LinkPredictor,
    store: &mut ParamStore,
    opt: &mut Adam,
    graph: &DynamicGraph,
    cfg: &PretrainConfig,
    runtime: &PretrainRuntime<'_>,
) -> CpdgResult<PretrainOutput> {
    let sampler = NegativeSampler::from_graph(graph);
    let negative_pool: Vec<NodeId> = graph.active_nodes();
    let contrast_sampler = BatchSampler::new(graph);

    let batch_size = cfg.batch_size.max(1);
    let n_batches = graph.events().chunks(batch_size).count();
    let total_steps = (cfg.epochs * n_batches).max(1);
    let l = cfg.n_checkpoints.max(1);

    let storage = Storage::new(runtime.chaos.clone());
    // A non-storage fault point (sampler.batch / memory.update) raising a
    // transient fault is retried by re-consulting the point — the hit
    // counter advances, so an `nth`-triggered fault clears itself.
    // Unrecovered faults surface as typed `CpdgError::Fault`s.
    let consult = |point: FaultPoint| -> CpdgResult<()> {
        if !runtime.chaos.is_active() {
            return Ok(());
        }
        runtime
            .retry
            .run(point.name(), || {
                runtime.chaos.check(point).map_err(Fault::into_io)
            })
            .map_err(|e| CpdgError::Fault {
                point: point.name().into(),
                reason: e.to_string(),
            })
    };

    let manager = match &runtime.checkpoint {
        Some(c) => Some(CheckpointManager::with_retry(
            c.clone(),
            &storage,
            runtime.retry,
        )?),
        None => None,
    };

    let mut guard = TrainGuard::new(runtime.guard.clone());
    let mut next_cp = 1usize;
    let mut step = 0usize; // global steps completed (across epochs)
    let mut start_epoch = 0usize;
    let mut skip_batches = 0usize;
    let mut checkpoints: Vec<MemorySnapshot> = Vec::with_capacity(l);
    let mut epoch_losses: Vec<LossBreakdown> = Vec::with_capacity(cfg.epochs);
    let mut sums = LossBreakdown::default();
    let mut batches = 0usize;
    let mut resumed = false;

    if runtime.resume {
        let dir = runtime
            .checkpoint
            .as_ref()
            .map(|c| c.dir.clone())
            .ok_or_else(|| CpdgError::Invalid("resume requires a checkpoint directory".into()))?;
        let (ckpt, path) = CheckpointManager::load_latest_with(&storage, &dir, &runtime.retry)?
            .ok_or(CpdgError::NoCheckpoint { dir })?;

        let copied = store
            .load_matching(&ckpt.params)
            .map_err(|e| CpdgError::corrupt(&path, e.to_string()))?;
        if copied != store.len() {
            return Err(CpdgError::corrupt(
                &path,
                format!(
                    "checkpoint covers {copied} of {} model parameters",
                    store.len()
                ),
            ));
        }
        encoder
            .restore_state(ckpt.encoder)
            .map_err(|e| CpdgError::corrupt(&path, e))?;
        *opt = ckpt.opt;
        guard = ckpt.guard;
        checkpoints = ckpt.eie_checkpoints;
        epoch_losses = ckpt.epoch_losses;
        sums = ckpt.partial_sums;
        batches = ckpt.partial_batches;
        step = ckpt.step;
        next_cp = ckpt.next_cp;
        start_epoch = ckpt.epoch;
        skip_batches = step
            .checked_sub(start_epoch.saturating_mul(n_batches))
            .filter(|s| *s <= n_batches && step <= total_steps)
            .ok_or_else(|| {
                CpdgError::corrupt(&path, "epoch/step cursor inconsistent with this dataset")
            })?;
        resumed = true;
        cpdg_obs::info!(
            "core.pretrain",
            "resuming pre-training from checkpoint";
            path = path.display().to_string(),
            step = step,
            total_steps = total_steps,
            epoch = start_epoch,
        );
    }

    let mut steps_this_run = 0usize;

    for epoch in start_epoch..cfg.epochs {
        let continuing = resumed && epoch == start_epoch;
        if !continuing {
            encoder.reset_state();
            sums = LossBreakdown::default();
            batches = 0;
        }
        let to_skip = if continuing { skip_batches } else { 0 };
        let counters_at_epoch_start = cpdg_obs::counters_snapshot();
        let step_at_epoch_start = step;
        let epoch_started = std::time::Instant::now();

        for (batch_idx, chunk) in graph.events().chunks(batch_size).enumerate() {
            if batch_idx < to_skip {
                continue;
            }
            if let Some(limit) = runtime.step_limit {
                if steps_this_run >= limit {
                    return Err(CpdgError::Interrupted { step, total_steps });
                }
            }
            if let Some(flag) = runtime.stop {
                let signal = flag.load(std::sync::atomic::Ordering::Relaxed);
                if signal != 0 {
                    // Publish the state reached so far, then stop with the
                    // typed graceful-signal error (exit code 8). The save
                    // is best-effort ordered before the return so `--resume`
                    // continues from this exact batch boundary.
                    if let Some(mgr) = &manager {
                        mgr.save(&TrainCheckpoint {
                            version: CHECKPOINT_VERSION,
                            step,
                            epoch,
                            next_cp,
                            params: store.clone(),
                            opt: opt.clone(),
                            encoder: encoder.export_state(),
                            guard: guard.clone(),
                            eie_checkpoints: checkpoints.clone(),
                            epoch_losses: epoch_losses.clone(),
                            partial_sums: sums,
                            partial_batches: batches,
                        })?;
                    }
                    cpdg_obs::info!(
                        "core.pretrain",
                        "stopping gracefully on signal";
                        signal = signal,
                        step = step,
                        total_steps = total_steps,
                    );
                    return Err(CpdgError::Signalled { signal, step });
                }
            }
            let _step_timer = cpdg_obs::span("pretrain.step_us");
            consult(FaultPoint::SamplerBatch)?;
            let mut rng = batch_rng(cfg.seed, step);

            let mut tape = Tape::new();
            let ctx = encoder.apply_pending(&mut tape, store, graph);

            let srcs: Vec<NodeId> = chunk.iter().map(|e| e.src).collect();
            let dsts: Vec<NodeId> = chunk.iter().map(|e| e.dst).collect();
            let times: Vec<Timestamp> = chunk.iter().map(|e| e.t).collect();
            let negs: Vec<NodeId> = chunk.iter().map(|_| sampler.sample(&mut rng)).collect();

            let z_src = encoder.embed_many(&mut tape, store, &ctx, graph, &srcs, &times);
            let z_dst = encoder.embed_many(&mut tape, store, &ctx, graph, &dsts, &times);
            let z_neg = encoder.embed_many(&mut tape, store, &ctx, graph, &negs, &times);

            // Pretext: temporal link prediction (Eq. 16).
            let pos_logits = head.score(&mut tape, store, z_src, z_dst);
            let neg_logits = head.score(&mut tape, store, z_src, z_neg);
            let tlp = link_prediction_loss(&mut tape, pos_logits, neg_logits);

            // Contrast centres: the first occurrences of distinct sources
            // in the batch, capped at `contrast_centers`.
            let mut center_rows: Vec<usize> = Vec::new();
            let mut seen: Vec<NodeId> = Vec::new();
            for (row, &s) in srcs.iter().enumerate() {
                if !seen.contains(&s) {
                    seen.push(s);
                    center_rows.push(row);
                    if center_rows.len() >= cfg.contrast_centers {
                        break;
                    }
                }
            }
            let centers: Vec<(NodeId, Timestamp)> =
                center_rows.iter().map(|&r| (srcs[r], times[r])).collect();

            let (tc_loss, sc_loss) = if centers.is_empty() {
                (None, None)
            } else {
                let z_centers = tape.gather_rows(z_src, &center_rows);
                let bseed = batch_seed(cfg.seed, step);
                let tc = cfg.objective.use_tc.then(|| {
                    temporal_contrast_loss(
                        &mut tape,
                        encoder,
                        store,
                        &contrast_sampler,
                        &centers,
                        z_centers,
                        &cfg.tc,
                        bseed,
                    )
                });
                let sc = cfg.objective.use_sc.then(|| {
                    structural_contrast_loss(
                        &mut tape,
                        encoder,
                        store,
                        &contrast_sampler,
                        &centers,
                        z_centers,
                        &negative_pool,
                        &cfg.sc,
                        bseed ^ SC_STREAM_SALT,
                    )
                });
                (tc, sc)
            };

            let total = cfg.objective.combine(&mut tape, tlp, tc_loss, sc_loss);

            match train_step(&tape, total, cfg.grad_clip, Some((&mut guard, step))) {
                Ok(Some(update)) => {
                    consult(FaultPoint::MemoryUpdate)?;
                    update.apply(opt, store);
                    encoder.commit(&tape, ctx, chunk);

                    sums.tlp += tape.value(tlp).get(0, 0);
                    sums.tc += tc_loss.map(|v| tape.value(v).get(0, 0)).unwrap_or(0.0);
                    sums.sc += sc_loss.map(|v| tape.value(v).get(0, 0)).unwrap_or(0.0);
                    sums.total += tape.value(total).get(0, 0);
                    batches += 1;
                }
                Ok(None) => {
                    // Drop gradients and state writes, but keep chronology:
                    // the batch's events still become pending messages.
                    encoder.skip_commit(chunk);
                }
                Err(report) => return Err(CpdgError::Diverged(report)),
            }

            // Uniform checkpointing across the full run (Eq. 18's [S^1…S^l]).
            step += 1;
            steps_this_run += 1;
            while next_cp <= l && step * l >= next_cp * total_steps {
                checkpoints.push(encoder.memory.snapshot(step as f64 / total_steps as f64));
                next_cp += 1;
            }

            if let Some(mgr) = &manager {
                if mgr.should_save(step) {
                    mgr.save(&TrainCheckpoint {
                        version: CHECKPOINT_VERSION,
                        step,
                        epoch,
                        next_cp,
                        params: store.clone(),
                        opt: opt.clone(),
                        encoder: encoder.export_state(),
                        guard: guard.clone(),
                        eie_checkpoints: checkpoints.clone(),
                        epoch_losses: epoch_losses.clone(),
                        partial_sums: sums,
                        partial_batches: batches,
                    })?;
                }
            }
        }

        let inv = 1.0 / batches.max(1) as f32;
        let eb = LossBreakdown {
            tlp: sums.tlp * inv,
            tc: sums.tc * inv,
            sc: sums.sc * inv,
            total: sums.total * inv,
        };
        epoch_losses.push(eb);

        // One metric record per epoch: losses, throughput, and how far
        // every counter moved during the epoch (run directories persist
        // these to metrics.jsonl; see cpdg-obs).
        let epoch_secs = epoch_started.elapsed().as_secs_f64();
        let epoch_steps = step - step_at_epoch_start;
        let mut fields: Vec<(String, cpdg_obs::Value)> = vec![
            ("epoch".into(), (epoch as u64).into()),
            ("loss_tlp".into(), eb.tlp.into()),
            ("loss_tc".into(), eb.tc.into()),
            ("loss_sc".into(), eb.sc.into()),
            ("loss_total".into(), eb.total.into()),
            ("batches".into(), batches.into()),
            ("steps".into(), epoch_steps.into()),
            ("secs".into(), epoch_secs.into()),
            (
                "steps_per_sec".into(),
                (epoch_steps as f64 / epoch_secs.max(1e-9)).into(),
            ),
        ];
        for (name, delta) in cpdg_obs::counter_deltas(&counters_at_epoch_start) {
            fields.push((format!("d_{name}"), delta.into()));
        }
        cpdg_obs::emit_metrics("pretrain_epoch", fields);
    }

    // Terminal checkpoint so a completed run is also its own snapshot.
    if let Some(mgr) = &manager {
        mgr.save(&TrainCheckpoint {
            version: CHECKPOINT_VERSION,
            step,
            epoch: cfg.epochs,
            next_cp,
            params: store.clone(),
            opt: opt.clone(),
            encoder: encoder.export_state(),
            guard: guard.clone(),
            eie_checkpoints: checkpoints.clone(),
            epoch_losses: epoch_losses.clone(),
            partial_sums: LossBreakdown::default(),
            partial_batches: 0,
        })?;
    }

    Ok(PretrainOutput {
        checkpoints,
        epoch_losses,
        skipped_steps: guard.skipped(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FS_STORAGE;
    use cpdg_dgnn::{DgnnConfig, EncoderKind};
    use cpdg_graph::{generate, SyntheticConfig};
    use rand::SeedableRng;

    fn tiny_dataset(seed: u64) -> cpdg_graph::SyntheticDataset {
        generate(
            &SyntheticConfig {
                n_events: 800,
                ..SyntheticConfig::amazon_like(seed)
            }
            .scaled(0.12),
        )
    }

    fn build(num_nodes: usize, seed: u64) -> (ParamStore, DgnnEncoder, LinkPredictor) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, 16, 10_000.0);
        let enc = DgnnEncoder::new(&mut store, &mut rng, "enc", num_nodes, cfg);
        let head = LinkPredictor::new(&mut store, &mut rng, "head", 16);
        (store, enc, head)
    }

    #[test]
    fn produces_requested_checkpoints() {
        let ds = tiny_dataset(0);
        let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 0);
        let mut opt = Adam::new(1e-2);
        let cfg = PretrainConfig {
            epochs: 2,
            n_checkpoints: 5,
            batch_size: 100,
            ..Default::default()
        };
        let out = pretrain(&mut enc, &head, &mut store, &mut opt, &ds.graph, &cfg);
        assert_eq!(out.checkpoints.len(), 5);
        // Progress stamps increase and end at 1.0.
        let p: Vec<f64> = out.checkpoints.iter().map(|c| c.progress).collect();
        assert!(p.windows(2).all(|w| w[0] <= w[1]), "{p:?}");
        assert!((p.last().unwrap() - 1.0).abs() < 1e-9);
        // Later checkpoints contain non-trivial state.
        assert!(out.checkpoints.last().unwrap().states.frobenius_norm() > 0.0);
        assert_eq!(out.skipped_steps, 0, "healthy run skips nothing");
    }

    #[test]
    fn loss_breakdown_populated_and_finite() {
        let ds = tiny_dataset(1);
        let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 1);
        let mut opt = Adam::new(1e-2);
        let cfg = PretrainConfig {
            epochs: 1,
            batch_size: 100,
            ..Default::default()
        };
        let out = pretrain(&mut enc, &head, &mut store, &mut opt, &ds.graph, &cfg);
        let e = &out.epoch_losses[0];
        for v in [e.tlp, e.tc, e.sc, e.total] {
            assert!(v.is_finite() && v >= 0.0, "{e:?}");
        }
        assert!(e.tc > 0.0, "TC term should be active");
        assert!(e.sc > 0.0, "SC term should be active");
        // Eq. 17 consistency (up to float error):
        let recon = e.tlp + (1.0 - cfg.objective.beta) * e.tc + cfg.objective.beta * e.sc;
        assert!((recon - e.total).abs() < 1e-3, "{recon} vs {}", e.total);
    }

    #[test]
    fn ablation_toggles_zero_their_terms() {
        let ds = tiny_dataset(2);
        let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 2);
        let mut opt = Adam::new(1e-2);
        let mut cfg = PretrainConfig {
            epochs: 1,
            batch_size: 100,
            ..Default::default()
        };
        cfg.objective.use_tc = false;
        let out = pretrain(&mut enc, &head, &mut store, &mut opt, &ds.graph, &cfg);
        assert_eq!(out.epoch_losses[0].tc, 0.0);
        assert!(out.epoch_losses[0].sc > 0.0);
    }

    #[test]
    fn multi_epoch_loss_decreases() {
        let ds = tiny_dataset(3);
        let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 3);
        let mut opt = Adam::new(2e-2);
        let cfg = PretrainConfig {
            epochs: 4,
            batch_size: 100,
            ..Default::default()
        };
        let out = pretrain(&mut enc, &head, &mut store, &mut opt, &ds.graph, &cfg);
        let first = out.epoch_losses.first().unwrap().total;
        let last = out.epoch_losses.last().unwrap().total;
        assert!(last < first, "pretrain loss should drop: {first} → {last}");
    }

    #[test]
    fn zero_explosion_threshold_freezes_parameters() {
        // A guard that poisons every step (any finite grad norm > 0.0 trips
        // the explosion check) must leave parameters bit-identical.
        let ds = tiny_dataset(4);
        let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 4);
        let before = crate::codec::to_bytes(&store);
        let mut opt = Adam::new(1e-2);
        let cfg = PretrainConfig {
            epochs: 1,
            batch_size: 200,
            ..Default::default()
        };
        let runtime = PretrainRuntime {
            guard: GuardConfig {
                max_grad_norm: 0.0,
                max_retries: usize::MAX,
                ..GuardConfig::default()
            },
            ..PretrainRuntime::default()
        };
        let out = pretrain_resumable(
            &mut enc, &head, &mut store, &mut opt, &ds.graph, &cfg, &runtime,
        )
        .expect("never-diverging guard cannot fail");
        assert!(out.skipped_steps > 0);
        assert_eq!(
            crate::codec::to_bytes(&store),
            before,
            "skipped steps must not touch parameters"
        );
        // No healthy batches → epoch loss reads zero, not NaN.
        assert_eq!(out.epoch_losses[0].total, 0.0);
    }

    #[test]
    fn step_limit_interrupts_with_cursor() {
        let ds = tiny_dataset(5);
        let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 5);
        let mut opt = Adam::new(1e-2);
        let cfg = PretrainConfig {
            epochs: 1,
            batch_size: 100,
            ..Default::default()
        };
        // Stop one step before the run's end, whatever the dataset's size.
        let steps = ds.graph.num_events().div_ceil(cfg.batch_size);
        assert!(
            steps >= 2,
            "the run is too short to interrupt ({steps} steps)"
        );
        let runtime = PretrainRuntime {
            step_limit: Some(steps - 1),
            ..PretrainRuntime::default()
        };
        let err = pretrain_resumable(
            &mut enc, &head, &mut store, &mut opt, &ds.graph, &cfg, &runtime,
        )
        .unwrap_err();
        match err {
            CpdgError::Interrupted { step, total_steps } => {
                assert_eq!((step, total_steps), (steps - 1, steps));
            }
            other => panic!("expected Interrupted, got {other}"),
        }
    }

    #[test]
    fn stop_flag_checkpoints_then_surfaces_signalled() {
        use std::sync::atomic::{AtomicI32, Ordering};
        let ds = tiny_dataset(7);
        let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 7);
        let mut opt = Adam::new(1e-2);
        let cfg = PretrainConfig {
            epochs: 1,
            batch_size: 100,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join(format!("cpdg_sigstop_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // The flag is already set when the loop starts: the very first
        // batch boundary must checkpoint and stop.
        let flag = AtomicI32::new(15);
        let runtime = PretrainRuntime {
            checkpoint: Some(CheckpointConfig::new(&dir)),
            stop: Some(&flag),
            ..PretrainRuntime::default()
        };
        let err = pretrain_resumable(
            &mut enc, &head, &mut store, &mut opt, &ds.graph, &cfg, &runtime,
        )
        .unwrap_err();
        match err {
            CpdgError::Signalled { signal, step } => {
                assert_eq!(signal, 15);
                assert_eq!(step, 0);
            }
            other => panic!("expected Signalled, got {other}"),
        }
        // A checkpoint was published before exiting; resuming with the flag
        // cleared completes the run.
        let (ckpt, _) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.step, 0);
        flag.store(0, Ordering::Relaxed);
        let (mut store2, mut enc2, head2) = build(ds.graph.num_nodes(), 7);
        let mut opt2 = Adam::new(1e-2);
        let runtime2 = PretrainRuntime {
            checkpoint: Some(CheckpointConfig::new(&dir)),
            resume: true,
            stop: Some(&flag),
            ..PretrainRuntime::default()
        };
        pretrain_resumable(
            &mut enc2,
            &head2,
            &mut store2,
            &mut opt2,
            &ds.graph,
            &cfg,
            &runtime2,
        )
        .expect("cleared flag resumes and completes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_checkpoints_is_a_typed_error() {
        let ds = tiny_dataset(6);
        let (mut store, mut enc, head) = build(ds.graph.num_nodes(), 6);
        let mut opt = Adam::new(1e-2);
        let cfg = PretrainConfig {
            epochs: 1,
            batch_size: 100,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join(format!("cpdg_noresume_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let runtime = PretrainRuntime {
            checkpoint: Some(CheckpointConfig::new(&dir)),
            resume: true,
            ..PretrainRuntime::default()
        };
        let err = pretrain_resumable(
            &mut enc, &head, &mut store, &mut opt, &ds.graph, &cfg, &runtime,
        )
        .unwrap_err();
        assert!(matches!(err, CpdgError::NoCheckpoint { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
