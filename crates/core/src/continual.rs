//! Streaming continual pre-training: overlapping time-window slicing, a
//! windowed cross-window contrastive trainer, candidate-epoch emission,
//! and the validation gate that decides whether a candidate may be
//! promoted into serving.
//!
//! The design follows CLDG's observation that timespan-sliced views of a
//! dynamic graph are strong contrastive pairs: the live event stream (the
//! serving engine's WAL, replayed into its in-memory graph — the two are
//! bit-identical by the recovery oracle) is sliced into overlapping time
//! windows, and the embeddings of a node at the ends of two *adjacent*
//! windows are treated as a positive pair while other nodes from the later
//! window are negatives — the same triplet-margin InfoNCE shape
//! [`crate::contrast`] uses for the paper's offline objective (Eqs.
//! 11/14).
//!
//! Robustness contract (the reason this module exists at all):
//!
//! * every training step runs under the PR 1 [`TrainGuard`] — NaN/Inf
//!   losses and exploding gradients are skipped or surface as a typed
//!   [`CpdgError::Diverged`], never silently folded into parameters;
//! * candidate epochs are ordinary [`ModelFile`]s published through the
//!   CRC-sealed atomic [`ModelFile::save_with`] path, so a crash mid-emit
//!   leaves either no candidate or a whole one — never a torn file;
//! * candidates must pass [`validate_candidate`] (finite parameters,
//!   bounded held-out loss vs. the serving epoch) before the serving side
//!   may promote them;
//! * the `trainer.step` and `trainer.emit` fault points plug the whole
//!   loop into the deterministic chaos harness ([`crate::chaos`]).

use crate::chaos::{FaultHook, FaultPoint};
use crate::error::{CpdgError, CpdgResult};
use crate::model_io::ModelFile;
use crate::storage::Storage;
use cpdg_dgnn::trainer::eval_link_prediction;
use cpdg_dgnn::{
    train_step, DgnnConfig, DgnnEncoder, GuardConfig, LinkPredictor, TrainConfig, TrainGuard,
};
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};
use cpdg_tensor::loss::triplet_margin;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::Path;

/// Hard cap on the number of windows one slicing call may produce — a
/// mis-configured stride over a long stream fails loudly instead of
/// allocating without bound.
pub const MAX_WINDOWS: usize = 1_000_000;

/// Overlapping time-window geometry. `span` is each window's length in
/// stream time units; `stride` is the distance between consecutive window
/// starts. `stride <= span` makes adjacent windows overlap (the CLDG
/// setting); `stride == span` tiles the stream exactly once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Window length in stream time units (must be finite and positive).
    pub span: f64,
    /// Distance between consecutive window starts (finite, positive, and
    /// `<= span` so no event can fall between windows).
    pub stride: f64,
}

impl WindowConfig {
    /// A validated window geometry.
    pub fn new(span: f64, stride: f64) -> CpdgResult<Self> {
        let cfg = Self { span, stride };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the geometry invariants: both finite and positive, and
    /// `stride <= span` (a gap between windows would let events escape
    /// every training view).
    pub fn validate(&self) -> CpdgResult<()> {
        if !self.span.is_finite() || self.span <= 0.0 {
            return Err(CpdgError::Invalid(format!(
                "window span must be finite and positive, got {}",
                self.span
            )));
        }
        if !self.stride.is_finite() || self.stride <= 0.0 {
            return Err(CpdgError::Invalid(format!(
                "window stride must be finite and positive, got {}",
                self.stride
            )));
        }
        if self.stride > self.span {
            return Err(CpdgError::Invalid(format!(
                "window stride {} exceeds span {}: windows would leave gaps",
                self.stride, self.span
            )));
        }
        Ok(())
    }
}

/// One time window over a chronologically sorted event stream. Because the
/// stream is sorted, a window's events form one contiguous index range
/// `lo..hi` (half-open) into the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventWindow {
    /// Window ordinal (0-based; window `k` starts at `t0 + k * stride`).
    pub index: usize,
    /// Inclusive start time.
    pub start: f64,
    /// Exclusive end time (`start + span`).
    pub end: f64,
    /// First stream index with `t >= start`.
    pub lo: usize,
    /// One past the last stream index with `t < end`.
    pub hi: usize,
}

impl EventWindow {
    /// Number of events inside the window.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the window holds no events.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Whether time `t` falls inside the half-open interval
    /// `[start, end)` — the membership rule `lo..hi` materialises.
    pub fn contains_time(&self, t: f64) -> bool {
        self.start <= t && t < self.end
    }
}

/// Slices a chronologically sorted timestamp stream into overlapping
/// windows: window `k` covers `[t0 + k*stride, t0 + k*stride + span)`
/// where `t0` is the first timestamp. Windows are generated while their
/// start does not exceed the last timestamp — plus, as a floating-point
/// safety net, until the final window actually covers the last event — so
/// **every event lands in at least one window** and (with
/// `stride == span`) in exactly one. Duplicate timestamps land in the
/// same windows; an empty stream yields no windows.
///
/// Fails with [`CpdgError::Invalid`] on invalid geometry, an unsorted
/// stream, a non-finite timestamp, or a geometry that would produce more
/// than [`MAX_WINDOWS`] windows.
pub fn slice_windows(times: &[Timestamp], cfg: &WindowConfig) -> CpdgResult<Vec<EventWindow>> {
    cfg.validate()?;
    if times.is_empty() {
        return Ok(Vec::new());
    }
    for (i, &t) in times.iter().enumerate() {
        if !t.is_finite() {
            return Err(CpdgError::Invalid(format!(
                "window slicing requires finite timestamps (index {i} is {t})"
            )));
        }
        if i > 0 && t < times[i - 1] {
            return Err(CpdgError::Invalid(format!(
                "window slicing requires a chronologically sorted stream \
                 ({} then {t} at index {i})",
                times[i - 1]
            )));
        }
    }
    let t0 = times[0];
    let t_last = *times.last().expect("non-empty");
    let n = times.len();
    let mut windows: Vec<EventWindow> = Vec::new();
    let mut k = 0usize;
    loop {
        let start = t0 + k as f64 * cfg.stride;
        let within = start <= t_last;
        // The tail guard: if rounding left the last event uncovered
        // (`end <= t_last` for every in-range window), keep extending —
        // `stride <= span` guarantees the very next window reaches it.
        let tail_uncovered = windows.last().map(|w| w.hi < n).unwrap_or(true);
        if !within && !tail_uncovered {
            break;
        }
        if k >= MAX_WINDOWS {
            return Err(CpdgError::Invalid(format!(
                "window geometry (span {}, stride {}) would produce more \
                 than {MAX_WINDOWS} windows over [{t0}, {t_last}]",
                cfg.span, cfg.stride
            )));
        }
        let end = start + cfg.span;
        let lo = times.partition_point(|&t| t < start);
        let hi = times.partition_point(|&t| t < end);
        windows.push(EventWindow {
            index: k,
            start,
            end,
            lo,
            hi,
        });
        k += 1;
    }
    Ok(windows)
}

/// Validation-gate thresholds for candidate epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// A candidate passes when its held-out loss is at most
    /// `max_loss_ratio * serving_loss + epsilon`.
    pub max_loss_ratio: f64,
    /// Absolute slack added to the ratio bound (guards the near-zero-loss
    /// regime where a pure ratio is hypersensitive).
    pub epsilon: f64,
    /// Below this many held-out scored events the loss comparison is
    /// statistically meaningless: the gate degrades to the finite-params
    /// check only (and says so in its report).
    pub min_holdout: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            max_loss_ratio: 1.5,
            epsilon: 0.05,
            min_holdout: 8,
        }
    }
}

/// What the validation gate decided about one candidate epoch, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Whether every candidate parameter value is finite.
    pub finite: bool,
    /// Candidate held-out loss (NaN when not evaluated).
    pub candidate_loss: f64,
    /// Serving-epoch held-out loss (NaN when not evaluated).
    pub serving_loss: f64,
    /// Number of held-out events scored.
    pub scored: usize,
    /// The verdict: `true` means the candidate may be promoted.
    pub pass: bool,
    /// Human-readable justification, logged and surfaced in errors.
    pub reason: String,
}

/// Hyper-parameters of the continual trainer.
#[derive(Debug, Clone)]
pub struct ContinualConfig {
    /// Window geometry for slicing the stream.
    pub window: WindowConfig,
    /// Cap on the number of shared nodes contrasted per window pair.
    pub batch_cap: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Triplet margin for the cross-window contrastive loss.
    pub margin: f32,
    /// Seed for everything stochastic (parameter init tie-break order,
    /// held-out negative sampling).
    pub seed: u64,
    /// Divergence watchdog policy.
    pub guard: GuardConfig,
    /// Streams shorter than this are not trained on at all.
    pub min_events: usize,
    /// Promotion gate thresholds.
    pub gate: GateConfig,
}

impl Default for ContinualConfig {
    fn default() -> Self {
        Self {
            window: WindowConfig {
                span: 16.0,
                stride: 8.0,
            },
            batch_cap: 64,
            lr: 1e-3,
            grad_clip: 5.0,
            margin: 1.0,
            seed: 0,
            guard: GuardConfig::default(),
            min_events: 32,
            gate: GateConfig::default(),
        }
    }
}

/// Outcome of one training cycle over a stream snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleReport {
    /// Windows the stream was sliced into.
    pub windows: usize,
    /// Window-pair contrastive steps whose update was applied.
    pub steps: usize,
    /// Steps the guard skipped (poisoned loss/gradient) or that had too
    /// few shared nodes to contrast.
    pub skipped: usize,
    /// Mean loss over applied steps (NaN when none were applied).
    pub mean_loss: f32,
    /// First stream index never committed during training — the start of
    /// the held-out slice [`validate_candidate`] scores.
    pub holdout_from: usize,
}

/// The windowed cross-window contrastive trainer. Owns its own parameter
/// store (initialised from a [`ModelFile`], typically the serving epoch),
/// so a diverging or crashing trainer can never corrupt serving state —
/// its only output is a sealed candidate file.
pub struct ContinualTrainer {
    cfg: ContinualConfig,
    encoder_cfg: DgnnConfig,
    num_nodes: usize,
    store: ParamStore,
    encoder: DgnnEncoder,
    opt: Adam,
    guard: TrainGuard,
    checkpoints: Vec<cpdg_dgnn::MemorySnapshot>,
    step: usize,
    windows_trained: u64,
}

impl ContinualTrainer {
    /// Builds a trainer whose parameters start from `model`, read from
    /// `source` (the namespaces match the serving engine's, so an emitted
    /// candidate hot-loads cleanly). A parameter whose shape disagrees with
    /// the encoder `model`'s config builds refuses `source` as corrupt.
    pub fn from_model(model: &ModelFile, source: &Path, cfg: ContinualConfig) -> CpdgResult<Self> {
        cfg.window.validate()?;
        if cfg.batch_cap < 2 {
            return Err(CpdgError::Invalid(format!(
                "continual batch cap must be at least 2 (one positive and \
                 one negative), got {}",
                cfg.batch_cap
            )));
        }
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut encoder = DgnnEncoder::new(
            &mut store,
            &mut rng,
            "enc",
            model.num_nodes,
            model.encoder_config.clone(),
        );
        // Registers the `pretext_head.*` parameters, so candidate files
        // carry the serving head (this trainer never scores links itself).
        let _head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", encoder.dim());
        let loaded = store
            .load_matching(&model.params)
            .map_err(|e| CpdgError::corrupt(source, e.to_string()))?;
        if loaded == 0 && !model.params.is_empty() {
            cpdg_obs::warn!(
                "continual.trainer",
                "no parameters matched the base model; training from init";
                model_params = model.params.len(),
            );
        }
        encoder.reset_state();
        Ok(Self {
            opt: Adam::new(cfg.lr),
            guard: TrainGuard::new(cfg.guard.clone()),
            encoder_cfg: model.encoder_config.clone(),
            num_nodes: model.num_nodes,
            checkpoints: model.checkpoints.clone(),
            cfg,
            store,
            encoder,
            step: 0,
            windows_trained: 0,
        })
    }

    /// Total window-pair steps applied over the trainer's lifetime.
    pub fn windows_trained(&self) -> u64 {
        self.windows_trained
    }

    /// One full training cycle over a stream snapshot: slice into windows,
    /// replay chronologically, and for each adjacent window pair run one
    /// guarded contrastive step treating cross-window embeddings of the
    /// same node as positives. The held-out slice runs from the start of
    /// the final window (`holdout_from`) to the end of the stream; no
    /// window reaching into it is trained on and none of its events is
    /// committed, so the gate has a slice to score. With at least three
    /// windows that slice is never empty.
    ///
    /// Failure modes are all typed: a fired `trainer.step` fault aborts
    /// the cycle with [`CpdgError::Fault`]; guard divergence surfaces as
    /// [`CpdgError::Diverged`]. Either way the serving engine is
    /// untouched — this store is private to the trainer.
    pub fn train_cycle(
        &mut self,
        graph: &DynamicGraph,
        hook: &FaultHook,
    ) -> CpdgResult<CycleReport> {
        let events = graph.events();
        let times: Vec<Timestamp> = events.iter().map(|e| e.t).collect();
        let windows = slice_windows(&times, &self.cfg.window)?;
        let idle = CycleReport {
            windows: windows.len(),
            steps: 0,
            skipped: 0,
            mean_loss: f32::NAN,
            holdout_from: events.len(),
        };
        if events.len() < self.cfg.min_events || windows.len() < 3 {
            return Ok(idle);
        }
        // The held-out slice starts where the last window holding events
        // starts. Overlapping windows before it may reach into that slice,
        // so only the windows that end at or before it are trained on.
        let holdout_from = windows
            .iter()
            .rev()
            .map(|w| w.lo)
            .find(|&lo| lo < events.len())
            .unwrap_or(events.len());
        let trained = windows.partition_point(|w| w.hi <= holdout_from);
        self.encoder.reset_state();
        let mut committed = 0usize;
        let mut steps = 0usize;
        let mut skipped = 0usize;
        let mut total = 0.0f64;
        for k in 1..trained {
            hook.check(FaultPoint::TrainerStep)
                .map_err(|f| CpdgError::Fault {
                    point: FaultPoint::TrainerStep.name().to_string(),
                    reason: f.to_string(),
                })?;
            let (wa, wb) = (&windows[k - 1], &windows[k]);
            let chunk = &events[committed..wb.hi.max(committed)];
            let shared = shared_nodes(events, wa, wb, self.cfg.batch_cap);
            if shared.len() < 2 {
                // Nothing to contrast: still advance memory through the
                // chunk, forward-only, so later windows see a current state.
                let states = self.encoder.pending_states(&self.store, graph);
                self.encoder.commit_states(states, chunk);
                committed = wb.hi.max(committed);
                skipped += 1;
                continue;
            }
            let mut tape = Tape::new();
            let ctx = self.encoder.apply_pending(&mut tape, &self.store, graph);
            let times_a: Vec<Timestamp> = shared.iter().map(|_| wa.end).collect();
            let times_b: Vec<Timestamp> = shared.iter().map(|_| wb.end).collect();
            let z_a =
                self.encoder
                    .embed_many(&mut tape, &self.store, &ctx, graph, &shared, &times_a);
            let z_b =
                self.encoder
                    .embed_many(&mut tape, &self.store, &ctx, graph, &shared, &times_b);
            // Negatives: the later-window embeddings rotated by one row,
            // so each anchor is pushed away from a *different* node's
            // cross-window view.
            let rot: Vec<usize> = (0..shared.len()).map(|i| (i + 1) % shared.len()).collect();
            let z_neg = tape.gather_rows(z_b, &rot);
            let loss = triplet_margin(&mut tape, z_a, z_b, z_neg, self.cfg.margin);
            let guard = Some((&mut self.guard, self.step));
            match train_step(&tape, loss, self.cfg.grad_clip, guard) {
                Ok(Some(update)) => {
                    total += f64::from(tape.value(loss).get(0, 0));
                    steps += 1;
                    update.apply(&mut self.opt, &mut self.store);
                    self.encoder.commit(&tape, ctx, chunk);
                    self.windows_trained += 1;
                }
                Ok(None) => {
                    self.encoder.skip_commit(chunk);
                    skipped += 1;
                }
                Err(report) => return Err(CpdgError::Diverged(report)),
            }
            committed = wb.hi.max(committed);
            self.step += 1;
        }
        Ok(CycleReport {
            windows: windows.len(),
            steps,
            skipped,
            mean_loss: if steps > 0 {
                (total / steps as f64) as f32
            } else {
                f32::NAN
            },
            holdout_from,
        })
    }

    /// Publishes the trainer's current parameters as a candidate epoch at
    /// `path` — an ordinary [`ModelFile`] written through the CRC-sealed
    /// atomic save, so the file either exists whole or not at all. A
    /// fired `trainer.emit` fault aborts before any bytes are written.
    pub fn emit_candidate(
        &self,
        storage: &Storage,
        path: &Path,
        hook: &FaultHook,
    ) -> CpdgResult<()> {
        hook.check(FaultPoint::TrainerEmit)
            .map_err(|f| CpdgError::Fault {
                point: FaultPoint::TrainerEmit.name().to_string(),
                reason: f.to_string(),
            })?;
        let model = ModelFile::new(
            self.encoder_cfg.clone(),
            self.num_nodes,
            self.store.clone(),
            self.checkpoints.clone(),
        );
        model.save_with(storage, path)
    }
}

/// Shared endpoints of two windows, sorted and capped deterministically.
fn shared_nodes(
    events: &[cpdg_graph::Interaction],
    a: &EventWindow,
    b: &EventWindow,
    cap: usize,
) -> Vec<NodeId> {
    let in_a: HashSet<NodeId> = events[a.lo..a.hi]
        .iter()
        .flat_map(|e| e.endpoints())
        .collect();
    let mut shared: Vec<NodeId> = events[b.lo..b.hi]
        .iter()
        .flat_map(|e| e.endpoints())
        .filter(|n| in_a.contains(n))
        .collect();
    shared.sort_unstable();
    shared.dedup();
    shared.truncate(cap);
    shared
}

/// Whether every parameter value in `model` is finite.
pub fn params_all_finite(model: &ModelFile) -> bool {
    model
        .params
        .ids()
        .all(|id| model.params.value(id).data().iter().all(|v| v.is_finite()))
}

/// Mean link-prediction BCE of `model` over the held-out slice of
/// `graph` (events with index `>= score_from`), replaying the stream
/// chronologically from a fresh memory. Returns `(loss, scored)`;
/// `loss` is NaN when nothing was scored. Deterministic given `seed`.
pub fn holdout_loss(
    model: &ModelFile,
    graph: &DynamicGraph,
    score_from: usize,
    seed: u64,
) -> CpdgResult<(f64, usize)> {
    if graph.num_nodes() > model.num_nodes {
        return Err(CpdgError::NodeCountMismatch {
            data_nodes: graph.num_nodes(),
            model_nodes: model.num_nodes,
        });
    }
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut encoder = DgnnEncoder::new(
        &mut store,
        &mut rng,
        "enc",
        model.num_nodes,
        model.encoder_config.clone(),
    );
    let head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", encoder.dim());
    store
        .load_matching(&model.params)
        .map_err(|e| CpdgError::Invalid(format!("model does not fit its config: {e}")))?;
    encoder.reset_state();
    let cfg = TrainConfig {
        batch_size: 128,
        epochs: 1,
        seed,
        ..TrainConfig::default()
    };
    let scores = eval_link_prediction(&mut encoder, &head, &store, graph, score_from, &cfg, None);
    let scored = scores.pos.len() + scores.neg.len();
    if scored == 0 {
        return Ok((f64::NAN, 0));
    }
    // Stable softplus: ln(1 + e^x) = max(x, 0) + ln(1 + e^{-|x|}).
    let softplus = |x: f64| x.max(0.0) + (-x.abs()).exp().ln_1p();
    let pos: f64 = scores.pos.iter().map(|&l| softplus(-f64::from(l))).sum();
    let neg: f64 = scores.neg.iter().map(|&l| softplus(f64::from(l))).sum();
    Ok(((pos + neg) / scored as f64, scored))
}

/// The promotion gate: a candidate epoch may replace the serving epoch
/// only if (a) every parameter is finite and (b) its held-out loss is
/// bounded by the serving epoch's under `gate`'s ratio + slack. With
/// fewer than `gate.min_holdout` scored events the loss leg is skipped
/// (and the report says so). Never promotes a non-finite candidate.
pub fn validate_candidate(
    candidate: &ModelFile,
    serving: &ModelFile,
    graph: &DynamicGraph,
    score_from: usize,
    gate: &GateConfig,
    seed: u64,
) -> CpdgResult<GateReport> {
    if !params_all_finite(candidate) {
        return Ok(GateReport {
            finite: false,
            candidate_loss: f64::NAN,
            serving_loss: f64::NAN,
            scored: 0,
            pass: false,
            reason: "candidate has non-finite parameters".to_string(),
        });
    }
    let (cand_loss, scored) = holdout_loss(candidate, graph, score_from, seed)?;
    if scored < gate.min_holdout {
        return Ok(GateReport {
            finite: true,
            candidate_loss: cand_loss,
            serving_loss: f64::NAN,
            scored,
            pass: true,
            reason: format!(
                "holdout too small ({scored} < {}): finite-params gate only",
                gate.min_holdout
            ),
        });
    }
    let (serv_loss, _) = holdout_loss(serving, graph, score_from, seed)?;
    if !cand_loss.is_finite() {
        return Ok(GateReport {
            finite: true,
            candidate_loss: cand_loss,
            serving_loss: serv_loss,
            scored,
            pass: false,
            reason: "candidate held-out loss is non-finite".to_string(),
        });
    }
    let bound = serv_loss * gate.max_loss_ratio + gate.epsilon;
    let pass = cand_loss <= bound;
    Ok(GateReport {
        finite: true,
        candidate_loss: cand_loss,
        serving_loss: serv_loss,
        scored,
        pass,
        reason: if pass {
            format!("candidate loss {cand_loss:.6} within bound {bound:.6}")
        } else {
            format!(
                "candidate loss {cand_loss:.6} exceeds bound {bound:.6} (serving {serv_loss:.6})"
            )
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultKind, FaultPlan, Trigger};
    use crate::storage::FS_STORAGE;
    use cpdg_dgnn::EncoderKind;
    use std::path::PathBuf;

    const NODES: usize = 12;
    const DIM: usize = 8;

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cpdg-continual-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base_model(seed: u64) -> ModelFile {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, DIM, 100.0);
        let enc = DgnnEncoder::new(&mut store, &mut rng, "enc", NODES, cfg.clone());
        let _head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", enc.dim());
        ModelFile::new(cfg, NODES, store, Vec::new())
    }

    /// A stream with enough cross-window node recurrence to contrast:
    /// node pairs cycle over a fixed rotation, one event per time unit.
    fn stream_graph(n_events: usize) -> DynamicGraph {
        let mut g = DynamicGraph::empty(NODES);
        for i in 0..n_events {
            let src = (i % (NODES / 2)) as NodeId;
            let dst = (NODES / 2 + (i % (NODES / 2))) as NodeId;
            g.push_event(src, dst, i as f64, 0).unwrap();
        }
        g
    }

    fn trainer_cfg() -> ContinualConfig {
        ContinualConfig {
            window: WindowConfig {
                span: 20.0,
                stride: 10.0,
            },
            min_events: 16,
            lr: 1e-3,
            seed: 7,
            ..ContinualConfig::default()
        }
    }

    fn trainer_from(model: &ModelFile, cfg: ContinualConfig) -> ContinualTrainer {
        ContinualTrainer::from_model(model, Path::new("base.cpdg"), cfg).unwrap()
    }

    #[test]
    fn window_geometry_validates() {
        assert!(WindowConfig::new(10.0, 5.0).is_ok());
        assert!(
            WindowConfig::new(10.0, 10.0).is_ok(),
            "exact tiling is legal"
        );
        assert!(WindowConfig::new(0.0, 1.0).is_err(), "zero span");
        assert!(WindowConfig::new(10.0, 0.0).is_err(), "zero stride");
        assert!(WindowConfig::new(10.0, 11.0).is_err(), "gapped windows");
        assert!(WindowConfig::new(f64::NAN, 1.0).is_err());
        assert!(WindowConfig::new(10.0, f64::INFINITY).is_err());
    }

    #[test]
    fn slicing_rejects_bad_streams() {
        let cfg = WindowConfig {
            span: 4.0,
            stride: 2.0,
        };
        assert!(slice_windows(&[1.0, 0.5], &cfg).is_err(), "unsorted");
        assert!(slice_windows(&[0.0, f64::NAN], &cfg).is_err(), "NaN time");
        assert!(slice_windows(&[], &cfg).unwrap().is_empty(), "empty stream");
    }

    #[test]
    fn slicing_covers_every_event_at_least_once() {
        let times: Vec<f64> = vec![0.0, 0.0, 1.5, 2.0, 2.0, 2.0, 5.0, 7.5, 7.5, 10.0];
        let cfg = WindowConfig {
            span: 4.0,
            stride: 2.0,
        };
        let windows = slice_windows(&times, &cfg).unwrap();
        assert!(!windows.is_empty());
        for (i, &t) in times.iter().enumerate() {
            let covering: Vec<&EventWindow> =
                windows.iter().filter(|w| w.lo <= i && i < w.hi).collect();
            assert!(!covering.is_empty(), "event {i} at t={t} uncovered");
            for w in &covering {
                assert!(w.contains_time(t), "index range disagrees with time test");
            }
        }
        // Index ranges and the time-membership rule agree exactly.
        for w in &windows {
            for (i, &t) in times.iter().enumerate() {
                assert_eq!(
                    w.lo <= i && i < w.hi,
                    w.contains_time(t),
                    "window {}",
                    w.index
                );
            }
        }
    }

    #[test]
    fn exact_tiling_covers_every_event_exactly_once() {
        let times: Vec<f64> = (0..50).map(|i| i as f64 * 0.7).collect();
        let cfg = WindowConfig {
            span: 5.0,
            stride: 5.0,
        };
        let windows = slice_windows(&times, &cfg).unwrap();
        for i in 0..times.len() {
            let count = windows.iter().filter(|w| w.lo <= i && i < w.hi).count();
            assert_eq!(
                count, 1,
                "event {i} covered {count} times under exact tiling"
            );
        }
    }

    #[test]
    fn single_timestamp_stream_gets_one_covering_window() {
        let cfg = WindowConfig {
            span: 3.0,
            stride: 1.0,
        };
        let windows = slice_windows(&[42.0, 42.0, 42.0], &cfg).unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!((windows[0].lo, windows[0].hi), (0, 3));
    }

    #[test]
    fn cycle_trains_and_candidate_passes_gate() {
        let model = base_model(3);
        let graph = stream_graph(120);
        let mut trainer = trainer_from(&model, trainer_cfg());
        let hook = FaultHook::none();
        let report = trainer.train_cycle(&graph, &hook).unwrap();
        assert!(report.steps > 0, "no contrastive steps ran: {report:?}");
        assert!(report.mean_loss.is_finite());
        assert!(
            report.holdout_from < graph.events().len(),
            "a held-out slice exists"
        );
        assert_eq!(trainer.windows_trained(), report.steps as u64);

        let dir = test_dir("gate");
        let path = dir.join("candidate-000001.json");
        trainer.emit_candidate(&FS_STORAGE, &path, &hook).unwrap();
        let candidate = ModelFile::load(&path).unwrap();
        assert!(params_all_finite(&candidate));
        let gate = GateConfig::default();
        let verdict =
            validate_candidate(&candidate, &model, &graph, report.holdout_from, &gate, 7).unwrap();
        assert!(verdict.finite);
        assert!(
            verdict.pass,
            "one gentle cycle must stay inside the gate bound: {verdict:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn default_geometry_holds_out_a_slice_no_trained_window_reaches() {
        // 16/8 windows over 120 events: the penultimate window already
        // ends at the stream's end, so it must not be trained on.
        let model = base_model(4);
        let graph = stream_graph(120);
        let cfg = ContinualConfig {
            seed: 7,
            ..ContinualConfig::default()
        };
        let mut trainer = trainer_from(&model, cfg.clone());
        let report = trainer.train_cycle(&graph, &FaultHook::none()).unwrap();
        let times: Vec<Timestamp> = graph.events().iter().map(|e| e.t).collect();
        let windows = slice_windows(&times, &cfg.window).unwrap();
        let last = windows.last().unwrap();
        assert!(windows.len() >= 3 && last.lo < times.len());
        assert_eq!(report.holdout_from, last.lo, "{report:?}");
        // One step, applied or skipped, per adjacent pair of the windows
        // that end at or before the held-out slice.
        let trained = windows
            .iter()
            .filter(|w| w.hi <= report.holdout_from)
            .count();
        assert!(trained >= 2 && report.steps > 0, "{report:?}");
        assert_eq!(report.steps + report.skipped, trained - 1);
        let gate = GateConfig::default();
        let verdict =
            validate_candidate(&model, &model, &graph, report.holdout_from, &gate, 7).unwrap();
        assert!(
            verdict.scored >= gate.min_holdout,
            "the loss leg ran: {verdict:?}"
        );
    }

    #[test]
    fn short_streams_are_idle_cycles() {
        let model = base_model(1);
        let graph = stream_graph(8);
        let mut trainer = trainer_from(&model, trainer_cfg());
        let report = trainer.train_cycle(&graph, &FaultHook::none()).unwrap();
        assert_eq!(report.steps, 0);
        assert_eq!(trainer.windows_trained(), 0);
    }

    #[test]
    fn step_fault_aborts_cycle_with_typed_error() {
        let model = base_model(2);
        let graph = stream_graph(120);
        let mut trainer = trainer_from(&model, trainer_cfg());
        let plan = FaultPlan::new(0).with(
            FaultPoint::TrainerStep,
            FaultKind::Permanent,
            Trigger::Nth { n: 1 },
        );
        let hook = FaultHook::install(&plan);
        let err = trainer.train_cycle(&graph, &hook).unwrap_err();
        match err {
            CpdgError::Fault { point, .. } => assert_eq!(point, "trainer.step"),
            other => panic!("expected trainer.step fault, got {other}"),
        }
        assert_eq!(
            trainer.windows_trained(),
            0,
            "fault fired before any update"
        );
    }

    #[test]
    fn emit_fault_leaves_no_candidate_file() {
        let model = base_model(4);
        let trainer = trainer_from(&model, trainer_cfg());
        let plan = FaultPlan::new(0).with(
            FaultPoint::TrainerEmit,
            FaultKind::Permanent,
            Trigger::Nth { n: 1 },
        );
        let hook = FaultHook::install(&plan);
        let dir = test_dir("emit-fault");
        let path = dir.join("candidate.json");
        let err = trainer
            .emit_candidate(&FS_STORAGE, &path, &hook)
            .unwrap_err();
        match err {
            CpdgError::Fault { point, .. } => assert_eq!(point, "trainer.emit"),
            other => panic!("expected trainer.emit fault, got {other}"),
        }
        assert!(!path.exists(), "no bytes may hit disk on an emit fault");
        // Retry without the fault succeeds and round-trips.
        trainer
            .emit_candidate(&FS_STORAGE, &path, &FaultHook::none())
            .unwrap();
        assert!(ModelFile::load(&path).is_ok());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn divergence_surfaces_as_typed_error() {
        let model = base_model(5);
        let graph = stream_graph(120);
        let cfg = ContinualConfig {
            guard: GuardConfig {
                max_grad_norm: 0.0,
                max_retries: 1,
                ..GuardConfig::default()
            },
            ..trainer_cfg()
        };
        let mut trainer = trainer_from(&model, cfg);
        let err = trainer.train_cycle(&graph, &FaultHook::none()).unwrap_err();
        assert!(
            matches!(err, CpdgError::Diverged(_)),
            "zero grad budget must diverge, got {err}"
        );
    }

    #[test]
    fn gate_rejects_non_finite_candidate() {
        let mut candidate = base_model(6);
        let serving = base_model(6);
        let graph = stream_graph(60);
        let id = candidate.params.ids().next().unwrap();
        candidate.params.value_mut(id).data_mut()[0] = f32::NAN;
        let verdict =
            validate_candidate(&candidate, &serving, &graph, 40, &GateConfig::default(), 0)
                .unwrap();
        assert!(!verdict.finite);
        assert!(!verdict.pass);
    }

    #[test]
    fn gate_degrades_to_finite_check_on_tiny_holdout() {
        let candidate = base_model(8);
        let serving = base_model(9);
        let graph = stream_graph(60);
        // Hold out nothing: score_from beyond the stream.
        let verdict = validate_candidate(
            &candidate,
            &serving,
            &graph,
            graph.events().len(),
            &GateConfig::default(),
            0,
        )
        .unwrap();
        assert!(verdict.pass, "finite-only gate passes: {verdict:?}");
        assert_eq!(verdict.scored, 0);
        assert!(verdict.reason.contains("holdout too small"));
    }
}
