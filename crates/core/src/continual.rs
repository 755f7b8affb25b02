//! Streaming continual pre-training: a trainer that runs CPDG's own
//! pre-training step over the live stream, candidate-epoch emission, and
//! the validation gate that decides whether a candidate may be promoted
//! into serving.
//!
//! The live event stream (the serving engine's WAL, replayed into its
//! in-memory graph — the two are bit-identical by the recovery oracle) is
//! cut by event count, as the offline loop cuts it: the newest
//! `batch_size` events are held out for the gate, and the events before them run through
//! [`crate::pretrain::cpdg_step`] in chronological batches of
//! `batch_size`: TLP + (1−β)·TC + β·SC (paper Eq. 17). The link head
//! trains with the encoder, so the held-out TLP loss the gate compares is
//! a term the trainer optimises. The step's samplers are built from the
//! events before the held-out slice, so training never reads it. Every
//! cut counts events, so the stream's time unit does not change what
//! trains.
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
use crate::pretrain::{cpdg_step, PretrainConfig, StepSamplers};
use crate::storage::Storage;
use crate::tlp::score_stream;
use cpdg_dgnn::{DgnnConfig, DgnnEncoder, GuardConfig, LinkPredictor, NegativeSampler, TrainGuard};
use cpdg_graph::split::subgraph_where;
use cpdg_graph::DynamicGraph;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Validation-gate thresholds for candidate epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// A candidate passes when its held-out loss is at most
    /// `max_loss_ratio * serving_loss + epsilon`.
    pub max_loss_ratio: f64,
    /// Absolute slack added to the ratio bound (guards the near-zero-loss
    /// regime where a pure ratio is hypersensitive).
    pub epsilon: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            max_loss_ratio: 1.5,
            epsilon: 0.05,
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
    /// Events per training step, and the size of the held-out slice the
    /// gate scores. A stream of fewer than `2 × batch_size` events is not
    /// trained on.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for everything stochastic (parameter init tie-break order,
    /// the step's negatives and contrast subgraphs, held-out negative
    /// sampling).
    pub seed: u64,
    /// Divergence watchdog policy.
    pub guard: GuardConfig,
    /// Promotion gate thresholds.
    pub gate: GateConfig,
}

impl Default for ContinualConfig {
    fn default() -> Self {
        Self {
            batch_size: PretrainConfig::default().batch_size,
            lr: 1e-3,
            seed: 0,
            guard: GuardConfig::default(),
            gate: GateConfig::default(),
        }
    }
}

/// Outcome of one training cycle over a stream snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleReport {
    /// CPDG steps whose update was applied.
    pub steps: usize,
    /// CPDG steps the guard skipped (poisoned loss/gradient).
    pub skipped: usize,
    /// Mean loss over applied steps (NaN when none were applied).
    pub mean_loss: f32,
    /// First stream index never committed during training — the start of
    /// the held-out slice [`validate_candidate`] scores.
    pub holdout_from: usize,
}

/// The continual CPDG trainer. Owns its own parameter store (initialised
/// from a [`ModelFile`], typically the serving epoch), so a diverging or
/// crashing trainer can never corrupt serving state — its only output is
/// a sealed candidate file.
pub struct ContinualTrainer {
    cfg: ContinualConfig,
    encoder_cfg: DgnnConfig,
    num_nodes: usize,
    store: ParamStore,
    encoder: DgnnEncoder,
    head: LinkPredictor,
    opt: Adam,
    guard: TrainGuard,
    checkpoints: Vec<cpdg_dgnn::MemorySnapshot>,
    step: usize,
    steps_trained: u64,
}

impl ContinualTrainer {
    /// Builds a trainer whose parameters start from `model`, read from
    /// `source` (the namespaces match the serving engine's, so an emitted
    /// candidate hot-loads cleanly). A parameter whose shape disagrees with
    /// the encoder `model`'s config builds refuses `source` as corrupt; a
    /// zero `batch_size` is refused as invalid.
    pub fn from_model(model: &ModelFile, source: &Path, cfg: ContinualConfig) -> CpdgResult<Self> {
        if cfg.batch_size == 0 {
            return Err(CpdgError::Invalid(
                "continual batch_size must be positive".to_string(),
            ));
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
        // The `pretext_head.*` parameters train with the encoder and ship
        // in every candidate: serving scores links with them and the gate
        // judges them.
        let head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", encoder.dim());
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
            head,
            step: 0,
            steps_trained: 0,
        })
    }

    /// Total CPDG steps applied over the trainer's lifetime.
    pub fn steps_trained(&self) -> u64 {
        self.steps_trained
    }

    /// One full training cycle over a stream snapshot: hold out the
    /// newest `batch_size` events (from `holdout_from` to the end of the
    /// stream), replay the rest chronologically, and run one guarded CPDG
    /// step ([`cpdg_step`]) per batch of `batch_size` events. No held-out
    /// event is committed, and the step's samplers draw from a graph of
    /// the events before `holdout_from`, so the gate has a slice training
    /// never read. A stream of fewer than `2 × batch_size` events is an
    /// idle cycle.
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
        let n = graph.events().len();
        let batch_size = self.cfg.batch_size;
        if n < batch_size.saturating_mul(2) {
            return Ok(CycleReport {
                steps: 0,
                skipped: 0,
                mean_loss: f32::NAN,
                holdout_from: n,
            });
        }
        let holdout_from = n - batch_size;
        let seen = subgraph_where(graph, |e| e.idx < holdout_from)
            .map_err(|e| CpdgError::Invalid(e.to_string()))?;
        let samplers = StepSamplers::new(&seen);
        let step_cfg = PretrainConfig {
            seed: self.cfg.seed,
            ..PretrainConfig::default()
        };
        self.encoder.reset_state();
        let mut steps = 0usize;
        let mut skipped = 0usize;
        let mut total = 0.0f64;
        let mut tape = Tape::new();
        for chunk in seen.events().chunks(batch_size) {
            hook.check(FaultPoint::TrainerStep)?;
            let out = cpdg_step(
                &mut tape,
                &self.encoder,
                &self.head,
                &self.store,
                &samplers,
                chunk,
                self.step,
                &step_cfg,
                &mut self.guard,
            );
            match out.verdict? {
                Some(update) => {
                    total += f64::from(out.losses.total);
                    steps += 1;
                    update.apply(&mut self.opt, &mut self.store);
                    self.encoder.commit(&tape, out.ctx, chunk);
                    self.steps_trained += 1;
                }
                None => {
                    self.encoder.skip_commit(chunk);
                    skipped += 1;
                }
            }
            self.step += 1;
        }
        Ok(CycleReport {
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

    /// The trainer's current parameters as a model file.
    fn candidate(&self) -> ModelFile {
        ModelFile::new(
            self.encoder_cfg.clone(),
            self.num_nodes,
            self.store.clone(),
            self.checkpoints.clone(),
        )
    }

    /// Publishes the trainer's current parameters as a candidate epoch at
    /// `path` — an ordinary [`ModelFile`] written through the CRC-sealed
    /// atomic save, so the file either exists whole or not at all. A
    /// fired `trainer.emit` fault aborts before any bytes are written.
    pub fn emit_candidate(&self, storage: &Storage, path: &Path) -> CpdgResult<()> {
        storage.hook().check(FaultPoint::TrainerEmit)?;
        self.candidate().save_with(storage, path)
    }
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
    let sampler = NegativeSampler::from_graph(graph);
    // The negatives' stream is salted away from the model-building seed.
    let mut neg_rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9));
    let scores = score_stream(
        &mut encoder,
        &head,
        &store,
        graph,
        0,
        score_from..,
        None,
        128,
        &sampler,
        &mut neg_rng,
        None,
    );
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
/// bounded by the serving epoch's under `gate`'s ratio + slack. An empty
/// held-out slice scores a NaN loss and is rejected. Never promotes a
/// non-finite candidate.
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
    use cpdg_graph::NodeId;
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

    /// A stream with a rule to learn: node pairs cycle over a fixed
    /// rotation, one event per time unit.
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
            batch_size: 10,
            lr: 1e-3,
            seed: 7,
            ..ContinualConfig::default()
        }
    }

    fn trainer_from(model: &ModelFile, cfg: ContinualConfig) -> ContinualTrainer {
        ContinualTrainer::from_model(model, Path::new("base.cpdg"), cfg).unwrap()
    }

    #[test]
    fn cycle_trains_and_candidate_passes_gate() {
        let model = base_model(3);
        let graph = stream_graph(120);
        let mut trainer = trainer_from(&model, trainer_cfg());
        let hook = FaultHook::none();
        let report = trainer.train_cycle(&graph, &hook).unwrap();
        assert!(report.steps > 0, "no steps ran: {report:?}");
        assert!(report.mean_loss.is_finite());
        assert!(
            report.holdout_from < graph.events().len(),
            "a held-out slice exists"
        );
        assert_eq!(trainer.steps_trained(), report.steps as u64);

        let dir = test_dir("gate");
        let path = dir.join("candidate-000001.json");
        trainer
            .emit_candidate(&Storage::new(hook.clone()), &path)
            .unwrap();
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

    /// The default config trains on the offline loop's batches: the
    /// newest batch is held out, and it is large enough for the gate's
    /// loss leg to run.
    #[test]
    fn default_config_holds_out_the_newest_batch() {
        let model = base_model(4);
        let graph = stream_graph(500);
        let cfg = ContinualConfig {
            seed: 7,
            ..ContinualConfig::default()
        };
        assert_eq!(cfg.batch_size, PretrainConfig::default().batch_size);
        let mut trainer = trainer_from(&model, cfg.clone());
        let report = trainer.train_cycle(&graph, &FaultHook::none()).unwrap();
        assert_eq!(report.holdout_from, 500 - cfg.batch_size, "{report:?}");
        // Batches of 200 and 100 events before the held-out slice.
        assert!(report.steps > 0, "{report:?}");
        assert_eq!(report.steps + report.skipped, 2, "{report:?}");
        let verdict = validate_candidate(
            &trainer.candidate(),
            &model,
            &graph,
            report.holdout_from,
            &GateConfig::default(),
            7,
        )
        .unwrap();
        assert!(
            verdict.serving_loss.is_finite(),
            "the loss leg ran: {verdict:?}"
        );
    }

    /// Two streams that agree before the held-out slice and differ inside
    /// it (same times; other nodes, two of them absent before it) train
    /// byte-identical candidates: no held-out event, and no node only the
    /// slice names, reaches the step or its samplers.
    #[test]
    fn held_out_slice_never_reaches_training() {
        let cfg = trainer_cfg();
        let times: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let holdout = times.len() - cfg.batch_size;
        let stream = |held_out: fn(usize) -> (NodeId, NodeId)| {
            let mut g = DynamicGraph::empty(NODES);
            for (i, &t) in times.iter().enumerate() {
                let (src, dst) = if i < holdout {
                    ((i % 5) as NodeId, (5 + i % 5) as NodeId)
                } else {
                    held_out(i)
                };
                g.push_event(src, dst, t, 0).unwrap();
            }
            g
        };
        let same = stream(|i| ((i % 5) as NodeId, (5 + i % 5) as NodeId));
        let other = stream(|i| (10 + (i % 2) as NodeId, (i % 10) as NodeId));
        let model = base_model(3);
        let dir = test_dir("isolation");
        let run = |graph: &DynamicGraph, name: &str| {
            let mut trainer = trainer_from(&model, cfg.clone());
            let report = trainer.train_cycle(graph, &FaultHook::none()).unwrap();
            let path = dir.join(name);
            trainer.emit_candidate(&FS_STORAGE, &path).unwrap();
            (report, std::fs::read(path).unwrap())
        };
        let (report_a, bytes_a) = run(&same, "a.json");
        let (report_b, bytes_b) = run(&other, "b.json");
        assert_eq!(report_a.holdout_from, holdout);
        assert!(report_a.steps > 0, "{report_a:?}");
        assert_eq!(report_a, report_b);
        assert!(
            bytes_a == bytes_b,
            "the held-out slice changed the candidate"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The trainer optimises the loss term the gate judges: on the rotation
    /// stream, one cycle's candidate scores a lower held-out TLP loss than
    /// the serving epoch it started from, on a majority of seeds 1–10.
    #[test]
    fn candidates_learn_the_stream() {
        let graph = stream_graph(120);
        let learned: Vec<u64> = (1..=10u64)
            .filter(|&seed| {
                let model = base_model(seed);
                let cfg = ContinualConfig {
                    seed,
                    ..trainer_cfg()
                };
                let mut trainer = trainer_from(&model, cfg);
                let report = trainer.train_cycle(&graph, &FaultHook::none()).unwrap();
                let from = report.holdout_from;
                let (candidate, _) =
                    holdout_loss(&trainer.candidate(), &graph, from, seed).unwrap();
                let (serving, _) = holdout_loss(&model, &graph, from, seed).unwrap();
                candidate < serving
            })
            .collect();
        assert!(
            learned.len() > 5,
            "candidates beat their serving epoch on seeds {learned:?} only"
        );
    }

    /// The same stream in another time unit, with the encoder's time
    /// scale in that unit, trains the same parameters: every cut counts
    /// events. The stream has a quiet stretch, which changes nothing
    /// either — each batch still takes one step.
    #[test]
    fn time_units_do_not_change_training() {
        let run = |unit: f64| {
            let mut graph = DynamicGraph::empty(NODES);
            for i in 0..120 {
                let t = if i < 60 { i as f64 } else { i as f64 + 100.0 };
                let (src, dst) = (i % 6, 6 + i % 6);
                graph
                    .push_event(src as NodeId, dst as NodeId, t * unit, 0)
                    .unwrap();
            }
            let mut model = base_model(3);
            model.encoder_config.time_scale *= unit;
            let mut trainer = trainer_from(&model, trainer_cfg());
            let report = trainer.train_cycle(&graph, &FaultHook::none()).unwrap();
            let mut candidate = trainer.candidate();
            candidate.encoder_config.time_scale /= unit;
            (report, crate::codec::encode_artifact(&candidate))
        };
        let (report, bytes) = run(1.0);
        let (report_k, bytes_k) = run(1000.0);
        assert_eq!(
            (report.holdout_from, report.steps, report.skipped),
            (110, 11, 0)
        );
        assert_eq!(report, report_k);
        assert!(bytes == bytes_k, "the time unit changed the candidate");
    }

    #[test]
    fn short_streams_are_idle_cycles() {
        let model = base_model(1);
        let mut trainer = trainer_from(&model, trainer_cfg());
        // Fewer than two batches: nothing to train on beside the holdout.
        let report = trainer
            .train_cycle(&stream_graph(19), &FaultHook::none())
            .unwrap();
        assert_eq!((report.steps, report.holdout_from), (0, 19));
        assert_eq!(trainer.steps_trained(), 0);
        let report = trainer
            .train_cycle(&stream_graph(20), &FaultHook::none())
            .unwrap();
        assert_eq!((report.steps, report.holdout_from), (1, 10));
    }

    #[test]
    fn zero_batch_size_is_refused() {
        let cfg = ContinualConfig {
            batch_size: 0,
            ..trainer_cfg()
        };
        let err = ContinualTrainer::from_model(&base_model(1), Path::new("base.cpdg"), cfg);
        assert!(matches!(err, Err(CpdgError::Invalid(_))));
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
        assert_eq!(trainer.steps_trained(), 0, "fault fired before any update");
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
            .emit_candidate(&Storage::new(hook.clone()), &path)
            .unwrap_err();
        match err {
            CpdgError::Fault { point, .. } => assert_eq!(point, "trainer.emit"),
            other => panic!("expected trainer.emit fault, got {other}"),
        }
        assert!(!path.exists(), "no bytes may hit disk on an emit fault");
        // Retry without the fault succeeds and round-trips.
        trainer.emit_candidate(&FS_STORAGE, &path).unwrap();
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
    fn gate_rejects_an_empty_holdout() {
        let candidate = base_model(8);
        let serving = base_model(9);
        let graph = stream_graph(60);
        // Hold out nothing: score_from at the end of the stream.
        let verdict = validate_candidate(
            &candidate,
            &serving,
            &graph,
            graph.events().len(),
            &GateConfig::default(),
            0,
        )
        .unwrap();
        assert!(
            !verdict.pass,
            "nothing scored, nothing promoted: {verdict:?}"
        );
        assert_eq!(verdict.scored, 0);
        assert!(verdict.reason.contains("non-finite"), "{verdict:?}");
    }
}
