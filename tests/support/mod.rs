//! Scaffolding shared by the root test suites, and the one differential
//! primitive the serving oracles are written in: run a script under
//! configuration A and under configuration B, then compare the memory
//! each engine drains and the reply to every line.
//!
//! A [`Config`] is a point on six axes: server workers (0 runs the script
//! through in-process engine calls), coalescing width, embedding cache, an
//! attached continual trainer whose cycles are faulted, a fault plan, and
//! a crash cut (the kill -9 analog before one script line, then recovery
//! from the WAL, optionally after a byte of a sealed WAL copy rotted on
//! disk). `Config::default()` is the reference: in-process, unbatched,
//! uncached, no trainer, no faults, no crash.
//!
//! The suites include this module as `mod support;`; none uses all of it.

#![allow(dead_code)]

/// Seeded property cases: one LCG stream per case number.
#[path = "../../crates/core/tests/common/mod.rs"]
pub mod cases;

use cpdg::core::chaos::{FaultHook, FaultKind, FaultPlan, FaultPoint, Trigger};
use cpdg::core::pretrain::{pretrain_resumable, PretrainConfig, PretrainOutput, PretrainRuntime};
use cpdg::core::scrub;
use cpdg::core::storage::FS_STORAGE;
use cpdg::core::wal::WalConfig;
use cpdg::core::{CpdgResult, ModelFile};
use cpdg::dgnn::{
    DgnnConfig, DgnnEncoder, EncoderKind, GuardConfig, LinkPredictor, MemorySnapshot,
};
use cpdg::graph::{generate, DynamicGraph, SyntheticConfig, SyntheticDataset};
use cpdg::serve::{
    parse_line, read_promoted, Command, CycleOutcome, Engine, EngineConfig, Server, ServerConfig,
    TrainerConfig, TrainerRuntime, WalRecoveryReport,
};
use cpdg::tensor::optim::Adam;
use cpdg::tensor::{Matrix, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Temp dirs and models
// ---------------------------------------------------------------------

/// A fresh directory under the system temp dir, named after the suite,
/// `name` and the process; removed when dropped.
pub struct TestDir(PathBuf);

pub fn test_dir(name: &str) -> TestDir {
    let dir = std::env::temp_dir().join(format!(
        "cpdg_{}_{name}_{}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    TestDir(dir)
}

impl Deref for TestDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Nodes of every serving model: users `0..8` and items `8..16`.
pub const NODES: usize = 16;
pub const DIM: usize = 8;

/// A model bundle shaped like `cpdg pretrain` writes it (parameter
/// namespaces `enc` / `pretext_head`) with `memory` as its checkpoints.
fn model(seed: u64, memory: Vec<MemorySnapshot>) -> ModelFile {
    let cfg = DgnnConfig::preset(EncoderKind::Tgn, DIM, 100.0);
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let _enc = DgnnEncoder::new(&mut store, &mut rng, "enc", NODES, cfg.clone());
    let _head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", DIM);
    ModelFile::new(cfg, NODES, store, memory)
}

/// A model with one EIE memory snapshot of recognisable values, so
/// degraded replies are checkable.
pub fn trained_model(seed: u64) -> ModelFile {
    let states = Matrix::from_vec(
        NODES,
        DIM,
        (0..NODES * DIM)
            .map(|i| ((i % 17) as f32) * 0.05 - 0.3)
            .collect(),
    );
    model(
        seed,
        vec![MemorySnapshot {
            states,
            progress: 1.0,
        }],
    )
}

/// A freshly initialised model with no memory, saved to `dir/base.json`:
/// the epoch continual serving starts from.
pub fn base_model(dir: &Path) -> PathBuf {
    let path = dir.join("base.json");
    model(3, Vec::new()).save(&path).unwrap();
    path
}

/// `params` with its first non-square parameter transposed: the same
/// names and scalar count, one shape the model's config never builds.
/// Returns the copy and the swapped name.
pub fn with_one_shape_swapped(params: &ParamStore) -> (ParamStore, String) {
    let mut out = ParamStore::new();
    let mut swapped = None;
    for id in params.ids() {
        let (name, value) = (params.name(id), params.value(id));
        if swapped.is_none() && value.rows() != value.cols() {
            swapped = Some(name.to_string());
            out.register(name, value.transpose());
        } else {
            out.register(name, value.clone());
        }
    }
    (out, swapped.expect("a non-square parameter"))
}

// ---------------------------------------------------------------------
// Pre-training
// ---------------------------------------------------------------------

pub fn tiny_dataset(seed: u64) -> SyntheticDataset {
    generate(
        &SyntheticConfig {
            n_events: 600,
            ..SyntheticConfig::amazon_like(seed)
        }
        .scaled(0.12),
    )
}

/// Deterministic model builder (a `dim`-wide TGN `enc` and its link
/// predictor `head`): every call with the same inputs yields an
/// identically initialised encoder/head/store — the contract resume and
/// the bit-identity oracles rely on.
pub fn build(num_nodes: usize, seed: u64, dim: usize) -> (ParamStore, DgnnEncoder, LinkPredictor) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = DgnnConfig::preset(EncoderKind::Tgn, dim, 10_000.0);
    let enc = DgnnEncoder::new(&mut store, &mut rng, "enc", num_nodes, cfg);
    let head = LinkPredictor::new(&mut store, &mut rng, "head", dim);
    (store, enc, head)
}

pub fn pcfg() -> PretrainConfig {
    PretrainConfig {
        epochs: 1,
        batch_size: 50,
        n_checkpoints: 4,
        ..Default::default()
    }
}

/// One pre-training run of a fresh 16-wide [`build`] over `graph` under
/// [`pcfg`] and `runtime`: the trained store and the run's outcome.
pub fn pretrain_run(
    graph: &DynamicGraph,
    seed: u64,
    runtime: &PretrainRuntime,
) -> (ParamStore, CpdgResult<PretrainOutput>) {
    let (mut store, mut enc, head) = build(graph.num_nodes(), seed, 16);
    let mut opt = Adam::new(1e-2);
    let out = pretrain_resumable(
        &mut enc,
        &head,
        &mut store,
        &mut opt,
        graph,
        &pcfg(),
        runtime,
    );
    (store, out)
}

/// Per-epoch total losses, as bits.
pub fn loss_bits(out: &PretrainOutput) -> Vec<u32> {
    out.epoch_losses.iter().map(|e| e.total.to_bits()).collect()
}

// ---------------------------------------------------------------------
// Scripts
// ---------------------------------------------------------------------

pub fn exec(engine: &Engine, line: &str) -> String {
    engine.execute(parse(line)).render()
}

fn parse(line: &str) -> Command {
    parse_line(line).unwrap_or_else(|e| panic!("bad script line {line:?}: {e}"))
}

fn is_query(line: &str) -> bool {
    matches!(
        parse_line(line),
        Ok(Command::Emb { .. } | Command::Score { .. })
    )
}

/// Executes every line on every engine in turn; each must answer `OK`.
pub fn feed(engines: &[&Engine], lines: &[String]) {
    for line in lines {
        for engine in engines {
            let r = exec(engine, line);
            assert!(r.starts_with("OK "), "{line:?} -> {r}");
        }
    }
}

/// `count` events from `from` on: user `i % 8` meets item `8 + i % 8` at
/// time `i`, one event per time unit.
pub fn events(from: usize, count: usize) -> Vec<String> {
    (from..from + count)
        .map(|i| format!("EVENT {} {} {i}.0", i % 8, 8 + i % 8))
        .collect()
}

/// Deterministic queries at time `t`: an `EMB` and a `SCORE` per user.
pub fn queries(t: f64) -> Vec<String> {
    (0..8u32)
        .flat_map(|i| {
            [
                format!("EMB {i} {t}"),
                format!("SCORE {i} {} {t}", 8 + (i + 3) % 8),
            ]
        })
        .collect()
}

/// An engine's answers to [`queries`] past the end of every stream.
pub fn snap(engine: &Engine) -> Vec<String> {
    queries(100.0).iter().map(|q| exec(engine, q)).collect()
}

// ---------------------------------------------------------------------
// WAL, trainer and recovery
// ---------------------------------------------------------------------

/// Small segments, so short streams cross rotation boundaries and leave
/// sealed, replicated segments behind.
pub fn tiny_segments() -> WalConfig {
    WalConfig {
        segment_bytes: 64,
        ..WalConfig::default()
    }
}

/// The trainer geometry: 10-event batches, so a 64-event stream trains
/// and promotes on the first cycle, divergence disabled unless a scenario
/// forces it.
pub fn trainer_cfg(epoch_dir: PathBuf) -> TrainerConfig {
    let mut cfg = TrainerConfig::new(epoch_dir);
    cfg.continual.batch_size = 10;
    cfg.continual.seed = 7;
    cfg.continual.guard = GuardConfig::never_diverge();
    cfg
}

/// An engine serving `serving` under `hook`, with a continual trainer
/// attached whose epochs live under `epochs`.
pub fn attach(serving: &Path, epochs: &Path, hook: FaultHook) -> (Arc<Engine>, TrainerRuntime) {
    let engine = Engine::from_model_file(serving, EngineConfig::default(), hook).unwrap();
    let engine = Arc::new(engine);
    let cfg = trainer_cfg(epochs.to_path_buf());
    let trainer = TrainerRuntime::new(Arc::clone(&engine), serving, cfg).unwrap();
    (engine, trainer)
}

/// The epoch a restarting `cpdg serve --continual` serves: the promoted
/// pointer's when any copy is sound, else `base`.
fn resolve(base: &Path, epochs: &Path) -> PathBuf {
    match read_promoted(epochs) {
        Ok(Some(p)) => p.model,
        _ => base.to_path_buf(),
    }
}

/// The restart `cpdg serve --continual` performs, through the readers
/// serving uses: resolve the epoch, load it, replay the WAL.
pub fn recover(base: &Path, epochs: &Path, wal: &Path) -> (Engine, PathBuf) {
    let serving = resolve(base, epochs);
    let engine =
        Engine::from_model_file(&serving, EngineConfig::default(), FaultHook::none()).unwrap();
    engine.open_wal(wal, tiny_segments()).unwrap();
    (engine, serving)
}

/// Flips one byte in the middle of `path`: a `dd`-injected disk flip.
pub fn flip(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    assert!(!bytes.is_empty(), "cannot flip empty {}", path.display());
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(path, &bytes).unwrap();
}

/// Sealed (non-tail) WAL segment primaries under `wal`, oldest first.
pub fn sealed_interior_segments(wal: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(wal)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(scrub::classify)
                == Some(scrub::ArtifactClass::WalSegment)
        })
        .collect();
    segs.sort();
    segs.pop(); // the highest-start segment is the active tail
    segs
}

// ---------------------------------------------------------------------
// The lockstep TCP client
// ---------------------------------------------------------------------

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).unwrap();
        writer.set_nodelay(true).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Self { writer, reader }
    }

    /// One request (one segment, sent at once), then its reply line; a
    /// closed connection fails.
    pub fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "connection closed at {line:?}");
        reply.trim_end().to_string()
    }
}

// ---------------------------------------------------------------------
// The differential primitive
// ---------------------------------------------------------------------

/// Script directive: one continual-trainer cycle (a no-op without one).
pub const TRAIN: &str = "#train";
/// Script directive: checkpoint the WAL (a no-op without one).
pub const CHECKPOINT: &str = "#checkpoint";

/// A point on the configuration axes; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Server worker threads; 0 calls the engine in process.
    pub workers: usize,
    /// Coalescing width (0 and 1: none). In process, each run of
    /// consecutive queries goes through `execute_query_batch` in chunks of
    /// this width; over TCP the run is spread over this many concurrent
    /// connections, so the worker pool can coalesce them. Use 1 with
    /// plans that fault `serve.*` points: their hit order must be the
    /// script order.
    pub batch: usize,
    pub cache: bool,
    /// An attached continual trainer (cycles at [`TRAIN`]) whose every
    /// cycle fails at this trainer fault point, so it must never change
    /// serving.
    pub trainer: Option<FaultPoint>,
    /// Installed afresh on every engine the run boots.
    pub faults: FaultPlan,
    /// Attaches a WAL, and dies before script line `at`.
    pub crash: Option<Crash>,
}

#[derive(Debug, Clone, Copy)]
pub struct Crash {
    /// The script line the process dies before; may be the script length.
    pub at: usize,
    /// Before the restart, flip a byte of one sealed copy's primary (the
    /// oldest sealed segment, else the WAL checkpoint): recovery must
    /// heal it from the `.r1` replica.
    pub flip: bool,
}

/// What one scripted run observed.
pub struct Run {
    /// One reply per script line that is not a directive.
    pub replies: Vec<String>,
    /// The encoder state the engine drained, encoded.
    pub memory: Vec<u8>,
    /// The engine that drained.
    pub engine: Arc<Engine>,
    /// What the restart after the crash cut recovered.
    pub recovery: Option<WalRecoveryReport>,
    /// The outcome of every trainer cycle.
    pub cycles: Vec<CycleOutcome>,
}

static RUNS: AtomicUsize = AtomicUsize::new(0);

/// Runs `script` against an engine serving `model` under `cfg`, then
/// drains it and records its encoder state.
pub fn run(model: &ModelFile, script: &[String], cfg: &Config) -> Run {
    let dir = test_dir(&format!("run{}", RUNS.fetch_add(1, Ordering::Relaxed)));
    let (base, epochs, wal) = (dir.join("base.json"), dir.join("epochs"), dir.join("wal"));
    model.save(&base).unwrap();
    let mut plan = cfg.faults.clone();
    if let Some(point) = cfg.trainer {
        plan = plan.with(point, FaultKind::Permanent, Trigger::Every { k: 1 });
    }
    let boot = |serving: &Path| {
        let engine_cfg = EngineConfig {
            cache: cfg.cache,
            ..EngineConfig::default()
        };
        let engine =
            Engine::from_model_file(serving, engine_cfg, FaultHook::install(&plan)).unwrap();
        let report = cfg
            .crash
            .map(|_| engine.open_wal(&wal, tiny_segments()).unwrap());
        let process = Process::start(cfg, engine, serving, &epochs);
        (process, report)
    };
    let crash_at = cfg.crash.map(|c| c.at);
    let (mut process, _) = boot(&base);
    let (mut replies, mut recovery, mut cycles) = (Vec::new(), None, Vec::new());
    let mut i = 0;
    loop {
        if crash_at == Some(i) {
            // kill -9 analog: no drain, no checkpoint.
            drop(process.stop());
            if cfg.crash.is_some_and(|c| c.flip) {
                let copy = sealed_interior_segments(&wal)
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| wal.join("checkpoint.cpdg"));
                flip(&copy);
            }
            let (restarted, report) = boot(&resolve(&base, &epochs));
            assert_eq!(
                restarted.engine.cache_len(),
                0,
                "recovery must start from a cold cache"
            );
            (process, recovery) = (restarted, report);
        }
        let Some(line) = script.get(i) else { break };
        let mut end = i + 1;
        match line.as_str() {
            TRAIN => cycles.extend(process.trainer.as_mut().map(|t| t.run_cycle().unwrap())),
            CHECKPOINT => {
                process.engine.checkpoint_wal(&FS_STORAGE).unwrap();
            }
            _ => {
                if is_query(line) {
                    while end < script.len() && crash_at != Some(end) && is_query(&script[end]) {
                        end += 1;
                    }
                }
                replies.extend(process.serve(&script[i..end], cfg.batch));
            }
        }
        i = end;
    }
    let engine = process.stop();
    engine.flush();
    let memory = cpdg::core::codec::to_bytes(&engine.export_state());
    Run {
        replies,
        memory,
        engine,
        recovery,
        cycles,
    }
}

/// The oracle: `b` drained the same memory as `a` and answered every line
/// alike.
pub fn assert_same(a: &Run, b: &Run) {
    assert!(
        a.memory == b.memory,
        "drained memory diverged ({} vs {} bytes)",
        a.memory.len(),
        b.memory.len()
    );
    assert_eq!(a.replies.len(), b.replies.len(), "reply count diverged");
    for (i, (x, y)) in a.replies.iter().zip(&b.replies).enumerate() {
        assert_eq!(x, y, "reply {i} diverged");
    }
}

/// Runs `script` under `a` and under `b`, and asserts [`assert_same`].
pub fn differential(model: &ModelFile, script: &[String], a: &Config, b: &Config) -> (Run, Run) {
    let (ra, rb) = (run(model, script, a), run(model, script, b));
    assert_same(&ra, &rb);
    (ra, rb)
}

/// One process lifetime of a scripted run.
struct Process {
    engine: Arc<Engine>,
    server: Option<Server>,
    clients: Vec<Client>,
    trainer: Option<TrainerRuntime>,
}

impl Process {
    fn start(cfg: &Config, engine: Engine, serving: &Path, epochs: &Path) -> Self {
        let engine = Arc::new(engine);
        let trainer = cfg.trainer.map(|_| {
            TrainerRuntime::new(
                Arc::clone(&engine),
                serving,
                trainer_cfg(epochs.to_path_buf()),
            )
            .unwrap()
        });
        let (server, clients) = if cfg.workers == 0 {
            (None, Vec::new())
        } else {
            let width = cfg.batch.max(1);
            let server_cfg = ServerConfig {
                workers: cfg.workers,
                batch: width,
                ..ServerConfig::default()
            };
            let server = Server::start(Arc::clone(&engine), &server_cfg).expect("bind serve");
            let clients = (0..width)
                .map(|_| Client::connect(server.local_addr()))
                .collect();
            (Some(server), clients)
        };
        Self {
            engine,
            server,
            clients,
            trainer,
        }
    }

    /// The replies to one line, or to one run of consecutive queries.
    fn serve(&mut self, lines: &[String], batch: usize) -> Vec<String> {
        if self.server.is_some() {
            let n = self.clients.len().min(lines.len());
            let mut replies = vec![String::new(); lines.len()];
            std::thread::scope(|s| {
                let senders: Vec<_> = self.clients[..n]
                    .iter_mut()
                    .enumerate()
                    .map(|(k, client)| {
                        s.spawn(move || {
                            (k..lines.len())
                                .step_by(n)
                                .map(|i| (i, client.send(&lines[i])))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for sender in senders {
                    for (i, reply) in sender.join().unwrap() {
                        replies[i] = reply;
                    }
                }
            });
            replies
        } else if batch > 1 && lines.len() > 1 {
            let cmds: Vec<Command> = lines.iter().map(|l| parse(l)).collect();
            cmds.chunks(batch)
                .flat_map(|chunk| self.engine.execute_query_batch(chunk, &[]))
                .map(|r| r.render())
                .collect()
        } else {
            lines.iter().map(|l| exec(&self.engine, l)).collect()
        }
    }

    /// Closes the connections, drops the trainer and drains the server.
    fn stop(self) -> Arc<Engine> {
        drop((self.clients, self.trainer));
        if let Some(server) = self.server {
            server.shutdown();
        }
        self.engine
    }
}
