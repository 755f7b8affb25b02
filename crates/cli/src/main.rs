//! `cpdg` — command-line interface for the CPDG reproduction.
//!
//! ```text
//! cpdg generate  --preset amazon --scale 0.5 --seed 0 --out data.csv
//! cpdg stats     --data data.csv
//! cpdg pretrain  --data data.csv --encoder tgn --dim 32 --epochs 5 --out model.cpdg
//! cpdg pretrain  --data data.csv --out model.cpdg --ckpt-dir ckpts --ckpt-every 50
//! cpdg pretrain  --data data.csv --out model.cpdg --resume ckpts
//! cpdg finetune  --data data.csv --model model.cpdg --strategy eie-gru --epochs 3
//! cpdg serve     --model model.cpdg --port 7654 --memory-out state.cpdg
//! cpdg query     --addr 127.0.0.1:7654 --send "SCORE 0 42"
//! ```
//!
//! Data files are JODIE-format CSVs (`user_id,item_id,timestamp,
//! state_label,features…`) — the format the paper's Wikipedia/MOOC/Reddit
//! datasets ship in.
//!
//! Failures map to distinct exit codes (see [`CpdgError::exit_code`]), so
//! shell drivers can tell a corrupt model file from a diverged run from a
//! resumable interruption.
//!
//! Observability: `--log-level`/`--log-format` configure the stderr
//! diagnostic stream, and `--run-dir <dir>` records provenance artefacts
//! (`run.json` manifest + `metrics.jsonl` per-epoch records) for
//! `pretrain` and `finetune` runs.

// The CLI's job is printing to the console; the workspace-wide
// disallowed-macros lint applies to library crates only.
#![allow(clippy::disallowed_macros)]

mod args;

use args::Args;
use cpdg_core::chaos::{load_jodie_chaos, FaultHook, FaultPlan, RetryPolicy};
use cpdg_core::checkpoint::CheckpointConfig;
use cpdg_core::error::{CpdgError, CpdgResult};
use cpdg_core::finetune::{finetune_link_prediction, FinetuneConfig, FinetuneStrategy};
use cpdg_core::model_io::ModelFile;
use cpdg_core::pipeline::auto_time_scale;
use cpdg_core::pretrain::{pretrain_resumable, PretrainConfig, PretrainRuntime};
use cpdg_core::{EieFusion, FS_STORAGE};
use cpdg_dgnn::{DgnnConfig, DgnnEncoder, EncoderKind, LinkPredictor};
use cpdg_graph::loader::{write_jodie_csv, LoadMode, LoadOptions};
use cpdg_graph::{generate, GraphStats, SyntheticConfig};
use cpdg_obs::Json;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
cpdg — Contrastive Pre-Training for Dynamic Graph Neural Networks

USAGE:
  cpdg generate --preset <amazon|gowalla|meituan|wikipedia|mooc|reddit>
                [--scale X] [--seed N] --out <file.csv>
  cpdg stats    --data <file.csv>
  cpdg pretrain --data <file.csv> [--encoder tgn|jodie|dyrep] [--dim N]
                [--epochs N] [--beta X] [--seed N] [--vanilla]
                [--ckpt-dir <dir>] [--ckpt-every N] [--keep N]
                [--resume <dir>] [--chaos-plan <plan.json>] --out <model.cpdg>
  cpdg finetune --data <file.csv> --model <model.cpdg>
                [--strategy full|eie-mean|eie-attn|eie-gru] [--epochs N]
                [--seed N]
  cpdg serve    --model <model.cpdg> [--port N] [--workers N] [--queue N]
                [--batch N] [--cache on|off]
                [--deadline-ms N] [--breaker-k N]
                [--breaker-probe N] [--wal-dir <dir>]
                [--fsync always|os|every-N] [--wal-segment-bytes N]
                [--memory-in <state.cpdg>] [--memory-out <state.cpdg>]
                [--continual --epoch-dir <dir>] [--train-window X]
                [--train-stride X] [--train-cadence-ms N] [--train-gate X]
                [--train-min-events N] [--train-probation N]
                [--ingest <script>] [--chaos-plan <plan.json>] [--seed N]
                [--scrub-interval <ms>]
  cpdg query    (--addr <host:port> | --port N)
                [--send \"<request line>\" | --status]
  cpdg scrub    <dir> [<dir> …] [--chaos-plan <plan.json>]

A subcommand refuses any option it does not read (exit 2, naming it).

Serving: `serve` loads a pre-trained model and answers a line protocol
(EVENT src dst t [field] / EMB node [t] / SCORE src dst [t] /
RELOAD path / STATS / STATUS / PING) on 127.0.0.1; --port 0 (default)
picks a free port, printed as `listening on …`. Requests beyond --queue
are shed with `ERR overloaded`; --deadline-ms bounds each inference
(a zero budget is rejected at admission); after --breaker-k
consecutive inference failures a circuit breaker serves degraded static
embeddings until a probe (every --breaker-probe requests) succeeds.
SIGTERM/SIGINT drains gracefully: admitted requests finish, then
--memory-out persists the DGNN memory (CRC-sealed, crash-safe).
--ingest <script> applies a request file in-process instead of serving
TCP — the reference path the end-to-end smoke test compares against.
`query` connects, sends --send (or each stdin line), and prints replies;
--status sends STATUS and prints the server's key=value health line.

Crash recovery: with --wal-dir, every EVENT is appended to a CRC-framed
write-ahead log *before* it mutates memory, and startup replays the log
(plus the newest checkpoint) so a process killed at any instant — even
kill -9 — restarts bit-identical to an uninterrupted run. --fsync picks
the durability/throughput trade: `always` (default) syncs per append,
`every-N` batches syncs, `os` leaves flushing to the page cache. A clean
drain writes a checkpoint and truncates replayed segments.
--wal-segment-bytes caps each log segment (default 1 MiB); a full
segment is sealed — CRC-footered and replicated — and a fresh one
started.

Continual pre-training: --continual (requires --wal-dir and
--epoch-dir; refused with --ingest, exit 2) runs a supervised trainer
beside serving. It slices the acknowledged stream into overlapping
windows (--train-window span, --train-stride step), runs cross-window
contrastive updates in a private parameter store, and every
--train-cadence-ms emits a CRC-sealed candidate epoch under
--epoch-dir. A candidate serves only after the validation gate passes
(finite parameters; held-out loss within --train-gate x the serving
epoch's) and the versioned hot-swap succeeds; rejected candidates move
to <epoch-dir>/quarantine/ and are counted in STATUS (trainer.*).
A promotion that trips the breaker within --train-probation cycles is
rolled back automatically. The sealed pointer <epoch-dir>/promoted.cpdg
is rewritten atomically on every promotion, so a process killed at any
instant — even kill -9 mid-promotion — restarts serving the last
promoted epoch (a corrupt pointer is warned about and the --model base
epoch serves instead). Trainer crashes never touch serving: panics are
caught, counted, and retried with deterministic backoff.

Self-healing artifacts: every scrub-managed artifact (WAL checkpoints,
sealed WAL segments, candidate epoch files, the promoted pointer) is
kept as two copies, <name> and <name>.r1, each an atomic fsynced write.
Reading the WAL checkpoint, the sealed segments and the promoted
pointer reads both copies and rewrites a corrupt one from the sound
one; only when both are bad does a typed refusal (exit 4, naming the
artifact) surface. A WAL segment with no sound copy is quarantined and
recovery reports the gap (records are never silently skipped). Epoch
files are read from the primary only: their .r1 is healed by the
scrubber. Every sealed file must carry its integrity footer; one
without it is refused (exit 4). --scrub-interval <ms> (default 0 =
off) runs a supervised background scrubber that re-verifies every
artifact's CRC on a byte-budgeted cadence and repairs rot before the
next crash needs the copy; STATUS reports scrub.* counters. `cpdg
scrub <dir> …` runs the same sweep offline, printing a report and
exiting 4 if any artifact has no sound copy left.

Coalescing & caching: --batch N (default 1) lets each worker drain up
to N contiguous queued queries and run them on one shared forward tape;
--cache on (default off) replays repeat queries from a temporal
embedding cache invalidated per-node by EVENTs and wholesale by
RELOAD/recovery. Both are latency knobs only: replies are bit-identical
to --batch 1 --cache off (STATUS reports batches, cache_hits,
cache_misses, cache_invalidations, cache_entries).

Signals: `pretrain` also traps SIGTERM/SIGINT — it publishes a final
checkpoint (with --ckpt-dir) and exits with code 8 so schedulers can tell
a clean preemption from a crash; resume with --resume.

Data loading (stats / pretrain / finetune):
  --strict-load     fail on the first malformed CSV row (default)
  --lenient-load    quarantine malformed rows instead of failing; the report
                    (count, line numbers, reasons) lands in run.json
  --max-events N    refuse data files with more than N interaction events
  --max-nodes N     refuse data files whose node universe exceeds N

Fault injection (pretrain / finetune):
  --chaos-plan <f>  read a JSON fault plan and inject deterministic faults at
                    the named points (storage.write, ckpt.save, loader.row, …).
                    Transient faults are retried with exponential backoff;
                    permanent ones surface as typed errors. A storage.write
                    fault with `persist: N` tears the write (N bytes land,
                    then it fails). See DESIGN.md.

Common options (every command):
  --log-level <error|warn|info|debug|trace>  stderr diagnostic verbosity
                                             (default info)
  --log-format <text|json>                   stderr diagnostic rendering
  --run-dir <dir>   write provenance artefacts into <dir>: run.json
                    (config, seed, dataset stats, wall-clock,
                    counter totals) and metrics.jsonl (one record per
                    pre-train / fine-tune epoch)

Crash safety: with --ckpt-dir, pre-training snapshots its full state every
--ckpt-every batches (keeping the --keep newest files plus a `latest`
pointer); --resume <dir> continues from the newest valid checkpoint there,
skipping corrupt ones. Rebuild with the same --encoder/--dim/--seed as the
original run.
";

/// Options every subcommand reads (observability), space-separated.
const COMMON_OPTIONS: &str = "log-level log-format run-dir";

/// The options (and bare flags) `command` reads besides
/// [`COMMON_OPTIONS`], space-separated; `None` for an unknown command,
/// which dispatch refuses by name.
fn command_options(command: &str) -> Option<&'static str> {
    Some(match command {
        "generate" => "preset scale seed out",
        "stats" => "data strict-load lenient-load max-events max-nodes",
        "pretrain" => {
            "data out encoder dim epochs beta seed vanilla ckpt-dir ckpt-every keep resume \
             chaos-plan strict-load lenient-load max-events max-nodes"
        }
        "finetune" => {
            "data model strategy epochs seed chaos-plan strict-load lenient-load max-events \
             max-nodes"
        }
        "serve" => {
            "model port workers queue batch cache deadline-ms breaker-k breaker-probe wal-dir \
             fsync wal-segment-bytes memory-in memory-out continual epoch-dir train-window \
             train-stride train-cadence-ms train-gate train-min-events train-probation ingest \
             chaos-plan seed scrub-interval"
        }
        "query" => "addr port send status",
        "scrub" => "chaos-plan",
        _ => return None,
    })
}

/// Parses argv and refuses any option the subcommand does not read, so a
/// typo (`--fsyn os`) or a removed option is an error, not a silent
/// default.
fn parse_args() -> Result<Args, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if let Some(known) = args.command.as_deref().and_then(command_options) {
        args.refuse_unknown(&[COMMON_OPTIONS, known])?;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Console sink + optional run directory; the `RunDir` handle stays
    // alive for the whole command so metric events land in metrics.jsonl.
    let run_dir = match init_observability(&args) {
        Ok(rd) => rd,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(e.exit_code());
        }
    };
    // `scrub` takes directory operands; every other subcommand refuses
    // positionals explicitly (they were always a mistake).
    let result = match args.command.as_deref() {
        Some("scrub") => cmd_scrub(&args),
        _ => match args.no_positionals() {
            Err(e) => Err(CpdgError::Invalid(e)),
            Ok(()) => match args.command.as_deref() {
                Some("generate") => cmd_generate(&args),
                Some("stats") => cmd_stats(&args),
                Some("pretrain") => cmd_pretrain(&args, run_dir.as_ref()),
                Some("finetune") => cmd_finetune(&args, run_dir.as_ref()),
                Some("serve") => cmd_serve(&args),
                Some("query") => cmd_query(&args),
                Some(other) => Err(CpdgError::Invalid(format!("unknown command {other:?}"))),
                None => Err(CpdgError::Invalid("no command given".to_string())),
            },
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CpdgError::Invalid(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

/// Installs the stderr console sink from `--log-level`/`--log-format` and
/// opens `--run-dir` (creating it) when given.
fn init_observability(args: &Args) -> CpdgResult<Option<cpdg_obs::RunDir>> {
    let level: cpdg_obs::Level = args
        .get_or("log-level", "info")
        .parse()
        .map_err(CpdgError::Invalid)?;
    let format: cpdg_obs::LogFormat = args
        .get_or("log-format", "text")
        .parse()
        .map_err(CpdgError::Invalid)?;
    cpdg_obs::init(level, format);
    match args.get("run-dir") {
        None => Ok(None),
        Some(d) => cpdg_obs::RunDir::create(Path::new(d))
            .map(Some)
            .map_err(|e| CpdgError::io(d, e)),
    }
}

/// The shared skeleton of a `run.json` manifest: tool identity, command,
/// lifecycle status, seed, config, and dataset stats.
fn run_manifest(command: &str, status: &str, seed: u64, config: Json, dataset: Json) -> Json {
    Json::obj(vec![
        ("tool", Json::from("cpdg")),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        ("command", Json::from(command)),
        ("status", Json::from(status)),
        ("seed", Json::U64(seed)),
        ("config", config),
        ("dataset", dataset),
    ])
}

/// Dataset provenance block for `run.json`, including the ingestion
/// quarantine summary when lenient loading set any rows aside.
fn dataset_json(path: &str, loaded: &cpdg_graph::loader::LoadedGraph) -> Json {
    let s = GraphStats::compute(&loaded.graph);
    let mut d = Json::obj(vec![
        ("path", Json::from(path)),
        ("users", Json::U64(loaded.num_users as u64)),
        ("items", Json::U64(loaded.num_items as u64)),
        ("active_nodes", Json::U64(s.active_nodes as u64)),
        ("events", Json::U64(s.edges as u64)),
        ("t_min", Json::F64(s.t_min)),
        ("t_max", Json::F64(s.t_max)),
        ("quarantined", Json::U64(loaded.quarantine.total as u64)),
    ]);
    if !loaded.quarantine.is_empty() {
        let rows = loaded
            .quarantine
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("line", Json::U64(r.line as u64)),
                    ("reason", Json::from(r.reason.as_str())),
                ])
            })
            .collect();
        d.push(
            "quarantine_truncated",
            Json::Bool(loaded.quarantine.truncated()),
        );
        d.push("quarantined_rows", Json::Arr(rows));
    }
    d
}

/// Final-manifest decorations shared by pretrain and finetune: wall-clock
/// plus the process-wide counter and span-histogram totals.
fn finish_manifest(m: &mut Json, started: std::time::Instant) {
    m.push(
        "wall_clock_secs",
        Json::F64(started.elapsed().as_secs_f64()),
    );
    m.push("counters", cpdg_obs::metrics::counters_json());
    m.push("spans", cpdg_obs::metrics::histograms_json());
}

fn cmd_generate(args: &Args) -> CpdgResult<()> {
    let preset = args.get_or("preset", "amazon");
    let seed: u64 = args.get_num("seed", 0)?;
    let scale: f64 = args.get_num("scale", 1.0)?;
    let out = args.require("out")?;
    let cfg = match preset {
        "amazon" => SyntheticConfig::amazon_like(seed),
        "gowalla" => SyntheticConfig::gowalla_like(seed),
        "meituan" => SyntheticConfig::meituan_like(seed),
        "wikipedia" => SyntheticConfig::wikipedia_like(seed),
        "mooc" => SyntheticConfig::mooc_like(seed),
        "reddit" => SyntheticConfig::reddit_like(seed),
        other => return Err(CpdgError::Invalid(format!("unknown preset {other:?}"))),
    }
    .scaled(scale);
    let ds = generate(&cfg);
    let file = File::create(out).map_err(|e| CpdgError::io(out, e))?;
    write_jodie_csv(&ds.graph, ds.num_users, file).map_err(|e| CpdgError::io(out, e))?;
    println!(
        "wrote {} events ({} users, {} items, {} labels) to {out}",
        ds.graph.num_events(),
        ds.num_users,
        ds.num_items,
        ds.graph.labels().len()
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> CpdgResult<()> {
    let data = args.require("data")?;
    let loaded = load_data(data, &load_options(args)?, &FaultHook::none())?;
    let s = GraphStats::compute(&loaded.graph);
    println!("file           : {data}");
    println!(
        "users / items  : {} / {}",
        loaded.num_users, loaded.num_items
    );
    println!("active nodes   : {}", s.active_nodes);
    println!("events         : {}", s.edges);
    println!("density        : {:.6}%", s.density * 100.0);
    println!(
        "time span      : {:.0} ({:.0} … {:.0})",
        s.timespan(),
        s.t_min,
        s.t_max
    );
    println!("mean degree    : {:.2}", s.mean_degree);
    println!(
        "labels         : {} ({:.2}% positive)",
        loaded.graph.labels().len(),
        s.label_positive_rate * 100.0
    );
    if !loaded.quarantine.is_empty() {
        println!(
            "quarantined    : {} malformed row(s) set aside",
            loaded.quarantine.total
        );
    }
    Ok(())
}

fn parse_encoder(name: &str) -> CpdgResult<EncoderKind> {
    match name {
        "tgn" => Ok(EncoderKind::Tgn),
        "jodie" => Ok(EncoderKind::Jodie),
        "dyrep" => Ok(EncoderKind::DyRep),
        other => Err(CpdgError::Invalid(format!(
            "unknown encoder {other:?} (expected tgn|jodie|dyrep)"
        ))),
    }
}

fn cmd_pretrain(args: &Args, run: Option<&cpdg_obs::RunDir>) -> CpdgResult<()> {
    let started = std::time::Instant::now();
    let data = args.require("data")?;
    let out = args.require("out")?;
    let encoder_kind = parse_encoder(args.get_or("encoder", "tgn"))?;
    let dim: usize = args.get_num("dim", 32)?;
    let epochs: usize = args.get_num("epochs", 5)?;
    let beta: f32 = args.get_num("beta", 0.5)?;
    let seed: u64 = args.get_num("seed", 0)?;
    let vanilla = args.has_flag("vanilla");

    let resume_dir = args.get("resume");
    let ckpt_dir = args.get("ckpt-dir").or(resume_dir);
    let chaos = chaos_hook(args)?;
    // Trap SIGTERM/SIGINT so a preempted run checkpoints before exiting
    // (exit code 8, resumable with --resume).
    sig::install();
    let runtime = PretrainRuntime {
        checkpoint: match ckpt_dir {
            Some(d) => Some(CheckpointConfig {
                dir: PathBuf::from(d),
                every_n_steps: args.get_num("ckpt-every", 50)?,
                keep: args.get_num("keep", 3)?,
            }),
            None => None,
        },
        resume: resume_dir.is_some(),
        chaos: chaos.clone(),
        stop: Some(&sig::STOP),
        ..PretrainRuntime::default()
    };

    let load_opts = load_options(args)?;
    let loaded = load_data(data, &load_opts, &chaos)?;
    let chaos_plan_json = match args.get("chaos-plan") {
        Some(p) => Json::from(p),
        None => Json::Null,
    };
    let config_json = Json::obj(vec![
        ("encoder", Json::from(encoder_kind.name())),
        ("dim", Json::U64(dim as u64)),
        ("epochs", Json::U64(epochs as u64)),
        ("beta", Json::F64(beta as f64)),
        ("vanilla", Json::Bool(vanilla)),
        (
            "lenient_load",
            Json::Bool(matches!(load_opts.mode, LoadMode::Lenient)),
        ),
        ("chaos_plan", chaos_plan_json),
        ("out", Json::from(out)),
    ]);
    let data_json = dataset_json(data, &loaded);
    // First manifest write: provenance survives even if the run crashes.
    if let Some(run) = run {
        let m = run_manifest(
            "pretrain",
            "running",
            seed,
            config_json.clone(),
            data_json.clone(),
        );
        run.write_manifest(&m)
            .map_err(|e| CpdgError::io("run.json", e))?;
    }
    let graph = loaded.graph;
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let dcfg = DgnnConfig::preset(encoder_kind, dim, auto_time_scale(&graph));
    let mut encoder =
        DgnnEncoder::new(&mut store, &mut rng, "enc", graph.num_nodes(), dcfg.clone());
    let head = LinkPredictor::new(&mut store, &mut rng, "pretext_head", dim);
    let mut opt = Adam::new(2e-2);
    let mut pcfg = PretrainConfig {
        epochs,
        seed,
        ..Default::default()
    };
    pcfg.objective.beta = beta;
    if vanilla {
        pcfg.objective.use_tc = false;
        pcfg.objective.use_sc = false;
    }

    println!(
        "pre-training {} (dim {dim}, {} mode) on {} events for {epochs} epoch(s)…",
        encoder_kind.name(),
        if vanilla { "vanilla" } else { "CPDG" },
        graph.num_events()
    );
    let result = pretrain_resumable(
        &mut encoder,
        &head,
        &mut store,
        &mut opt,
        &graph,
        &pcfg,
        &runtime,
    )?;
    for (i, e) in result.epoch_losses.iter().enumerate() {
        println!(
            "  epoch {:>2}: total {:.4} (tlp {:.4}, tc {:.4}, sc {:.4})",
            i + 1,
            e.total,
            e.tlp,
            e.tc,
            e.sc
        );
    }
    if result.skipped_steps > 0 {
        println!(
            "  divergence guard skipped {} poisoned step(s)",
            result.skipped_steps
        );
    }
    let model = ModelFile::new(dcfg, graph.num_nodes(), store, result.checkpoints);
    model.save(Path::new(out))?;
    println!(
        "saved model ({} params, {} checkpoints) to {out}",
        model.params.scalar_count(),
        model.checkpoints.len()
    );
    if let Some(run) = run {
        let mut m = run_manifest("pretrain", "complete", seed, config_json, data_json);
        m.push(
            "epochs_completed",
            Json::U64(result.epoch_losses.len() as u64),
        );
        if let Some(last) = result.epoch_losses.last() {
            m.push("final_loss", Json::F64(last.total as f64));
        }
        m.push("skipped_steps", Json::U64(result.skipped_steps as u64));
        m.push("eie_checkpoints", Json::U64(model.checkpoints.len() as u64));
        finish_manifest(&mut m, started);
        run.write_manifest(&m)
            .map_err(|e| CpdgError::io("run.json", e))?;
    }
    Ok(())
}

fn parse_strategy(name: &str) -> CpdgResult<FinetuneStrategy> {
    match name {
        "full" => Ok(FinetuneStrategy::Full),
        "eie-mean" => Ok(FinetuneStrategy::Eie(EieFusion::Mean)),
        "eie-attn" => Ok(FinetuneStrategy::Eie(EieFusion::Attn)),
        "eie-gru" => Ok(FinetuneStrategy::Eie(EieFusion::Gru)),
        other => Err(CpdgError::Invalid(format!(
            "unknown strategy {other:?} (expected full|eie-mean|eie-attn|eie-gru)"
        ))),
    }
}

fn cmd_finetune(args: &Args, run: Option<&cpdg_obs::RunDir>) -> CpdgResult<()> {
    let started = std::time::Instant::now();
    let data = args.require("data")?;
    let model_path = args.require("model")?;
    let strategy = parse_strategy(args.get_or("strategy", "eie-gru"))?;
    let epochs: usize = args.get_num("epochs", 3)?;
    let seed: u64 = args.get_num("seed", 0)?;

    let model = ModelFile::load(Path::new(model_path))?;
    let loaded = load_data(data, &load_options(args)?, &chaos_hook(args)?)?;
    let config_json = Json::obj(vec![
        ("strategy", Json::from(strategy.name())),
        ("epochs", Json::U64(epochs as u64)),
        ("model", Json::from(model_path)),
    ]);
    let data_json = dataset_json(data, &loaded);
    if let Some(run) = run {
        let m = run_manifest(
            "finetune",
            "running",
            seed,
            config_json.clone(),
            data_json.clone(),
        );
        run.write_manifest(&m)
            .map_err(|e| CpdgError::io("run.json", e))?;
    }
    let graph = loaded.graph;
    if graph.num_nodes() > model.num_nodes {
        return Err(CpdgError::NodeCountMismatch {
            data_nodes: graph.num_nodes(),
            model_nodes: model.num_nodes,
        });
    }

    // Rebuild the encoder with the saved wiring, then load weights by name.
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut encoder = DgnnEncoder::new(
        &mut store,
        &mut rng,
        "enc",
        model.num_nodes,
        model.encoder_config.clone(),
    );
    let copied = store
        .load_matching(&model.params)
        .map_err(|e| CpdgError::corrupt(model_path, e.to_string()))?;
    println!("loaded {copied} parameter tensors from {model_path}");

    let strategy = if model.checkpoints.is_empty() && matches!(strategy, FinetuneStrategy::Eie(_)) {
        println!("model has no checkpoints; falling back to full fine-tuning");
        FinetuneStrategy::Full
    } else {
        strategy
    };
    let fcfg = FinetuneConfig {
        epochs,
        seed,
        strategy,
        ..Default::default()
    };
    println!(
        "fine-tuning ({}) on {} events for {epochs} epoch(s)…",
        strategy.name(),
        graph.num_events()
    );
    let res = finetune_link_prediction(
        &mut encoder,
        &mut store,
        &graph,
        &model.checkpoints,
        &fcfg,
        None,
    );
    println!("validation AUC : {:.4}", res.val_auc);
    println!("test AUC       : {:.4}", res.auc);
    println!("test AP        : {:.4}", res.ap);
    if let Some(run) = run {
        let mut m = run_manifest("finetune", "complete", seed, config_json, data_json);
        m.push("val_auc", Json::F64(res.val_auc as f64));
        m.push("auc", Json::F64(res.auc as f64));
        m.push("ap", Json::F64(res.ap as f64));
        finish_manifest(&mut m, started);
        run.write_manifest(&m)
            .map_err(|e| CpdgError::io("run.json", e))?;
    }
    Ok(())
}

/// Flag-based signal handling: the handler only stores the signal number
/// into an atomic (the one async-signal-safe thing worth doing), and the
/// long-running loops poll it at safe boundaries — `pretrain` between
/// batches (checkpoint, then exit 8), `serve` in its wait loop (graceful
/// drain, then persist memory).
mod sig {
    use std::sync::atomic::AtomicI32;

    /// Last signal received; 0 means none.
    pub static STOP: AtomicI32 = AtomicI32::new(0);

    #[cfg(unix)]
    mod imp {
        use std::sync::atomic::Ordering;

        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;

        extern "C" {
            // `signal(2)`. Return value (the previous handler) is ignored.
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }

        extern "C" fn on_signal(sig: i32) {
            // A relaxed atomic store is async-signal-safe.
            super::STOP.store(sig, Ordering::Relaxed);
        }

        pub fn install() {
            unsafe {
                signal(SIGINT, on_signal);
                signal(SIGTERM, on_signal);
            }
        }
    }

    #[cfg(not(unix))]
    mod imp {
        pub fn install() {}
    }

    /// Installs the SIGINT/SIGTERM flag hook (no-op off unix).
    pub fn install() {
        imp::install();
    }
}

/// The model file the engine should serve: `--model`, unless `--continual`
/// has promoted a later epoch — the sealed pointer under `--epoch-dir`
/// survives `kill -9`, so a restart resumes from the last *promoted*
/// epoch instead of regressing to the base model. A corrupt pointer (or
/// one naming a missing file) is warned about and the base model serves.
fn resolve_serving_model(args: &Args) -> CpdgResult<PathBuf> {
    let base = PathBuf::from(args.require("model")?);
    if !args.has_flag("continual") {
        return Ok(base);
    }
    let dir = PathBuf::from(args.require("epoch-dir")?);
    match cpdg_serve::read_promoted(&dir) {
        Ok(Some(promoted)) => {
            println!("serving promoted epoch {}", promoted.model.display());
            Ok(promoted.model)
        }
        Ok(None) => Ok(base),
        Err(e) => {
            cpdg_obs::warn!(
                "cli.serve",
                "promoted pointer unusable; serving the base model";
                error = e.to_string(),
            );
            Ok(base)
        }
    }
}

/// Builds the serving engine from the resolved model file and the shared
/// tuning knobs. Returns the engine with the path it serves, which
/// `--continual` reuses as the trainer's baseline.
fn serve_engine(args: &Args) -> CpdgResult<(std::sync::Arc<cpdg_serve::Engine>, PathBuf)> {
    let model_path = resolve_serving_model(args)?;
    let cache = match args.get("cache") {
        None => false,
        Some("on") => true,
        Some("off") => false,
        Some(other) => {
            return Err(CpdgError::Invalid(format!(
                "invalid value for --cache: {other:?} (expected on|off)"
            )))
        }
    };
    let engine_cfg = cpdg_serve::EngineConfig {
        deadline: opt_usize(args, "deadline-ms")?
            .map(|ms| std::time::Duration::from_millis(ms as u64)),
        breaker_threshold: args.get_num("breaker-k", 3u32)?,
        breaker_probe_every: args.get_num("breaker-probe", 4u32)?,
        seed: args.get_num("seed", 0u64)?,
        cache,
    };
    let engine = cpdg_serve::Engine::from_model_file(&model_path, engine_cfg, chaos_hook(args)?)?;
    if let Some(mem) = args.get("memory-in") {
        engine.restore_memory_file(&FS_STORAGE, Path::new(mem))?;
        println!("restored memory from {mem}");
    }
    Ok((std::sync::Arc::new(engine), model_path))
}

/// Builds the continual-trainer config from the `--train-*` knobs.
/// Window geometry is validated here (exit 2 on nonsense) rather than on
/// the supervisor thread, where a refusal would be invisible; `cmd_serve`
/// calls this with the other `--continual` refusals, before any port is
/// bound or WAL opened.
fn trainer_config(args: &Args) -> CpdgResult<cpdg_serve::TrainerConfig> {
    let dir = PathBuf::from(args.require("epoch-dir")?);
    let mut cfg = cpdg_serve::TrainerConfig::new(dir);
    let span: f64 = args.get_num("train-window", 16.0f64)?;
    let stride: f64 = args.get_num("train-stride", span / 2.0)?;
    cfg.continual.window = cpdg_core::WindowConfig::new(span, stride)?;
    cfg.continual.min_events = args.get_num("train-min-events", 32usize)?;
    cfg.continual.seed = args.get_num("seed", 0u64)?;
    cfg.continual.gate.max_loss_ratio = args.get_num("train-gate", 1.5f64)?;
    if !cfg.continual.gate.max_loss_ratio.is_finite() || cfg.continual.gate.max_loss_ratio <= 0.0 {
        return Err(CpdgError::Invalid(format!(
            "--train-gate must be finite and positive, got {}",
            cfg.continual.gate.max_loss_ratio
        )));
    }
    cfg.cadence = std::time::Duration::from_millis(args.get_num("train-cadence-ms", 500u64)?);
    cfg.probation_cycles = args.get_num("train-probation", 3u64)?;
    Ok(cfg)
}

/// Opens (and recovers from) the write-ahead log when `--wal-dir` is
/// given. `--fsync` without `--wal-dir` is a configuration mistake worth
/// refusing loudly rather than silently running without durability.
fn open_wal(args: &Args, engine: &cpdg_serve::Engine) -> CpdgResult<bool> {
    let Some(dir) = args.get("wal-dir") else {
        if args.get("fsync").is_some() {
            return Err(CpdgError::Invalid(
                "--fsync requires --wal-dir (no log to sync without one)".to_string(),
            ));
        }
        return Ok(false);
    };
    let fsync = match args.get("fsync") {
        Some(s) => s
            .parse::<cpdg_core::FsyncPolicy>()
            .map_err(CpdgError::Invalid)?,
        None => cpdg_core::FsyncPolicy::Always,
    };
    let segment_bytes: u64 = args.get_num(
        "wal-segment-bytes",
        cpdg_core::WalConfig::default().segment_bytes,
    )?;
    if segment_bytes == 0 {
        return Err(CpdgError::Invalid(
            "--wal-segment-bytes must be positive".to_string(),
        ));
    }
    let config = cpdg_core::WalConfig {
        fsync,
        segment_bytes,
        ..cpdg_core::WalConfig::default()
    };
    let report = engine.open_wal(Path::new(dir), config)?;
    println!(
        "wal recovery: checkpoint_applied={} replayed={} segments={} truncated_bytes={}",
        report.checkpoint_applied,
        report.replayed,
        report.recovery.segments,
        report.recovery.truncated_bytes,
    );
    Ok(true)
}

/// Validates `--batch` / `--queue` before any socket is bound: a zero
/// batch or a zero-slot admission queue is meaningless.
fn serve_admission_knobs(args: &Args) -> CpdgResult<(usize, usize)> {
    let batch: usize = args.get_num("batch", 1usize)?;
    if batch == 0 {
        return Err(CpdgError::Invalid("--batch must be at least 1".to_string()));
    }
    let queue_capacity: usize = args.get_num("queue", 64usize)?;
    if queue_capacity == 0 {
        return Err(CpdgError::Invalid("--queue must be at least 1".to_string()));
    }
    Ok((batch, queue_capacity))
}

fn cmd_serve(args: &Args) -> CpdgResult<()> {
    use std::sync::atomic::Ordering;
    let trainer_cfg = if args.has_flag("continual") {
        // Refuse misconfigurations before touching any state: the trainer
        // needs a live engine (not the offline reference path), a durable
        // stream to train on, and a sane window geometry — all checked
        // before any port is bound or WAL opened.
        if args.get("ingest").is_some() {
            return Err(CpdgError::Invalid(
                "--continual cannot run with --ingest (the trainer needs a live server)"
                    .to_string(),
            ));
        }
        if args.get("wal-dir").is_none() {
            return Err(CpdgError::Invalid(
                "--continual requires --wal-dir (training must not outlive the stream's \
                 durability)"
                    .to_string(),
            ));
        }
        Some(trainer_config(args)?)
    } else {
        None
    };
    // Validate the scrubber knobs before any port is bound: an interval
    // with nothing to scrub is a configuration mistake, not a silent no-op.
    let scrub_interval_ms: u64 = args.get_num("scrub-interval", 0u64)?;
    let mut scrub_roots: Vec<PathBuf> = Vec::new();
    if scrub_interval_ms > 0 {
        if let Some(d) = args.get("wal-dir") {
            scrub_roots.push(PathBuf::from(d));
        }
        if args.has_flag("continual") {
            scrub_roots.push(PathBuf::from(args.require("epoch-dir")?));
        }
        if scrub_roots.is_empty() {
            return Err(CpdgError::Invalid(
                "--scrub-interval requires --wal-dir and/or --continual --epoch-dir \
                 (no artifacts to scrub without them)"
                    .to_string(),
            ));
        }
    }
    let (engine, serving_path) = serve_engine(args)?;
    let wal_attached = open_wal(args, &engine)?;

    if let Some(script) = args.get("ingest") {
        // Offline mode: apply a request script in-process (no sockets) and
        // print one reply per request. With --memory-out this is the
        // reference run the e2e smoke test `cmp`s a drained server against.
        let text = std::fs::read_to_string(script).map_err(|e| CpdgError::io(script, e))?;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let reply = match cpdg_serve::parse_line(line) {
                Ok(cmd) => engine.execute(cmd),
                Err(detail) => cpdg_serve::Reply::Err {
                    kind: cpdg_serve::ErrKind::Parse,
                    detail,
                },
            };
            println!("{}", reply.render());
        }
    } else {
        sig::install();
        let port: u16 = args.get_num("port", 0u16)?;
        let (batch, queue_capacity) = serve_admission_knobs(args)?;
        let server_cfg = cpdg_serve::ServerConfig {
            addr: format!("127.0.0.1:{port}"),
            workers: args.get_num("workers", 2usize)?,
            queue_capacity,
            batch,
        };
        let server = cpdg_serve::Server::start(std::sync::Arc::clone(&engine), &server_cfg)
            .map_err(|e| CpdgError::io(server_cfg.addr.clone(), e))?;
        println!("listening on {}", server.local_addr());
        let trainer = match trainer_cfg {
            Some(cfg) => {
                let runtime = cpdg_serve::TrainerRuntime::new(
                    std::sync::Arc::clone(&engine),
                    &serving_path,
                    cfg,
                )?;
                let sup = cpdg_serve::Supervisor::trainer(runtime)
                    .map_err(|e| CpdgError::io("trainer supervisor", e))?;
                println!("continual trainer running");
                Some(sup)
            }
            None => None,
        };
        let scrubber = if scrub_interval_ms > 0 {
            let sup = cpdg_serve::Supervisor::scrubber(
                std::sync::Arc::clone(&engine),
                scrub_roots,
                cpdg_core::ScrubConfig::default(),
                std::time::Duration::from_millis(scrub_interval_ms),
                engine.fault_hook(),
            )
            .map_err(|e| CpdgError::io("scrub supervisor", e))?;
            println!("background scrubber running (every {scrub_interval_ms}ms)");
            Some(sup)
        } else {
            None
        };
        while sig::STOP.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        println!("signal {}: draining…", sig::STOP.load(Ordering::Relaxed));
        // Stop the scrubber first (a repair racing the drain-time
        // checkpoint's segment truncation would rewrite a file the WAL is
        // deleting), then the trainer before draining the server: a
        // promotion racing the drain-time checkpoint would be half in
        // this run, half in the next.
        if let Some(sup) = scrubber {
            sup.shutdown();
        }
        if let Some(sup) = trainer {
            sup.shutdown();
        }
        server.shutdown();
    }

    if wal_attached {
        // Clean exit: fold everything the log holds into a checkpoint so
        // the next start replays nothing. A crash before this line is the
        // case the WAL exists for — startup replays the segments instead.
        if let Some(freed) = engine.checkpoint_wal(&FS_STORAGE)? {
            println!("wal checkpoint written ({freed} log bytes truncated)");
        }
    }

    if let Some(out) = args.get("memory-out") {
        engine.persist_memory(&FS_STORAGE, Path::new(out))?;
        println!("persisted memory to {out}");
    }
    Ok(())
}

fn cmd_query(args: &Args) -> CpdgResult<()> {
    use std::io::{BufRead, BufReader, Write};
    let addr = match (args.get("addr"), args.get("port")) {
        (Some(a), _) => a.to_string(),
        (None, Some(p)) => format!("127.0.0.1:{p}"),
        (None, None) => {
            return Err(CpdgError::Invalid(
                "query needs --addr or --port".to_string(),
            ))
        }
    };
    let mut stream = std::net::TcpStream::connect(&addr).map_err(|e| CpdgError::io(&addr, e))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| CpdgError::io(&addr, e))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| CpdgError::io(&addr, e))?);
    let mut roundtrip = |line: &str| -> CpdgResult<()> {
        writeln!(stream, "{line}").map_err(|e| CpdgError::io(&addr, e))?;
        stream.flush().map_err(|e| CpdgError::io(&addr, e))?;
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .map_err(|e| CpdgError::io(&addr, e))?;
        print!("{reply}");
        Ok(())
    };
    if args.has_flag("status") {
        // Shorthand for --send STATUS: one key=value health line.
        roundtrip("STATUS")?;
        return Ok(());
    }
    match args.get("send") {
        Some(line) => roundtrip(line)?,
        None => {
            // Streaming mode: one request per stdin line, lockstep replies.
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = line.map_err(|e| CpdgError::io("stdin", e))?;
                if line.trim().is_empty() {
                    continue;
                }
                roundtrip(&line)?;
            }
        }
    }
    Ok(())
}

/// `cpdg scrub <dir> …` — one offline pass of the artifact scrubber over
/// the given WAL / epoch directories: every sealed artifact's CRC is
/// re-verified across its replica set, bad copies are rewritten from good
/// ones, and the sweep is reported. Exits 4 (naming the first artifact)
/// when anything has no sound copy left — the same refusal serving would
/// hit, caught while a backup can still help.
fn cmd_scrub(args: &Args) -> CpdgResult<()> {
    if args.positionals.is_empty() {
        return Err(CpdgError::Invalid(
            "scrub requires at least one directory operand (a --wal-dir or --epoch-dir)"
                .to_string(),
        ));
    }
    let mut roots = Vec::with_capacity(args.positionals.len());
    for dir in &args.positionals {
        let p = PathBuf::from(dir);
        if !p.is_dir() {
            return Err(CpdgError::Invalid(format!(
                "scrub operand {dir:?} is not a directory"
            )));
        }
        roots.push(p);
    }
    let hook = chaos_hook(args)?;
    let mut scrubber = cpdg_core::Scrubber::new(roots, cpdg_core::ScrubConfig::default());
    let report = scrubber.scrub_all(&FS_STORAGE, &hook);
    println!(
        "scrub: scanned={} bytes={} corrupt={} repaired={} read_errors={} unrepairable={}",
        report.scanned,
        report.bytes,
        report.corrupt,
        report.repaired,
        report.read_errors,
        report.unrepairable.len(),
    );
    for (class, path) in &report.unrepairable {
        println!("unrepairable {} {}", class.name(), path.display());
    }
    if let Some((class, path)) = report.unrepairable.first() {
        return Err(CpdgError::corrupt(
            path,
            format!(
                "{} unrepairable artifact(s): no sound copy left of this {} \
                 (restore it from a backup or accept the loss)",
                report.unrepairable.len(),
                class.name(),
            ),
        ));
    }
    Ok(())
}

/// Optional `--key N` usize option.
fn opt_usize(args: &Args, key: &str) -> CpdgResult<Option<usize>> {
    match args.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CpdgError::Invalid(format!("invalid value for --{key}: {v:?}"))),
    }
}

/// Parses the shared ingestion options: `--strict-load` / `--lenient-load`
/// and the `--max-events` / `--max-nodes` resource guards.
fn load_options(args: &Args) -> CpdgResult<LoadOptions> {
    if args.has_flag("strict-load") && args.has_flag("lenient-load") {
        return Err(CpdgError::Invalid(
            "--strict-load and --lenient-load are mutually exclusive".to_string(),
        ));
    }
    let mut opts = LoadOptions::default();
    if args.has_flag("lenient-load") {
        opts.mode = LoadMode::Lenient;
    }
    opts.max_events = opt_usize(args, "max-events")?;
    opts.max_nodes = opt_usize(args, "max-nodes")?;
    Ok(opts)
}

/// Reads `--chaos-plan <file>` into an installed [`FaultHook`], or returns
/// the zero-overhead inert hook when the option is absent.
fn chaos_hook(args: &Args) -> CpdgResult<FaultHook> {
    match args.get("chaos-plan") {
        None => Ok(FaultHook::none()),
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| CpdgError::io(p, e))?;
            let plan = FaultPlan::from_json(&text)
                .map_err(|e| CpdgError::Invalid(format!("bad --chaos-plan {p}: {e}")))?;
            Ok(FaultHook::install(&plan))
        }
    }
}

/// Loads a JODIE CSV through the chaos-aware path: reads are retried under
/// the default policy, and `hook` (when active) injects `storage.read` and
/// `loader.row` faults. A non-empty quarantine additionally lands in
/// metrics.jsonl as an `ingest` record.
fn load_data(
    path: &str,
    opts: &LoadOptions,
    hook: &FaultHook,
) -> CpdgResult<cpdg_graph::loader::LoadedGraph> {
    let loaded = load_jodie_chaos(Path::new(path), opts, &RetryPolicy::default(), hook)?;
    if !loaded.quarantine.is_empty() {
        cpdg_obs::emit_metrics(
            "ingest",
            vec![
                ("path".to_string(), cpdg_obs::Value::from(path)),
                (
                    "quarantined".to_string(),
                    cpdg_obs::Value::from(loaded.quarantine.total),
                ),
                (
                    "events".to_string(),
                    cpdg_obs::Value::from(loaded.graph.num_events()),
                ),
            ],
        );
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn scrub_command_repairs_then_refuses_with_the_artifact_path() {
        let dir = std::env::temp_dir().join(format!("cpdg_cli_scrub_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.cpdg");
        cpdg_core::scrub::write_replicated(&FS_STORAGE, &path, &cpdg_core::integrity::seal(b"{}"))
            .unwrap();
        let args = parse(&format!("scrub {}", dir.display()));

        // One rotted copy: the sweep repairs it and exits clean.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        cmd_scrub(&args).unwrap();
        let healed = std::fs::read(&path).unwrap();
        assert!(cpdg_core::integrity::unseal(&healed, &path).is_ok());

        // Every copy rotted: exit 4, message naming the artifact.
        for p in [path.clone(), cpdg_core::scrub::replica_path(&path, 1)] {
            let mut b = std::fs::read(&p).unwrap();
            b[0] ^= 0x40;
            std::fs::write(&p, &b).unwrap();
        }
        let err = cmd_scrub(&args).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("checkpoint.cpdg"), "{err}");

        // Usage errors: no operand, or an operand that is not a directory.
        assert!(cmd_scrub(&parse("scrub")).is_err());
        assert!(cmd_scrub(&parse("scrub /nonexistent/cpdg/dir")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finetune_rejects_node_count_mismatch_with_typed_error() {
        let dir = std::env::temp_dir().join(format!("cpdg_cli_mismatch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.json");
        let data_path = dir.join("data.csv");

        // A model pre-trained for a 2-node universe…
        let model = ModelFile::new(
            DgnnConfig::preset(EncoderKind::Tgn, 8, 1.0),
            2,
            ParamStore::new(),
            vec![],
        );
        model.save(&model_path).unwrap();
        // …against data with 2 users + 2 items = 4 nodes.
        std::fs::write(
            &data_path,
            "user_id,item_id,timestamp,state_label,f\n0,0,1.0,0,0\n1,1,2.0,0,0\n",
        )
        .unwrap();

        let args = parse(&format!(
            "finetune --data {} --model {}",
            data_path.display(),
            model_path.display()
        ));
        let err = cmd_finetune(&args, None).unwrap_err();
        match err {
            CpdgError::NodeCountMismatch {
                data_nodes,
                model_nodes,
            } => {
                assert_eq!(data_nodes, 4);
                assert_eq!(model_nodes, 2);
            }
            other => panic!("expected NodeCountMismatch, got {other}"),
        }
        // And it maps to its own exit code, distinct from usage errors.
        assert_eq!(
            CpdgError::NodeCountMismatch {
                data_nodes: 4,
                model_nodes: 2
            }
            .exit_code(),
            3
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finetune_surfaces_corrupt_model_files() {
        let dir = std::env::temp_dir().join(format!("cpdg_cli_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.json");
        let data_path = dir.join("data.csv");
        std::fs::write(&model_path, b"{\"version\": 1, \"trunc").unwrap();
        std::fs::write(&data_path, "h\n0,0,1.0,0\n").unwrap();
        let args = parse(&format!(
            "finetune --data {} --model {}",
            data_path.display(),
            model_path.display()
        ));
        let err = cmd_finetune(&args, None).unwrap_err();
        assert!(matches!(err, CpdgError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finetune_refuses_a_model_whose_parameter_shape_disagrees_with_its_config() {
        let dir = std::env::temp_dir().join(format!("cpdg_cli_shape_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("model.cpdg");
        let data_path = dir.join("data.csv");

        // A 4-node TGN whose first non-square parameter is transposed,
        // sealed with a valid CRC.
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 1.0);
        let mut built = ParamStore::new();
        DgnnEncoder::new(
            &mut built,
            &mut StdRng::seed_from_u64(0),
            "enc",
            4,
            cfg.clone(),
        );
        let mut params = ParamStore::new();
        let mut swapped = None;
        for id in built.ids() {
            let value = built.value(id);
            if swapped.is_none() && value.rows() != value.cols() {
                swapped = Some(built.name(id).to_string());
                params.register(built.name(id), value.transpose());
            } else {
                params.register(built.name(id), value.clone());
            }
        }
        ModelFile::new(cfg, 4, params, vec![])
            .save(&model_path)
            .unwrap();
        std::fs::write(
            &data_path,
            "user_id,item_id,timestamp,state_label,f\n0,0,1.0,0,0\n1,1,2.0,0,0\n",
        )
        .unwrap();

        let args = parse(&format!(
            "finetune --data {} --model {}",
            data_path.display(),
            model_path.display()
        ));
        let err = cmd_finetune(&args, None).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        let msg = err.to_string();
        assert!(msg.contains("model.cpdg"), "{msg}");
        assert!(msg.contains(&swapped.unwrap()), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_subcommand_is_usage_error() {
        let err = parse_encoder("sage").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn observability_flags_validate() {
        assert!(init_observability(&parse("stats --log-level shouty")).is_err());
        assert!(init_observability(&parse("stats --log-format yaml")).is_err());
        let rd = init_observability(&parse("stats --log-level warn")).unwrap();
        assert!(rd.is_none(), "no --run-dir given");
        // Restore the default console for any test running after this one.
        cpdg_obs::init(cpdg_obs::Level::Info, cpdg_obs::LogFormat::Text);
    }

    #[test]
    fn pretrain_run_dir_emits_parseable_artifacts() {
        let dir = std::env::temp_dir().join(format!("cpdg_cli_rundir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        let ds = generate(&SyntheticConfig::amazon_like(7).scaled(0.05));
        write_jodie_csv(&ds.graph, ds.num_users, File::create(&data_path).unwrap()).unwrap();
        let run_path = dir.join("run");
        let model_path = dir.join("model.json");
        let args = parse(&format!(
            "pretrain --data {} --out {} --epochs 1 --dim 8 --seed 3 --run-dir {}",
            data_path.display(),
            model_path.display(),
            run_path.display()
        ));
        let run = init_observability(&args)
            .unwrap()
            .expect("--run-dir opens a RunDir");
        cmd_pretrain(&args, Some(&run)).unwrap();
        drop(run);

        // run.json parses as JSON and carries the provenance fields.
        let manifest =
            Json::parse(&std::fs::read_to_string(run_path.join("run.json")).unwrap()).unwrap();
        let at = |path: &[&str]| path.iter().try_fold(&manifest, |v, key| v.get(key));
        assert_eq!(at(&["command"]).and_then(Json::as_str), Some("pretrain"));
        assert_eq!(at(&["status"]).and_then(Json::as_str), Some("complete"));
        assert_eq!(at(&["seed"]).and_then(Json::as_u64), Some(3));
        assert_eq!(
            at(&["config", "encoder"]).and_then(Json::as_str),
            Some("TGN")
        );
        assert!(at(&["dataset", "events"]).and_then(Json::as_u64).unwrap() > 0);
        assert!(at(&["wall_clock_secs"]).and_then(Json::as_f64).unwrap() > 0.0);
        assert!(
            at(&["counters", "matmul.dispatches"])
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );

        // metrics.jsonl: every line parses; one pretrain_epoch record per
        // epoch carrying the loss breakdown and counter deltas.
        let metrics = std::fs::read_to_string(run_path.join("metrics.jsonl")).unwrap();
        let epochs: Vec<Json> = metrics
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .filter(|v| v.get("event").and_then(Json::as_str) == Some("pretrain_epoch"))
            .collect();
        assert_eq!(epochs.len(), 1, "{metrics}");
        let epoch = &epochs[0];
        assert!(
            epoch.get("loss_total").and_then(Json::as_f64).is_some(),
            "{epoch:?}"
        );
        assert!(
            epoch
                .get("d_matmul.dispatches")
                .and_then(Json::as_u64)
                .unwrap()
                > 0,
            "{epoch:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_option_flags_validate_and_apply() {
        let o = load_options(&parse("stats --lenient-load --max-events 10 --max-nodes 5")).unwrap();
        assert!(matches!(o.mode, LoadMode::Lenient));
        assert_eq!(o.max_events, Some(10));
        assert_eq!(o.max_nodes, Some(5));
        // Defaults: strict, unbounded.
        let d = load_options(&parse("stats")).unwrap();
        assert!(matches!(d.mode, LoadMode::Strict));
        assert_eq!(d.max_events, None);
        // Contradictory modes and junk numbers are usage errors.
        assert!(load_options(&parse("stats --strict-load --lenient-load")).is_err());
        assert!(load_options(&parse("stats --max-events lots")).is_err());
    }

    #[test]
    fn lenient_load_quarantines_where_strict_load_fails() {
        let dir = std::env::temp_dir().join(format!("cpdg_cli_lenient_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        std::fs::write(
            &data_path,
            "user_id,item_id,timestamp,state_label,f\n0,0,1.0,0,0\nnot,a,row\n1,1,2.0,0,0\n",
        )
        .unwrap();
        let path = data_path.to_str().unwrap();

        let err = load_data(path, &LoadOptions::strict(), &FaultHook::none()).unwrap_err();
        assert!(matches!(err, CpdgError::Data(_)), "{err}");

        let loaded = load_data(path, &LoadOptions::lenient(), &FaultHook::none()).unwrap();
        assert_eq!(loaded.quarantine.total, 1);
        assert_eq!(loaded.quarantine.rows[0].line, 3);
        assert_eq!(loaded.graph.num_events(), 2);
        // The quarantine summary reaches the run.json dataset block.
        let d = dataset_json(path, &loaded).render();
        assert!(d.contains("\"quarantined\":1"), "{d}");
        assert!(d.contains("\"line\":3"), "{d}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resource_guard_flags_map_to_typed_errors() {
        let dir = std::env::temp_dir().join(format!("cpdg_cli_guard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        std::fs::write(&data_path, "h\n0,0,1.0,0\n1,1,2.0,0\n0,1,3.0,0\n").unwrap();
        let path = data_path.to_str().unwrap();
        let opts = load_options(&parse("stats --max-events 2")).unwrap();
        let err = load_data(path, &opts, &FaultHook::none()).unwrap_err();
        match err {
            CpdgError::ResourceLimit { what, limit, .. } => {
                assert_eq!(what, "events");
                assert_eq!(limit, 2);
            }
            other => panic!("expected ResourceLimit, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_plan_option_installs_a_hook() {
        // Absent option: the inert, zero-overhead hook.
        assert!(!chaos_hook(&parse("pretrain")).unwrap().is_active());
        let dir = std::env::temp_dir().join(format!("cpdg_cli_plan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan_path = dir.join("plan.json");
        std::fs::write(
            &plan_path,
            r#"{"seed": 7, "faults": [
                {"point": "storage.write", "kind": "transient",
                 "trigger": {"when": "nth", "n": 1}}]}"#,
        )
        .unwrap();
        let args = parse(&format!("pretrain --chaos-plan {}", plan_path.display()));
        assert!(chaos_hook(&args).unwrap().is_active());
        // Unreadable and malformed plans surface as typed errors.
        let missing = parse(&format!(
            "pretrain --chaos-plan {}",
            dir.join("nope.json").display()
        ));
        assert!(matches!(
            chaos_hook(&missing).unwrap_err(),
            CpdgError::Io { .. }
        ));
        std::fs::write(&plan_path, b"{not json").unwrap();
        let args = parse(&format!("pretrain --chaos-plan {}", plan_path.display()));
        assert!(matches!(
            chaos_hook(&args).unwrap_err(),
            CpdgError::Invalid(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_admission_and_cache_flags_validate() {
        // --batch 0 and --queue 0 are refused before any socket.
        let err = serve_admission_knobs(&parse("serve --batch 0")).unwrap_err();
        assert!(matches!(err, CpdgError::Invalid(_)), "{err}");
        let err = serve_admission_knobs(&parse("serve --queue 0")).unwrap_err();
        assert!(err.to_string().contains("--queue"), "{err}");
        assert_eq!(
            serve_admission_knobs(&parse("serve --batch 8 --queue 16")).unwrap(),
            (8, 16)
        );
        assert_eq!(
            serve_admission_knobs(&parse("serve")).unwrap(),
            (1, 64),
            "defaults: no coalescing, legacy capacity"
        );
        // --cache only accepts on|off (checked before the model file is
        // even opened, so a bogus value fails fast).
        let Err(err) = serve_engine(&parse("serve --model nope.json --cache maybe")) else {
            panic!("a bogus --cache value must be refused");
        };
        assert!(matches!(err, CpdgError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("--cache"), "{err}");
    }
}
