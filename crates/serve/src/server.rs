//! The threaded line-protocol front door.
//!
//! Topology: one accept thread (non-blocking poll so shutdown can
//! interrupt it), one detached thread per connection, and one bounded
//! admission queue drained by a pool of *supervised* worker threads
//! ([`supervise_worker`]: panics are caught with `catch_unwind`, counted,
//! fed to the circuit breaker, and the worker restarts after a bounded
//! deterministic backoff). A connection thread reads one line, pushes one
//! job, and *waits for that job's reply before reading the next line* —
//! so requests from a single connection are processed in order regardless
//! of worker count, which is what makes single-connection chaos scripts
//! deterministic.
//!
//! Exactly-one-reply invariant: every non-empty request line produces
//! exactly one reply line — a full `OK`, a typed `DEGRADED`, or a typed
//! `ERR` (`parse` before admission, `overloaded` at admission, the
//! engine's verdict after). Jobs admitted before drain starts are always
//! executed and answered ([`BoundedQueue`] drains on close); jobs arriving
//! after are shed with `ERR overloaded`.
//!
//! Graceful drain ([`Server::shutdown`]): stop accepting connections,
//! close the queue (new requests shed), let workers finish every admitted
//! job, join them. Persisting state is the caller's move afterwards (the
//! CLI writes the WAL drain checkpoint, [`Engine::checkpoint_wal`]).

use crate::engine::{Engine, Stat};
use crate::protocol::{parse_line, ErrKind, Reply};
use crate::queue::BoundedQueue;
use cpdg_core::{FaultHook, FaultPoint, RetryPolicy};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admission capacity; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Coalescing width: a worker that pops a query (`EMB`/`SCORE`) keeps
    /// draining up to `batch - 1` further *contiguous* queued queries and
    /// executes them in one engine call sharing one forward tape
    /// ([`Engine::execute_query_batch`]). `1` disables coalescing (one job
    /// per drain cycle). Replies are bit-identical at any
    /// width — the coalescing oracle in the workspace test suite pins
    /// `--batch N --cache on` against `--batch 1 --cache off`.
    pub batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            batch: 1,
        }
    }
}

/// One admitted unit of work.
struct Job {
    cmd: crate::protocol::Command,
    reply: mpsc::Sender<String>,
}

/// A running server; dropping it without [`Server::shutdown`] aborts
/// rudely (threads are detached), so call `shutdown` for a clean drain.
pub struct Server {
    engine: Arc<Engine>,
    queue: Arc<BoundedQueue<Job>>,
    stop: Arc<AtomicBool>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Resolves one request line to one reply line. Split out of the
/// connection loop so tests can drive the full admission path without a
/// socket.
fn process_line(
    line: &str,
    engine: &Engine,
    queue: &BoundedQueue<Job>,
    hook: &FaultHook,
) -> Option<String> {
    if line.trim().is_empty() {
        // Blank lines are not requests (tolerates trailing newlines from
        // piped scripts); no reply.
        return None;
    }
    let cmd = match parse_line(line) {
        Ok(cmd) => cmd,
        Err(detail) => {
            engine.count(Stat::Errors);
            return Some(
                Reply::Err {
                    kind: ErrKind::Parse,
                    detail,
                }
                .render(),
            );
        }
    };
    let shed = |detail: String| {
        engine.count(Stat::Shed);
        Some(
            Reply::Err {
                kind: ErrKind::Overloaded,
                detail,
            }
            .render(),
        )
    };
    if let Err(fault) = hook.check(FaultPoint::ServeAccept) {
        return shed(fault.to_string());
    }
    let (tx, rx) = mpsc::channel();
    if let Err(over) = queue.push(Job { cmd, reply: tx }) {
        return shed(over.to_string());
    }
    match rx.recv() {
        Ok(reply) => Some(reply),
        // Unreachable by construction (admitted jobs are always drained and
        // answered), but a lost worker must not wedge the connection.
        Err(_) => Some(
            Reply::Err {
                kind: ErrKind::Exec,
                detail: "reply channel closed".to_string(),
            }
            .render(),
        ),
    }
}

/// One supervised worker: an outer restart loop around a
/// `catch_unwind`-guarded drain loop. A panic inside a job — injected by
/// the `serve.worker` fault point or genuine — is caught here, counted
/// ([`Engine::note_worker_panic`] feeds it to the circuit breaker), and
/// answered by restarting the drain loop after a bounded deterministic
/// backoff ([`RetryPolicy::backoff_delay`]). The panicked job's reply
/// sender is dropped, so its connection gets the deterministic
/// `ERR exec reply channel closed` — other connections never notice.
/// Processing any job resets the backoff streak, so an isolated panic
/// stays a 1-step delay while a crash loop backs off to the cap.
///
/// Coalescing (`batch > 1`): after popping a query job the worker keeps
/// taking further *contiguous* query jobs ([`BoundedQueue::try_pop_if`] —
/// the first non-query or empty slot stops the drain, so FIFO order is
/// preserved exactly) up to `batch`. Every drain cycle, of one job or
/// many, is one [`Engine::execute_query_batch`] call. The `serve.worker`
/// fault point is checked once per drain cycle, before any job of the
/// cycle runs — a crash therefore drops the whole cycle's reply senders.
fn supervise_worker(
    id: usize,
    batch: usize,
    engine: Arc<Engine>,
    queue: Arc<BoundedQueue<Job>>,
    hook: FaultHook,
) {
    let is_query = |cmd: &crate::protocol::Command| {
        matches!(
            cmd,
            crate::protocol::Command::Emb { .. } | crate::protocol::Command::Score { .. }
        )
    };
    let backoff = RetryPolicy::default();
    let mut streak: u32 = 0;
    let processed = AtomicU64::new(0);
    let mut last_processed = 0u64;
    loop {
        let drained = catch_unwind(AssertUnwindSafe(|| {
            while let Some(job) = queue.pop() {
                // The chaos harness can crash a worker mid-job; the panic
                // unwinds past the job (dropping its reply sender) into
                // the supervisor above.
                if let Err(fault) = hook.check(FaultPoint::ServeWorker) {
                    panic!("{fault}");
                }
                let mut jobs = vec![job];
                if batch > 1 && is_query(&jobs[0].cmd) {
                    while jobs.len() < batch {
                        match queue.try_pop_if(|j| is_query(&j.cmd)) {
                            Some(next) => jobs.push(next),
                            None => break,
                        }
                    }
                }
                let cmds: Vec<crate::protocol::Command> =
                    jobs.iter().map(|j| j.cmd.clone()).collect();
                let replies = engine.execute_query_batch(&cmds, &[queue.len()]);
                for (job, reply) in jobs.into_iter().zip(replies) {
                    // A vanished client must not kill the worker.
                    let _ = job.reply.send(reply.render());
                    processed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
        match drained {
            // Queue closed and fully drained: clean exit.
            Ok(()) => return,
            Err(_) => {
                let done = processed.load(Ordering::Relaxed);
                if done != last_processed {
                    last_processed = done;
                    streak = 0;
                }
                streak += 1;
                engine.note_worker_panic();
                let delay = backoff.backoff_delay(streak);
                cpdg_obs::warn!(
                    "serve.server",
                    "worker panicked; restarting after backoff";
                    worker = id as u64,
                    streak = streak,
                    backoff_ms = delay.as_millis() as u64,
                );
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    engine: Arc<Engine>,
    queue: Arc<BoundedQueue<Job>>,
    hook: FaultHook,
) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if let Some(reply) = process_line(&line, &engine, &queue, &hook) {
            if writeln!(writer, "{reply}").is_err() || writer.flush().is_err() {
                return;
            }
        }
    }
}

impl Server {
    /// Binds and starts accepting. The engine is shared — callers keep
    /// their own [`Arc`] for the drain-time checkpoint.
    pub fn start(engine: Arc<Engine>, config: &ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let hook = engine.fault_hook();

        let worker_count = config.workers.max(1);
        let batch = config.batch.max(1);
        let workers = (0..worker_count)
            .map(|id| {
                let queue = Arc::clone(&queue);
                let engine = Arc::clone(&engine);
                let hook = hook.clone();
                std::thread::Builder::new()
                    .name(format!("cpdg-serve-worker-{id}"))
                    .spawn(move || supervise_worker(id, batch, engine, queue, hook))
                    .expect("spawn worker")
            })
            .collect();

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("cpdg-serve-accept".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let _ = stream.set_nodelay(true);
                                let engine = Arc::clone(&engine);
                                let queue = Arc::clone(&queue);
                                let hook = hook.clone();
                                let _ = std::thread::Builder::new()
                                    .name("cpdg-serve-conn".to_string())
                                    .spawn(move || {
                                        // A panicking connection handler is
                                        // contained to its own connection.
                                        let _ = catch_unwind(AssertUnwindSafe(|| {
                                            handle_connection(stream, engine, queue, hook)
                                        }));
                                    });
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                })
                .expect("spawn acceptor")
        };

        cpdg_obs::info!(
            "serve.server",
            "listening";
            addr = local_addr.to_string(),
            workers = worker_count,
            queue_capacity = config.queue_capacity,
            batch = batch as u64,
        );
        Ok(Self {
            engine,
            queue,
            stop,
            local_addr,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Graceful drain: stop accepting, shed new requests, finish and
    /// answer every admitted one, join the workers.
    /// Returns the engine so the caller can checkpoint it.
    pub fn shutdown(mut self) -> Arc<Engine> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let e = &self.engine;
        cpdg_obs::info!(
            "serve.server",
            "drained";
            events = e.get(Stat::Events),
            ok = e.get(Stat::Ok),
            degraded = e.get(Stat::Degraded),
            shed = e.get(Stat::Shed),
            errors = e.get(Stat::Errors),
        );
        Arc::clone(&self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use cpdg_core::ModelFile;
    use cpdg_dgnn::{DgnnConfig, EncoderKind};
    use cpdg_tensor::ParamStore;

    fn tiny_engine() -> Arc<Engine> {
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 100.0);
        let model = ModelFile::new(cfg, 6, ParamStore::new(), Vec::new());
        Arc::new(Engine::from_model(
            &model,
            EngineConfig::default(),
            FaultHook::none(),
        ))
    }

    fn send(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn serves_ping_event_emb_score_over_tcp() {
        let server = Server::start(tiny_engine(), &ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        assert_eq!(send(&mut stream, &mut reader, "PING"), "OK v1 pong");
        assert_eq!(
            send(&mut stream, &mut reader, "EVENT 0 1 1.0"),
            "OK v1 event 0"
        );
        assert_eq!(
            send(&mut stream, &mut reader, "EVENT 1 2 2.0"),
            "OK v1 event 1"
        );
        let emb = send(&mut stream, &mut reader, "EMB 1");
        assert!(emb.starts_with("OK v1 "), "{emb}");
        assert_eq!(
            emb.trim_start_matches("OK v1 ").split(' ').count(),
            8,
            "dim floats"
        );
        let score = send(&mut stream, &mut reader, "SCORE 0 2");
        assert!(score.starts_with("OK v1 "), "{score}");
        let bad = send(&mut stream, &mut reader, "WHAT 1 2");
        assert!(bad.starts_with("ERR parse"), "{bad}");
        let exec = send(&mut stream, &mut reader, "EMB 99");
        assert!(exec.starts_with("ERR exec"), "{exec}");
        let stats = send(&mut stream, &mut reader, "STATS");
        assert!(stats.contains("events=2"), "{stats}");
        assert!(stats.contains("breaker=closed"), "{stats}");

        let engine = server.shutdown();
        assert_eq!(engine.get(Stat::Events), 2);
    }

    #[test]
    fn replies_stay_in_order_on_one_connection_with_many_workers() {
        let server = Server::start(
            tiny_engine(),
            &ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..20u32 {
            let r = send(&mut stream, &mut reader, &format!("EVENT 0 1 {i}.0"));
            assert_eq!(r, format!("OK v1 event {i}"), "lockstep ordering");
        }
        server.shutdown();
    }

    #[test]
    fn drain_sheds_new_requests_but_answers_admitted_ones() {
        let engine = tiny_engine();
        let queue = BoundedQueue::<Job>::new(4);
        let hook = FaultHook::none();
        // Admitted before drain: pushed into the queue.
        let (tx, rx) = mpsc::channel();
        queue
            .push(Job {
                cmd: parse_line("PING").unwrap(),
                reply: tx,
            })
            .unwrap();
        queue.close();
        // New arrivals shed with a typed reply whose detail names the
        // *drain* as the cause (not capacity) — operators can tell a
        // shutting-down server from an overloaded one on the wire.
        let reply = process_line("PING", &engine, &queue, &hook).unwrap();
        assert!(reply.starts_with("ERR overloaded"), "{reply}");
        assert!(
            reply.contains("closed"),
            "drain detail names closure: {reply}"
        );
        assert!(!reply.contains("at capacity"), "{reply}");
        assert_eq!(engine.get(Stat::Shed), 1);
        // The admitted job still drains and gets answered.
        let job = queue.pop().expect("admitted job survives close");
        let rendered = engine.execute(job.cmd).render();
        job.reply.send(rendered).unwrap();
        assert_eq!(rx.recv().unwrap(), "OK v1 pong");
        assert!(queue.pop().is_none());
    }

    #[test]
    fn status_reports_key_value_health() {
        let server = Server::start(tiny_engine(), &ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(
            send(&mut stream, &mut reader, "EVENT 0 1 1.0"),
            "OK v1 event 0"
        );
        let status = send(&mut stream, &mut reader, "STATUS");
        assert!(status.starts_with("OK v1 "), "{status}");
        for pair in [
            "epoch=1",
            "queue_depth=0",
            "breaker=closed",
            "breaker_trips=0",
            "events=1",
            "worker_panics=0",
            "wal=0",
            "wal_segments=0",
            "recovered_replayed=0",
        ] {
            assert!(status.contains(pair), "missing {pair} in {status}");
        }
        server.shutdown();
    }

    #[test]
    fn panicked_worker_is_restarted_and_counted() {
        use cpdg_core::{FaultKind, FaultPlan, FaultPoint, Trigger};
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 100.0);
        let model = ModelFile::new(cfg, 6, ParamStore::new(), Vec::new());
        let plan = FaultPlan::new(0).with(
            FaultPoint::ServeWorker,
            FaultKind::Permanent,
            Trigger::Nth { n: 2 },
        );
        let engine = Arc::new(Engine::from_model(
            &model,
            EngineConfig::default(),
            FaultHook::install(&plan),
        ));
        let server = Server::start(
            engine,
            &ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(send(&mut stream, &mut reader, "PING"), "OK v1 pong");
        // The second job panics the worker mid-flight; its dropped reply
        // sender yields the deterministic lost-worker reply.
        assert_eq!(
            send(&mut stream, &mut reader, "PING"),
            "ERR exec reply channel closed"
        );
        // The supervisor restarted the worker: the same connection (and
        // queue) keep working without a reconnect.
        assert_eq!(
            send(&mut stream, &mut reader, "EVENT 0 1 1.0"),
            "OK v1 event 0"
        );
        assert_eq!(send(&mut stream, &mut reader, "PING"), "OK v1 pong");
        let status = send(&mut stream, &mut reader, "STATUS");
        assert!(status.contains("worker_panics=1"), "{status}");
        let engine = server.shutdown();
        assert_eq!(engine.get(Stat::WorkerPanics), 1);
        assert!(
            !engine.breaker_open(),
            "one isolated panic must not trip the breaker"
        );
    }

    #[test]
    fn coalesced_drain_matches_sequential_execution_bit_for_bit() {
        // The coalescing oracle at the worker level: a batch-8 cache-on
        // drain must answer every job byte-identically to a batch-1
        // cache-off engine executing the same script sequentially.
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 100.0);
        let model = ModelFile::new(cfg, 6, ParamStore::new(), Vec::new());
        let mk = |cache: bool| {
            Arc::new(Engine::from_model(
                &model,
                EngineConfig {
                    cache,
                    ..EngineConfig::default()
                },
                FaultHook::none(),
            ))
        };
        let batched = mk(true);
        let sequential = mk(false);
        for line in ["EVENT 0 1 1.0", "EVENT 1 2 2.0", "EVENT 3 4 3.0"] {
            let cmd = parse_line(line).unwrap();
            assert!(batched.execute(cmd.clone()).render().starts_with("OK"));
            assert!(sequential.execute(cmd).render().starts_with("OK"));
        }
        let script = ["EMB 1", "EMB 1", "SCORE 0 2", "EMB 4 3.5", "EMB 2"];
        let queue = Arc::new(BoundedQueue::<Job>::new(16));
        let mut rxs = Vec::new();
        for line in script {
            let (tx, rx) = mpsc::channel();
            queue
                .push(Job {
                    cmd: parse_line(line).unwrap(),
                    reply: tx,
                })
                .unwrap();
            rxs.push(rx);
        }
        queue.close();
        let worker = {
            let engine = Arc::clone(&batched);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || supervise_worker(0, 8, engine, queue, FaultHook::none()))
        };
        worker.join().unwrap();
        let batched_replies: Vec<String> = rxs.iter().map(|rx| rx.recv().unwrap()).collect();
        let sequential_replies: Vec<String> = script
            .iter()
            .map(|l| sequential.execute(parse_line(l).unwrap()).render())
            .collect();
        assert_eq!(batched_replies, sequential_replies);
        assert_eq!(
            batched.get(Stat::Batches),
            1,
            "one coalesced cycle covered all five queries"
        );
        let (hits, _, _) = batched.cache_counters();
        assert!(hits >= 1, "the duplicate EMB 1 replays from cache");
    }

    #[test]
    fn blank_lines_are_not_requests() {
        let engine = tiny_engine();
        let queue = BoundedQueue::<Job>::new(4);
        assert!(process_line("", &engine, &queue, &FaultHook::none()).is_none());
        assert!(process_line("   ", &engine, &queue, &FaultHook::none()).is_none());
    }
}
