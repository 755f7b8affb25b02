//! Coalesce suite: the request-coalescing + embedding-cache oracle.
//!
//! PR 8's tentpole batches compatible queued queries into one fused
//! forward pass and fronts the engine with a temporal embedding cache.
//! Both are *latency* features; the contract that makes them deployable is
//! an invariance: **`--batch N --cache on` replies must be bit-identical
//! to `--batch 1 --cache off`**, including under breaker trips, hot
//! reload, and WAL crash recovery. "Bit-identical" is
//! literal — rendered reply strings are compared verbatim.
//!
//! The suite drives the invariance at three levels:
//! * engine level — [`Engine::execute_query_batch`] against sequential
//!   [`Engine::execute`] over the same scripts, with events interleaved
//!   between repeated explicit-time rounds, so a cache entry surviving an
//!   `EVENT` would be replayed stale;
//! * property level — seeded random EVENT/QUERY/RELOAD interleavings
//!   (including out-of-range ids), batched+cached vs sequential+uncached;
//! * wire level — a real TCP server at `batch: 8` under concurrent
//!   connections, every reply checked against a single-engine reference.
//!
//! The cache's *unit* semantics (key aliasing, capacity, counter
//! accounting) live in `crates/serve/src/cache.rs`; this suite
//! only pins what callers can observe end to end.

mod support;

use cpdg::core::chaos::FaultKind::Permanent;
use cpdg::core::chaos::{FaultHook, FaultPlan, FaultPoint, Trigger};
use cpdg::serve::{parse_line, Command, Engine, EngineConfig, Server, ServerConfig, Stat};
use std::sync::Arc;
use support::cases::{for_each_case, Lcg};
use support::{
    differential, events, exec, feed, queries, test_dir, tiny_segments, trained_model, Client,
    Config, NODES,
};

fn engine(cache: bool, hook: FaultHook) -> Engine {
    Engine::from_model(
        &trained_model(21),
        EngineConfig {
            cache,
            ..EngineConfig::default()
        },
        hook,
    )
}

/// Batched and cached: `width`-wide fused query batches, cache on.
fn coalesced(width: usize) -> Config {
    Config {
        batch: width,
        cache: true,
        ..Config::default()
    }
}

/// Deterministic queries (explicit timestamps), each listed twice so a
/// cache-on run is guaranteed in-batch hits — the second occurrence must
/// replay the first's bytes.
fn query_lines(t: f64) -> Vec<String> {
    let mut q: Vec<String> = queries(t)
        .into_iter()
        .flat_map(|l| [l.clone(), l])
        .collect();
    // An out-of-range node inside a batch must yield the same typed ERR
    // it does sequentially, without poisoning its batchmates.
    q.push(format!("EMB {} {t}", NODES + 7));
    q
}

fn parse_all(lines: &[String]) -> Vec<Command> {
    lines
        .iter()
        .map(|l| parse_line(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .collect()
}

/// Executes `lines` on `batched` in fused chunks of `width` and on
/// `sequential` one by one, asserting rendered replies are identical.
fn assert_batches_match(batched: &Engine, sequential: &Engine, lines: &[String], width: usize) {
    let cmds = parse_all(lines);
    let got: Vec<String> = cmds
        .chunks(width.max(1))
        .flat_map(|chunk| batched.execute_query_batch(chunk, &[]))
        .map(|r| r.render())
        .collect();
    let want: Vec<String> = cmds
        .iter()
        .map(|c| sequential.execute(c.clone()).render())
        .collect();
    assert_eq!(got, want, "width {width}");
}

// ---------------------------------------------------------------------
// The tentpole oracle: batched+cached == sequential+uncached, with
// ingestion interleaved so invalidation must be sound.
// ---------------------------------------------------------------------

#[test]
fn batched_cached_replies_are_bit_identical() {
    let model = trained_model(21);
    // Fresh events between the query rounds empty the cache. The
    // t = 10 round repeats after them: memory moved, so a cache entry
    // surviving the events would replay stale bytes.
    let script = [
        events(0, 10),
        query_lines(10.0),
        events(10, 5),
        query_lines(10.0),
        query_lines(15.0),
    ]
    .concat();
    for width in [2usize, 4, 8] {
        let (sequential, batched) =
            differential(&model, &script, &Config::default(), &coalesced(width));
        let (hits, misses, invalidations) = batched.engine.cache_counters();
        assert!(hits > 0, "repeat queries must hit ({hits}h/{misses}m)");
        assert!(invalidations > 0, "ingestion must invalidate warm entries");
        assert_eq!(
            batched.engine.get(Stat::Events),
            sequential.engine.get(Stat::Events)
        );
    }
}

#[test]
fn coalescing_stays_invariant_under_breaker_trips_and_probes() {
    // Every inference fails: the query stream walks through failure
    // accumulation, the trip, shorted requests, and failed probes. The
    // batch path must consume fault-point hits and breaker transitions in
    // exactly the sequential order.
    let faults = FaultPlan::new(0).with(FaultPoint::ServeInfer, Permanent, Trigger::Every { k: 1 });
    let script = [events(0, 6), query_lines(6.0)].concat();
    let (sequential, batched) = differential(
        &trained_model(21),
        &script,
        &Config {
            faults: faults.clone(),
            ..Config::default()
        },
        &Config {
            faults,
            ..coalesced(4)
        },
    );
    assert_eq!(
        batched.engine.breaker_open(),
        sequential.engine.breaker_open()
    );
    assert!(batched.engine.breaker_open(), "the plan must actually trip");
}

#[test]
fn reload_mid_stream_clears_the_cache_and_stays_invariant() {
    let dir = test_dir("reload");
    let next_path = dir.join("next.json");
    // Different seed, same shape: the swap genuinely changes parameters,
    // so any cache entry surviving it would change reply bytes.
    trained_model(35).save(&next_path).unwrap();
    let batched = engine(true, FaultHook::none());
    let sequential = engine(false, FaultHook::none());
    feed(&[&batched, &sequential], &events(0, 8));
    assert_batches_match(&batched, &sequential, &query_lines(8.0), 4);
    assert!(batched.cache_len() > 0);

    let reload = format!("RELOAD {}", next_path.display());
    assert_eq!(exec(&batched, &reload), exec(&sequential, &reload));
    assert_eq!(batched.cache_len(), 0, "reload wholesale-invalidates");
    assert_batches_match(&batched, &sequential, &query_lines(8.0), 4);

    // Defensive fallback: a batch slice containing a non-query must
    // execute sequentially with identical replies (the server never
    // builds one, but the engine API tolerates it).
    let mixed = vec![
        "EMB 1 8.0".to_string(),
        reload.clone(),
        "SCORE 0 2 8.0".to_string(),
    ];
    assert_batches_match(&batched, &sequential, &mixed, 3);
}

#[test]
fn crash_recovery_restarts_with_a_cold_cache_and_identical_replies() {
    let dir = test_dir("recover");
    let model = trained_model(21);
    let warm = engine(true, FaultHook::none());
    warm.open_wal(&dir, tiny_segments()).unwrap();
    feed(&[&warm], &events(0, 10));
    // Warm the cache, twice over, then die without drain or checkpoint.
    let cmds = parse_all(&query_lines(10.0));
    warm.execute_query_batch(&cmds, &[]);
    let (hits, _, _) = warm.cache_counters();
    assert!(hits > 0);
    drop(warm);

    let recovered = engine(true, FaultHook::none());
    let report = recovered.open_wal(&dir, tiny_segments()).unwrap();
    assert_eq!(report.replayed, 10);
    assert_eq!(
        recovered.cache_len(),
        0,
        "recovery must never trust pre-crash cache state"
    );
    // Batched+cached replies from the recovered engine match a fresh
    // uninterrupted uncached engine byte for byte.
    let reference = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
    feed(&[&reference], &events(0, 10));
    assert_batches_match(&recovered, &reference, &query_lines(10.0), cmds.len());
}

// ---------------------------------------------------------------------
// Wire level: a coalescing server under concurrent connections.
// ---------------------------------------------------------------------

#[test]
fn tcp_server_with_batching_and_cache_answers_every_connection_correctly() {
    let reference = engine(false, FaultHook::none());
    feed(&[&reference], &events(0, 10));

    let serving = Arc::new(engine(true, FaultHook::none()));
    let server = Server::start(
        Arc::clone(&serving),
        &ServerConfig {
            workers: 1,
            batch: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind serve");
    let addr = server.local_addr();

    // Ingest over one connection first (lockstep: deterministic order).
    let mut client = Client::connect(addr);
    for line in events(0, 10) {
        let reply = client.send(&line);
        assert!(reply.starts_with("OK "), "{line:?} -> {reply}");
    }
    drop(client);

    // Pure queries from 6 concurrent connections: read-only on DGNN
    // state, so every reply must equal the reference engine's regardless
    // of how the worker coalesced them.
    let queries = query_lines(10.0);
    let expected: Vec<String> = queries.iter().map(|q| exec(&reference, q)).collect();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let (queries, expected) = (queries.clone(), expected.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for (line, want) in queries.iter().zip(&expected) {
                    assert_eq!(&client.send(line), want, "for {line:?}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
    let (hits, misses, _) = serving.cache_counters();
    assert!(
        hits > 0,
        "six identical scripts must hit the cache ({hits}h/{misses}m)"
    );
}

// ---------------------------------------------------------------------
// Property level: random EVENT / QUERY / RELOAD interleavings.
// ---------------------------------------------------------------------

/// 48 seeded scripts of 1..36 ops over a universe slightly larger than
/// the model's, so out-of-range ids (typed `ERR exec`, engine-side
/// validation) interleave with real traffic — pinning that a refused
/// EVENT stays a no-op in both modes. Ops are weighted EVENT 3, EMB 4
/// (at the stream's now or at t=6), SCORE 2, RELOAD 1. The batched run
/// fuses each run of queries into one batch, exactly where a non-query
/// op (or the end) lands — the server's contiguous-prefix drain.
#[test]
fn random_interleavings_are_cache_and_batch_invariant() {
    let dir = test_dir("prop");
    let reload = format!("RELOAD {}", dir.join("reload.json").display());
    trained_model(35).save(&dir.join("reload.json")).unwrap();
    let model = trained_model(21);
    for_each_case(48, |rng| {
        let id = |rng: &mut Lcg| rng.index(0, NODES + 2);
        let (mut script, mut t) = (Vec::new(), 0);
        for _ in 0..rng.index(1, 36) {
            script.push(match rng.index(0, 10) {
                0..=2 => {
                    t += 1;
                    format!("EVENT {} {} {t}.0", id(rng), id(rng))
                }
                3..=6 if rng.index(0, 2) == 0 => format!("EMB {}", id(rng)),
                3..=6 => format!("EMB {} 6.0", id(rng)),
                7..=8 => format!("SCORE {} {} 6.0", id(rng), id(rng)),
                _ => reload.clone(),
            });
        }
        differential(&model, &script, &Config::default(), &coalesced(64));
    });
}
