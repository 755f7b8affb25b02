//! WAL chaos suite: the crash-recovery oracle.
//!
//! The durability contract under test: an engine that crashes at *any*
//! fault point — a failed append, a failed fsync, an outright `kill -9`
//! between any two requests — and then recovers by replaying its
//! write-ahead log must serve **byte-identical** replies to an engine
//! that ran uninterrupted over the same accepted events. Not "close",
//! not "equivalent": the rendered reply strings are compared verbatim.
//!
//! Three pillars:
//!
//! * every WAL fault point (`wal.append`, `wal.fsync`, `wal.rotate`,
//!   `wal.replay`) is driven both transiently (retried invisibly) and
//!   permanently (typed rejection, exactly-once semantics: a rejected
//!   event is in neither memory nor log);
//! * the kill -9 analog — dropping the engine with no drain, no
//!   checkpoint, no sync beyond the per-append policy — at every cut
//!   point of the event stream, including across segment rotations and
//!   checkpoints;
//! * a panicking worker is restarted by the supervisor without
//!   disturbing other live connections.
//!
//! Determinism notes: tests keep at most one request in flight, so fault
//! trigger hit-counts map 1:1 to script positions at any worker count;
//! the scripted `kill -9` variant (a real SIGKILL against the `cpdg`
//! binary) lives in CI's `cli-smoke` job, this file is the in-process
//! oracle it leans on.

mod support;

use cpdg::core::chaos::FaultKind::{Permanent, Transient};
use cpdg::core::chaos::{FaultHook, FaultPlan, FaultPoint, Trigger};
use cpdg::core::{CpdgError, FS_STORAGE};
use cpdg::serve::{Engine, EngineConfig, Server, ServerConfig, Stat};
use std::sync::Arc;
use support::{
    assert_same, events, exec, feed, queries, run, test_dir, tiny_segments, trained_model, Client,
    Config, Crash, CHECKPOINT,
};

/// The ingestion stream (enough events to span several 64-byte
/// segments), then deterministic queries probing the ingested state.
fn script() -> Vec<String> {
    [events(0, 10), queries(10.0)].concat()
}

/// A crash cut before script line `at`.
fn crash(at: usize) -> Config {
    Config {
        crash: Some(Crash { at, flip: false }),
        ..Config::default()
    }
}

#[test]
fn kill_nine_at_every_cut_point_recovers_bit_identical() {
    let model = trained_model(7);
    let reference = run(&model, &script(), &Config::default());
    assert!(
        reference.replies[..10].iter().all(|r| r.starts_with("OK ")),
        "{:?}",
        reference.replies
    );
    // A crash between any two requests must recover identically: replay
    // plus the remainder of the stream equals one uninterrupted run.
    for cut in 0..=10 {
        let got = run(&model, &script(), &crash(cut));
        assert_eq!(got.recovery.unwrap().replayed, cut as u64, "cut {cut}");
        assert_same(&reference, &got);
    }
}

#[test]
fn checkpoint_then_crash_replays_only_the_suffix() {
    let model = trained_model(7);
    let mut script = script();
    script.insert(6, CHECKPOINT.to_string());
    // Crash after the checkpoint, with a live tail in the log.
    let got = run(&model, &script, &crash(11));
    let report = got.recovery.unwrap();
    assert_eq!(report.checkpoint_applied, 6);
    assert_eq!(report.replayed, 4);
    assert_same(&run(&model, &script, &Config::default()), &got);
}

#[test]
fn permanent_append_and_fsync_faults_reject_exactly_once() {
    let model = trained_model(7);
    // Fault the 4th hit of each point: the 4th EVENT must be rejected,
    // every other event accepted, and recovery must reconstruct exactly
    // the accepted set — the rejected event is in neither memory nor the
    // log. Each point is consulted exactly once per EVENT, so the same
    // plan rejects the same script position for both. The queries run
    // live, then again after a crash.
    let script = [script(), queries(10.0)].concat();
    let accepted: Vec<String> = script
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 3)
        .map(|(_, l)| l.clone())
        .collect();
    let reference = run(&model, &accepted, &Config::default());
    for point in [FaultPoint::WalAppend, FaultPoint::WalFsync] {
        let faults = FaultPlan::new(5).with(point, Permanent, Trigger::Nth { n: 4 });
        let mut got = run(
            &model,
            &script,
            &Config {
                faults,
                ..crash(26)
            },
        );
        for (i, r) in got.replies[..10].iter().enumerate() {
            let want = if i == 3 { "ERR exec " } else { "OK " };
            assert!(r.starts_with(want), "{point:?} pos {i}: {r}");
        }
        assert_eq!(got.recovery.unwrap().replayed, 9, "{point:?}");
        got.replies.remove(3);
        assert_same(&reference, &got);
    }
}

#[test]
fn rotation_faults_reject_exactly_the_events_that_see_err() {
    let model = trained_model(7);
    // Two 34-byte event frames fill a 64-byte segment, so every other
    // EVENT from the third on must rotate first: EVENTs 3, 5 (fails), 6,
    // 8 (fails) and 9 consult `wal.rotate`. A failed rotation rejects its
    // EVENT before any frame byte is written, and the next EVENT rotates
    // the still-open full tail. Every OK event must replay after the
    // restart, and no ERR event may.
    let faults = FaultPlan::new(11).with(FaultPoint::WalRotate, Permanent, Trigger::Every { k: 2 });
    let mut got = run(
        &model,
        &script(),
        &Config {
            faults,
            ..crash(10)
        },
    );
    let rejected: Vec<usize> = (0..10)
        .filter(|&i| !got.replies[i].starts_with("OK "))
        .collect();
    assert_eq!(rejected, [4, 7], "{:?}", &got.replies[..10]);
    for &i in &rejected {
        assert!(
            got.replies[i].starts_with("ERR exec "),
            "{}",
            got.replies[i]
        );
    }
    assert_eq!(got.recovery.unwrap().replayed, 8);
    let accepted: Vec<String> = script()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !rejected.contains(i))
        .map(|(_, line)| line)
        .collect();
    for &i in rejected.iter().rev() {
        got.replies.remove(i);
    }
    assert_same(&run(&model, &accepted, &Config::default()), &got);
}

#[test]
fn transient_wal_faults_are_retried_invisibly() {
    let model = trained_model(7);
    // One transient fault on each WAL point: the retry policy absorbs all
    // of them; every event lands and recovery sees the full stream.
    // Recovery installs the plan afresh, which re-arms the replay fault:
    // it must be retried invisibly too.
    let faults = FaultPlan::new(3)
        .with(FaultPoint::WalAppend, Transient, Trigger::Nth { n: 2 })
        .with(FaultPoint::WalFsync, Transient, Trigger::Nth { n: 5 })
        .with(FaultPoint::WalRotate, Transient, Trigger::Nth { n: 2 })
        .with(FaultPoint::WalReplay, Transient, Trigger::Nth { n: 3 });
    let got = run(
        &model,
        &script(),
        &Config {
            faults,
            ..crash(10)
        },
    );
    assert_eq!(got.recovery.unwrap().replayed, 10);
    assert_eq!(
        got.engine.fault_hook().injected_at(FaultPoint::WalReplay),
        1
    );
    assert_same(&run(&model, &script(), &Config::default()), &got);
}

#[test]
fn permanent_replay_fault_is_a_typed_recovery_error() {
    let model = trained_model(7);
    let dir = test_dir("replay_err");
    let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
    engine.open_wal(&dir, tiny_segments()).unwrap();
    feed(&[&engine], &events(0, 10));
    drop(engine);

    let plan = FaultPlan::new(1).with(FaultPoint::WalReplay, Permanent, Trigger::Nth { n: 2 });
    let broken = Engine::from_model(&model, EngineConfig::default(), FaultHook::install(&plan));
    match broken.open_wal(&dir, tiny_segments()) {
        Err(CpdgError::Fault { point, .. }) => assert_eq!(point, "wal.replay"),
        other => panic!("expected a typed replay fault, got {other:?}"),
    }
}

#[test]
fn planned_storage_read_faults_reach_the_checkpoint_load() {
    let model = trained_model(7);
    let dir = test_dir("ckpt_read_fault");
    let engine = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
    engine.open_wal(&dir, tiny_segments()).unwrap();
    feed(&[&engine], &events(0, 6));
    engine.checkpoint_wal(&FS_STORAGE).unwrap();
    drop(engine);

    // Every read fails: the checkpoint load reads its copies through the
    // engine's storage, so recovery stops with the injected I/O error.
    let plan = FaultPlan::new(1).with(FaultPoint::StorageRead, Permanent, Trigger::Every { k: 1 });
    let hook = FaultHook::install(&plan);
    let broken = Engine::from_model(&model, EngineConfig::default(), hook.clone());
    match broken.open_wal(&dir, tiny_segments()) {
        Err(CpdgError::Io { source, .. }) => {
            assert!(source.to_string().contains("storage.read"), "{source}")
        }
        other => panic!("expected the injected storage.read error, got {other:?}"),
    }
    assert!(hook.hits(FaultPoint::StorageRead) >= 1);
}

#[test]
fn panicking_worker_spares_other_connections() {
    let model = trained_model(7);
    for workers in [1usize, 4] {
        // The 3rd job processed by the pool panics its worker. Requests
        // are kept lockstep across both connections, so hit order (and
        // therefore which request dies) is deterministic at any pool size.
        let plan =
            FaultPlan::new(2).with(FaultPoint::ServeWorker, Permanent, Trigger::Nth { n: 3 });
        let engine = Arc::new(Engine::from_model(
            &model,
            EngineConfig::default(),
            FaultHook::install(&plan),
        ));
        let server = Server::start(
            Arc::clone(&engine),
            &ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut a = Client::connect(server.local_addr());
        let mut b = Client::connect(server.local_addr());

        assert_eq!(b.send("EVENT 0 1 1.0"), "OK v1 event 0");
        assert_eq!(a.send("PING"), "OK v1 pong");
        // Hit 3: connection A's request rides the panicking worker and
        // gets the deterministic lost-reply error…
        assert_eq!(a.send("PING"), "ERR exec reply channel closed");
        // …while connection B — open throughout — never notices: the
        // supervisor restarted the worker and the pool keeps serving.
        assert_eq!(b.send("EVENT 1 2 2.0"), "OK v1 event 1");
        assert_eq!(b.send("EMB 1 2.0"), {
            let reference = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
            exec(&reference, "EVENT 0 1 1.0");
            exec(&reference, "EVENT 1 2 2.0");
            exec(&reference, "EMB 1 2.0")
        });
        let status = b.send("STATUS");
        assert!(
            status.contains("worker_panics=1"),
            "workers={workers}: {status}"
        );
        // A's connection also stays usable after its lost request.
        assert_eq!(a.send("PING"), "OK v1 pong");
        drop((a, b));
        let engine = server.shutdown();
        assert_eq!(engine.get(Stat::WorkerPanics), 1, "workers={workers}");
    }
}

#[test]
fn status_surfaces_wal_and_recovery_fields() {
    let model = trained_model(7);
    let script = [events(0, 10), vec!["STATUS".to_string()]].concat();
    let got = run(&model, &script, &crash(10));
    let status = &got.replies[10];
    for pair in [
        "wal=1",
        "recovered_replayed=10",
        "wal_next_index=10",
        "events=10",
    ] {
        assert!(status.contains(pair), "missing {pair} in {status}");
    }
}
