//! Serve-layer chaos suite: the online-serving recovery oracle.
//!
//! Each test drives a scripted request stream through a real TCP
//! [`Server`] under a deterministic [`FaultPlan`] and asserts, at **1 and
//! 4 worker threads**:
//!
//! * exactly one reply per request — a full `OK`, a typed `DEGRADED`, or a
//!   typed `ERR` (the lockstep reads below would hang, not pass, if a
//!   reply were ever lost);
//! * every reply the model *does* serve is bit-identical to the fault-free
//!   run at the same script position — shedding, breaker trips, and failed
//!   reloads must leave no trace once the breaker re-closes;
//! * the memory drained at the end is byte-identical to the fault-free
//!   run's, because ingestion is never faulted and queries never commit.
//!
//! Determinism rests on the serve design: a single connection is lockstep
//! (one outstanding request), the engine serialises inference, and fault
//! triggers count hits — so hit index N is always script line N.
//!
//! The suite also samples the cross product of every configuration axis
//! of the shared harness (`tests/support`) against its all-default
//! reference, and checks that the harness's comparison is not vacuous.

mod support;

use cpdg::core::chaos::FaultKind::{Permanent, Transient};
use cpdg::core::chaos::{FaultHook, FaultPlan, FaultPoint, Trigger};
use cpdg::serve::{render_floats, CycleOutcome, Engine, EngineConfig, Server, ServerConfig, Stat};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use support::cases::{for_each_case, Lcg};
use support::{
    assert_same, differential, events, queries, run, test_dir, trained_model, Client, Config,
    Crash, CHECKPOINT, NODES, TRAIN,
};

/// Six in-range events followed by fourteen queries; `STATS` stays out so
/// replies are comparable across fault plans (shed counts differ by design).
fn base_script() -> Vec<String> {
    let mut s: Vec<String> = vec![
        "EVENT 0 1 1.0",
        "EVENT 1 2 2.0",
        "EVENT 2 3 3.0",
        "EVENT 3 4 4.0",
        "EVENT 4 5 5.0",
        "EVENT 0 5 6.0",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    for i in 0..7u32 {
        s.push(format!("EMB {}", i % 6));
        s.push(format!("SCORE {} {}", i % 6, (i + 2) % 6));
    }
    s
}

/// The script served over TCP by `workers` workers.
fn tcp(workers: usize) -> Config {
    Config {
        workers,
        ..Config::default()
    }
}

#[test]
fn fault_free_replies_and_memory_are_worker_count_invariant() {
    let model = trained_model(3);
    let script = base_script();
    let (r1, _) = differential(&model, &script, &tcp(1), &tcp(4));
    for (line, reply) in script.iter().zip(&r1.replies) {
        assert!(reply.starts_with("OK v1 "), "{line:?} -> {reply:?}");
    }
}

#[test]
fn admission_faults_shed_exact_requests_and_spare_the_rest() {
    let model = trained_model(3);
    let mut script = base_script();
    script.push("STATS".to_string());
    let last = script.len() - 1;

    let reference = run(&model, &script, &tcp(1));
    assert!(
        reference.replies[last].contains("shed=0"),
        "{}",
        reference.replies[last]
    );

    // `Every { k: 9 }` fires on hits 9 and 18 — both queries (the six
    // EVENT lines occupy hits 1–6, so the memory stream is untouched, and
    // the closing STATS at hit 21 is spared).
    let faults =
        FaultPlan::new(9).with(FaultPoint::ServeAccept, Transient, Trigger::Every { k: 9 });
    for workers in [1usize, 4] {
        let got = run(
            &model,
            &script,
            &Config {
                faults: faults.clone(),
                ..tcp(workers)
            },
        );
        for (i, (got, want)) in got.replies.iter().zip(&reference.replies).enumerate() {
            if i == 8 || i == 17 {
                assert!(got.starts_with("ERR overloaded"), "pos {i}: {got:?}");
            } else if i == last {
                assert!(got.contains("shed=2"), "stats must count both sheds: {got}");
            } else {
                assert_eq!(
                    got, want,
                    "non-shed reply diverged at pos {i} ({workers} workers)"
                );
            }
        }
        assert!(
            got.memory == reference.memory,
            "memory diverged under shedding ({workers} workers)"
        );
    }
}

#[test]
fn infer_faults_trip_the_breaker_and_a_clean_probe_recloses_it() {
    let model = trained_model(3);
    let script = base_script(); // 6 events, then queries 1..=14
    let reference = run(&model, &script, &tcp(1));

    // Three one-shot infer faults: queries 1–3 fail and trip the breaker
    // (threshold 3). Queries 4–6 are shorted; query 7 is the probe
    // (probe_every 4), succeeds, and re-closes. Queries 8+ must be
    // bit-identical to the fault-free run — the oracle in one test.
    let faults = FaultPlan::new(11)
        .with(FaultPoint::ServeInfer, Transient, Trigger::Nth { n: 1 })
        .with(FaultPoint::ServeInfer, Transient, Trigger::Nth { n: 2 })
        .with(FaultPoint::ServeInfer, Transient, Trigger::Nth { n: 3 });
    let memory = &model.checkpoints[0].states;
    for workers in [1usize, 4] {
        let got = run(
            &model,
            &script,
            &Config {
                faults: faults.clone(),
                ..tcp(workers)
            },
        );
        for (i, (got, want)) in got.replies.iter().zip(&reference.replies).enumerate() {
            let query_idx = i as i64 - 5; // 1-based query number; events are <= 0
            if (1..=6).contains(&query_idx) {
                assert!(
                    got.starts_with("DEGRADED v1 "),
                    "query {query_idx}: {got:?}"
                );
                // Degraded bodies come from the model's static EIE snapshot,
                // not from (possibly poisoned) live weights.
                let node = |s: &str| memory.row(s.parse().unwrap());
                let expected = match script[i].split(' ').collect::<Vec<_>>()[..] {
                    ["EMB", n] => render_floats(node(n)),
                    ["SCORE", a, b] => {
                        let dot: f32 = node(a).iter().zip(node(b)).map(|(x, y)| x * y).sum();
                        render_floats(&[dot])
                    }
                    _ => unreachable!("query script line"),
                };
                assert_eq!(got, &format!("DEGRADED v1 {expected}"), "pos {i}");
            } else {
                assert_eq!(
                    got, want,
                    "post-reclose reply diverged at pos {i} ({workers} workers)"
                );
            }
        }
        assert!(
            got.memory == reference.memory,
            "memory diverged under breaker chaos ({workers} workers)"
        );
    }
}

#[test]
fn reload_fault_keeps_old_epoch_live_then_clean_reload_bumps_version() {
    let dir = test_dir("reload");
    let model = trained_model(3);
    let next_path = dir.join("model_v2.json");
    trained_model(4).save(&next_path).unwrap();

    let reload = format!("RELOAD {}", next_path.display());
    let script: Vec<String> = [
        "EVENT 0 1 1.0",
        "EVENT 1 2 2.0",
        "EMB 1",
        &reload,
        "EMB 1",
        &reload,
        "EMB 1",
        "EVENT 2 3 3.0",
    ]
    .map(String::from)
    .to_vec();
    let faults = FaultPlan::new(13).with(FaultPoint::ServeReload, Transient, Trigger::Nth { n: 1 });
    for workers in [1usize, 4] {
        let r = run(
            &model,
            &script,
            &Config {
                faults: faults.clone(),
                ..tcp(workers)
            },
        )
        .replies;
        assert!(r[3].starts_with("ERR reload"), "{}", r[3]);
        assert_eq!(r[2], r[4], "a failed reload must leave serving untouched");
        assert!(r[4].starts_with("OK v1 "), "{}", r[4]);
        assert_eq!(r[5], "OK v2 reloaded");
        assert!(
            r[6].starts_with("OK v2 "),
            "reply stamped with new version: {}",
            r[6]
        );
        assert_eq!(r[7], "OK v2 event 2", "ingestion continues across the swap");
    }
}

/// Extracts the `v<N>` stamp from an `OK`/`DEGRADED` reply.
fn reply_version(reply: &str) -> Option<u64> {
    reply.split(' ').nth(1)?.strip_prefix('v')?.parse().ok()
}

#[test]
fn concurrent_clients_with_hot_reloads_lose_nothing_and_see_monotone_versions() {
    const PER_THREAD: usize = 40;
    let dir = test_dir("stress");
    let model = trained_model(3);
    let reload_path = dir.join("model_next.json");
    trained_model(5).save(&reload_path).unwrap();

    let engine = Arc::new(Engine::from_model(
        &model,
        EngineConfig::default(),
        FaultHook::none(),
    ));
    let server = Server::start(
        Arc::clone(&engine),
        &ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..4usize)
        .map(|thread| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                (0..PER_THREAD)
                    .map(|i| {
                        // Thread 0 is the sole event writer (timestamps stay
                        // monotone); the rest hammer queries.
                        client.send(&match thread {
                            0 => format!("EVENT {} {} {}.0", i % NODES, (i + 1) % NODES, i),
                            _ => match i % 3 {
                                0 => format!("EMB {}", (thread + i) % NODES),
                                1 => format!("SCORE {} {}", i % NODES, (i + thread) % NODES),
                                _ => "PING".to_string(),
                            },
                        })
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    // Two live model swaps from a fifth connection while the others run.
    let mut client = Client::connect(addr);
    for expect_version in [2u64, 3] {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let r = client.send(&format!("RELOAD {}", reload_path.display()));
        assert_eq!(r, format!("OK v{expect_version} reloaded"));
    }
    drop(client);

    for handle in handles {
        let replies = handle.join().expect("client thread");
        assert_eq!(replies.len(), PER_THREAD, "every request must be answered");
        let mut last_version = 0u64;
        for reply in &replies {
            assert!(
                reply.starts_with("OK v") || reply.starts_with("DEGRADED v"),
                "unexpected reply under clean stress: {reply:?}"
            );
            let v = reply_version(reply).expect("version stamp");
            assert!(
                v >= last_version,
                "version went backwards on one connection: {replies:?}"
            );
            last_version = v;
        }
    }

    let engine = server.shutdown();
    assert_eq!(engine.get(Stat::Events), PER_THREAD as u64);
    assert_eq!(engine.get(Stat::Reloads), 2);
    assert_eq!(
        engine.get(Stat::Shed),
        0,
        "queue never filled under lockstep"
    );
}

/// A char outside Unicode's control category: printable ASCII half the
/// time, else any scalar value above the C1 controls.
fn printable(rng: &mut Lcg) -> char {
    loop {
        let code = match rng.index(0, 2) {
            0 => rng.index(0x20, 0x7f),
            _ => rng.index(0xa0, 0x11_0000),
        };
        if let Some(c) = char::from_u32(code as u32).filter(|c| !c.is_control()) {
            return c;
        }
    }
}

/// The line grammar is total: any unicode junk parses or rejects
/// without panicking.
#[test]
fn parse_line_is_total_over_arbitrary_input() {
    for_each_case(256, |rng| {
        let line: String = (0..rng.index(0, 61)).map(|_| printable(rng)).collect();
        let _ = cpdg::serve::parse_line(&line);
    });
}

/// Adversarially shaped requests — a plausible verb with junk operands
/// — never panic, and never parse into an out-of-grammar command.
#[test]
fn parse_line_is_total_over_malformed_requests() {
    const VERBS: [&str; 6] = ["EVENT", "EMB", "SCORE", "RELOAD", "STATS", "PING"];
    const OPERAND: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ._";
    let word = |rng: &mut Lcg, alphabet: &[u8], lo: usize, hi: usize| -> String {
        (0..rng.index(lo, hi))
            .map(|_| alphabet[rng.index(0, alphabet.len())] as char)
            .collect()
    };
    for_each_case(256, |rng| {
        let verb = match rng.index(0, VERBS.len() + 1) {
            k if k < VERBS.len() => VERBS[k].to_string(),
            _ => word(rng, b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", 1, 9),
        };
        let operands: Vec<String> = (0..rng.index(0, 5))
            .map(|_| ["", "-"][rng.index(0, 2)].to_string() + &word(rng, OPERAND, 1, 11))
            .collect();
        let line = if operands.is_empty() {
            verb
        } else {
            format!("{verb} {}", operands.join(" "))
        };
        if let Ok(cmd) = cpdg::serve::parse_line(&line) {
            // Whatever parsed must render back through the reply path
            // without panicking either.
            let _ = format!("{cmd:?}");
        }
    });
}

/// The cross-axis script: two bursts of events, each followed by the same
/// queries past the stream's end (a stale cache entry would replay) and a
/// trainer cycle, with a WAL checkpoint and an `EMB` at the stream's now
/// after the second; then events interleaved with queries on their own
/// and the previous event's endpoints, whose pending message each event
/// commits.
fn axes_script() -> Vec<String> {
    let mut s = events(0, 40);
    s.extend(queries(100.0));
    s.push(TRAIN.to_string());
    s.extend(events(40, 16));
    s.push(CHECKPOINT.to_string());
    s.extend(queries(100.0));
    s.push("EMB 3".to_string());
    s.push(TRAIN.to_string());
    for i in 56..64 {
        s.extend(events(i, 1));
        for u in [(i - 1) % 8, i % 8] {
            s.push(format!("EMB {u} 100.0"));
            s.push(format!("SCORE {u} {} 100.0", 8 + u));
        }
    }
    s.extend(queries(100.0));
    s
}

/// The fault-plan axis: none, one transient fault on every WAL point
/// (retried invisibly), or every scrub repair write lost (a healed read
/// serves from the replica and leaves the primary bad).
fn plans() -> [FaultPlan; 3] {
    [
        FaultPlan::default(),
        FaultPlan::new(3)
            .with(FaultPoint::WalAppend, Transient, Trigger::Nth { n: 2 })
            .with(FaultPoint::WalFsync, Transient, Trigger::Nth { n: 5 })
            .with(FaultPoint::WalReplay, Transient, Trigger::Nth { n: 3 }),
        FaultPlan::new(9).with(FaultPoint::ScrubRepair, Permanent, Trigger::Every { k: 1 }),
    ]
}

/// One point of the cross product, drawn uniformly per axis; a crash cut
/// lands at or after line 8, where a sealed copy exists to flip.
fn sample(rng: &mut Lcg, lines: usize) -> Config {
    let trainers = [
        None,
        Some(FaultPoint::TrainerStep),
        Some(FaultPoint::TrainerEmit),
        Some(FaultPoint::TrainerPromote),
    ];
    Config {
        workers: [0, 1, 4][rng.index(0, 3)],
        batch: [1, 8][rng.index(0, 2)],
        cache: rng.index(0, 2) == 1,
        trainer: trainers[rng.index(0, trainers.len())],
        faults: plans()[rng.index(0, 3)].clone(),
        crash: match rng.index(0, 3) {
            0 => None,
            k => Some(Crash {
                at: rng.index(8, lines + 1),
                flip: k == 2,
            }),
        },
    }
}

/// Any point of {workers, batch, cache, faulted trainer, fault plan, crash
/// cut with or without a rotted copy} answers every line and drains
/// memory exactly as the all-default reference does. The first case is
/// the corner no single suite covers: batch 8 with the cache on, a trainer
/// whose promotions are faulted, a crash cut and a replica bit flip.
#[test]
fn sampled_axis_combinations_match_the_all_default_reference() {
    let model = trained_model(3);
    let script = axes_script();
    let reference = run(&model, &script, &Config::default());
    let trains = script.iter().filter(|l| *l == TRAIN).count();
    let corner = Config {
        workers: 1,
        batch: 8,
        cache: true,
        trainer: Some(FaultPoint::TrainerPromote),
        faults: FaultPlan::default(),
        // After the checkpoint, both trainer cycles and four interleaved
        // events.
        crash: Some(Crash {
            at: 110,
            flip: true,
        }),
    };
    let check = |cfg: &Config| {
        let got = run(&model, &script, cfg);
        assert_same(&reference, &got);
        if cfg.trainer.is_some() {
            // Every cycle ran, one at least met its fault, none promoted.
            assert_eq!(got.cycles.len(), trains, "{:?}", got.cycles);
            let failed = |c: &CycleOutcome| {
                matches!(c, CycleOutcome::Faulted(_) | CycleOutcome::Quarantined(_))
            };
            assert!(got.cycles.iter().any(failed), "{:?}", got.cycles);
            assert!(
                got.cycles
                    .iter()
                    .all(|c| failed(c) || *c == CycleOutcome::Idle),
                "a faulted trainer changed serving: {:?}",
                got.cycles
            );
        }
        if let Some(crash) = cfg.crash {
            let ingested = script[..crash.at]
                .iter()
                .filter(|l| l.starts_with("EVENT"))
                .count();
            let report = got.recovery.expect("a crash cut recovers");
            assert_eq!(report.checkpoint_applied + report.replayed, ingested as u64);
        }
    };
    let named = |cfg: &Config| {
        if catch_unwind(AssertUnwindSafe(|| check(cfg))).is_err() {
            panic!("configuration {cfg:?} failed; its panic is above");
        }
    };
    named(&corner);
    for_each_case(32, |rng| named(&sample(rng, script.len())));
}

/// The comparison is not vacuous: one extra `EVENT` in B's script fails it.
#[test]
#[should_panic(expected = "drained memory diverged")]
fn the_oracle_catches_one_extra_event() {
    let model = trained_model(3);
    let script = [events(0, 8), queries(8.0)].concat();
    let extra = [script.clone(), events(8, 1)].concat();
    assert_same(
        &run(&model, &script, &Config::default()),
        &run(&model, &extra, &Config::default()),
    );
}
