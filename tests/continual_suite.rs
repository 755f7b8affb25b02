//! Continual-training chaos suite: the promotion-safety oracle.
//!
//! The contract under test: a serving engine with a continual trainer
//! attached must answer queries **byte-identically** to an engine with no
//! trainer at all, no matter what goes wrong inside the trainer —
//! injected step faults, emit faults, promote-time faults, guard
//! divergence, corrupt candidate files — right up until a candidate
//! passes the validation gate and is *promoted*. Training is allowed to
//! change serving exactly one way: through a validated promotion.
//!
//! Three pillars:
//!
//! * **baseline invariance** — one fault plan walks a cycle through every
//!   trainer fault point (`trainer.step`, `trainer.emit`,
//!   `trainer.promote`); after each failed cycle the trainer engine's
//!   replies are compared verbatim against a trainer-less twin, and every
//!   rejected candidate is accounted for in `STATUS`;
//! * **kill -9 at every cut point** — the process dies before emit, after
//!   emit but before promotion, and after promotion sealed the pointer;
//!   each time, recovery (promoted-pointer resolution + WAL replay) is a
//!   *deterministic function of durable state*: two independent
//!   recoveries serve byte-identical replies, and only the post-promotion
//!   cut resolves to the candidate epoch. A corrupt pointer is refused
//!   and falls back to the base model, still deterministically;
//! * **probation rollback** — a promotion that trips the circuit breaker
//!   inside its probation window is rolled back: the previous epoch
//!   returns to serving, the pointer is rewritten to it (even though it
//!   lives outside the epoch dir), and the candidate is quarantined.
//!
//! The scripted real-SIGKILL variant of the kill oracle (against the
//! `cpdg` binary under `serve --continual`) lives in CI's `cli-smoke`
//! job; this file is the in-process oracle it leans on.

mod support;

use cpdg::core::chaos::FaultKind::{Permanent, Transient};
use cpdg::core::chaos::{FaultHook, FaultPlan, FaultPoint, Trigger};
use cpdg::core::ModelFile;
use cpdg::dgnn::GuardConfig;
use cpdg::serve::trainer::QUARANTINE_DIR;
use cpdg::serve::{read_promoted, CycleOutcome, Engine, EngineConfig, TrainerRuntime};
use std::sync::Arc;
use support::{
    attach, base_model, events, exec, feed, recover, snap, test_dir, tiny_segments, trainer_cfg,
};

/// The tentpole oracle: one fault plan fires every trainer fault point on
/// successive cycles, and the trainer engine's replies stay byte-identical
/// to a trainer-less twin until the first *validated* promotion lands.
#[test]
fn faulted_cycles_never_change_replies_until_a_validated_promotion() {
    let dir = test_dir("invariance");
    let base = base_model(&dir);
    let plan = FaultPlan::new(21)
        .with(FaultPoint::TrainerStep, Transient, Trigger::Nth { n: 1 })
        .with(FaultPoint::TrainerEmit, Transient, Trigger::Nth { n: 1 })
        .with(FaultPoint::TrainerPromote, Transient, Trigger::Nth { n: 1 });
    let (trained, mut rt) = attach(&base, &dir.join("epochs"), FaultHook::install(&plan));
    let baseline =
        Engine::from_model_file(&base, EngineConfig::default(), FaultHook::none()).unwrap();
    feed(&[&trained, &baseline], &events(0, 64));

    // Cycle 1: the step fault aborts training mid-cycle — retried later.
    match rt.run_cycle().unwrap() {
        CycleOutcome::Faulted(reason) => assert!(reason.contains("trainer.step"), "{reason}"),
        other => panic!("cycle 1: expected step fault, got {other:?}"),
    }
    assert_eq!(snap(&trained), snap(&baseline), "after step fault");

    // Cycle 2: training completes but emission fails before any bytes.
    match rt.run_cycle().unwrap() {
        CycleOutcome::Quarantined(reason) => assert!(reason.contains("trainer.emit"), "{reason}"),
        other => panic!("cycle 2: expected emit quarantine, got {other:?}"),
    }
    assert_eq!(snap(&trained), snap(&baseline), "after emit fault");

    // Cycle 3: the candidate emits and passes readback, but promotion
    // fires the `trainer.promote` fault — the file is quarantined and the
    // serving epoch never swaps.
    match rt.run_cycle().unwrap() {
        CycleOutcome::Quarantined(reason) => {
            assert!(reason.contains("trainer.promote"), "{reason}")
        }
        other => panic!("cycle 3: expected promote quarantine, got {other:?}"),
    }
    assert_eq!(trained.version(), 1, "serving untouched through 3 failures");
    assert_eq!(snap(&trained), snap(&baseline), "after promote fault");
    let status = exec(&trained, "STATUS");
    assert!(status.contains("trainer.quarantined=2"), "{status}");
    assert!(status.contains("trainer.promotions=0"), "{status}");
    assert!(
        dir.join("epochs")
            .join(QUARANTINE_DIR)
            .join("candidate-g1.json")
            .exists(),
        "promote-faulted candidate parked in quarantine"
    );

    // Cycle 4: nothing fires — the candidate passes the gate and promotes.
    // This is the one sanctioned way training may change serving.
    match rt.run_cycle().unwrap() {
        CycleOutcome::Promoted { version, gate } => {
            assert_eq!(version, 2);
            assert!(gate.pass, "{}", gate.reason);
        }
        other => panic!("cycle 4: expected promotion, got {other:?}"),
    }
    assert_eq!(trained.version(), 2);
    for reply in snap(&trained) {
        assert!(reply.starts_with("OK v2 "), "promoted reply: {reply}");
    }
    let promoted = read_promoted(&dir.join("epochs")).unwrap().unwrap();
    assert!(
        promoted.model.ends_with("candidate-g2.json"),
        "{promoted:?}"
    );
    assert_eq!(promoted.generation, 2, "pointer records the generation");
    let status = exec(&trained, "STATUS");
    assert!(status.contains("trainer.promotions=1"), "{status}");
    assert!(status.contains("trainer.quarantined=2"), "{status}");
    assert!(status.contains("trainer.candidates=2"), "{status}");
    assert!(status.contains("trainer.serving_epoch=2"), "{status}");
}

/// Guard divergence is quarantined — the trainer rebuilds from the
/// serving epoch and serving never notices.
#[test]
fn divergence_quarantines_the_cycle_and_spares_serving() {
    let dir = test_dir("diverge");
    let base = base_model(&dir);
    let model = ModelFile::load(&base).unwrap();
    let engine = Arc::new(Engine::from_model(
        &model,
        EngineConfig::default(),
        FaultHook::none(),
    ));
    let baseline = Engine::from_model(&model, EngineConfig::default(), FaultHook::none());
    let mut cfg = trainer_cfg(dir.join("epochs"));
    // Any gradient "explodes" and one poisoned step is one too many.
    cfg.continual.guard = GuardConfig {
        max_grad_norm: 0.0,
        max_retries: 1,
        ..GuardConfig::default()
    };
    let mut rt = TrainerRuntime::new(Arc::clone(&engine), &base, cfg).unwrap();
    feed(&[&engine, &baseline], &events(0, 64));
    match rt.run_cycle().unwrap() {
        CycleOutcome::Quarantined(reason) => assert!(reason.contains("diverged"), "{reason}"),
        other => panic!("expected divergence quarantine, got {other:?}"),
    }
    assert_eq!(engine.version(), 1);
    assert_eq!(snap(&engine), snap(&baseline), "serving unaffected");
    let status = exec(&engine, "STATUS");
    assert!(status.contains("trainer.quarantined=1"), "{status}");
}

/// A candidate corrupted between emit and promote is refused by the
/// sealed loader — promotion errors, the serving epoch stays.
#[test]
fn corrupt_candidate_bytes_cannot_reach_serving() {
    let dir = test_dir("corrupt");
    let base = base_model(&dir);
    let engine =
        Engine::from_model_file(&base, EngineConfig::default(), FaultHook::none()).unwrap();
    let bytes = std::fs::read(&base).unwrap();
    let cand = dir.join("candidate-torn.json");
    std::fs::write(&cand, &bytes[..bytes.len() / 2]).unwrap();
    assert!(
        engine.promote_epoch(&cand).is_err(),
        "torn candidate must be refused"
    );
    assert_eq!(engine.version(), 1, "serving epoch untouched");
}

/// kill -9 at every cut point of train → emit → promote: recovery is a
/// deterministic function of (durable WAL, promoted pointer). Two
/// independent recoveries always serve byte-identical replies, and only
/// the cut *after* the pointer was sealed resolves to the candidate.
#[test]
fn kill_nine_at_every_trainer_cut_point_recovers_deterministically() {
    // (cut name, fault point aborting the cycle there, expected epoch file)
    let cuts: [(&str, Option<FaultPoint>, &str); 3] = [
        ("before_emit", Some(FaultPoint::TrainerEmit), "base.json"),
        (
            "after_emit_no_promote",
            Some(FaultPoint::TrainerPromote),
            "base.json",
        ),
        ("after_promote", None, "candidate-g1.json"),
    ];
    for (name, fault, expect) in cuts {
        let dir = test_dir(&format!("kill_{name}"));
        let base = base_model(&dir);
        let epochs = dir.join("epochs");
        let wal = dir.join("wal");
        std::fs::create_dir_all(&wal).unwrap();
        let hook = match fault {
            Some(point) => FaultHook::install(&FaultPlan::new(5).with(
                point,
                Permanent,
                Trigger::Every { k: 1 },
            )),
            None => FaultHook::none(),
        };
        let model = ModelFile::load(&base).unwrap();
        let engine = Arc::new(Engine::from_model(&model, EngineConfig::default(), hook));
        engine.open_wal(&wal, tiny_segments()).unwrap();
        let mut rt =
            TrainerRuntime::new(Arc::clone(&engine), &base, trainer_cfg(epochs.clone())).unwrap();
        feed(&[&engine], &events(0, 64));
        let outcome = rt.run_cycle().unwrap();
        match fault {
            Some(_) => assert!(
                matches!(outcome, CycleOutcome::Quarantined(_)),
                "{name}: {outcome:?}"
            ),
            None => assert!(
                matches!(outcome, CycleOutcome::Promoted { .. }),
                "{name}: {outcome:?}"
            ),
        }
        // kill -9 analog: no drain, no checkpoint, no shutdown.
        drop(rt);
        drop(engine);

        let (first, serving_a) = recover(&base, &epochs, &wal);
        let (second, serving_b) = recover(&base, &epochs, &wal);
        assert_eq!(serving_a, serving_b, "{name}: resolution is deterministic");
        assert!(
            serving_a.ends_with(expect),
            "{name}: resolved {} instead of {expect}",
            serving_a.display()
        );
        assert_eq!(
            snap(&first),
            snap(&second),
            "{name}: independent recoveries must serve identical replies"
        );

        if fault.is_none() {
            // A trainer re-attached after recovery resumes the generation
            // sequence above the promoted pointer: its next candidate must
            // never overwrite the epoch file it is serving from, and the
            // pointer must keep naming an existing file throughout.
            let g1 = epochs.join("candidate-g1.json");
            let promoted_bytes = std::fs::read(&g1).unwrap();
            let (engine, serving) = recover(&base, &epochs, &wal);
            assert!(serving.ends_with("candidate-g1.json"), "{name}");
            let engine = Arc::new(engine);
            let mut rt =
                TrainerRuntime::new(Arc::clone(&engine), &serving, trainer_cfg(epochs.clone()))
                    .unwrap();
            // The recovered stream is the one the promotion trained on:
            // the pointer's record keeps the re-attached trainer idle
            // until the stream grows.
            assert_eq!(rt.run_cycle().unwrap(), CycleOutcome::Idle, "{name}");
            feed(&[&engine], &events(64, 64));
            let outcome = rt.run_cycle().unwrap();
            assert!(
                !matches!(outcome, CycleOutcome::Idle),
                "{name}: a grown stream must be trainable, got {outcome:?}"
            );
            assert_eq!(
                std::fs::read(&g1).unwrap(),
                promoted_bytes,
                "{name}: restarted trainer scribbled on the promoted epoch"
            );
            let pointer = read_promoted(&epochs).unwrap().unwrap();
            assert!(pointer.generation >= 1, "{name}: {pointer:?}");
            assert!(pointer.model.exists(), "{name}: dangling pointer");
            drop(rt);
            drop(engine);

            // Scribble over the pointer primary: the sealed replica copy
            // (`promoted.cpdg.r1`) heals it — recovery keeps resolving to
            // the promoted epoch instead of regressing to the base model.
            // The re-attached trainer's cycle may legally have promoted
            // again, so the healed pointer must name exactly what the
            // pointer named before the scribble.
            std::fs::write(epochs.join("promoted.cpdg"), b"garbage").unwrap();
            let healed = read_promoted(&epochs).unwrap().unwrap();
            assert_eq!(
                healed.model, pointer.model,
                "{name}: replica did not heal the pointer"
            );

            // Scribble over *every* copy: recovery must refuse the pointer
            // (typed, not followed) and fall back to the base epoch —
            // again identically on every attempt.
            std::fs::write(epochs.join("promoted.cpdg"), b"garbage").unwrap();
            std::fs::write(epochs.join("promoted.cpdg.r1"), b"garbage").unwrap();
            assert!(read_promoted(&epochs).is_err(), "corrupt pointer followed");
            let (fb_a, path_a) = recover(&base, &epochs, &wal);
            let (fb_b, path_b) = recover(&base, &epochs, &wal);
            assert!(path_a.ends_with("base.json"), "{}", path_a.display());
            assert_eq!(path_a, path_b);
            assert_eq!(snap(&fb_a), snap(&fb_b), "{name}: fallback determinism");
        }
    }
}

/// A promotion that trips the breaker inside its probation window is
/// rolled back: the previous epoch (outside the epoch dir!) returns to
/// serving, the pointer follows it, and the candidate is quarantined.
#[test]
fn breaker_trip_inside_probation_rolls_the_promotion_back() {
    let dir = test_dir("rollback");
    let base = base_model(&dir);
    // Three consecutive inference faults — exactly the breaker threshold.
    let plan = FaultPlan::new(31)
        .with(FaultPoint::ServeInfer, Transient, Trigger::Nth { n: 1 })
        .with(FaultPoint::ServeInfer, Transient, Trigger::Nth { n: 2 })
        .with(FaultPoint::ServeInfer, Transient, Trigger::Nth { n: 3 });
    let epochs = dir.join("epochs");
    let (engine, mut rt) = attach(&base, &epochs, FaultHook::install(&plan));
    feed(&[&engine], &events(0, 64));
    match rt.run_cycle().unwrap() {
        CycleOutcome::Promoted { version, .. } => assert_eq!(version, 2),
        other => panic!("expected promotion, got {other:?}"),
    }
    assert_eq!(engine.breaker_trips(), 0, "clean at promotion time");

    // The freshly promoted epoch "misbehaves": three straight failed
    // queries trip the breaker while the promotion is on probation.
    for i in 0..3 {
        let _ = exec(&engine, &format!("EMB {i} 100.0"));
    }
    assert_eq!(engine.breaker_trips(), 1, "breaker tripped");

    match rt.run_cycle().unwrap() {
        CycleOutcome::RolledBack { version } => assert_eq!(version, 3),
        other => panic!("expected rollback, got {other:?}"),
    }
    assert_eq!(engine.version(), 3, "rollback is a forward swap");
    let pointer = read_promoted(&epochs).unwrap().unwrap();
    assert!(
        pointer.model.ends_with("base.json"),
        "pointer follows the fallback even outside the epoch dir: {}",
        pointer.model.display()
    );
    assert!(
        epochs
            .join(QUARANTINE_DIR)
            .join("candidate-g1.json")
            .exists(),
        "rolled-back candidate quarantined"
    );
    let status = exec(&engine, "STATUS");
    assert!(status.contains("trainer.rollbacks=1"), "{status}");
    assert!(status.contains("trainer.promotions=1"), "{status}");
    assert!(status.contains("trainer.quarantined=1"), "{status}");
}
