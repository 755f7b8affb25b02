//! Chaos-harness integration suite: the recovery-correctness oracle.
//!
//! Each test runs the pipeline under a deterministic [`FaultPlan`] and
//! asserts the outcome is **bit-identical** to the fault-free run — faults
//! that are retried, resumed past, or quarantined must leave no trace in
//! the final parameters or metrics. Three distinct plans are covered:
//!
//! 1. transient storage / sampler / memory faults cleared by retry;
//! 2. a permanent `ckpt.save` fault, or a torn checkpoint write, that
//!    crashes pre-training mid-run, followed by a plan-free resume;
//! 3. malformed rows spliced into ingestion (`loader.row`) and quarantined
//!    by the lenient loader.

mod support;

use cpdg::core::chaos::FaultKind::{Permanent, Transient};
use cpdg::core::chaos::{load_jodie_chaos, FaultHook, FaultPlan, FaultPoint, RetryPolicy, Trigger};
use cpdg::core::checkpoint::{CheckpointConfig, CheckpointManager};
use cpdg::core::error::CpdgError;
use cpdg::core::pretrain::PretrainRuntime;
use cpdg::core::storage::FS_STORAGE;
use cpdg::graph::loader::{write_jodie_csv, LoadOptions};
use cpdg::graph::DynamicGraph;
use support::{loss_bits, pretrain_run, test_dir, tiny_dataset};

/// The fault-free reference: one uninterrupted run, no persistence —
/// parameters as their encoded bytes and epoch losses as bits.
fn reference_run(graph: &DynamicGraph, seed: u64) -> (Vec<u8>, Vec<u32>) {
    let (store, out) = pretrain_run(graph, seed, &PretrainRuntime::default());
    (
        cpdg::core::codec::to_bytes(&store),
        loss_bits(&out.expect("reference run")),
    )
}

#[test]
fn transient_faults_are_retried_to_a_bit_identical_run() {
    let ds = tiny_dataset(10);
    let (ref_params, ref_losses) = reference_run(&ds.graph, 10);

    // Plan 1: transient faults at three different layers. Every trigger is
    // self-clearing under retry: the hit counter advances on each retry, so
    // an `nth`/`every` rule stops matching on the next consultation.
    let plan = FaultPlan::new(42)
        .with(FaultPoint::StorageWrite, Transient, Trigger::Every { k: 3 })
        .with(FaultPoint::SamplerBatch, Transient, Trigger::Nth { n: 2 })
        .with(FaultPoint::MemoryUpdate, Transient, Trigger::Nth { n: 3 });
    let hook = FaultHook::install(&plan);

    let dir = test_dir("transient");
    let runtime = PretrainRuntime {
        checkpoint: Some(CheckpointConfig {
            dir: dir.to_path_buf(),
            every_n_steps: 3,
            keep: 3,
        }),
        chaos: hook.clone(),
        ..PretrainRuntime::default()
    };
    let (store, out) = pretrain_run(&ds.graph, 10, &runtime);
    let out = out.expect("transient faults must be absorbed by retry");

    // The plan actually fired — this test is not vacuous.
    assert!(
        hook.injected() >= 3,
        "expected several injections, got {}",
        hook.injected()
    );
    assert!(hook.injected_at(FaultPoint::StorageWrite) > 0);
    assert!(hook.injected_at(FaultPoint::SamplerBatch) > 0);
    assert!(hook.injected_at(FaultPoint::MemoryUpdate) > 0);

    // …and left no trace: parameters and losses match the fault-free run
    // bit for bit.
    assert_eq!(
        loss_bits(&out),
        ref_losses,
        "epoch losses diverged under transient chaos"
    );
    assert_eq!(
        cpdg::core::codec::to_bytes(&store),
        ref_params,
        "parameters diverged under transient chaos"
    );
}

#[test]
fn permanent_ckpt_save_fault_crashes_then_resumes_bit_identically() {
    let ds = tiny_dataset(11);
    let (ref_params, ref_losses) = reference_run(&ds.graph, 11);

    // Plan 2, in two shapes: the second checkpoint publish dies
    // permanently, either as a whole (`ckpt.save`) or torn partway through
    // its data file's write (`storage.write` hit 3 — each publish writes
    // the file, then the `latest` pointer — landing 16 bytes). Retry must
    // give up immediately (permanent faults are not transient) and the run
    // must surface a typed I/O error mid-stream.
    let plans = [
        (
            "ckpt_crash",
            FaultPoint::CkptSave,
            FaultPlan::new(7).with(FaultPoint::CkptSave, Permanent, Trigger::Nth { n: 2 }),
        ),
        (
            "ckpt_torn",
            FaultPoint::StorageWrite,
            FaultPlan::new(7).with_torn_write(Permanent, Trigger::Nth { n: 3 }, 16),
        ),
    ];
    for (name, point, plan) in plans {
        let hook = FaultHook::install(&plan);
        let dir = test_dir(name);
        let ckpt = CheckpointConfig {
            dir: dir.to_path_buf(),
            every_n_steps: 3,
            keep: 3,
        };
        let runtime = PretrainRuntime {
            checkpoint: Some(ckpt.clone()),
            chaos: hook.clone(),
            ..PretrainRuntime::default()
        };
        let err = pretrain_run(&ds.graph, 11, &runtime)
            .1
            .expect_err("permanent fault in the second publish must abort the run");
        assert!(matches!(err, CpdgError::Io { .. }), "{name}: {err}");
        assert_eq!(hook.injected_at(point), 1, "{name}");

        // The crash left only whole files (no temp residue, no second
        // checkpoint), and the first checkpoint is the newest that loads.
        let mut files: Vec<_> = std::fs::read_dir(&*dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["ckpt-00000003.json", "latest"], "{name}");
        let (first, _) = CheckpointManager::load_latest(&FS_STORAGE, &dir)
            .unwrap()
            .expect("the first checkpoint survives");
        assert_eq!(first.step, 3, "{name}");

        // Resuming without any plan replays the remaining steps to the
        // exact fault-free endpoint.
        let runtime = PretrainRuntime {
            checkpoint: Some(ckpt),
            resume: true,
            ..PretrainRuntime::default()
        };
        let (store, resumed) = pretrain_run(&ds.graph, 11, &runtime);
        let resumed = resumed.expect("resume after the injected crash");
        assert_eq!(
            loss_bits(&resumed),
            ref_losses,
            "{name}: epoch losses diverged across crash+resume"
        );
        assert_eq!(
            cpdg::core::codec::to_bytes(&store),
            ref_params,
            "{name}: resumed parameters must be bit-identical to the uninterrupted run"
        );
    }
}

#[test]
fn quarantined_malformed_rows_leave_downstream_metrics_untouched() {
    let ds = tiny_dataset(12);
    let dir = test_dir("ingest");
    let path = dir.join("data.csv");
    write_jodie_csv(
        &ds.graph,
        ds.num_users,
        std::fs::File::create(&path).unwrap(),
    )
    .unwrap();

    // Fault-free parse of the same bytes.
    let clean = load_jodie_chaos(
        &path,
        &LoadOptions::lenient(),
        &RetryPolicy::default(),
        &FaultHook::none(),
    )
    .expect("clean load");
    assert_eq!(clean.quarantine.total, 0);

    // Plan 3: splice a malformed line in front of every 40th data row. The
    // lenient loader must set each one aside and reconstruct the exact
    // clean graph.
    let plan = FaultPlan::new(3).with(FaultPoint::LoaderRow, Permanent, Trigger::Every { k: 40 });
    let hook = FaultHook::install(&plan);
    let dirty = load_jodie_chaos(
        &path,
        &LoadOptions::lenient(),
        &RetryPolicy::default(),
        &hook,
    )
    .expect("lenient load absorbs injected rows");

    let injected = hook.injected_at(FaultPoint::LoaderRow) as usize;
    assert!(injected > 0, "plan must have fired");
    assert_eq!(
        dirty.quarantine.total, injected,
        "every injected malformed line is quarantined, nothing else"
    );
    assert_eq!(dirty.graph.num_events(), clean.graph.num_events());
    assert_eq!(dirty.num_users, clean.num_users);
    assert_eq!(dirty.num_items, clean.num_items);

    // Downstream bit-identity: pre-training on the quarantine-cleaned graph
    // equals pre-training on the clean one, parameter for parameter.
    let (clean_params, clean_bits) = reference_run(&clean.graph, 12);
    let (dirty_params, dirty_bits) = reference_run(&dirty.graph, 12);
    assert_eq!(dirty_bits, clean_bits, "losses diverged after quarantine");
    assert_eq!(
        dirty_params, clean_params,
        "parameters diverged after quarantine"
    );

    // Strict mode refuses the same injected stream with a parse error.
    let strict_hook = FaultHook::install(&plan);
    let err = load_jodie_chaos(
        &path,
        &LoadOptions::strict(),
        &RetryPolicy::default(),
        &strict_hook,
    )
    .expect_err("strict mode must reject injected rows");
    assert!(matches!(err, CpdgError::Data(_)), "{err}");
}

#[test]
fn probability_triggers_are_reproducible_across_identical_plans() {
    // The `prob` trigger must be a pure function of (seed, point, hit):
    // two hooks built from the same plan inject at exactly the same hits.
    let plan = FaultPlan::new(99).with(
        FaultPoint::SamplerBatch,
        Transient,
        Trigger::Prob { p: 0.3 },
    );
    let trace = |plan: &FaultPlan| -> Vec<bool> {
        let hook = FaultHook::install(plan);
        (0..200)
            .map(|_| hook.check(FaultPoint::SamplerBatch).is_err())
            .collect()
    };
    let a = trace(&plan);
    let b = trace(&plan);
    assert_eq!(
        a, b,
        "identical plans must produce identical fault schedules"
    );
    let fired = a.iter().filter(|&&f| f).count();
    assert!(
        fired > 20 && fired < 100,
        "p=0.3 over 200 hits fired {fired} times"
    );
}
