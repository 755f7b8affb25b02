//! End-to-end smoke tests driving the real `cpdg` binary: graceful
//! SIGTERM handling during pre-training (exit code 8 + resumable
//! checkpoint), the offline `serve --ingest` reference mode
//! (deterministic replies and drain checkpoint, typed corrupt-model exit),
//! and the refusal (exit 2) of options a subcommand does not read and of
//! continual training without a WAL.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

extern "C" {
    // `kill(2)`; used to deliver SIGTERM to the spawned pre-training run.
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpdg"))
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpdg_cli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a small synthetic JODIE CSV through the binary itself.
fn generate_data(dir: &Path) -> PathBuf {
    let data = dir.join("data.csv");
    let status = bin()
        .args([
            "generate", "--preset", "amazon", "--scale", "0.03", "--seed", "1",
        ])
        .args(["--out", data.to_str().unwrap()])
        .status()
        .expect("run cpdg generate");
    assert!(status.success(), "generate failed: {status:?}");
    data
}

#[test]
fn sigterm_mid_pretrain_checkpoints_and_exits_code_8() {
    let dir = test_dir("sigterm");
    let data = generate_data(&dir);
    let ckpts = dir.join("ckpts");

    // Far more epochs than we will ever run — the signal ends the run.
    let mut child = bin()
        .args(["pretrain", "--data", data.to_str().unwrap()])
        .args(["--out", dir.join("model.json").to_str().unwrap()])
        .args(["--dim", "8", "--epochs", "500"])
        .args(["--ckpt-dir", ckpts.to_str().unwrap(), "--ckpt-every", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cpdg pretrain");

    // The banner prints after the signal hook is installed and training
    // is about to start; once we see it, SIGTERM lands mid-run.
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let banner = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if line.starts_with("pre-training") {
                    break line;
                }
            }
            other => panic!("pretrain ended before the banner: {other:?}"),
        }
    };
    assert!(banner.contains("epoch"), "unexpected banner: {banner}");
    let rc = unsafe { kill(child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed");

    let status = child.wait().expect("wait for pretrain");
    assert_eq!(
        status.code(),
        Some(8),
        "graceful signal stop must exit code 8"
    );
    let mut err = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut err).unwrap();
    assert!(
        err.contains("signal 15"),
        "stderr should name the signal: {err}"
    );

    // The preempted run left a resumable checkpoint behind.
    let ckpt_files: Vec<_> = std::fs::read_dir(&ckpts)
        .expect("checkpoint dir exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(
        !ckpt_files.is_empty(),
        "signal stop must persist a checkpoint"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_ingest_mode_is_deterministic_and_rejects_corrupt_models() {
    let dir = test_dir("serve_ingest");
    let data = generate_data(&dir);
    let model = dir.join("model.json");

    let status = bin()
        .args(["pretrain", "--data", data.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .args(["--dim", "8", "--epochs", "1"])
        .status()
        .expect("run cpdg pretrain");
    assert!(status.success(), "pretrain failed: {status:?}");

    let script = dir.join("script.txt");
    std::fs::write(
        &script,
        "EVENT 0 1 1.0\nEVENT 1 2 2.0\nEMB 1\nSCORE 0 2\nNOPE 9 9\nSTATS\n",
    )
    .unwrap();

    // Each run drains into its own WAL directory; the `wal …` lines
    // around the reply stream report recovery and the drain checkpoint.
    let run = |wal: &Path| {
        let out = bin()
            .args(["serve", "--model", model.to_str().unwrap()])
            .args(["--ingest", script.to_str().unwrap()])
            .args(["--wal-dir", wal.to_str().unwrap()])
            .output()
            .expect("run cpdg serve --ingest");
        assert!(out.status.success(), "serve --ingest failed: {out:?}");
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("wal "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let wal1 = dir.join("wal1");
    let wal2 = dir.join("wal2");
    let out1 = run(&wal1);
    let out2 = run(&wal2);
    assert_eq!(out1, out2, "ingest replies must be deterministic");
    assert_eq!(
        std::fs::read(wal1.join("checkpoint.cpdg")).unwrap(),
        std::fs::read(wal2.join("checkpoint.cpdg")).unwrap(),
        "the drain checkpoint must be byte-deterministic"
    );
    let replies: Vec<&str> = out1.lines().collect();
    assert!(replies[0].starts_with("OK v1 event 0"), "{replies:?}");
    assert!(replies[2].starts_with("OK v1 "), "EMB reply: {replies:?}");
    assert!(
        replies[4].starts_with("ERR parse"),
        "junk verb: {replies:?}"
    );
    assert!(replies[5].contains("events=2"), "stats: {replies:?}");

    // Bit-rot in the sealed model file is a typed corrupt-artifact failure.
    let mut bytes = std::fs::read(&model).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&model, &bytes).unwrap();
    let out = bin()
        .args(["serve", "--model", model.to_str().unwrap()])
        .args(["--ingest", script.to_str().unwrap()])
        .output()
        .expect("run cpdg serve on corrupt model");
    assert_eq!(
        out.status.code(),
        Some(4),
        "corrupt model must exit code 4: {out:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_option_the_subcommand_does_not_read_exits_2_naming_it() {
    // Removed options (`--replicas`: two copies are a constant;
    // `--train-window`: continual training cuts the stream into
    // pre-training batches; the per-request budget: a non-zero one never
    // fired; the memory file: the WAL drain checkpoint is the one
    // persisted serving state) must fail loudly before any model is
    // opened, not run as if absent.
    for (option, value) in [
        ("--replicas", "2"),
        ("--train-window", "8"),
        ("--deadline-ms", "5"),
        ("--memory-in", "state.cpdg"),
        ("--memory-out", "state.cpdg"),
    ] {
        let out = bin()
            .args(["serve", option, value, "--model", "missing-model.json"])
            .output()
            .expect("run cpdg serve with a removed option");
        assert_eq!(
            out.status.code(),
            Some(2),
            "unknown option {option} must exit 2: {out:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(option),
            "the refusal names the option: {stderr}"
        );
    }
}

#[test]
fn continual_serving_without_a_wal_dir_exits_2_naming_it() {
    // Training must never outlive the stream's durability: `--continual`
    // with no `--wal-dir` is refused before any model is opened.
    let dir = test_dir("continual_refusal");
    let out = bin()
        .args(["serve", "--continual", "--epoch-dir", dir.to_str().unwrap()])
        .args(["--model", "missing-model.json"])
        .output()
        .expect("run cpdg serve --continual");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a WAL-less trainer must exit 2: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--wal-dir"),
        "the refusal names it: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
