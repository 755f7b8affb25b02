//! End-to-end exercise of the observability layer: macros → sinks →
//! run-directory artefacts, in one process the way a training run uses it.

use cpdg_obs::{counter, emit_metrics, span, Json, Level, RunDir};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cpdg-obs-suite-{tag}-{}", std::process::id()))
}

#[test]
fn full_run_round_trip() {
    let dir = temp_dir("full");
    let cap = cpdg_obs::capture();
    let before = cpdg_obs::counters_snapshot();
    {
        let run = RunDir::create(&dir).unwrap();
        run.write_manifest(&Json::obj(vec![
            ("kind", Json::from("pretrain")),
            ("seed", Json::U64(42)),
            ("threads", Json::U64(2)),
        ]))
        .unwrap();

        // Simulated epoch loop: counters tick, spans time, metrics emit.
        for epoch in 0u64..3 {
            let _t = span("suite.epoch_us");
            counter!("suite.steps").add(10);
            let deltas = cpdg_obs::counter_deltas(&before);
            let mut fields: Vec<(String, Json)> = vec![
                ("epoch".into(), Json::U64(epoch)),
                ("loss".into(), Json::F64(1.0 / (epoch + 1) as f64)),
            ];
            for (name, d) in deltas {
                fields.push((format!("d_{name}"), Json::U64(d)));
            }
            emit_metrics("suite_epoch", fields);
        }
        cpdg_obs::warn!("suite.guard", "loss spike"; epoch = 1u64, ratio = 3.5f64);

        // Final manifest includes counter totals.
        let mut manifest = Json::obj(vec![("seed", Json::U64(42))]);
        manifest.push("counters", cpdg_obs::metrics::counters_json());
        manifest.push("spans_us", cpdg_obs::metrics::histograms_json());
        run.write_manifest(&manifest).unwrap();
    }

    // metrics.jsonl: one parseable line per epoch, nothing else.
    let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
    let epoch_lines: Vec<&str> = metrics
        .lines()
        .filter(|l| l.contains(r#""event":"suite_epoch""#))
        .collect();
    assert_eq!(epoch_lines.len(), 3, "{metrics}");
    assert!(epoch_lines[0].contains(r#""loss":1"#), "{}", epoch_lines[0]);
    assert!(
        epoch_lines[0].contains(r#""d_suite.steps":10"#),
        "{}",
        epoch_lines[0]
    );
    assert!(
        epoch_lines[2].contains(r#""d_suite.steps":30"#),
        "{}",
        epoch_lines[2]
    );
    // The warn diagnostic must NOT leak into the metric stream...
    assert!(!metrics.contains("loss spike"), "{metrics}");
    // ...but is visible to the capture sink with its structured fields.
    let warns = cap.records_for("suite.guard");
    assert_eq!(warns.len(), 1);
    assert_eq!(warns[0].level, Level::Warn);
    assert_eq!(warns[0].field("ratio"), Some(&Json::F64(3.5)));

    // run.json: pretty, atomic, and carries the counter totals.
    let manifest = std::fs::read_to_string(dir.join("run.json")).unwrap();
    assert!(manifest.contains(r#""seed": 42"#), "{manifest}");
    assert!(manifest.contains(r#""suite.steps": 30"#), "{manifest}");
    assert!(manifest.contains(r#""suite.epoch_us""#), "{manifest}");
    assert!(!dir.join("run.json.tmp").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_logging_is_safe() {
    let cap = cpdg_obs::capture();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..50u64 {
                    cpdg_obs::debug!("suite.concurrent", "tick"; thread = t, i = i);
                    counter!("suite.concurrent.ticks").inc();
                }
            });
        }
    });
    assert_eq!(cap.records_for("suite.concurrent").len(), 200);
    assert!(counter!("suite.concurrent.ticks").get() >= 200);
}
