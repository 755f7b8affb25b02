//! Run directories: the on-disk audit convention for training runs.
//!
//! A run directory holds exactly two artefacts:
//!
//! * `run.json` — the manifest: config, seed, dataset stats,
//!   wall-clock, and final counter/histogram totals. Written (and
//!   rewritten) via [`RunDir::write_manifest`]; the runner typically
//!   writes it once at start (provenance survives crashes) and again at
//!   the end with results.
//! * `metrics.jsonl` — one JSON object per metric event, appended live.
//!   Creating a [`RunDir`] installs a sink that subscribes to records
//!   with targets prefixed `metrics.` (produced by
//!   [`emit_metrics`](crate::emit_metrics)), so library code needs no
//!   handle to the run directory — it just emits events.
//!
//! Each line of `metrics.jsonl` is flat:
//! `{"ts_ms": ..., "event": "pretrain_epoch", "epoch": 0, "loss": ...}`.

use crate::json::Json;
use crate::log::{add_sink, remove_sink, Level, Record, Sink, SinkId};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Sink that writes `metrics.*` records to `metrics.jsonl` as flat
/// objects, flushing per line so the stream is tailable and survives
/// crashes.
struct MetricsJsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl Sink for MetricsJsonlSink {
    fn wants(&self, _level: Level, target: &str) -> bool {
        target.starts_with("metrics.")
    }
    fn log(&self, record: &Record) {
        let event = record
            .target
            .strip_prefix("metrics.")
            .unwrap_or(&record.target);
        let mut obj = Json::obj(vec![
            ("ts_ms", Json::U64(record.unix_ms)),
            ("event", Json::from(event)),
        ]);
        for (k, v) in &record.fields {
            obj.push(k, v.clone());
        }
        let mut line = obj.render();
        line.push('\n');
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }
    }
    fn max_level(&self) -> Level {
        Level::Info
    }
}

/// An open run directory; see the module docs for the layout. Dropping it
/// uninstalls the metrics sink (flushing first).
pub struct RunDir {
    dir: PathBuf,
    sink_id: SinkId,
}

impl RunDir {
    /// Creates `dir` (and parents), truncates `metrics.jsonl`, and
    /// installs the metrics sink.
    pub fn create(dir: &Path) -> std::io::Result<RunDir> {
        std::fs::create_dir_all(dir)?;
        let file = File::create(dir.join("metrics.jsonl"))?;
        let sink = Arc::new(MetricsJsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        });
        let sink_id = add_sink(sink as Arc<dyn Sink>);
        Ok(RunDir {
            dir: dir.to_path_buf(),
            sink_id,
        })
    }

    /// The run directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `<dir>/run.json`.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("run.json")
    }

    /// Writes (atomically: temp file + rename) `manifest` as pretty JSON
    /// to `run.json`. Callers usually include
    /// [`counters_json`](crate::metrics::counters_json) and
    /// [`histograms_json`](crate::metrics::histograms_json) in the final
    /// write.
    pub fn write_manifest(&self, manifest: &Json) -> std::io::Result<()> {
        let tmp = self.dir.join("run.json.tmp");
        std::fs::write(&tmp, manifest.pretty())?;
        std::fs::rename(&tmp, self.manifest_path())
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        remove_sink(self.sink_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit_metrics;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cpdg-obs-run-{tag}-{}", std::process::id()))
    }

    /// Metric sinks are process-global, so tests that count lines in a
    /// run directory must not overlap with other emitters.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn run_dir_captures_metric_events() {
        let _guard = serial();
        let dir = temp_dir("capture");
        {
            let run = RunDir::create(&dir).unwrap();
            emit_metrics(
                "test_epoch",
                vec![
                    ("epoch".into(), Json::U64(0)),
                    ("loss".into(), Json::F64(0.5)),
                ],
            );
            emit_metrics("test_epoch", vec![("epoch".into(), Json::U64(1))]);
            run.write_manifest(&Json::obj(vec![("seed", Json::U64(7))]))
                .unwrap();
        }
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        let lines: Vec<&str> = metrics.lines().collect();
        assert_eq!(lines.len(), 2, "{metrics}");
        assert!(lines[0].contains(r#""event":"test_epoch""#), "{}", lines[0]);
        assert!(lines[0].contains(r#""loss":0.5"#), "{}", lines[0]);
        let manifest = std::fs::read_to_string(dir.join("run.json")).unwrap();
        assert!(manifest.contains(r#""seed": 7"#), "{manifest}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_run_dir_stops_capturing() {
        let _guard = serial();
        let dir = temp_dir("drop");
        {
            let _run = RunDir::create(&dir).unwrap();
            emit_metrics("drop_before", vec![]);
        }
        emit_metrics("drop_after", vec![]);
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        assert!(metrics.contains("drop_before"));
        assert!(!metrics.contains("drop_after"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_metric_records_are_ignored() {
        let _guard = serial();
        let dir = temp_dir("ignore");
        {
            let _run = RunDir::create(&dir).unwrap();
            crate::warn!("core.checkpoint", "a diagnostic, not a metric");
        }
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        assert!(metrics.is_empty(), "{metrics}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
