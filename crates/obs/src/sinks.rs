//! Built-in sinks: stderr (text and JSONL) and an in-memory capture sink
//! for tests.

use crate::json::Json;
use crate::log::{add_sink, remove_sink, Level, Record, Sink, SinkId};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Renders a record as a JSON object (the JSONL stderr format).
pub(crate) fn record_to_json(record: &Record) -> Json {
    let mut obj = Json::obj(vec![
        ("ts_ms", Json::U64(record.unix_ms)),
        ("elapsed_s", Json::F64(record.elapsed_secs)),
        ("level", Json::from(record.level.as_str())),
        ("target", Json::from(record.target.as_str())),
    ]);
    if !record.message.is_empty() {
        obj.push("message", Json::from(record.message.as_str()));
    }
    if !record.fields.is_empty() {
        let fields = record
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        obj.push("fields", Json::Obj(fields));
    }
    obj
}

fn render_text_line(record: &Record) -> String {
    let mut line = format!(
        "[{:>9.3}s {:<5} {}] {}",
        record.elapsed_secs,
        record.level.as_str(),
        record.target,
        record.message,
    );
    for (k, v) in &record.fields {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        v.render_text(&mut line);
    }
    line
}

/// Human-readable stderr sink (the default console). Skips `metrics.*`
/// records, which belong to run-directory metric streams, not terminals.
pub struct TextStderrSink {
    level: Level,
}

impl TextStderrSink {
    /// Creates a text console filtering at `level`.
    pub fn new(level: Level) -> Self {
        TextStderrSink { level }
    }
}

impl Sink for TextStderrSink {
    fn wants(&self, level: Level, target: &str) -> bool {
        level <= self.level && !target.starts_with("metrics.")
    }
    fn log(&self, record: &Record) {
        let mut line = render_text_line(record);
        line.push('\n');
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
    fn max_level(&self) -> Level {
        self.level
    }
}

/// JSONL stderr sink for machine-parsed console output
/// (`--log-format json`). Skips `metrics.*` records like the text console.
pub struct JsonStderrSink {
    level: Level,
}

impl JsonStderrSink {
    /// Creates a JSONL console filtering at `level`.
    pub fn new(level: Level) -> Self {
        JsonStderrSink { level }
    }
}

impl Sink for JsonStderrSink {
    fn wants(&self, level: Level, target: &str) -> bool {
        level <= self.level && !target.starts_with("metrics.")
    }
    fn log(&self, record: &Record) {
        let mut line = record_to_json(record).render();
        line.push('\n');
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
    fn max_level(&self) -> Level {
        self.level
    }
}

/// In-memory sink capturing every record; the backbone of log-assertion
/// tests via [`capture`].
#[derive(Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// Creates an empty capture buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clones out everything captured so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().map(|r| r.clone()).unwrap_or_default()
    }
}

impl Sink for MemorySink {
    fn log(&self, record: &Record) {
        if let Ok(mut r) = self.records.lock() {
            r.push(record.clone());
        }
    }
}

/// Installs a [`MemorySink`] for the lifetime of the returned guard.
///
/// Captures are additive: other sinks keep receiving records, and
/// concurrent captures in parallel tests each see all records (filter by
/// target to isolate a subsystem under test).
pub fn capture() -> Capture {
    let sink = Arc::new(MemorySink::new());
    let id = add_sink(Arc::clone(&sink) as Arc<dyn Sink>);
    Capture { sink, id }
}

/// RAII guard around a captured [`MemorySink`]; dropping it uninstalls
/// the sink.
pub struct Capture {
    sink: Arc<MemorySink>,
    id: SinkId,
}

impl Capture {
    /// All records captured so far.
    pub fn records(&self) -> Vec<Record> {
        self.sink.records()
    }

    /// Records whose target is exactly `target` or starts with
    /// `"{target}."`.
    pub fn records_for(&self, target: &str) -> Vec<Record> {
        self.sink
            .records()
            .into_iter()
            .filter(|r| {
                r.target == target
                    || (r.target.len() > target.len()
                        && r.target.starts_with(target)
                        && r.target.as_bytes()[target.len()] == b'.')
            })
            .collect()
    }

    /// True if any captured record's message contains `needle`.
    pub fn any_message_contains(&self, needle: &str) -> bool {
        self.sink
            .records()
            .iter()
            .any(|r| r.message.contains(needle))
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        remove_sink(self.id);
    }
}

/// Renders a record the way the text console would — exposed so tests and
/// docs can assert on formatting without touching stderr.
pub fn format_text(record: &Record) -> String {
    render_text_line(record)
}

/// Renders a record as the JSONL sink would (compact JSON, no newline).
pub fn format_json(record: &Record) -> String {
    record_to_json(record).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            level: Level::Warn,
            target: "core.checkpoint".into(),
            message: "skipping corrupt checkpoint".into(),
            fields: vec![
                ("path".into(), Json::from("ckpt-00000004.json")),
                ("step".into(), Json::U64(4)),
            ],
            elapsed_secs: 1.5,
            unix_ms: 1_700_000_000_000,
        }
    }

    #[test]
    fn text_format_includes_fields() {
        let line = format_text(&sample());
        assert!(line.contains("warn"), "{line}");
        assert!(line.contains("core.checkpoint"), "{line}");
        assert!(line.contains("path=ckpt-00000004.json"), "{line}");
        assert!(line.contains("step=4"), "{line}");
    }

    #[test]
    fn text_line_renders_every_scalar_kind() {
        let record = Record {
            fields: vec![
                ("flag".into(), Json::from(true)),
                ("delta".into(), Json::from(-3i32)),
                ("count".into(), Json::from(7u64)),
                ("size".into(), Json::from(5usize)),
                ("offset".into(), Json::from(-2i64)),
                ("loss".into(), Json::from(0.25f64)),
                ("whole".into(), Json::from(2.0f64)),
                ("ratio".into(), Json::from(1.5f32)),
                ("nan".into(), Json::from(f64::NAN)),
                ("path".into(), Json::from("a b")),
                ("name".into(), Json::from("plain")),
                ("empty".into(), Json::from("")),
            ],
            ..sample()
        };
        assert_eq!(
            format_text(&record),
            "[    1.500s warn  core.checkpoint] skipping corrupt checkpoint flag=true delta=-3 \
             count=7 size=5 offset=-2 loss=0.25 whole=2 ratio=1.5 nan=NaN path=\"a b\" name=plain empty=\"\""
        );
        assert_eq!(
            format_json(&record),
            r#"{"ts_ms":1700000000000,"elapsed_s":1.5,"level":"warn","target":"core.checkpoint","message":"skipping corrupt checkpoint","fields":{"flag":true,"delta":-3,"count":7,"size":5,"offset":-2,"loss":0.25,"whole":2.0,"ratio":1.5,"nan":null,"path":"a b","name":"plain","empty":""}}"#
        );
    }

    #[test]
    fn json_format_nests_fields() {
        let line = format_json(&sample());
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains(r#""level":"warn""#), "{line}");
        assert!(
            line.contains(r#""fields":{"path":"ckpt-00000004.json","step":4}"#),
            "{line}"
        );
    }

    #[test]
    fn stderr_sinks_skip_metrics_targets() {
        let t = TextStderrSink::new(Level::Trace);
        assert!(!t.wants(Level::Info, "metrics.pretrain_epoch"));
        assert!(t.wants(Level::Info, "core.pretrain"));
        let j = JsonStderrSink::new(Level::Trace);
        assert!(!j.wants(Level::Info, "metrics.pretrain_epoch"));
    }

    #[test]
    fn capture_sees_records_and_filters_by_target() {
        let c = capture();
        crate::warn!("sinks.test_a", "first"; n = 1u64);
        crate::info!("sinks.test_a.sub", "second");
        crate::info!("sinks.test_ab", "unrelated");
        let all = c.records_for("sinks.test_a");
        assert_eq!(all.len(), 2, "{all:?}");
        assert!(c.any_message_contains("first"));
        assert_eq!(all[0].field("n"), Some(&Json::U64(1)));
    }

    #[test]
    fn capture_uninstalls_on_drop() {
        let before = {
            let c = capture();
            crate::info!("sinks.test_drop", "inside");
            c.records_for("sinks.test_drop").len()
        };
        assert_eq!(before, 1);
        // After the guard dropped, a fresh capture must not see stale sinks
        // replaying old records.
        let c2 = capture();
        assert_eq!(c2.records_for("sinks.test_drop").len(), 0);
    }
}
