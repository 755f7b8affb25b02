//! The global structured logger: levels, records, sinks, and dispatch.
//!
//! A process has one logger holding a set of [`Sink`]s. When nothing has
//! been configured, the first dispatched record lazily installs a default
//! [`TextStderrSink`](crate::sinks::TextStderrSink) at [`Level::Info`] —
//! so library warnings always reach stderr, matching the behaviour of the
//! `eprintln!` call sites this layer replaced. Applications call [`init`]
//! to choose the level and stderr format; tests call
//! [`capture`](crate::sinks::capture) to observe records in memory.
//!
//! Dispatch is cheap when nobody listens: the [`enabled`] fast path reads
//! one atomic holding the most verbose level any installed sink accepts.

use crate::sinks::{JsonStderrSink, TextStderrSink};
use crate::Json;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-corrupting conditions.
    Error = 1,
    /// Degradations and suspicious states the run survives.
    Warn = 2,
    /// Lifecycle notices (resume, checkpoint published, run summary).
    Info = 3,
    /// Per-step diagnostics.
    Debug = 4,
    /// Firehose.
    Trace = 5,
}

impl Level {
    /// Lower-case name (`"warn"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Level {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level {other:?} (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

/// Stderr rendering chosen by [`init`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-readable single lines.
    Text,
    /// One JSON object per line.
    Json,
}

impl std::str::FromStr for LogFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("unknown log format {other:?} (expected text|json)")),
        }
    }
}

/// One structured log record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Severity.
    pub level: Level,
    /// Dotted origin, e.g. `core.checkpoint` or `metrics.pretrain_epoch`.
    pub target: String,
    /// Human-readable message (may be empty for pure metric events).
    pub message: String,
    /// Structured `key=value` fields.
    pub fields: Vec<(String, Json)>,
    /// Seconds since the process-wide logging clock started.
    pub elapsed_secs: f64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
}

impl Record {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A log destination. Implementations must be cheap to call and must not
/// log (re-entrant dispatch is not supported).
pub trait Sink: Send + Sync {
    /// Whether this sink wants a record at `level` from `target`.
    fn wants(&self, level: Level, target: &str) -> bool {
        let _ = (level, target);
        true
    }
    /// Consumes one record.
    fn log(&self, record: &Record);
    /// The most verbose level this sink ever accepts (drives the global
    /// [`enabled`] fast path).
    fn max_level(&self) -> Level {
        Level::Trace
    }
    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Handle for removing a sink installed with [`add_sink`].
pub type SinkId = u64;

struct Registry {
    sinks: Vec<(SinkId, Arc<dyn Sink>)>,
    next_id: SinkId,
    /// The stderr sink installed by default or by [`init`] (replaced on
    /// re-init so repeated `init` calls do not stack consoles).
    console_id: Option<SinkId>,
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Trace as u8);

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        Mutex::new(Registry {
            sinks: Vec::new(),
            next_id: 1,
            console_id: None,
        })
    })
}

fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

fn recompute_max(reg: &Registry) {
    let max = reg
        .sinks
        .iter()
        .map(|(_, s)| s.max_level() as u8)
        .max()
        .unwrap_or(Level::Error as u8);
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

fn ensure_console(reg: &mut Registry) {
    if reg.console_id.is_none() && reg.sinks.is_empty() {
        let id = reg.next_id;
        reg.next_id += 1;
        reg.sinks
            .push((id, Arc::new(TextStderrSink::new(Level::Info))));
        reg.console_id = Some(id);
        recompute_max(reg);
    }
}

/// Installs `sink`, returning a handle for [`remove_sink`].
pub fn add_sink(sink: Arc<dyn Sink>) -> SinkId {
    let mut reg = registry().lock().expect("obs registry poisoned");
    ensure_console(&mut reg);
    let id = reg.next_id;
    reg.next_id += 1;
    reg.sinks.push((id, sink));
    recompute_max(&reg);
    id
}

/// Removes (and flushes) a sink previously installed with [`add_sink`].
pub fn remove_sink(id: SinkId) {
    let removed = {
        let mut reg = registry().lock().expect("obs registry poisoned");
        let before = reg.sinks.len();
        let mut removed = None;
        reg.sinks.retain(|(sid, s)| {
            if *sid == id {
                removed = Some(Arc::clone(s));
                false
            } else {
                true
            }
        });
        if reg.sinks.len() != before {
            recompute_max(&reg);
        }
        if reg.console_id == Some(id) {
            reg.console_id = None;
        }
        removed
    };
    if let Some(sink) = removed {
        sink.flush();
    }
}

/// Configures the stderr console sink: `level` filters, `format` chooses
/// human text or JSONL rendering. Idempotent — a previous console (default
/// or from an earlier `init`) is replaced, other sinks are untouched.
pub fn init(level: Level, format: LogFormat) {
    let mut reg = registry().lock().expect("obs registry poisoned");
    if let Some(old) = reg.console_id.take() {
        reg.sinks.retain(|(sid, _)| *sid != old);
    }
    let sink: Arc<dyn Sink> = match format {
        LogFormat::Text => Arc::new(TextStderrSink::new(level)),
        LogFormat::Json => Arc::new(JsonStderrSink::new(level)),
    };
    let id = reg.next_id;
    reg.next_id += 1;
    reg.sinks.push((id, sink));
    reg.console_id = Some(id);
    recompute_max(&reg);
}

/// Fast check used by the logging macros: is any sink interested in
/// records at `level`?
pub fn enabled(level: Level) -> bool {
    // Before any sink is installed the default console (Info) will be
    // created on first dispatch; report against that future state.
    let max = Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed));
    let reg_empty = registry()
        .lock()
        .map(|r| r.sinks.is_empty())
        .unwrap_or(false);
    if reg_empty {
        return level <= Level::Info;
    }
    level <= max
}

/// Dispatches one record to every interested sink. Prefer the
/// [`error!`](crate::error!)/[`warn!`](crate::warn!)/… macros, which add
/// the `enabled` fast path and field conversion.
pub fn dispatch(level: Level, target: &str, message: String, fields: Vec<(String, Json)>) {
    let sinks: Vec<Arc<dyn Sink>> = {
        let mut reg = registry().lock().expect("obs registry poisoned");
        ensure_console(&mut reg);
        reg.sinks
            .iter()
            .filter(|(_, s)| s.wants(level, target))
            .map(|(_, s)| Arc::clone(s))
            .collect()
    };
    if sinks.is_empty() {
        return;
    }
    let record = Record {
        level,
        target: target.to_string(),
        message,
        fields,
        elapsed_secs: start_instant().elapsed().as_secs_f64(),
        unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
    };
    for sink in sinks {
        sink.log(&record);
    }
}

/// Emits a machine-readable metric event: an info record with target
/// `metrics.<event>` routed to metric sinks (e.g. a run directory's
/// `metrics.jsonl`) and skipped by the stderr console sinks.
pub fn emit_metrics(event: &str, fields: Vec<(String, Json)>) {
    dispatch(
        Level::Info,
        &format!("metrics.{event}"),
        String::new(),
        fields,
    );
}

/// Core logging macro: `obs_log!(level, target, message; key = value, …)`.
/// `message` is any `Into<String>`; field values convert via
/// [`Json::from`]. Prefer the leveled shorthands
/// ([`error!`](crate::error!), [`warn!`](crate::warn!),
/// [`info!`](crate::info!), [`debug!`](crate::debug!),
/// [`trace!`](crate::trace!)).
#[macro_export]
macro_rules! obs_log {
    ($lvl:expr, $target:expr, $msg:expr $(; $($k:ident = $v:expr),+ $(,)?)?) => {{
        let lvl = $lvl;
        if $crate::log::enabled(lvl) {
            $crate::log::dispatch(
                lvl,
                $target,
                ::std::string::String::from($msg),
                ::std::vec![
                    $($( (::std::string::String::from(::std::stringify!($k)),
                          $crate::Json::from($v)) ),+)?
                ],
            );
        }
    }};
}

/// Logs at [`Level::Error`]: `error!(target, message; key = value, …)`.
#[macro_export]
macro_rules! error {
    ($($t:tt)*) => { $crate::obs_log!($crate::Level::Error, $($t)*) };
}

/// Logs at [`Level::Warn`]: `warn!(target, message; key = value, …)`.
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => { $crate::obs_log!($crate::Level::Warn, $($t)*) };
}

/// Logs at [`Level::Info`]: `info!(target, message; key = value, …)`.
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => { $crate::obs_log!($crate::Level::Info, $($t)*) };
}

/// Logs at [`Level::Debug`]: `debug!(target, message; key = value, …)`.
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => { $crate::obs_log!($crate::Level::Debug, $($t)*) };
}

/// Logs at [`Level::Trace`]: `trace!(target, message; key = value, …)`.
#[macro_export]
macro_rules! trace {
    ($($t:tt)*) => { $crate::obs_log!($crate::Level::Trace, $($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_round_trips() {
        for l in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(l.as_str().parse::<Level>().unwrap(), l);
        }
        assert!("loud".parse::<Level>().is_err());
        assert_eq!("warning".parse::<Level>().unwrap(), Level::Warn);
    }

    #[test]
    fn format_parsing() {
        assert_eq!("text".parse::<LogFormat>().unwrap(), LogFormat::Text);
        assert_eq!("JSON".parse::<LogFormat>().unwrap(), LogFormat::Json);
        assert!("xml".parse::<LogFormat>().is_err());
    }

    #[test]
    fn record_field_lookup() {
        let r = Record {
            level: Level::Info,
            target: "t".into(),
            message: String::new(),
            fields: vec![("k".into(), Json::U64(5))],
            elapsed_secs: 0.0,
            unix_ms: 0,
        };
        assert_eq!(r.field("k"), Some(&Json::U64(5)));
        assert_eq!(r.field("missing"), None);
    }
}
