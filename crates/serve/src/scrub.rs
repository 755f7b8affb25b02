//! The background integrity scrubber's serving half.
//!
//! [`Supervisor::scrubber`] drives a deterministic [`Scrubber`] (the
//! synchronous catalog-walking verifier in `cpdg_core::scrub`) one
//! byte-budgeted cycle per interval under the shared
//! [supervision loop](crate::supervisor): a panicking cycle is caught, the
//! scrubber is rebuilt fresh, and the loop resumes after a bounded
//! deterministic backoff. Each completed cycle's
//! [`CycleReport`](cpdg_core::ScrubCycleReport) is added to the engine's
//! `scrub.*` counts ([`Stat`]), so `STATUS` replies carry a live
//! `scrub.*` block.
//!
//! The scrubber never blocks serving: it holds no engine lock — it reads
//! and repairs artifact *files*, which every writer publishes atomically
//! (temp sibling + fsync + rename), and it skips each WAL directory's
//! active tail segment (a torn tail there is a legal crash artifact that
//! recovery truncates, not corruption to repair).

use crate::engine::{Engine, Stat};
use crate::supervisor::{Cycle, Supervisor};
use cpdg_core::{FaultHook, ScrubConfig, Scrubber, Storage};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The scrubber's [`Cycle`]: one scrub pass per cycle.
struct ScrubCycle {
    engine: Arc<Engine>,
    roots: Vec<PathBuf>,
    config: ScrubConfig,
    storage: Storage,
    scrubber: Scrubber,
}

impl Cycle for ScrubCycle {
    fn cycle(&mut self) -> ControlFlow<()> {
        let report = self.scrubber.scrub_cycle(&self.storage);
        let e = &self.engine;
        e.count(Stat::ScrubCycles);
        e.add(Stat::ScrubScanned, report.scanned);
        e.add(Stat::ScrubBytes, report.bytes);
        e.add(Stat::ScrubCorrupt, report.corrupt);
        e.add(Stat::ScrubRepaired, report.repaired);
        e.add(Stat::ScrubUnrepairable, report.unrepairable.len() as u64);
        e.add(Stat::ScrubReadErrors, report.read_errors);
        for (class, path) in &report.unrepairable {
            cpdg_obs::warn!(
                "serve.scrub",
                "unrepairable artifact: no sound copy left";
                class = class.name(),
                path = path.display().to_string(),
            );
        }
        ControlFlow::Continue(())
    }

    /// Rebuilds the scrubber: its only state is the catalog cursor, and
    /// losing it restarts the sweep from the top, which is always safe.
    fn recover(&mut self, _streak: u32) -> ControlFlow<()> {
        self.scrubber = Scrubber::new(self.roots.clone(), self.config);
        ControlFlow::Continue(())
    }
}

impl Supervisor {
    /// Spawns the scrubber thread over `roots` (WAL directory, epoch
    /// directory — quarantine subdirectories are discovered
    /// automatically), cycling every `interval`.
    pub fn scrubber(
        engine: Arc<Engine>,
        roots: Vec<PathBuf>,
        config: ScrubConfig,
        interval: Duration,
        hook: FaultHook,
    ) -> std::io::Result<Self> {
        let body = ScrubCycle {
            engine: Arc::clone(&engine),
            scrubber: Scrubber::new(roots.clone(), config),
            roots,
            config,
            storage: Storage::new(hook),
        };
        Self::start(engine, Stat::Scrub, interval, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::protocol::Command;
    use cpdg_core::ModelFile;
    use cpdg_dgnn::{DgnnConfig, EncoderKind};
    use cpdg_tensor::ParamStore;
    use std::path::Path;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdg-scrubsup-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A sealed artifact the scrubber recognises, with one replica.
    fn sealed_pair(dir: &Path, name: &str, payload: &[u8]) -> PathBuf {
        let path = dir.join(name);
        cpdg_core::scrub::write_replicated(
            &cpdg_core::FS_STORAGE,
            &path,
            &cpdg_core::integrity::seal(payload),
        )
        .unwrap();
        path
    }

    /// Scrubs `dir` in the background until `stat` counts something (or
    /// 30 s pass), then shuts the scrubber down. Returns the engine and
    /// a `STATUS` reply taken while the scrubber was still attached.
    fn scrub_until(dir: &Path, stat: Stat) -> (Arc<Engine>, String) {
        let cfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 100.0);
        let model = ModelFile::new(cfg, 16, ParamStore::new(), Vec::new());
        let engine = Arc::new(Engine::from_model(
            &model,
            EngineConfig::default(),
            FaultHook::none(),
        ));
        let sup = Supervisor::scrubber(
            Arc::clone(&engine),
            vec![dir.to_path_buf()],
            ScrubConfig::default(),
            Duration::from_millis(5),
            FaultHook::none(),
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.get(stat) == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let status = engine.execute(Command::Status).render();
        sup.shutdown();
        (engine, status)
    }

    #[test]
    fn supervisor_heals_a_flipped_artifact_and_reports_in_status() {
        let dir = test_dir("heal");
        let path = sealed_pair(&dir, "promoted.cpdg", b"1\n/m.json");
        // Rot the primary after publish.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (engine, status) = scrub_until(&dir, Stat::ScrubRepaired);
        assert!(status.contains("scrub=on"), "{status}");
        assert!(status.contains("scrub.repaired="), "{status}");
        assert!(
            engine.get(Stat::ScrubRepaired) >= 1,
            "scrubber repaired the flipped primary"
        );
        // The primary verifies strictly again on disk.
        let healed = std::fs::read(&path).unwrap();
        assert!(cpdg_core::integrity::unseal(&healed, &path).is_ok());
        let status = engine.execute(Command::Status).render();
        assert!(status.contains("scrub=off"), "shutdown detaches: {status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_counts_unrepairable_artifacts() {
        let dir = test_dir("unrepairable");
        let path = sealed_pair(&dir, "checkpoint.cpdg", b"{}");
        // Rot every copy: nothing left to heal from.
        for p in [path.clone(), cpdg_core::scrub::replica_path(&path, 1)] {
            let mut bytes = std::fs::read(&p).unwrap();
            bytes[0] ^= 0x40;
            std::fs::write(&p, &bytes).unwrap();
        }
        let (engine, _) = scrub_until(&dir, Stat::ScrubUnrepairable);
        assert!(
            engine.get(Stat::ScrubUnrepairable) >= 1,
            "fully-rotted checkpoint reported unrepairable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
