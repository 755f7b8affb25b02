//! Chaos-aware JODIE ingestion.
//!
//! [`load_jodie_chaos`] is the hardened front door for dataset loading:
//! the raw bytes come through a [`Storage`] holding the hook, under a
//! [`RetryPolicy`] (so `storage.read` faults are retried), the `loader.row`
//! fault point can corrupt the row stream with injected malformed lines,
//! and the parse itself honours [`LoadOptions`] — so a lenient load
//! quarantines exactly the injected corruption while strict loading
//! aborts on it.
//!
//! Injection adds junk *lines* rather than mutating valid rows: every
//! original row still parses, so a lenient load under a `loader.row`
//! plan produces the same graph (and therefore bit-identical downstream
//! metrics) as the fault-free load — the property the chaos suite
//! asserts.

use super::fault::FaultPoint;
use super::hook::FaultHook;
use super::retry::RetryPolicy;
use crate::error::{CpdgError, CpdgResult};
use crate::storage::Storage;
use cpdg_graph::loader::{load_jodie_csv_with, LoadOptions, LoadedGraph};
use std::path::Path;

/// The malformed line spliced into the stream by a fired `loader.row`
/// fault (its `user_id` field can never parse).
pub const INJECTED_ROW: &str = "chaos,injected,malformed,row";

/// Loads a JODIE CSV through the chaos harness: the file is read through
/// a [`Storage`] holding `hook` (so it consults `storage.read`), retried
/// under `retry`; each data row consults `loader.row`, and fired faults
/// splice a malformed line ([`INJECTED_ROW`]) into the stream before that
/// row.
///
/// With an inert hook and [`RetryPolicy::none`] this is exactly
/// `std::fs::read` + [`load_jodie_csv_with`].
pub fn load_jodie_chaos(
    path: &Path,
    opts: &LoadOptions,
    retry: &RetryPolicy,
    hook: &FaultHook,
) -> CpdgResult<LoadedGraph> {
    let storage = Storage::new(hook.clone());
    let bytes = retry
        .run(FaultPoint::StorageRead.name(), || storage.read(path))
        .map_err(|e| CpdgError::io(path, e))?;
    let bytes = if hook.is_active() {
        inject_row_faults(&bytes, hook)
    } else {
        bytes
    };
    load_jodie_csv_with(&bytes[..], opts).map_err(CpdgError::from)
}

/// Consults `loader.row` once per data line; fired faults (of either
/// kind — a corrupted row is a corrupted row) prepend a junk line.
fn inject_row_faults(bytes: &[u8], hook: &FaultHook) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let blank = line.iter().all(|&b| b == b'\n' || b == b'\r' || b == b' ');
        if i > 0 && !blank && hook.check(FaultPoint::LoaderRow).is_err() {
            out.extend_from_slice(INJECTED_ROW.as_bytes());
            out.push(b'\n');
        }
        out.extend_from_slice(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::fault::{FaultKind, FaultPlan, Trigger};
    use std::path::PathBuf;

    const SAMPLE: &str = "\
user_id,item_id,timestamp,state_label
0,0,0.0,0
0,1,10.0,0
1,0,20.0,1
";

    fn write_sample(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdg_ingest_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.csv");
        std::fs::write(&path, SAMPLE).unwrap();
        path
    }

    #[test]
    fn inert_hook_loads_identically_to_plain_loader() {
        let path = write_sample("inert");
        let chaos = load_jodie_chaos(
            &path,
            &LoadOptions::strict(),
            &RetryPolicy::none(),
            &FaultHook::none(),
        )
        .unwrap();
        let plain = cpdg_graph::loader::load_jodie_csv(SAMPLE.as_bytes()).unwrap();
        assert_eq!(chaos.graph.num_events(), plain.graph.num_events());
        assert_eq!(chaos.num_users, plain.num_users);
        assert!(chaos.quarantine.is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn row_faults_are_quarantined_leniently_without_changing_the_graph() {
        let path = write_sample("lenient");
        let plan = FaultPlan::new(3).with(
            FaultPoint::LoaderRow,
            FaultKind::Transient,
            Trigger::Every { k: 2 },
        );
        let hook = FaultHook::install(&plan);
        let loaded =
            load_jodie_chaos(&path, &LoadOptions::lenient(), &RetryPolicy::none(), &hook).unwrap();
        // 3 data rows hit loader.row; every 2nd fires → 1 injected line.
        assert_eq!(hook.injected_at(FaultPoint::LoaderRow), 1);
        assert_eq!(loaded.quarantine.total, 1);
        assert!(loaded.quarantine.rows[0].reason.contains("bad user_id"));
        // The injected junk is quarantined; the real rows all survive.
        assert_eq!(loaded.graph.num_events(), 3);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn row_faults_abort_strict_loads() {
        let path = write_sample("strict");
        let plan = FaultPlan::new(0).with(
            FaultPoint::LoaderRow,
            FaultKind::Permanent,
            Trigger::Nth { n: 1 },
        );
        let err = load_jodie_chaos(
            &path,
            &LoadOptions::strict(),
            &RetryPolicy::none(),
            &FaultHook::install(&plan),
        )
        .unwrap_err();
        assert!(matches!(err, CpdgError::Data(_)), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn transient_read_faults_clear_under_retry() {
        let path = write_sample("retry");
        let plan = FaultPlan::new(0).with(
            FaultPoint::StorageRead,
            FaultKind::Transient,
            Trigger::Nth { n: 1 },
        );
        let hook = FaultHook::install(&plan);
        let loaded = load_jodie_chaos(
            &path,
            &LoadOptions::strict(),
            &RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 0,
                max_delay_ms: 0,
            },
            &hook,
        )
        .unwrap();
        assert_eq!(loaded.graph.num_events(), 3);
        assert_eq!(hook.injected_at(FaultPoint::StorageRead), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn permanent_read_faults_surface_as_io_errors() {
        let path = write_sample("perm");
        let plan = FaultPlan::new(0).with(
            FaultPoint::StorageRead,
            FaultKind::Permanent,
            Trigger::Nth { n: 1 },
        );
        let err = load_jodie_chaos(
            &path,
            &LoadOptions::strict(),
            &RetryPolicy::default(),
            &FaultHook::install(&plan),
        )
        .unwrap_err();
        assert!(matches!(err, CpdgError::Io { .. }), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
