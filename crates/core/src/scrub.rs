//! Self-healing artifact store: sealed replicas, read-and-heal, and a
//! budgeted background scrubber.
//!
//! CRC footers ([`integrity`](crate::integrity)) and frame checksums
//! ([`wal`](crate::wal)) *detect* silent corruption, but until this module
//! detection was lazy (only at open time) and always fail-stop (no second
//! copy to heal from). The scrub layer closes both gaps:
//!
//! * **Replicas** — every scrub-managed artifact lives as [`REPLICAS`]
//!   copies, `<name>` and `<name>.r1`, each published through the same
//!   atomic temp-rename protocol, so a crash at any instant leaves every
//!   copy either old or new, never torn. [`write_replicated`] publishes
//!   bytes the caller holds; [`publish_replicas`] copies a primary another
//!   writer already published (sealed WAL segments, candidate epochs).
//! * **Read-and-heal** — [`read_copies`] reads every copy, keeps the first
//!   one that passes the caller's check, and rewrites the bad ones from
//!   it. [`read_sealed_replicated`], the scrubber and
//!   [`Wal::open`](crate::wal::Wal::open) differ only in the check and in
//!   what "no sound copy" means (a typed error, or quarantine).
//! * **The scrubber** — [`Scrubber`] walks a deterministic catalog of
//!   artifact files (WAL segments, `checkpoint.cpdg`, epoch files, the
//!   promoted pointer, quarantined candidates) re-verifying checksums on
//!   a byte-budgeted cadence, so cold corruption is found and repaired
//!   *before* the next crash recovery needs the file. A WAL segment with
//!   no sound copy is quarantined (moved aside under a numeric suffix),
//!   which turns the next recovery into a typed `WalGap` refusal instead
//!   of a garbage replay.
//!
//! Chaos integration: reads consult `scrub.read`, repairs consult
//! `scrub.repair`, and every copy read consults `integrity.bitflip` — a
//! fired bitflip fault flips one deterministically-chosen byte of the
//! bytes just read, so the chaos harness can corrupt any artifact class
//! without touching the disk.

use crate::chaos::{FaultHook, FaultPoint};
use crate::error::{CpdgError, CpdgResult};
use crate::integrity;
use crate::storage::Storage;
use std::io;
use std::path::{Path, PathBuf};

/// Sealed copies kept of every scrub-managed artifact: the primary plus
/// one `.r1` replica.
pub const REPLICAS: usize = 2;

/// Name of the quarantine subdirectory used for unrepairable artifacts
/// (same convention as the trainer's candidate quarantine).
pub const QUARANTINE_DIR: &str = "quarantine";

/// The path of replica `i ≥ 1` of `path`: `<name>.r<i>` in the same
/// directory. Replica 0 is the primary itself (see [`copy_path`]).
pub fn replica_path(path: &Path, i: usize) -> PathBuf {
    debug_assert!(i >= 1, "replica indices start at 1");
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!("{name}.r{i}"))
}

/// Copy `i` of `path`: the primary for `i == 0`, else [`replica_path`].
pub fn copy_path(path: &Path, i: usize) -> PathBuf {
    if i == 0 {
        path.to_path_buf()
    } else {
        replica_path(path, i)
    }
}

/// Whether `name` is a replica file name (`<base>.r<digits>`).
pub fn is_replica_name(name: &str) -> bool {
    match name.rsplit_once(".r") {
        Some((base, digits)) => {
            !base.is_empty() && !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// Whether `name` is a scrub-layer sidecar the catalog must skip: a
/// replica copy (verified with its primary), a `.torn` forensic sidecar,
/// or atomic-publish temp residue (`.<name>.tmp`).
pub fn is_sidecar_name(name: &str) -> bool {
    is_replica_name(name)
        || name.ends_with(".torn")
        || (name.starts_with('.') && name.ends_with(".tmp"))
}

/// Atomically publishes `bytes` as every copy of `path`. The primary is
/// written first, so a crash mid-sequence leaves the primary
/// authoritative and a stale replica for the next read or scrub cycle to
/// heal.
pub fn write_replicated(storage: &Storage, path: &Path, bytes: &[u8]) -> CpdgResult<()> {
    for i in 0..REPLICAS {
        let p = copy_path(path, i);
        storage
            .write_atomic(&p, bytes)
            .map_err(|e| CpdgError::io(&p, e))?;
    }
    Ok(())
}

/// Copies the already-published primary `path` to its replicas. Best
/// effort: the primary is durable, and a replica that fails to land costs
/// redundancy until the next scrub cycle backfills it, never the write.
pub fn publish_replicas(storage: &Storage, path: &Path) {
    for i in 1..REPLICAS {
        let p = replica_path(path, i);
        if let Err(e) = storage
            .read(path)
            .and_then(|bytes| storage.write_atomic(&p, &bytes))
        {
            cpdg_obs::warn!(
                "core.scrub",
                "failed to publish artifact replica";
                path = p.display().to_string(),
                error = e.to_string(),
            );
        }
    }
}

/// Best-effort removal of every replica copy of `path`. The primary
/// itself is untouched.
pub fn remove_replicas(storage: &Storage, path: &Path) {
    for i in 1..REPLICAS {
        let _ = storage.remove_file(&replica_path(path, i));
    }
}

/// Consults the `integrity.bitflip` fault point and, when it fires, flips
/// one deterministically-chosen byte of `bytes` (seeded by the artifact
/// path and length, so the same plan corrupts the same offset on every
/// run). Returns whether a flip was injected.
pub fn maybe_bitflip(hook: &FaultHook, path: &Path, bytes: &mut [u8]) -> bool {
    if bytes.is_empty() || hook.check(FaultPoint::IntegrityBitflip).is_ok() {
        return false;
    }
    let seed = integrity::crc32(path.to_string_lossy().as_bytes()) as usize;
    let offset = seed.wrapping_add(bytes.len()) % bytes.len();
    bytes[offset] ^= 0x40;
    cpdg_obs::counter!("scrub.bitflips_injected").inc();
    cpdg_obs::warn!(
        "core.scrub",
        "injected bit flip on artifact read";
        path = path.display().to_string(),
        offset = offset as u64,
    );
    true
}

/// What [`read_copies`] found in one artifact's copy set.
#[derive(Debug)]
pub struct Copies<T> {
    /// The first copy that passed the check: its bytes as read, and what
    /// the check made of them.
    pub sound: Option<(Vec<u8>, T)>,
    /// Copies that were read but failed the check.
    pub corrupt: usize,
    /// Corrupt copies and missing replicas rewritten from the sound one.
    pub repaired: usize,
    /// Reads that failed with an error other than `NotFound`.
    pub read_errors: usize,
    /// The first failure in copy order: a failed check, a failed read, or
    /// the primary's `NotFound` (a missing replica is not a failure). Set
    /// whenever `sound` is `None`.
    pub first_err: Option<CpdgError>,
}

/// The one read-and-heal routine: reads every copy of `path` (each read
/// may be flipped by the `integrity.bitflip` fault point), keeps the
/// first copy `check` accepts, and rewrites from it every copy that
/// failed the check and every missing replica (each rewrite gated on
/// `scrub.repair`, so a fired fault leaves that copy bad for the next
/// read or scrub cycle to retry).
///
/// A missing primary is never recreated: primaries are removed on
/// purpose (WAL truncation, candidate quarantine) before their replicas,
/// so one that is gone is mid-removal and must stay gone.
pub fn read_copies<T>(
    storage: &Storage,
    path: &Path,
    hook: &FaultHook,
    check: impl Fn(&Path, &[u8]) -> CpdgResult<T>,
) -> Copies<T> {
    let mut out = Copies {
        sound: None,
        corrupt: 0,
        repaired: 0,
        read_errors: 0,
        first_err: None,
    };
    let mut bad: Vec<PathBuf> = Vec::new();
    for i in 0..REPLICAS {
        let p = copy_path(path, i);
        match storage.read(&p) {
            Ok(mut bytes) => {
                maybe_bitflip(hook, &p, &mut bytes);
                match check(&p, &bytes) {
                    Ok(value) => {
                        if out.sound.is_none() {
                            out.sound = Some((bytes, value));
                        }
                    }
                    Err(e) => {
                        out.corrupt += 1;
                        cpdg_obs::counter!("scrub.corrupt_copies").inc();
                        cpdg_obs::warn!(
                            "core.scrub",
                            "corrupt artifact copy";
                            path = p.display().to_string(),
                            error = e.to_string(),
                        );
                        out.first_err.get_or_insert(e);
                        bad.push(p);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if i == 0 {
                    out.first_err.get_or_insert(CpdgError::io(&p, e));
                } else {
                    bad.push(p);
                }
            }
            Err(e) => {
                out.read_errors += 1;
                out.first_err.get_or_insert(CpdgError::io(&p, e));
            }
        }
    }
    let Some((good, _)) = &out.sound else {
        return out;
    };
    for p in bad {
        if let Err(fault) = hook.check(FaultPoint::ScrubRepair) {
            cpdg_obs::warn!(
                "core.scrub",
                "repair suppressed by injected fault";
                path = p.display().to_string(),
                fault = fault.to_string(),
            );
            continue;
        }
        match storage.write_atomic(&p, good) {
            Ok(()) => {
                out.repaired += 1;
                cpdg_obs::counter!("scrub.repairs").inc();
                cpdg_obs::info!(
                    "core.scrub",
                    "repaired artifact copy from replica";
                    path = p.display().to_string(),
                    bytes = good.len() as u64,
                );
            }
            Err(e) => {
                cpdg_obs::warn!(
                    "core.scrub",
                    "repair write failed";
                    path = p.display().to_string(),
                    error = e.to_string(),
                );
            }
        }
    }
    out
}

/// Outcome of a successful [`read_sealed_replicated`].
#[derive(Debug, Clone)]
pub struct ReplicatedRead {
    /// The verified payload (footer stripped).
    pub payload: Vec<u8>,
    /// Copies that existed but failed their integrity check.
    pub corrupt_copies: usize,
    /// Corrupt copies and missing replicas rewritten from the first good
    /// copy.
    pub repaired: usize,
}

/// Reads a footer-sealed artifact through its copy set ([`read_copies`]
/// with the strict footer check). Errors:
///
/// * every copy absent → the primary's `NotFound` [`CpdgError::Io`], so
///   callers with a "no artifact yet" path can keep mapping it to `None`;
/// * copies present but none sound → the first copy's typed corruption
///   error, which names the artifact path.
pub fn read_sealed_replicated(
    storage: &Storage,
    path: &Path,
    hook: &FaultHook,
) -> CpdgResult<ReplicatedRead> {
    let copies = read_copies(storage, path, hook, |p, bytes| {
        integrity::unseal(bytes, p).map(<[u8]>::len)
    });
    let Some((mut payload, len)) = copies.sound else {
        return Err(copies.first_err.expect("no sound copy records why"));
    };
    payload.truncate(len);
    Ok(ReplicatedRead {
        payload,
        corrupt_copies: copies.corrupt,
        repaired: copies.repaired,
    })
}

/// Moves `path` into `<parent>/quarantine/` under the first free name of
/// `<name>`, `<name>.1`, `<name>.2`, … and drags its replica along
/// (suffixed the same way). Returns the quarantined
/// primary's new path.
pub fn quarantine_artifact(storage: &Storage, path: &Path) -> CpdgResult<PathBuf> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let qdir = parent.join(QUARANTINE_DIR);
    storage
        .create_dir_all(&qdir)
        .map_err(|e| CpdgError::io(&qdir, e))?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let mut dest = qdir.join(&name);
    let mut suffix = 0usize;
    while dest.exists() {
        suffix += 1;
        dest = qdir.join(format!("{name}.{suffix}"));
    }
    storage
        .rename(path, &dest)
        .map_err(|e| CpdgError::io(path, e))?;
    for i in 1..REPLICAS {
        let rp = replica_path(path, i);
        if !rp.exists() {
            break;
        }
        let rname = rp
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let rdest = if suffix == 0 {
            qdir.join(&rname)
        } else {
            qdir.join(format!("{rname}.{suffix}"))
        };
        if storage.rename(&rp, &rdest).is_err() {
            break;
        }
    }
    cpdg_obs::counter!("scrub.quarantined").inc();
    cpdg_obs::warn!(
        "core.scrub",
        "quarantined unrepairable artifact";
        from = path.display().to_string(),
        to = dest.display().to_string(),
    );
    Ok(dest)
}

/// The artifact classes the scrubber knows how to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactClass {
    /// A sealed `wal-<start>.seg` segment (frame CRCs, not a footer).
    WalSegment,
    /// The drain checkpoint `checkpoint.cpdg` (footer-sealed JSON).
    WalCheckpoint,
    /// A model/candidate epoch file (footer-sealed JSON).
    Epoch,
    /// The promoted-epoch pointer `promoted.cpdg` (footer-sealed text).
    Pointer,
    /// A quarantined artifact — known bad, counted but never verified.
    Quarantined,
}

impl ArtifactClass {
    /// Human-readable class name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactClass::WalSegment => "wal-segment",
            ArtifactClass::WalCheckpoint => "wal-checkpoint",
            ArtifactClass::Epoch => "epoch",
            ArtifactClass::Pointer => "pointer",
            ArtifactClass::Quarantined => "quarantined",
        }
    }
}

/// Classifies one file name inside a scrub root. `None` for files the
/// scrubber must skip (sidecars, unknown formats).
pub fn classify(name: &str) -> Option<ArtifactClass> {
    if is_sidecar_name(name) {
        return None;
    }
    if name == "checkpoint.cpdg" {
        return Some(ArtifactClass::WalCheckpoint);
    }
    if name == "promoted.cpdg" {
        return Some(ArtifactClass::Pointer);
    }
    if let Some(hex) = name
        .strip_prefix("wal-")
        .and_then(|n| n.strip_suffix(".seg"))
    {
        if u64::from_str_radix(hex, 16).is_ok() {
            return Some(ArtifactClass::WalSegment);
        }
    }
    if name.ends_with(".json") {
        return Some(ArtifactClass::Epoch);
    }
    None
}

/// Scrubber tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScrubConfig {
    /// Byte budget per [`Scrubber::scrub_cycle`] call (`0` = unlimited).
    /// The cycle stops after the artifact that crosses the budget and the
    /// next cycle resumes at the cursor, so a large catalog is verified
    /// incrementally without a latency cliff for concurrent serving.
    pub max_bytes_per_cycle: u64,
}

impl Default for ScrubConfig {
    /// 8 MiB verified per cycle.
    fn default() -> Self {
        Self {
            max_bytes_per_cycle: 8 << 20,
        }
    }
}

/// What one [`Scrubber::scrub_cycle`] found and did.
#[derive(Debug, Clone, Default)]
pub struct CycleReport {
    /// Artifacts whose checksums were verified this cycle.
    pub scanned: u64,
    /// Bytes read and verified this cycle.
    pub bytes: u64,
    /// Corrupt copies found (primary or replica).
    pub corrupt: u64,
    /// Copies rewritten from a good replica.
    pub repaired: u64,
    /// Reads that failed (injected `scrub.read` faults or IO errors).
    pub read_errors: u64,
    /// Artifacts with *no* sound copy: `(class, path)`. WAL segments in
    /// this list have already been quarantined.
    pub unrepairable: Vec<(ArtifactClass, PathBuf)>,
}

/// One catalog entry: a primary artifact file to verify.
#[derive(Debug, Clone)]
struct CatalogEntry {
    class: ArtifactClass,
    path: PathBuf,
    /// Whether this is its WAL directory's active tail segment (skipped:
    /// a torn tail there is a legal crash artifact, not corruption).
    active_tail: bool,
}

/// The deterministic background scrubber: walks a sorted catalog of
/// artifact files under its roots, re-verifying checksums and healing
/// from replicas, a byte budget at a time.
///
/// Synchronous and single-threaded by design — the serving integration
/// wraps it in a supervised thread; tests drive cycles directly.
pub struct Scrubber {
    roots: Vec<PathBuf>,
    config: ScrubConfig,
    cursor: usize,
}

impl Scrubber {
    /// A scrubber over `roots` (WAL directories, epoch directories —
    /// quarantine subdirectories are discovered automatically; missing
    /// roots are skipped).
    pub fn new(roots: Vec<PathBuf>, config: ScrubConfig) -> Self {
        Self {
            roots,
            config,
            cursor: 0,
        }
    }

    /// Builds the sorted catalog of primary artifacts under the roots.
    fn catalog(&self) -> Vec<CatalogEntry> {
        let mut dirs: Vec<PathBuf> = Vec::new();
        for root in &self.roots {
            if !root.is_dir() {
                continue;
            }
            dirs.push(root.clone());
            let quarantine = root.join(QUARANTINE_DIR);
            if quarantine.is_dir() {
                dirs.push(quarantine);
            }
        }
        dirs.sort();
        dirs.dedup();
        let mut out = Vec::new();
        for dir in &dirs {
            let quarantined = dir.file_name().is_some_and(|n| n == QUARANTINE_DIR);
            let Ok(entries) = std::fs::read_dir(dir) else {
                continue;
            };
            let mut files: Vec<PathBuf> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.is_file())
                .collect();
            files.sort();
            // The highest-start segment per directory is the active tail.
            let max_seg = files
                .iter()
                .filter_map(|p| p.file_name()?.to_str())
                .filter(|n| classify(n) == Some(ArtifactClass::WalSegment))
                .max()
                .map(str::to_owned);
            for p in files {
                let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if quarantined {
                    out.push(CatalogEntry {
                        class: ArtifactClass::Quarantined,
                        path: p.clone(),
                        active_tail: false,
                    });
                    continue;
                }
                let Some(class) = classify(name) else {
                    continue;
                };
                let active_tail =
                    class == ArtifactClass::WalSegment && max_seg.as_deref() == Some(name);
                out.push(CatalogEntry {
                    class,
                    path: p.clone(),
                    active_tail,
                });
            }
        }
        out
    }

    /// Runs one budgeted scrub cycle: verifies artifacts starting at the
    /// cursor until the byte budget is spent (or the whole catalog is
    /// covered), healing bad copies from good replicas along the way.
    pub fn scrub_cycle(&mut self, storage: &Storage, hook: &FaultHook) -> CycleReport {
        let catalog = self.catalog();
        let mut report = CycleReport::default();
        if catalog.is_empty() {
            self.cursor = 0;
            return report;
        }
        let budget = self.config.max_bytes_per_cycle;
        let n = catalog.len();
        self.cursor %= n;
        for step in 0..n {
            let entry = &catalog[(self.cursor + step) % n];
            self.scrub_one(storage, hook, entry, &mut report);
            if budget > 0 && report.bytes >= budget {
                self.cursor = (self.cursor + step + 1) % n;
                cpdg_obs::counter!("scrub.cycles").inc();
                return report;
            }
        }
        self.cursor = 0;
        cpdg_obs::counter!("scrub.cycles").inc();
        report
    }

    /// Scrubs the entire catalog once, ignoring the byte budget — the
    /// offline `cpdg scrub <dir>` path.
    pub fn scrub_all(&mut self, storage: &Storage, hook: &FaultHook) -> CycleReport {
        let saved = self.config.max_bytes_per_cycle;
        self.config.max_bytes_per_cycle = 0;
        self.cursor = 0;
        let report = self.scrub_cycle(storage, hook);
        self.config.max_bytes_per_cycle = saved;
        report
    }

    fn scrub_one(
        &self,
        storage: &Storage,
        hook: &FaultHook,
        entry: &CatalogEntry,
        report: &mut CycleReport,
    ) {
        if entry.class == ArtifactClass::Quarantined || entry.active_tail {
            // Known-bad or actively-written files are counted, not read.
            report.scanned += 1;
            return;
        }
        if hook.check(FaultPoint::ScrubRead).is_err() {
            report.read_errors += 1;
            return;
        }
        match entry.class {
            ArtifactClass::WalSegment => self.scrub_segment(storage, hook, entry, report),
            _ => self.scrub_sealed(storage, hook, entry, report),
        }
    }

    /// Verifies a footer-sealed artifact and its replicas, repairing from
    /// the first good copy.
    fn scrub_sealed(
        &self,
        storage: &Storage,
        hook: &FaultHook,
        entry: &CatalogEntry,
        report: &mut CycleReport,
    ) {
        match read_sealed_replicated(storage, &entry.path, hook) {
            Ok(read) => {
                report.scanned += 1;
                report.bytes += read.payload.len() as u64;
                report.corrupt += read.corrupt_copies as u64;
                report.repaired += read.repaired as u64;
            }
            Err(CpdgError::Io { source, .. }) if source.kind() == io::ErrorKind::NotFound => {
                // Deleted between catalog and read — not corruption.
            }
            Err(CpdgError::Io { .. }) => {
                report.read_errors += 1;
            }
            Err(_) => {
                report.scanned += 1;
                report.corrupt += 1;
                report.unrepairable.push((entry.class, entry.path.clone()));
            }
        }
    }

    /// Verifies a sealed WAL segment (frame CRCs over every copy),
    /// repairing the bad copies from a sound one; with no sound copy the
    /// segment is quarantined so recovery refuses with a typed `WalGap`
    /// instead of replaying garbage.
    fn scrub_segment(
        &self,
        storage: &Storage,
        hook: &FaultHook,
        entry: &CatalogEntry,
        report: &mut CycleReport,
    ) {
        let copies = read_copies(storage, &entry.path, hook, |p, bytes| {
            if crate::wal::segment_is_sound(bytes) {
                Ok(())
            } else {
                Err(CpdgError::corrupt(p, "WAL segment fails its frame scan"))
            }
        });
        report.corrupt += copies.corrupt as u64;
        report.read_errors += copies.read_errors as u64;
        report.repaired += copies.repaired as u64;
        match copies.sound {
            Some((bytes, ())) => {
                report.scanned += 1;
                report.bytes += bytes.len() as u64;
            }
            // Truncated away (or unreadable) between catalog and read.
            None if copies.corrupt == 0 => {}
            None => {
                report.scanned += 1;
                report
                    .unrepairable
                    .push((ArtifactClass::WalSegment, entry.path.clone()));
                if let Err(e) = quarantine_artifact(storage, &entry.path) {
                    cpdg_obs::warn!(
                        "core.scrub",
                        "failed to quarantine unrepairable WAL segment";
                        path = entry.path.display().to_string(),
                        error = e.to_string(),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultKind, FaultPlan, Trigger};
    use crate::storage::FS_STORAGE;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdg_scrub_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn bitflip_hook(every: u64) -> FaultHook {
        FaultHook::install(&FaultPlan::new(0).with(
            FaultPoint::IntegrityBitflip,
            FaultKind::Permanent,
            Trigger::Every { k: every },
        ))
    }

    #[test]
    fn replica_names_round_trip() {
        let p = replica_path(Path::new("/a/checkpoint.cpdg"), 1);
        assert_eq!(p, Path::new("/a/checkpoint.cpdg.r1"));
        assert!(is_replica_name("checkpoint.cpdg.r1"));
        assert!(is_replica_name("wal-0000000000000000.seg.r2"));
        assert!(!is_replica_name("checkpoint.cpdg"));
        assert!(!is_replica_name("model.r1x"));
        assert!(is_sidecar_name("wal-0.seg.torn"));
        assert!(is_sidecar_name(".checkpoint.cpdg.tmp"));
    }

    #[test]
    fn classify_knows_every_artifact_class() {
        assert_eq!(
            classify("checkpoint.cpdg"),
            Some(ArtifactClass::WalCheckpoint)
        );
        assert_eq!(classify("promoted.cpdg"), Some(ArtifactClass::Pointer));
        assert_eq!(
            classify("wal-0000000000000010.seg"),
            Some(ArtifactClass::WalSegment)
        );
        assert_eq!(classify("candidate-g3.json"), Some(ArtifactClass::Epoch));
        assert_eq!(classify("checkpoint.cpdg.r1"), None);
        assert_eq!(classify("wal-0000000000000010.seg.torn"), None);
        assert_eq!(classify("notes.txt"), None);
    }

    #[test]
    fn replicated_read_heals_a_corrupt_primary() {
        let dir = test_dir("heal");
        let path = dir.join("artifact.json");
        let sealed = integrity::seal(br#"{"v":1}"#);
        write_replicated(&FS_STORAGE, &path, &sealed).unwrap();
        // Corrupt the primary in place.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let read = read_sealed_replicated(&FS_STORAGE, &path, &FaultHook::none()).unwrap();
        assert_eq!(read.payload, br#"{"v":1}"#);
        assert_eq!(read.corrupt_copies, 1);
        assert_eq!(read.repaired, 1);
        // The primary is healed: a plain read now verifies.
        let healed = std::fs::read(&path).unwrap();
        assert!(integrity::unseal(&healed, &path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_read_refuses_when_every_copy_is_bad() {
        let dir = test_dir("refuse");
        let path = dir.join("artifact.json");
        let sealed = integrity::seal(br#"{"v":1}"#);
        write_replicated(&FS_STORAGE, &path, &sealed).unwrap();
        for i in 0..REPLICAS {
            let p = copy_path(&path, i);
            let mut bytes = std::fs::read(&p).unwrap();
            bytes[1] ^= 0xFF;
            std::fs::write(&p, &bytes).unwrap();
        }
        let err = read_sealed_replicated(&FS_STORAGE, &path, &FaultHook::none()).unwrap_err();
        assert_eq!(err.exit_code(), 4, "typed corruption, not a panic: {err}");
        assert!(err.to_string().contains("artifact.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_read_maps_fully_absent_to_not_found() {
        let dir = test_dir("absent");
        let path = dir.join("missing.json");
        let err = read_sealed_replicated(&FS_STORAGE, &path, &FaultHook::none()).unwrap_err();
        match err {
            CpdgError::Io { source, .. } => {
                assert_eq!(source.kind(), io::ErrorKind::NotFound)
            }
            other => panic!("expected NotFound Io, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_read_backfills_missing_replicas() {
        let dir = test_dir("backfill");
        let path = dir.join("artifact.json");
        let sealed = integrity::seal(br#"{"v":2}"#);
        // Only the primary on disk: the read backfills the replica.
        FS_STORAGE.write_atomic(&path, &sealed).unwrap();
        let read = read_sealed_replicated(&FS_STORAGE, &path, &FaultHook::none()).unwrap();
        assert_eq!(read.repaired, 1);
        assert!(replica_path(&path, 1).exists(), "replica backfilled");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn published_replicas_copy_the_primary_and_a_missing_primary_stays_missing() {
        let dir = test_dir("publish");
        let path = dir.join("promoted.cpdg");
        let sealed = integrity::seal(b"1\n/m.json");
        FS_STORAGE.write_atomic(&path, &sealed).unwrap();
        publish_replicas(&FS_STORAGE, &path);
        assert_eq!(std::fs::read(replica_path(&path, 1)).unwrap(), sealed);
        // A primary that vanished (a removal in flight) is read from its
        // replica but never recreated from it.
        std::fs::remove_file(&path).unwrap();
        let read = read_sealed_replicated(&FS_STORAGE, &path, &FaultHook::none()).unwrap();
        assert_eq!(read.payload, b"1\n/m.json");
        assert_eq!(read.repaired, 0);
        assert!(!path.exists(), "a missing primary must stay missing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_bitflip_on_primary_heals_from_replica() {
        let dir = test_dir("bitflip");
        let path = dir.join("artifact.json");
        let sealed = integrity::seal(br#"{"v":3}"#);
        write_replicated(&FS_STORAGE, &path, &sealed).unwrap();
        // Nth(1): only the first read (the primary) is flipped in memory.
        let hook = FaultHook::install(&FaultPlan::new(0).with(
            FaultPoint::IntegrityBitflip,
            FaultKind::Permanent,
            Trigger::Nth { n: 1 },
        ));
        let read = read_sealed_replicated(&FS_STORAGE, &path, &hook).unwrap();
        assert_eq!(read.payload, br#"{"v":3}"#);
        assert_eq!(read.corrupt_copies, 1);
        // Every copy flipped → typed refusal.
        let hook = bitflip_hook(1);
        let err = read_sealed_replicated(&FS_STORAGE, &path, &hook).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_cycle_repairs_and_reports() {
        let dir = test_dir("cycle");
        let ckpt = dir.join("checkpoint.cpdg");
        let sealed = integrity::seal(br#"{"applied":0}"#);
        write_replicated(&FS_STORAGE, &ckpt, &sealed).unwrap();
        let epoch = dir.join("candidate-g1.json");
        write_replicated(&FS_STORAGE, &epoch, &integrity::seal(br#"{"m":1}"#)).unwrap();
        // Corrupt the checkpoint primary on disk.
        let mut bytes = std::fs::read(&ckpt).unwrap();
        bytes[3] ^= 0x10;
        std::fs::write(&ckpt, &bytes).unwrap();
        let mut scrubber = Scrubber::new(vec![dir.clone()], ScrubConfig::default());
        let report = scrubber.scrub_cycle(&FS_STORAGE, &FaultHook::none());
        assert_eq!(report.scanned, 2);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.repaired, 1);
        assert!(report.unrepairable.is_empty());
        // Second cycle: everything clean.
        let report = scrubber.scrub_cycle(&FS_STORAGE, &FaultHook::none());
        assert_eq!(report.corrupt, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_reports_unrepairable_sealed_artifacts() {
        let dir = test_dir("unrepair");
        let ptr = dir.join("promoted.cpdg");
        // The primary alone, corrupted — nothing to heal from.
        let mut sealed = integrity::seal(b"3\nmodel.json");
        let at = sealed.len() / 2;
        sealed[at] ^= 0x01;
        FS_STORAGE.write_atomic(&ptr, &sealed).unwrap();
        let mut scrubber = Scrubber::new(vec![dir.clone()], ScrubConfig::default());
        let report = scrubber.scrub_all(&FS_STORAGE, &FaultHook::none());
        assert_eq!(report.unrepairable.len(), 1);
        assert_eq!(report.unrepairable[0].0, ArtifactClass::Pointer);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_paces_the_catalog() {
        let dir = test_dir("budget");
        for i in 0..4 {
            let p = dir.join(format!("candidate-g{i}.json"));
            write_replicated(&FS_STORAGE, &p, &integrity::seal(&[b'x'; 256])).unwrap();
        }
        let mut scrubber = Scrubber::new(
            vec![dir.clone()],
            ScrubConfig {
                max_bytes_per_cycle: 1,
            },
        );
        // One artifact crosses the 1-byte budget per cycle; four cycles
        // cover the catalog exactly once.
        let mut scanned = 0;
        for _ in 0..4 {
            scanned += scrubber
                .scrub_cycle(&FS_STORAGE, &FaultHook::none())
                .scanned;
        }
        assert_eq!(scanned, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_uses_suffix_discipline() {
        let dir = test_dir("quarantine");
        let a = dir.join("wal-0000000000000000.seg");
        std::fs::write(&a, b"garbage").unwrap();
        let q1 = quarantine_artifact(&FS_STORAGE, &a).unwrap();
        std::fs::write(&a, b"garbage2").unwrap();
        let q2 = quarantine_artifact(&FS_STORAGE, &a).unwrap();
        assert_ne!(q1, q2);
        assert!(q2.to_string_lossy().ends_with(".1"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
