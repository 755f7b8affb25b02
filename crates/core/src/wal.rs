//! Append-only write-ahead log for durable event ingestion.
//!
//! The serving engine streams edge events into DGNN memory; until PR 6
//! that state lived only in RAM, so a crash lost every event since the
//! last graceful drain. This module makes ingestion crash-consistent:
//! every event is framed, CRC-protected, and written to a segmented log
//! *before* memory mutates, and on startup the log is replayed through
//! the exact ingestion path to reconstruct state bit-identically.
//!
//! ## On-disk format (the contract the future mmap event store reads)
//!
//! A WAL directory holds segment files named `wal-{start:016x}.seg`,
//! where `start` is the index of the first record in the segment.
//! Each segment begins with a 16-byte header:
//!
//! ```text
//! [magic "CPDGWAL1": 8 bytes][start index: u64 LE]
//! ```
//!
//! followed by back-to-back record frames:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][index: u64 LE][payload: len - 8 bytes]
//! ```
//!
//! `len` counts the body (index + payload); `crc32` is
//! [`integrity::crc32`](crate::integrity::crc32) over the body. Record
//! indexes are contiguous across segments, starting at 0. Event payloads
//! use the fixed 18-byte encoding of [`encode_event`].
//!
//! ## Durability and recovery invariants
//!
//! * **Append-before-mutate.** The engine appends to the WAL first; only
//!   a successful append may mutate memory.
//! * **Exactly-once.** A failed append (injected fault, full disk,
//!   failed fsync) rolls the segment back to its pre-append length, so a
//!   rejected event is in *neither* memory nor the log — replay can never
//!   resurrect an event the client saw `ERR` for.
//! * **Torn-tail truncation.** [`Wal::open`] scans every frame; a torn
//!   or corrupt tail in the *last* segment is truncated away (a crash
//!   mid-write is expected), with the dropped bytes preserved in a
//!   `<segment>.torn` forensic sidecar. Corruption in a sealed interior
//!   segment is bit rot, not a crash artifact: recovery reads the
//!   segment's `.r1` replica too, healing whichever copy is bad from the
//!   first sound one; a segment with *no* sound copy is quarantined and
//!   recovery refuses with a typed [`CpdgError::WalGap`] naming the
//!   missing record range — never a silent skip.
//! * **Checkpoint-then-truncate.** A drain writes a CRC-sealed
//!   [`WalCheckpoint`] (graph + encoder state + applied index) via the
//!   atomic-publish protocol, then drops fully-covered sealed segments.
//!
//! Fsync cadence is configurable via [`FsyncPolicy`]: `always` (sync
//! every append), `every-N` (sync each N-th append), or `os` (leave
//! flushing to the OS page cache — fastest, weakest). Under `always` and
//! `every-N` a newly created segment also syncs the WAL directory, so its
//! directory entry survives power loss; `os` promises no such survival.
//!
//! Chaos integration: appends consult the `wal.append` and `wal.fsync`
//! fault points, the rotation that seals a full tail consults
//! `wal.rotate`, and replay consults `wal.replay`; transient faults are
//! absorbed by the configured [`RetryPolicy`], permanent ones surface as
//! [`CpdgError::Fault`].

use crate::chaos::{Fault, FaultHook, FaultPoint, RetryPolicy};
use crate::error::{CpdgError, CpdgResult};
use crate::integrity::crc32;
use crate::storage::{sync_dir, sync_parent, Storage};
use cpdg_dgnn::EncoderState;
use cpdg_graph::{DynamicGraph, FieldId, NodeId, Timestamp};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"CPDGWAL1";
/// Segment header length: magic + start index.
pub const SEGMENT_HEADER_LEN: u64 = 16;
/// Frame header length: `len` + `crc32`.
const FRAME_HEADER_LEN: u64 = 8;
/// Sanity cap on one record body, so a corrupt `len` cannot trigger a
/// multi-gigabyte allocation during the open scan.
const MAX_RECORD_BODY: u32 = 1 << 24;
/// Fixed width of one encoded event payload ([`encode_event`]).
pub const EVENT_PAYLOAD_LEN: usize = 18;
/// Conventional file name for the drain checkpoint inside a WAL dir.
pub const CHECKPOINT_FILE: &str = "checkpoint.cpdg";

/// Refuses a WAL root written by the sharded layout of earlier versions
/// (`--shards N`, since removed), which kept its events in `wal.shard<k>/`
/// subdirectories. This version reads only the flat single-stream layout,
/// so opening such a root would silently recover an empty or partial
/// stream. Returns a typed [`CpdgError::Corrupt`] naming the first such
/// subdirectory; reads only, so the root is left untouched.
pub fn refuse_sharded_root(root: &Path) -> CpdgResult<()> {
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(CpdgError::io(root, e)),
    };
    let first = entries
        .filter_map(Result::ok)
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("wal.shard"))
        .map(|entry| entry.path())
        .min();
    match first {
        Some(path) => Err(CpdgError::corrupt(path, SHARDED_LAYOUT_REFUSAL)),
        None => Ok(()),
    }
}

/// Why a WAL root from the removed sharded layout is refused.
const SHARDED_LAYOUT_REFUSAL: &str = "written by the sharded WAL layout (--shards), which this \
     version no longer reads; recover it with the version that wrote it";

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append — strongest durability, slowest.
    Always,
    /// `fsync` after every N-th append (N ≥ 1); a crash loses at most
    /// N − 1 acknowledged events.
    EveryN(u32),
    /// Never `fsync` explicitly; the OS page cache decides. Survives
    /// process crashes (`kill -9`) but not power loss.
    Os,
}

impl FsyncPolicy {
    /// The wire spelling used by `--fsync` and [`FromStr`].
    pub fn render(self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::EveryN(n) => format!("every-{n}"),
            FsyncPolicy::Os => "os".to_string(),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "os" => Ok(FsyncPolicy::Os),
            _ => match s.strip_prefix("every-").and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n >= 1 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!(
                    "invalid fsync policy {s:?} (expected always, os, or every-N with N >= 1)"
                )),
            },
        }
    }
}

/// Write-ahead-log tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the open one reaches this size.
    pub segment_bytes: u64,
    /// Fsync cadence for appends.
    pub fsync: FsyncPolicy,
    /// Retry budget for transient append/fsync/replay faults.
    pub retry: RetryPolicy,
}

impl Default for WalConfig {
    /// 1 MiB segments, fsync on every append, the default retry budget.
    fn default() -> Self {
        Self {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
            retry: RetryPolicy::default(),
        }
    }
}

/// What [`Wal::open`] found and repaired — surfaced in `STATUS` replies
/// and the recovery log record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Segment files scanned (the dropped tail, if any, included).
    pub segments: usize,
    /// Valid records found across all segments.
    pub records: u64,
    /// Torn-tail bytes truncated from the last segment (or the whole
    /// last file, when its header itself was torn).
    pub truncated_bytes: u64,
}

/// One sealed (no longer written) segment.
#[derive(Debug, Clone)]
struct SegmentInfo {
    path: PathBuf,
    /// Index of the first record in the segment.
    start: u64,
    /// One past the index of the last record (== next segment's start).
    end: u64,
    /// File size in bytes.
    bytes: u64,
}

/// The append-only write-ahead log. One instance owns a WAL directory;
/// appends go to the open tail segment, sealed segments are kept until a
/// checkpoint covers them ([`Wal::truncate_through`]).
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    hook: FaultHook,
    sealed: Vec<SegmentInfo>,
    /// Open tail segment.
    file: File,
    seg_path: PathBuf,
    seg_start: u64,
    seg_len: u64,
    next_index: u64,
    appends_since_sync: u32,
    recovery: RecoveryStats,
    /// The next frame, encoded into one buffer kept across appends.
    frame: Vec<u8>,
    /// Whether bytes may sit past `seg_len`: set before a frame is
    /// written, cleared once the write succeeds, and set by a rollback
    /// whose truncate or seek failed. While clear the tail file is exactly
    /// `seg_len` bytes long with its cursor there, so an append is one
    /// write; while set the append truncates and seeks first.
    torn: bool,
}

fn segment_path(dir: &Path, start: u64) -> PathBuf {
    dir.join(format!("wal-{start:016x}.seg"))
}

fn segment_header(start: u64) -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut h = [0u8; SEGMENT_HEADER_LEN as usize];
    h[..8].copy_from_slice(&SEGMENT_MAGIC);
    h[8..].copy_from_slice(&start.to_le_bytes());
    h
}

/// Frames one record into `frame`, replacing its contents:
/// `[len][crc32][index][payload]`, the CRC taken over the body in place.
fn encode_frame(frame: &mut Vec<u8>, index: u64, payload: &[u8]) {
    let header = FRAME_HEADER_LEN as usize;
    frame.clear();
    frame.extend_from_slice(&((8 + payload.len()) as u32).to_le_bytes());
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(&index.to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame[header..]);
    frame[4..header].copy_from_slice(&crc.to_le_bytes());
}

/// Outcome of scanning one segment's frames.
struct SegmentScan {
    /// Records successfully parsed, in order: `(index, payload)`.
    records: Vec<(u64, Vec<u8>)>,
    /// Byte offset one past the last valid frame.
    valid_len: u64,
    /// Total bytes in the scanned buffer (header included).
    total_len: u64,
}

/// Parses every frame in `bytes` (a whole segment file). Returns the
/// records that parse and where parsing stopped; the caller decides
/// whether a short `valid_len` is a torn tail (truncate) or corruption
/// (error). `None` when the header itself is invalid.
fn scan_segment(bytes: &[u8], expect_start: Option<u64>) -> Option<SegmentScan> {
    if bytes.len() < SEGMENT_HEADER_LEN as usize || bytes[..8] != SEGMENT_MAGIC {
        return None;
    }
    let start = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if let Some(expect) = expect_start {
        if start != expect {
            return None;
        }
    }
    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN as usize;
    let mut next = start;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < FRAME_HEADER_LEN as usize {
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if !(8..=MAX_RECORD_BODY).contains(&len) {
            break;
        }
        let body_end = FRAME_HEADER_LEN as usize + len as usize;
        if rest.len() < body_end {
            break;
        }
        let body = &rest[FRAME_HEADER_LEN as usize..body_end];
        if crc32(body) != crc {
            break;
        }
        let index = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        if index != next {
            break;
        }
        records.push((index, body[8..].to_vec()));
        next += 1;
        offset += body_end;
    }
    Some(SegmentScan {
        records,
        valid_len: offset as u64,
        total_len: bytes.len() as u64,
    })
}

/// Whether `bytes` parse as one *complete, sound* WAL segment: a valid
/// header and every byte accounted for by CRC-valid, densely-indexed
/// frames. What the scrubber uses to judge a sealed segment copy (the
/// active tail is exempt — a torn tail there is a legal crash artifact).
pub fn segment_is_sound(bytes: &[u8]) -> bool {
    matches!(scan_segment(bytes, None), Some(scan) if scan.valid_len == scan.total_len)
}

/// Preserves bytes about to be truncated/dropped in a `<segment>.torn`
/// forensic sidecar (best effort — truncation proceeds either way).
fn preserve_torn_bytes(path: &Path, torn: &[u8]) {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let sidecar = path.with_file_name(format!("{name}.torn"));
    match crate::FS_STORAGE.write_atomic(&sidecar, torn) {
        Ok(()) => {
            cpdg_obs::info!(
                "core.wal",
                "preserved torn bytes in forensic sidecar";
                path = sidecar.display().to_string(),
                bytes = torn.len() as u64,
            );
        }
        Err(e) => {
            cpdg_obs::warn!(
                "core.wal",
                "failed to preserve torn bytes";
                path = sidecar.display().to_string(),
                error = e.to_string(),
            );
        }
    }
}

impl Wal {
    /// Opens (creating if absent) the WAL in `dir`, scanning and
    /// repairing existing segments: a torn tail in the last segment is
    /// truncated (crash artifact), while a sealed interior segment is read
    /// through its copy set ([`read_copies`](crate::scrub::read_copies))
    /// and, with no sound copy, quarantined and refused as a
    /// [`CpdgError::WalGap`]. The recovery stats report what was found;
    /// [`Wal::replay`] streams the surviving records.
    pub fn open(dir: &Path, config: WalConfig, hook: FaultHook) -> CpdgResult<Wal> {
        if !dir.is_dir() {
            std::fs::create_dir_all(dir).map_err(|e| CpdgError::io(dir, e))?;
            // The new directory's own entry must survive power loss too.
            if config.fsync != FsyncPolicy::Os {
                sync_parent(dir).map_err(|e| CpdgError::io(dir, e))?;
            }
        }
        let mut starts: Vec<u64> = std::fs::read_dir(dir)
            .map_err(|e| CpdgError::io(dir, e))?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        starts.sort_unstable();

        let mut stats = RecoveryStats {
            segments: starts.len(),
            ..Default::default()
        };
        let mut sealed: Vec<SegmentInfo> = Vec::new();
        let mut next_index = starts.first().copied().unwrap_or(0);
        let mut tail: Option<(PathBuf, u64, u64)> = None; // (path, start, valid_len)
        for (i, &start) in starts.iter().enumerate() {
            let path = segment_path(dir, start);
            if start > next_index {
                // A preceding segment is missing (quarantined by a prior
                // scrub, or removed by a foreign tool): the records in
                // between are gone, and replaying past them would corrupt
                // state silently. Refuse with the exact missing range.
                return Err(CpdgError::WalGap {
                    dir: dir.to_path_buf(),
                    expected: next_index,
                    found: start,
                });
            }
            if i + 1 < starts.len() {
                // Sealed interior segments are scrub-managed: read through
                // the copy set (the chaos bitflip point may corrupt any
                // read), healing bad copies from the first one whose frames
                // all scan from the expected index.
                let copies =
                    crate::scrub::read_copies(&crate::FS_STORAGE, &path, &hook, |p, bytes| {
                        match scan_segment(bytes, Some(next_index)) {
                            Some(scan) if scan.valid_len == scan.total_len => Ok(scan),
                            _ => Err(CpdgError::corrupt(
                                p,
                                "sealed WAL segment fails its frame scan",
                            )),
                        }
                    });
                if copies.corrupt > 0 {
                    cpdg_obs::counter!("wal.segment_corruptions").inc();
                }
                let scan = match copies.sound {
                    Some((_, scan)) => scan,
                    None if copies.corrupt == 0 => {
                        return Err(copies.first_err.expect("no sound copy records why"))
                    }
                    None => {
                        // No sound copy anywhere: quarantine the segment
                        // (forensics preserved) and refuse with the gap
                        // its records leave behind.
                        crate::scrub::quarantine_artifact(&crate::FS_STORAGE, &path)?;
                        return Err(CpdgError::WalGap {
                            dir: dir.to_path_buf(),
                            expected: next_index,
                            found: starts[i + 1],
                        });
                    }
                };
                stats.records += scan.records.len() as u64;
                next_index += scan.records.len() as u64;
                sealed.push(SegmentInfo {
                    path,
                    start,
                    end: next_index,
                    bytes: scan.total_len,
                });
                continue;
            }
            // The active tail has no replica and is exempt from bitflips:
            // a torn tail is a legal crash artifact, truncated here.
            let bytes = std::fs::read(&path).map_err(|e| CpdgError::io(&path, e))?;
            let Some(scan) = scan_segment(&bytes, Some(next_index)) else {
                // The tail's header itself is torn: preserve the bytes in
                // a forensic sidecar, drop the file, and reopen a fresh
                // tail at the expected index.
                stats.truncated_bytes += bytes.len() as u64;
                preserve_torn_bytes(&path, &bytes);
                std::fs::remove_file(&path).map_err(|e| CpdgError::io(&path, e))?;
                cpdg_obs::warn!(
                    "core.wal",
                    "dropped WAL tail segment with torn header";
                    path = path.display().to_string(),
                    bytes = bytes.len() as u64,
                );
                break;
            };
            stats.records += scan.records.len() as u64;
            next_index += scan.records.len() as u64;
            if scan.valid_len != scan.total_len {
                stats.truncated_bytes += scan.total_len - scan.valid_len;
                preserve_torn_bytes(&path, &bytes[scan.valid_len as usize..]);
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| CpdgError::io(&path, e))?;
                f.set_len(scan.valid_len)
                    .map_err(|e| CpdgError::io(&path, e))?;
                f.sync_data().map_err(|e| CpdgError::io(&path, e))?;
                cpdg_obs::warn!(
                    "core.wal",
                    "truncated torn WAL tail";
                    path = path.display().to_string(),
                    bytes = scan.total_len - scan.valid_len,
                );
            }
            tail = Some((path, start, scan.valid_len));
        }
        if stats.truncated_bytes > 0 {
            cpdg_obs::counter!("wal.truncated_bytes").add(stats.truncated_bytes);
        }

        // Open (or create) the tail segment for appending.
        let (seg_path, seg_start, seg_len, file) = match tail {
            Some((path, start, len)) => {
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .map_err(|e| CpdgError::io(&path, e))?;
                file.seek(SeekFrom::Start(len))
                    .map_err(|e| CpdgError::io(&path, e))?;
                (path, start, len, file)
            }
            None => {
                let path = segment_path(dir, next_index);
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)
                    .map_err(|e| CpdgError::io(&path, e))?;
                file.write_all(&segment_header(next_index))
                    .map_err(|e| CpdgError::io(&path, e))?;
                file.sync_data().map_err(|e| CpdgError::io(&path, e))?;
                if config.fsync != FsyncPolicy::Os {
                    sync_dir(dir).map_err(|e| CpdgError::io(dir, e))?;
                }
                (path, next_index, SEGMENT_HEADER_LEN, file)
            }
        };

        cpdg_obs::info!(
            "core.wal",
            "WAL opened";
            dir = dir.display().to_string(),
            segments = stats.segments as u64,
            records = stats.records,
            truncated_bytes = stats.truncated_bytes,
            next_index = next_index,
        );
        Ok(Wal {
            dir: dir.to_path_buf(),
            config,
            hook,
            sealed,
            file,
            seg_path,
            seg_start,
            seg_len,
            next_index,
            appends_since_sync: 0,
            recovery: stats,
            frame: Vec::new(),
            torn: false,
        })
    }

    /// What [`Wal::open`] found and repaired.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// The configuration this log was opened with.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// The WAL directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index the next appended record will get (== records ever logged
    /// when the log has never been truncated).
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Live segment files (sealed + the open tail).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Total bytes across live segments, headers included.
    pub fn total_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.seg_len
    }

    /// Appends one record, returning its index. The record is on disk
    /// (to the degree the [`FsyncPolicy`] guarantees) when this returns
    /// `Ok`; on *any* failure the segment is rolled back to its
    /// pre-append length, so a failed append leaves no trace for replay
    /// to resurrect. A tail that reached the segment size is sealed first
    /// (rotated), before any byte of the frame is written, so a
    /// failed rotation fails an append that wrote nothing.
    pub fn append(&mut self, payload: &[u8]) -> CpdgResult<u64> {
        if self.seg_len >= self.config.segment_bytes && self.next_index > self.seg_start {
            if let Err(e) = self.rotate() {
                cpdg_obs::counter!("wal.append_failures").inc();
                return Err(e);
            }
        }
        let index = self.next_index;
        encode_frame(&mut self.frame, index, payload);
        let pre_len = self.seg_len;
        let retry = self.config.retry;

        let write = {
            let (file, hook, frame, torn) =
                (&mut self.file, &self.hook, &self.frame, &mut self.torn);
            retry.run(FaultPoint::WalAppend.name(), || {
                hook.check(FaultPoint::WalAppend).map_err(Fault::into_io)?;
                // Bytes a torn attempt or a failed rollback left past the
                // tail are cut before the frame goes down.
                if *torn {
                    file.set_len(pre_len)?;
                    file.seek(SeekFrom::Start(pre_len))?;
                }
                *torn = true;
                file.write_all(frame)?;
                *torn = false;
                Ok(())
            })
        };
        if let Err(e) = write {
            self.rollback(pre_len);
            cpdg_obs::counter!("wal.append_failures").inc();
            return Err(CpdgError::Fault {
                point: FaultPoint::WalAppend.name().to_string(),
                reason: e.to_string(),
            });
        }

        let want_sync = match self.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync + 1 >= n.max(1),
            FsyncPolicy::Os => false,
        };
        if want_sync {
            let sync = {
                let file = &mut self.file;
                let hook = &self.hook;
                retry.run(FaultPoint::WalFsync.name(), || {
                    hook.check(FaultPoint::WalFsync).map_err(Fault::into_io)?;
                    file.sync_data()?;
                    Ok(())
                })
            };
            if let Err(e) = sync {
                // An unsynced record offers no durability promise we can
                // keep — roll it back so the caller's ERR is the truth.
                self.rollback(pre_len);
                cpdg_obs::counter!("wal.append_failures").inc();
                return Err(CpdgError::Fault {
                    point: FaultPoint::WalFsync.name().to_string(),
                    reason: e.to_string(),
                });
            }
            self.appends_since_sync = 0;
        } else {
            self.appends_since_sync += 1;
        }

        self.seg_len = pre_len + self.frame.len() as u64;
        self.next_index = index + 1;
        cpdg_obs::counter!("wal.appends").inc();
        Ok(index)
    }

    /// Restores the pre-append segment length and cursor after a failed
    /// append. A failure here leaves a torn tail: the next append cuts it
    /// first, and a crash before then leaves it to the open scan.
    fn rollback(&mut self, pre_len: u64) {
        let restored = self
            .file
            .set_len(pre_len)
            .and_then(|()| self.file.seek(SeekFrom::Start(pre_len)));
        self.torn = restored.is_err();
        if let Err(e) = restored {
            cpdg_obs::warn!(
                "core.wal",
                "failed to roll back WAL tail";
                path = self.seg_path.display().to_string(),
                error = e.to_string(),
            );
        }
    }

    /// Seals the open tail (final fsync) and opens a fresh segment after
    /// it, consulting the `wal.rotate` fault point. Only once the new
    /// segment's header is synced (and, unless the policy is `os`, the
    /// directory entry naming it) are the old tail's replicas published
    /// and the tail listed as sealed; on failure the old tail stays open
    /// and unlisted, and the next append tries again. Only a successful
    /// append fills a tail, so no torn bytes lie past the one sealed here.
    fn rotate(&mut self) -> CpdgResult<()> {
        let start = self.next_index;
        let path = segment_path(&self.dir, start);
        let opened = {
            let (file, hook, dir) = (&self.file, &self.hook, &self.dir);
            self.config.retry.run(FaultPoint::WalRotate.name(), || {
                hook.check(FaultPoint::WalRotate).map_err(Fault::into_io)?;
                file.sync_data()?;
                let mut next = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)?;
                next.write_all(&segment_header(start))?;
                next.sync_data()?;
                if self.config.fsync != FsyncPolicy::Os {
                    sync_dir(dir)?;
                }
                Ok(next)
            })
        };
        let file = opened.map_err(|e| CpdgError::Fault {
            point: FaultPoint::WalRotate.name().to_string(),
            reason: format!("{}: {e}", path.display()),
        })?;
        crate::scrub::publish_replicas(&crate::FS_STORAGE, &self.seg_path);
        self.sealed.push(SegmentInfo {
            path: self.seg_path.clone(),
            start: self.seg_start,
            end: start,
            bytes: self.seg_len,
        });
        cpdg_obs::info!(
            "core.wal",
            "rotated WAL segment";
            sealed = self.seg_path.display().to_string(),
            next = path.display().to_string(),
        );
        self.seg_path = path;
        self.seg_start = start;
        self.seg_len = SEGMENT_HEADER_LEN;
        self.file = file;
        self.appends_since_sync = 0;
        cpdg_obs::counter!("wal.rotations").inc();
        Ok(())
    }

    /// Forces an fsync of the open tail regardless of policy (drain).
    pub fn sync(&mut self) -> CpdgResult<()> {
        self.file
            .sync_data()
            .map_err(|e| CpdgError::io(&self.seg_path, e))?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Streams every record with index ≥ `from` through `f`, in index
    /// order. Each visited record consults the `wal.replay` fault point:
    /// transient faults are retried under the configured policy,
    /// permanent ones abort with [`CpdgError::Fault`]. Returns the
    /// number of records delivered.
    pub fn replay(
        &self,
        from: u64,
        mut f: impl FnMut(u64, &[u8]) -> CpdgResult<()>,
    ) -> CpdgResult<u64> {
        let mut delivered = 0u64;
        let tail = SegmentInfo {
            path: self.seg_path.clone(),
            start: self.seg_start,
            end: self.next_index,
            bytes: self.seg_len,
        };
        for seg in self.sealed.iter().chain(std::iter::once(&tail)) {
            if seg.end <= from {
                continue;
            }
            let mut bytes = Vec::new();
            let mut file = File::open(&seg.path).map_err(|e| CpdgError::io(&seg.path, e))?;
            file.read_to_end(&mut bytes)
                .map_err(|e| CpdgError::io(&seg.path, e))?;
            // The open tail may hold rolled-back bytes past seg.bytes on
            // disk only in crash windows; scanning re-validates frames
            // rather than trusting in-memory offsets.
            let covers = |scan: &SegmentScan| scan.records.len() as u64 >= seg.end - seg.start;
            let scan = match scan_segment(&bytes, Some(seg.start)) {
                Some(scan) if covers(&scan) => scan,
                // A sealed primary `open` healed around stays bad on disk
                // when its repair write failed: replay the replica `open`
                // found sound instead of dropping the records it holds.
                _ => std::fs::read(crate::scrub::replica_path(&seg.path, 1))
                    .ok()
                    .and_then(|bytes| scan_segment(&bytes, Some(seg.start)))
                    .filter(covers)
                    .ok_or_else(|| {
                        CpdgError::corrupt(&seg.path, "WAL segment changed under replay")
                    })?,
            };
            for (index, payload) in &scan.records {
                if *index < from {
                    continue;
                }
                self.config
                    .retry
                    .run(FaultPoint::WalReplay.name(), || {
                        self.hook
                            .check(FaultPoint::WalReplay)
                            .map_err(Fault::into_io)
                    })
                    .map_err(|e| CpdgError::Fault {
                        point: FaultPoint::WalReplay.name().to_string(),
                        reason: e.to_string(),
                    })?;
                f(*index, payload)?;
                delivered += 1;
            }
        }
        if delivered > 0 {
            cpdg_obs::counter!("wal.replayed").add(delivered);
        }
        Ok(delivered)
    }

    /// Removes sealed segments whose every record index is `< through`
    /// (i.e. covered by a checkpoint that applied records up to, not
    /// including, `through`). The open tail is never removed. Returns
    /// the bytes freed.
    pub fn truncate_through(&mut self, through: u64) -> CpdgResult<u64> {
        let mut freed = 0u64;
        let mut kept = Vec::with_capacity(self.sealed.len());
        for seg in self.sealed.drain(..) {
            if seg.end <= through {
                std::fs::remove_file(&seg.path).map_err(|e| CpdgError::io(&seg.path, e))?;
                crate::scrub::remove_replicas(&crate::FS_STORAGE, &seg.path);
                freed += seg.bytes;
            } else {
                kept.push(seg);
            }
        }
        self.sealed = kept;
        if freed > 0 {
            cpdg_obs::info!(
                "core.wal",
                "truncated checkpoint-covered WAL segments";
                through = through,
                freed_bytes = freed,
            );
        }
        Ok(freed)
    }
}

/// Encodes one edge event into the fixed 18-byte WAL payload:
/// `[src: u32 LE][dst: u32 LE][t: f64 bits LE][field: u16 LE]`.
pub fn encode_event(
    src: NodeId,
    dst: NodeId,
    t: Timestamp,
    field: FieldId,
) -> [u8; EVENT_PAYLOAD_LEN] {
    let mut buf = [0u8; EVENT_PAYLOAD_LEN];
    buf[0..4].copy_from_slice(&src.to_le_bytes());
    buf[4..8].copy_from_slice(&dst.to_le_bytes());
    buf[8..16].copy_from_slice(&t.to_bits().to_le_bytes());
    buf[16..18].copy_from_slice(&field.to_le_bytes());
    buf
}

/// Decodes a payload written by [`encode_event`].
pub fn decode_event(payload: &[u8]) -> Result<(NodeId, NodeId, Timestamp, FieldId), String> {
    if payload.len() != EVENT_PAYLOAD_LEN {
        return Err(format!(
            "bad WAL event payload: {} bytes (expected {EVENT_PAYLOAD_LEN})",
            payload.len()
        ));
    }
    let src = NodeId::from_le_bytes(payload[0..4].try_into().expect("4 bytes"));
    let dst = NodeId::from_le_bytes(payload[4..8].try_into().expect("4 bytes"));
    let t = Timestamp::from_bits(u64::from_le_bytes(
        payload[8..16].try_into().expect("8 bytes"),
    ));
    let field = FieldId::from_le_bytes(payload[16..18].try_into().expect("2 bytes"));
    Ok((src, dst, t, field))
}

/// A drain checkpoint: the full serving state (dynamic graph + encoder
/// memory, *including* pending messages so no flush is needed) plus the
/// WAL index up to which events are already applied. Saved CRC-sealed
/// through the atomic-publish protocol; records `< applied` become
/// redundant and their sealed segments can be truncated. The byte layout
/// is [`crate::codec`]'s.
#[derive(Debug, Clone)]
pub struct WalCheckpoint {
    /// Records with index `< applied` are captured in this checkpoint.
    pub applied: u64,
    /// The ingested dynamic graph at `applied`.
    pub graph: DynamicGraph,
    /// Encoder state at `applied` (memory, cell state, pending batch).
    pub encoder: EncoderState,
}

impl WalCheckpoint {
    /// Encodes, CRC-seals, and atomically publishes the checkpoint as
    /// every copy (`<path>`, `<path>.r1`), so a single rotted copy is
    /// healed by [`WalCheckpoint::load`] or the scrubber.
    pub fn save(&self, storage: &Storage, path: &Path) -> CpdgResult<()> {
        let sealed = crate::integrity::seal(&crate::codec::encode_artifact(self));
        crate::scrub::write_replicated(storage, path, &sealed)?;
        cpdg_obs::info!(
            "core.wal",
            "WAL checkpoint saved";
            path = path.display().to_string(),
            applied = self.applied,
            bytes = sealed.len() as u64,
        );
        Ok(())
    }

    /// Loads a checkpoint saved by [`WalCheckpoint::save`] through its
    /// copy set: a corrupt copy is rewritten from a sound one. `Ok(None)`
    /// when no copy exists (a cold start, not an error); a typed
    /// corruption error (naming the checkpoint path) when copies exist but
    /// none verifies.
    pub fn load(
        storage: &Storage,
        path: &Path,
        hook: &FaultHook,
    ) -> CpdgResult<Option<WalCheckpoint>> {
        let read = match crate::scrub::read_sealed_replicated(storage, path, hook) {
            Ok(read) => read,
            Err(CpdgError::Io { source, .. }) if source.kind() == std::io::ErrorKind::NotFound => {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        crate::codec::decode_artifact(&read.payload, path).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultKind, FaultPlan, Trigger};

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdg_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn collect(wal: &Wal, from: u64) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        wal.replay(from, |i, p| {
            out.push((i, p.to_vec()));
            Ok(())
        })
        .unwrap();
        out
    }

    fn fast_config() -> WalConfig {
        WalConfig {
            retry: RetryPolicy {
                max_attempts: 4,
                base_delay_ms: 0,
                max_delay_ms: 0,
            },
            ..WalConfig::default()
        }
    }

    #[test]
    fn fsync_policy_parses_and_renders() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!("os".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Os);
        assert_eq!(
            "every-8".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::EveryN(8)
        );
        for bad in ["", "sometimes", "every-0", "every-", "every-x", "ALWAYS"] {
            assert!(
                bad.parse::<FsyncPolicy>().is_err(),
                "{bad:?} must not parse"
            );
        }
        for p in [FsyncPolicy::Always, FsyncPolicy::Os, FsyncPolicy::EveryN(3)] {
            assert_eq!(p.render().parse::<FsyncPolicy>().unwrap(), p);
        }
    }

    #[test]
    fn append_replay_round_trips() {
        let dir = test_dir("round_trip");
        let mut wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
        for i in 0u64..5 {
            let idx = wal.append(format!("payload-{i}").as_bytes()).unwrap();
            assert_eq!(idx, i);
        }
        let got = collect(&wal, 0);
        assert_eq!(got.len(), 5);
        for (i, (idx, payload)) in got.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(payload, format!("payload-{i}").as_bytes());
        }
        // Replay from an offset skips the covered prefix.
        assert_eq!(collect(&wal, 3).len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_bytes_are_pinned_for_a_fixed_record() {
        let expected: [u8; 34] = [
            0x1a, 0x00, 0x00, 0x00, 0x1c, 0x9c, 0x1b, 0xbd, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x08, 0x40, 0x04, 0x00,
        ];
        let payload = encode_event(1, 2, 3.0, 4);
        // The reused buffer is replaced, not appended to.
        let mut frame = Vec::new();
        encode_frame(&mut frame, 9, &[0xAA; 40]);
        encode_frame(&mut frame, 5, &payload);
        assert_eq!(frame, expected);
        // The same bytes land on disk for record 5 of a fresh log.
        let dir = test_dir("frame_bytes");
        let mut wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
        for _ in 0..6 {
            wal.append(&payload).unwrap();
        }
        let bytes = std::fs::read(segment_path(&dir, 0)).unwrap();
        let at = SEGMENT_HEADER_LEN as usize + 5 * expected.len();
        assert_eq!(&bytes[at..], &expected[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_files_hold_exactly_the_tracked_bytes() {
        let dir = test_dir("tracked_bytes");
        let config = WalConfig {
            segment_bytes: 64,
            ..fast_config()
        };
        let on_disk = |dir: &Path| -> u64 {
            std::fs::read_dir(dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
                .map(|e| e.metadata().unwrap().len())
                .sum()
        };
        let mut wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        let records: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; 16 + i as usize]).collect();
        for (i, payload) in records.iter().enumerate() {
            assert_eq!(wal.append(payload).unwrap(), i as u64);
            let tail = std::fs::metadata(&wal.seg_path).unwrap().len();
            assert_eq!(tail, wal.seg_len, "tail segment after record {i}");
            assert_eq!(on_disk(&dir), wal.total_bytes(), "log after record {i}");
        }
        assert!(wal.segment_count() > 3, "64-byte segments must rotate");
        drop(wal);
        let wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        assert_eq!(wal.recovery_stats().truncated_bytes, 0);
        let expected: Vec<(u64, Vec<u8>)> = records
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect();
        assert_eq!(collect(&wal, 0), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_tail_is_cut_before_the_next_append() {
        let dir = test_dir("torn_flag");
        let mut wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
        assert_eq!(wal.append(b"first").unwrap(), 0);
        // A rolled-back record and a ghost after it, left on disk past the
        // tail as a failed rollback would leave them.
        let mut stale = Vec::new();
        for (index, payload) in [(1, b"rejected"), (2, b"ghost!!!")] {
            encode_frame(&mut wal.frame, index, payload);
            stale.extend_from_slice(&wal.frame);
        }
        OpenOptions::new()
            .append(true)
            .open(&wal.seg_path)
            .unwrap()
            .write_all(&stale)
            .unwrap();
        wal.torn = true;
        assert_eq!(wal.append(b"second!!").unwrap(), 1);
        assert!(!wal.torn);
        let tail = std::fs::metadata(&wal.seg_path).unwrap().len();
        assert_eq!(tail, wal.seg_len, "the stale bytes are gone");
        drop(wal);
        let wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
        assert_eq!(wal.recovery_stats().truncated_bytes, 0);
        assert_eq!(
            collect(&wal, 0),
            vec![(0, b"first".to_vec()), (1, b"second!!".to_vec())],
            "only acknowledged records replay"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_all_records() {
        let dir = test_dir("reopen");
        {
            let mut wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
            for i in 0u64..7 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
        }
        let wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
        assert_eq!(wal.next_index(), 7);
        assert_eq!(wal.recovery_stats().records, 7);
        assert_eq!(wal.recovery_stats().truncated_bytes, 0);
        assert_eq!(collect(&wal, 0).len(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_rotate_at_threshold() {
        let dir = test_dir("rotate");
        let config = WalConfig {
            segment_bytes: 64,
            ..fast_config()
        };
        let mut wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        for i in 0u64..10 {
            wal.append(&[i as u8; 16]).unwrap();
        }
        assert!(wal.segment_count() > 1, "64-byte segments must rotate");
        assert_eq!(collect(&wal, 0).len(), 10);
        // Reopen sees the same multi-segment log.
        drop(wal);
        let wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        assert_eq!(wal.next_index(), 10);
        assert_eq!(collect(&wal, 0).len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_rotation_fails_an_append_that_wrote_nothing() {
        let dir = test_dir("rotate_blocked");
        let config = WalConfig {
            segment_bytes: 64,
            ..fast_config()
        };
        let mut wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        // Two 34-byte event frames fill the first segment (16 + 68 ≥ 64),
        // so record 2 opens the next one, whose path is taken.
        let blocker = segment_path(&dir, 2);
        std::fs::create_dir(&blocker).unwrap();
        for i in 0..2 {
            let appended = wal.append(&encode_event(i, i + 1, f64::from(i), 0));
            assert_eq!(appended.unwrap(), u64::from(i), "record {i} fits the tail");
        }
        let err = wal.append(&encode_event(9, 9, 9.0, 0)).unwrap_err();
        assert!(
            matches!(err, CpdgError::Fault { ref point, .. } if point == "wal.rotate"),
            "{err}"
        );
        assert_eq!(wal.next_index(), 2, "the rejected record took no index");
        assert_eq!(
            wal.segment_count(),
            1,
            "the open tail is not listed as sealed"
        );
        assert_eq!(
            std::fs::metadata(segment_path(&dir, 0)).unwrap().len(),
            16 + 2 * 34,
            "no frame byte of the rejected record was written"
        );
        // Once the path clears, the next append rotates and lands.
        std::fs::remove_dir(&blocker).unwrap();
        let appended = wal.append(&encode_event(2, 3, 2.0, 0)).unwrap();
        assert_eq!(appended, 2);
        assert_eq!(wal.segment_count(), 2);
        drop(wal);
        let wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        let replayed: Vec<(u64, Vec<u8>)> = collect(&wal, 0);
        let want: Vec<(u64, Vec<u8>)> = (0..3)
            .map(|i| {
                (
                    u64::from(i),
                    encode_event(i, i + 1, f64::from(i), 0).to_vec(),
                )
            })
            .collect();
        assert_eq!(replayed, want, "the rejected record never replays");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = test_dir("torn");
        {
            let mut wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
            for i in 0u64..4 {
                wal.append(&[i as u8; 8]).unwrap();
            }
        }
        // Tear the last frame: chop 3 bytes off the tail segment.
        let seg = segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let mut wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
        assert_eq!(wal.recovery_stats().records, 3, "the torn record is gone");
        assert!(wal.recovery_stats().truncated_bytes > 0);
        assert_eq!(wal.next_index(), 3);
        // The log accepts fresh appends at the truncated index.
        assert_eq!(wal.append(b"recovered").unwrap(), 3);
        assert_eq!(collect(&wal, 0).len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_in_tail_truncates_from_flip() {
        let dir = test_dir("bitflip");
        {
            let mut wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
            for i in 0u64..4 {
                wal.append(&[i as u8; 8]).unwrap();
            }
        }
        // Flip one payload bit in the third record; frames after the flip
        // are unreachable (the scan stops at the CRC mismatch).
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let frame = 8 + 8 + 8; // header + index + payload
        let third_payload = SEGMENT_HEADER_LEN as usize + 2 * frame + 8 + 8 + 2;
        bytes[third_payload] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();

        let wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
        assert_eq!(wal.recovery_stats().records, 2);
        assert!(wal.recovery_stats().truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_sealed_segment_heals_from_replica() {
        let dir = test_dir("sealed_heal");
        let config = WalConfig {
            segment_bytes: 64,
            ..fast_config()
        };
        {
            let mut wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
            for i in 0u64..10 {
                wal.append(&[i as u8; 16]).unwrap();
            }
            assert!(wal.segment_count() > 1);
        }
        // Rotation published a replica of every sealed segment.
        let seg = segment_path(&dir, 0);
        let replica = crate::scrub::replica_path(&seg, 1);
        assert!(replica.exists(), "rotation must write the .r1 replica");
        // Bit rot in the sealed primary: recovery falls through to the
        // replica, heals the primary, and loses nothing.
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        assert_eq!(wal.recovery_stats().records, 10, "no record lost");
        assert_eq!(collect(&wal, 0).len(), 10);
        // The primary was rewritten from the replica.
        assert!(segment_is_sound(&std::fs::read(&seg).unwrap()));

        // Rot it again and lose the repair write: the primary stays bad
        // on disk, and replay still delivers every record, from the replica.
        std::fs::write(&seg, &bytes).unwrap();
        let lost_repairs = FaultHook::install(&FaultPlan::new(1).with(
            FaultPoint::ScrubRepair,
            FaultKind::Permanent,
            Trigger::Every { k: 1 },
        ));
        let wal = Wal::open(&dir, config, lost_repairs).unwrap();
        assert!(!segment_is_sound(&std::fs::read(&seg).unwrap()));
        assert_eq!(collect(&wal, 0).len(), 10, "no record lost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unrepairable_sealed_segment_is_quarantined_with_typed_gap() {
        let dir = test_dir("sealed_gap");
        let config = WalConfig {
            segment_bytes: 64,
            ..fast_config()
        };
        {
            let mut wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
            for i in 0u64..10 {
                wal.append(&[i as u8; 16]).unwrap();
            }
            assert!(wal.segment_count() > 1);
        }
        // Rot the sealed primary AND its replica: nothing to heal from.
        let seg = segment_path(&dir, 0);
        for p in [seg.clone(), crate::scrub::replica_path(&seg, 1)] {
            let mut bytes = std::fs::read(&p).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&p, &bytes).unwrap();
        }
        let Err(err) = Wal::open(&dir, config, FaultHook::none()) else {
            panic!("a sealed segment rotten in every copy must be refused");
        };
        assert!(matches!(err, CpdgError::WalGap { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "the refusal names the WAL: {err}"
        );
        // The bad segment was quarantined, not deleted: forensics intact.
        assert!(!seg.exists());
        assert!(dir
            .join(crate::scrub::QUARANTINE_DIR)
            .join(seg.file_name().unwrap())
            .exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_sealed_segment_is_a_typed_gap() {
        let dir = test_dir("missing_gap");
        let config = WalConfig {
            segment_bytes: 64,
            ..fast_config()
        };
        {
            let mut wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
            for i in 0u64..10 {
                wal.append(&[i as u8; 16]).unwrap();
            }
            assert!(wal.segment_count() > 2);
        }
        // Remove an interior segment and its replica outright.
        let starts: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        let victim = starts.iter().copied().filter(|&s| s > 0).min().unwrap();
        let seg = segment_path(&dir, victim);
        std::fs::remove_file(&seg).unwrap();
        let _ = std::fs::remove_file(crate::scrub::replica_path(&seg, 1));
        let Err(err) = Wal::open(&dir, config, FaultHook::none()) else {
            panic!("a missing sealed segment must be refused");
        };
        match err {
            CpdgError::WalGap { expected, .. } => assert_eq!(expected, victim),
            other => panic!("expected WalGap, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_bytes_are_preserved_in_sidecar() {
        let dir = test_dir("torn_sidecar");
        {
            let mut wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
            for i in 0u64..4 {
                wal.append(&[i as u8; 8]).unwrap();
            }
        }
        // Flip a byte in the third record: frames from the flip on are
        // truncated, and the dropped bytes land in the forensic sidecar.
        let seg = segment_path(&dir, 0);
        let full = std::fs::read(&seg).unwrap();
        let frame = 8 + 8 + 8;
        let third_payload = SEGMENT_HEADER_LEN as usize + 2 * frame + 8 + 8 + 2;
        let mut bytes = full.clone();
        bytes[third_payload] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        let wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
        let dropped = wal.recovery_stats().truncated_bytes;
        assert!(dropped > 0);
        let sidecar = dir.join(format!(
            "{}.torn",
            seg.file_name().unwrap().to_string_lossy()
        ));
        let preserved = std::fs::read(&sidecar).unwrap();
        assert_eq!(preserved.len() as u64, dropped);
        assert_eq!(&preserved[..], &bytes[bytes.len() - preserved.len()..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_through_removes_replicas_too() {
        let dir = test_dir("truncate_replicas");
        let config = WalConfig {
            segment_bytes: 64,
            ..fast_config()
        };
        let mut wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        for i in 0u64..12 {
            wal.append(&[i as u8; 16]).unwrap();
        }
        assert!(wal.segment_count() > 2);
        wal.truncate_through(wal.next_index()).unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| crate::scrub::is_replica_name(n))
            .collect();
        assert!(leftovers.is_empty(), "stale replicas: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_checkpoint_heals_and_refuses() {
        use crate::storage::FS_STORAGE;
        let dir = test_dir("ckpt_replicated");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let hook = FaultHook::none();
        assert!(WalCheckpoint::load(&FS_STORAGE, &path, &hook)
            .unwrap()
            .is_none());
        let ckpt = WalCheckpoint {
            applied: 3,
            graph: DynamicGraph::empty(2),
            encoder: EncoderState {
                memory: cpdg_dgnn::Memory::new(2, 3),
                cell_state: None,
                pending: Vec::new(),
            },
        };
        ckpt.save(&FS_STORAGE, &path).unwrap();
        // Rot the primary: the replica heals it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = WalCheckpoint::load(&FS_STORAGE, &path, &hook)
            .unwrap()
            .unwrap();
        assert_eq!(loaded.applied, 3);
        assert!(crate::integrity::unseal(&std::fs::read(&path).unwrap(), &path).is_ok());
        // Rot every copy: typed refusal naming the checkpoint.
        for p in [path.clone(), crate::scrub::replica_path(&path, 1)] {
            let mut bytes = std::fs::read(&p).unwrap();
            bytes[4] ^= 0x20;
            std::fs::write(&p, &bytes).unwrap();
        }
        let err = WalCheckpoint::load(&FS_STORAGE, &path, &hook).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains(CHECKPOINT_FILE), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_leaves_no_record() {
        let dir = test_dir("exactly_once");
        let plan = FaultPlan::new(0).with(
            FaultPoint::WalAppend,
            FaultKind::Permanent,
            Trigger::Nth { n: 2 },
        );
        let mut wal = Wal::open(&dir, fast_config(), FaultHook::install(&plan)).unwrap();
        assert_eq!(wal.append(b"first").unwrap(), 0);
        let err = wal.append(b"rejected").unwrap_err();
        assert!(matches!(err, CpdgError::Fault { .. }), "{err}");
        // The rejected record is gone; the next append reuses its index.
        assert_eq!(wal.append(b"second").unwrap(), 1);
        let got = collect(&wal, 0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].1, b"second");
        // Reopen agrees: nothing torn, nothing resurrected.
        drop(wal);
        let wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
        assert_eq!(wal.recovery_stats().records, 2);
        assert_eq!(wal.recovery_stats().truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_fsync_rolls_back_like_append() {
        let dir = test_dir("fsync_fail");
        let plan = FaultPlan::new(0).with(
            FaultPoint::WalFsync,
            FaultKind::Permanent,
            Trigger::Nth { n: 1 },
        );
        let mut wal = Wal::open(&dir, fast_config(), FaultHook::install(&plan)).unwrap();
        let err = wal.append(b"unsynced").unwrap_err();
        assert!(
            matches!(err, CpdgError::Fault { ref point, .. } if point == "wal.fsync"),
            "{err}"
        );
        assert_eq!(wal.next_index(), 0);
        assert_eq!(wal.append(b"synced").unwrap(), 0);
        assert_eq!(collect(&wal, 0), vec![(0, b"synced".to_vec())]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_append_faults_are_retried_invisibly() {
        let dir = test_dir("transient");
        let plan = FaultPlan::new(0)
            .with(
                FaultPoint::WalAppend,
                FaultKind::Transient,
                Trigger::Nth { n: 2 },
            )
            .with(
                FaultPoint::WalFsync,
                FaultKind::Transient,
                Trigger::Nth { n: 3 },
            );
        let hook = FaultHook::install(&plan);
        let mut wal = Wal::open(&dir, fast_config(), hook.clone()).unwrap();
        for i in 0u64..5 {
            assert_eq!(
                wal.append(&i.to_le_bytes()).unwrap(),
                i,
                "transient faults must clear"
            );
        }
        assert_eq!(hook.injected(), 2);
        assert_eq!(collect(&wal, 0).len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_replay_fault_aborts() {
        let dir = test_dir("replay_fault");
        {
            let mut wal = Wal::open(&dir, fast_config(), FaultHook::none()).unwrap();
            for i in 0u64..3 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
        }
        let plan = FaultPlan::new(0).with(
            FaultPoint::WalReplay,
            FaultKind::Permanent,
            Trigger::Nth { n: 2 },
        );
        let wal = Wal::open(&dir, fast_config(), FaultHook::install(&plan)).unwrap();
        let mut seen = 0u64;
        let err = wal
            .replay(0, |_, _| {
                seen += 1;
                Ok(())
            })
            .unwrap_err();
        assert!(
            matches!(err, CpdgError::Fault { ref point, .. } if point == "wal.replay"),
            "{err}"
        );
        assert_eq!(seen, 1, "replay must stop at the faulted record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_n_fsync_counts_appends() {
        let dir = test_dir("every_n");
        let config = WalConfig {
            fsync: FsyncPolicy::EveryN(3),
            ..fast_config()
        };
        let plan = FaultPlan::new(0).with(
            FaultPoint::WalFsync,
            FaultKind::Transient,
            Trigger::Nth { n: 100 }, // never fires; we only count hits
        );
        let hook = FaultHook::install(&plan);
        let mut wal = Wal::open(&dir, config, hook.clone()).unwrap();
        for i in 0u64..7 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        // Appends 3 and 6 sync; 7 appends → 2 fsync consults.
        assert_eq!(hook.hits(FaultPoint::WalFsync), 2);
        assert_eq!(hook.hits(FaultPoint::WalAppend), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_through_drops_covered_sealed_segments() {
        let dir = test_dir("truncate");
        let config = WalConfig {
            segment_bytes: 64,
            ..fast_config()
        };
        let mut wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        for i in 0u64..12 {
            wal.append(&[i as u8; 16]).unwrap();
        }
        let before = wal.segment_count();
        assert!(before > 2);
        let freed = wal.truncate_through(wal.next_index()).unwrap();
        assert!(freed > 0);
        assert_eq!(wal.segment_count(), 1, "only the open tail survives");
        // Replay from the checkpoint index yields nothing — and reopening
        // the truncated log starts at the right index.
        assert_eq!(collect(&wal, 12).len(), 0);
        drop(wal);
        let mut wal = Wal::open(&dir, config, FaultHook::none()).unwrap();
        assert_eq!(
            wal.next_index(),
            12,
            "truncation must not lose the index position"
        );
        assert_eq!(wal.append(b"after-truncate").unwrap(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_payload_round_trips() {
        for (src, dst, t, field) in [
            (0u32, 1u32, 0.0f64, 0u16),
            (7, 11, 123.456, 3),
            (u32::MAX, 0, f64::MAX, u16::MAX),
            (42, 42, -0.0, 9),
        ] {
            let buf = encode_event(src, dst, t, field);
            let (s, d, tt, ff) = decode_event(&buf).unwrap();
            assert_eq!((s, d, ff), (src, dst, field));
            assert_eq!(
                tt.to_bits(),
                t.to_bits(),
                "timestamps must round-trip bit-exactly"
            );
        }
        assert!(decode_event(&[0u8; 17]).is_err());
        assert!(decode_event(&[]).is_err());
    }

    /// Every file under `dir` with its bytes, in path order.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let bytes = std::fs::read(&path).unwrap();
                    files.push((path, bytes));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn sharded_roots_are_refused_and_left_untouched() {
        use crate::storage::FS_STORAGE;
        let hook = FaultHook::none();

        // A shard stream holding one 26-byte sequence-stamped record, and
        // no root checkpoint: recovering the root would find no events.
        let stream_root = test_dir("sharded_stream");
        let stream = stream_root.join("wal.shard0");
        let mut wal = Wal::open(&stream, fast_config(), hook.clone()).unwrap();
        wal.append(&[7u8; 26]).unwrap();
        drop(wal);
        let before = snapshot(&stream_root);
        let err = refuse_sharded_root(&stream_root).unwrap_err();
        assert!(
            matches!(&err, CpdgError::Corrupt { path, .. } if *path == stream),
            "{err}"
        );
        assert_eq!(
            snapshot(&stream_root),
            before,
            "refusal must not touch the root"
        );

        // A JSON-era root checkpoint recording four shards, in both
        // replicas; then each payload the codec refuses, sealed with a
        // valid CRC.
        let root = test_dir("sharded_ckpt");
        std::fs::create_dir_all(&root).unwrap();
        let path = root.join(CHECKPOINT_FILE);
        let mut graph = DynamicGraph::empty(2);
        graph.push_event(0, 1, 1.0, 0).unwrap();
        let ckpt = WalCheckpoint {
            applied: 3,
            graph,
            encoder: EncoderState {
                memory: cpdg_dgnn::Memory::new(2, 3),
                cell_state: None,
                pending: Vec::new(),
            },
        };
        let sharded = br#"{"applied":3,"shards":4,"shard_applied":[1,0,2,0]}"#.to_vec();
        // The graph's event count: after the header, `applied`, the
        // encoder state and the graph's node count.
        let events_at = 12 + 8 + crate::codec::to_bytes(&ckpt.encoder).len() + 8;
        let refused =
            crate::codec::refused_payloads(&crate::codec::encode_artifact(&ckpt), events_at);
        for (what, payload) in [("sharded JSON-era checkpoint", sharded)]
            .into_iter()
            .chain(refused)
        {
            let sealed = crate::integrity::seal(&payload);
            crate::scrub::write_replicated(&FS_STORAGE, &path, &sealed).unwrap();
            let before = snapshot(&root);
            refuse_sharded_root(&root).unwrap();
            let err = WalCheckpoint::load(&FS_STORAGE, &path, &hook).unwrap_err();
            assert!(
                matches!(&err, CpdgError::Corrupt { path: p, .. } if *p == path),
                "{what}: {err}"
            );
            assert_eq!(err.exit_code(), 4, "{what}");
            assert_eq!(
                snapshot(&root),
                before,
                "{what}: refusal must not touch the root"
            );
        }
        std::fs::remove_dir_all(&stream_root).ok();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoint_save_load_round_trips() {
        use crate::storage::FS_STORAGE;
        let dir = test_dir("ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let hook = FaultHook::none();
        assert!(WalCheckpoint::load(&FS_STORAGE, &path, &hook)
            .unwrap()
            .is_none());

        let mut graph = DynamicGraph::empty(4);
        graph.push_event(0, 1, 1.0, 0).unwrap();
        graph.push_event(1, 2, 2.0, 1).unwrap();
        let ckpt = WalCheckpoint {
            applied: 2,
            graph,
            encoder: EncoderState {
                memory: cpdg_dgnn::Memory::new(4, 3),
                cell_state: None,
                pending: vec![(0, 1, 1.0)],
            },
        };
        ckpt.save(&FS_STORAGE, &path).unwrap();
        let loaded = WalCheckpoint::load(&FS_STORAGE, &path, &hook)
            .unwrap()
            .unwrap();
        assert_eq!(loaded.applied, 2);
        assert_eq!(loaded.graph.num_events(), 2);
        assert_eq!(loaded.encoder.pending, vec![(0, 1, 1.0)]);

        // With no second copy, a flipped byte is CorruptArtifact, not a
        // silent bad load.
        std::fs::remove_file(crate::scrub::replica_path(&path, 1)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = WalCheckpoint::load(&FS_STORAGE, &path, &hook).unwrap_err();
        assert!(matches!(err, CpdgError::CorruptArtifact { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
