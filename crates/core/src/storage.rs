//! Byte storage with crash-safe atomic writes and fault injection.
//!
//! All model/checkpoint persistence goes through one [`Storage`]: the
//! filesystem plus a [`FaultHook`]. Every raw `write` consults the
//! `storage.write` fault point and every `read` consults `storage.read`,
//! so a chaos plan can fail, or tear (`persist`), any write that a crash
//! or full disk could. [`FS_STORAGE`] holds the inert hook: with no plan
//! installed each check is one `Option` test. [`Storage::write_atomic`]
//! writes through a temp file + `fsync` + atomic rename + directory
//! `fsync`, so a crash at any instant leaves either the previous file
//! version or the new one — never a truncated hybrid.

use crate::chaos::{Fault, FaultHook, FaultPoint};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The production filesystem storage, with no fault plan installed.
pub static FS_STORAGE: Storage = Storage::new(FaultHook::none());

/// The filesystem, with a [`FaultHook`] consulted before every raw read
/// and write. Cloning is cheap and clones share the hook's trigger state.
#[derive(Debug, Clone)]
pub struct Storage {
    hook: FaultHook,
}

impl Storage {
    /// Storage whose raw reads and writes consult `hook`.
    pub const fn new(hook: FaultHook) -> Self {
        Self { hook }
    }

    /// The hook this storage consults.
    pub fn hook(&self) -> &FaultHook {
        &self.hook
    }

    /// Writes `bytes` to `path` non-atomically (creating or truncating)
    /// and flushes it to stable storage. A fired `storage.write` fault
    /// fails the write; with `persist: n` it first writes the first `n`
    /// bytes, as a process dying mid-write would.
    pub fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Err(fault) = self.hook.check(FaultPoint::StorageWrite) {
            if let Some(n) = fault.persist {
                write_synced(path, &bytes[..n.min(bytes.len())])?;
            }
            return Err(fault.into_io());
        }
        write_synced(path, bytes)
    }

    /// Atomically replaces `to` with `from`, then syncs `to`'s directory
    /// so the new entry survives power loss.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)?;
        sync_parent(to)
    }

    /// Reads the full contents of `path`, consulting `storage.read`.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.hook
            .check(FaultPoint::StorageRead)
            .map_err(Fault::into_io)?;
        fs::read(path)
    }

    /// Creates `path` and all missing parents.
    pub fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    /// Removes a file (errors if absent).
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    /// Lists the files directly inside `dir`, sorted by file name.
    pub fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        out.sort();
        Ok(out)
    }

    /// Crash-safe publish: write to a temp sibling, then atomically rename
    /// over `path`. On any failure the temp file is removed (best effort)
    /// and the previous contents of `path` remain intact.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_sibling(path);
        match self
            .write(&tmp, bytes)
            .and_then(|()| self.rename(&tmp, path))
        {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = self.remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Creates or truncates `path`, writes `bytes` and flushes the file
/// contents to stable storage — before any rename over a destination,
/// the ordering that makes the publish atomic under power loss.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Syncs the directory `dir` itself, so the entries created or renamed
/// in it survive power loss.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Syncs the directory holding `path` (the working directory for a bare
/// file name).
pub fn sync_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => sync_dir(dir),
        _ => sync_dir(Path::new(".")),
    }
}

/// The temp-file name used by [`Storage::write_atomic`] for `path`.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!(".{name}.tmp"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultKind::Transient;
    use crate::chaos::{FaultPlan, Trigger};

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdg_storage_{name}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_round_trips() {
        let dir = test_dir("atomic");
        let path = dir.join("a.json");
        FS_STORAGE.write_atomic(&path, b"hello").unwrap();
        assert_eq!(FS_STORAGE.read(&path).unwrap(), b"hello");
        // Overwrite is also atomic.
        FS_STORAGE.write_atomic(&path, b"world").unwrap();
        assert_eq!(FS_STORAGE.read(&path).unwrap(), b"world");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_during_atomic_write_preserves_previous_version() {
        let dir = test_dir("crash");
        let path = dir.join("m.json");
        // The second write persists 3 bytes of its temp file, then fails.
        let plan = FaultPlan::new(0).with_torn_write(Transient, Trigger::Nth { n: 2 }, 3);
        let storage = Storage::new(FaultHook::install(&plan));
        storage.write_atomic(&path, b"version-one").unwrap();
        let err = storage.write_atomic(&path, b"version-two").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(storage.hook().injected_at(FaultPoint::StorageWrite), 1);
        // Destination untouched; no temp residue left behind.
        assert_eq!(storage.read(&path).unwrap(), b"version-one");
        assert!(!tmp_sibling(&path).exists(), "temp file must be cleaned up");
        // The same spec on a raw write leaves exactly the torn prefix.
        let raw = dir.join("raw.bin");
        let torn = Storage::new(FaultHook::install(&plan));
        torn.write(&raw, b"version-one").unwrap();
        torn.write(&raw, b"version-two").unwrap_err();
        assert_eq!(fs::read(&raw).unwrap(), b"ver");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_is_sorted_and_files_only() {
        let dir = test_dir("list");
        FS_STORAGE.write(&dir.join("b.txt"), b"b").unwrap();
        FS_STORAGE.write(&dir.join("a.txt"), b"a").unwrap();
        FS_STORAGE.create_dir_all(&dir.join("sub")).unwrap();
        let names: Vec<String> = FS_STORAGE
            .list(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.txt", "b.txt"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_sibling_stays_in_same_directory() {
        let t = tmp_sibling(Path::new("/x/y/model.json"));
        assert_eq!(t, Path::new("/x/y/.model.json.tmp"));
    }
}
