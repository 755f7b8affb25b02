//! The fault hook threaded through the pipeline.

use super::fault::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An injected fault: which point raised it and whether it is worth
/// retrying. Converts to [`io::Error`] for the storage-shaped call sites
/// (transient → [`io::ErrorKind::Interrupted`], the kind
/// [`RetryPolicy`](super::RetryPolicy) retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The fault point that raised this fault.
    pub point: FaultPoint,
    /// Transient (retryable) or permanent.
    pub kind: FaultKind,
    /// For a torn `storage.write`: how many leading bytes the failing
    /// write persists first (the firing spec's `persist`).
    pub persist: Option<usize>,
}

impl Fault {
    /// Whether a retry can clear this fault.
    pub fn is_transient(self) -> bool {
        self.kind == FaultKind::Transient
    }

    /// Renders the fault as an [`io::Error`]: transient faults map to
    /// [`io::ErrorKind::Interrupted`] (retryable), permanent ones to
    /// [`io::ErrorKind::Other`].
    pub fn into_io(self) -> io::Error {
        let kind = match self.kind {
            FaultKind::Transient => io::ErrorKind::Interrupted,
            FaultKind::Permanent => io::ErrorKind::Other,
        };
        io::Error::new(
            kind,
            format!("injected {} fault at {}", kind_name(self.kind), self.point),
        )
    }
}

fn kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Transient => "transient",
        FaultKind::Permanent => "permanent",
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} fault at {}",
            kind_name(self.kind),
            self.point
        )
    }
}

/// Per-spec runtime state: the spec plus how often its point has fired it.
struct SpecState {
    spec: FaultSpec,
    injected: AtomicU64,
}

/// Shared trigger state for one installed plan.
struct PlanState {
    seed: u64,
    specs: Vec<SpecState>,
    /// Hit counts per fault point, indexed by `FaultPoint as usize` order
    /// in [`FaultPoint::ALL`].
    hits: [AtomicU64; FaultPoint::ALL.len()],
}

fn point_index(point: FaultPoint) -> usize {
    FaultPoint::ALL
        .iter()
        .position(|p| *p == point)
        .expect("FaultPoint::ALL covers every variant")
}

impl PlanState {
    fn check(&self, point: FaultPoint) -> Result<(), Fault> {
        let hit = self.hits[point_index(point)].fetch_add(1, Ordering::Relaxed) + 1;
        for s in &self.specs {
            if s.spec.point == point && s.spec.trigger.fires(self.seed, point, hit) {
                s.injected.fetch_add(1, Ordering::Relaxed);
                cpdg_obs::counter!("chaos.injected").inc();
                cpdg_obs::debug!(
                    "core.chaos",
                    "fault injected";
                    point = point.name(),
                    kind = kind_name(s.spec.kind),
                    hit = hit,
                );
                return Err(Fault {
                    point,
                    kind: s.spec.kind,
                    persist: s.spec.persist,
                });
            }
        }
        Ok(())
    }
}

/// The handle production code consults at each fault point. Cloning is
/// cheap (an `Option<Arc>`), and all clones share trigger state, so hit
/// counts advance globally no matter which component consults.
///
/// With no plan installed ([`FaultHook::none`], the `Default`),
/// [`FaultHook::check`] is one `Option` discriminant test — effectively
/// free on hot paths.
#[derive(Clone, Default)]
pub struct FaultHook(Option<Arc<PlanState>>);

impl FaultHook {
    /// The inert hook: every check passes, nothing is counted.
    pub const fn none() -> Self {
        Self(None)
    }

    /// Installs `plan`, returning a hook that injects its faults.
    pub fn install(plan: &FaultPlan) -> Self {
        Self(Some(Arc::new(PlanState {
            seed: plan.seed,
            specs: plan
                .faults
                .iter()
                .map(|&spec| SpecState {
                    spec,
                    injected: AtomicU64::new(0),
                })
                .collect(),
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
        })))
    }

    /// Whether a plan is installed.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Registers one hit of `point` and raises a fault if a rule fires.
    #[inline]
    pub fn check(&self, point: FaultPoint) -> Result<(), Fault> {
        match &self.0 {
            None => Ok(()),
            Some(state) => state.check(point),
        }
    }

    /// Total hits registered at `point` (0 when no plan is installed).
    pub fn hits(&self, point: FaultPoint) -> u64 {
        self.0
            .as_ref()
            .map(|s| s.hits[point_index(point)].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total faults injected across all rules (0 when no plan installed).
    pub fn injected(&self) -> u64 {
        self.0
            .as_ref()
            .map(|s| {
                s.specs
                    .iter()
                    .map(|x| x.injected.load(Ordering::Relaxed))
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Faults injected at `point` across all rules targeting it.
    pub fn injected_at(&self, point: FaultPoint) -> u64 {
        self.0
            .as_ref()
            .map(|s| {
                s.specs
                    .iter()
                    .filter(|x| x.spec.point == point)
                    .map(|x| x.injected.load(Ordering::Relaxed))
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("FaultHook(none)"),
            Some(s) => write!(f, "FaultHook({} rules, seed {})", s.specs.len(), s.seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::fault::Trigger;
    use crate::storage::Storage;

    #[test]
    fn inert_hook_always_passes() {
        let hook = FaultHook::none();
        for p in FaultPoint::ALL {
            assert!(hook.check(p).is_ok());
        }
        assert!(!hook.is_active());
        assert_eq!(hook.injected(), 0);
        assert_eq!(hook.hits(FaultPoint::CkptSave), 0);
    }

    #[test]
    fn nth_trigger_fires_once_and_counts() {
        let plan = FaultPlan::new(0).with(
            FaultPoint::CkptSave,
            FaultKind::Permanent,
            Trigger::Nth { n: 2 },
        );
        let hook = FaultHook::install(&plan);
        assert!(hook.check(FaultPoint::CkptSave).is_ok());
        let fault = hook.check(FaultPoint::CkptSave).unwrap_err();
        assert_eq!(fault.point, FaultPoint::CkptSave);
        assert!(!fault.is_transient());
        assert!(hook.check(FaultPoint::CkptSave).is_ok());
        assert_eq!(hook.hits(FaultPoint::CkptSave), 3);
        assert_eq!(hook.injected(), 1);
        assert_eq!(hook.injected_at(FaultPoint::CkptSave), 1);
        assert_eq!(hook.injected_at(FaultPoint::CkptLoad), 0);
    }

    #[test]
    fn clones_share_trigger_state() {
        let plan = FaultPlan::new(0).with(
            FaultPoint::MemoryUpdate,
            FaultKind::Transient,
            Trigger::Nth { n: 2 },
        );
        let a = FaultHook::install(&plan);
        let b = a.clone();
        assert!(a.check(FaultPoint::MemoryUpdate).is_ok());
        // The clone sees hit 2 — counts are global to the plan.
        assert!(b.check(FaultPoint::MemoryUpdate).is_err());
        assert_eq!(a.injected(), 1);
    }

    #[test]
    fn transient_fault_maps_to_interrupted_io_error() {
        let t = Fault {
            point: FaultPoint::StorageWrite,
            kind: FaultKind::Transient,
            persist: None,
        }
        .into_io();
        assert_eq!(t.kind(), io::ErrorKind::Interrupted);
        assert!(t.to_string().contains("storage.write"), "{t}");
        let p = Fault {
            point: FaultPoint::StorageRead,
            kind: FaultKind::Permanent,
            persist: None,
        }
        .into_io();
        assert_ne!(p.kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn chaos_storage_injects_on_write_and_read() {
        let dir = std::env::temp_dir().join(format!("cpdg_chaos_storage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.bin");
        let plan = FaultPlan::new(0)
            .with(
                FaultPoint::StorageWrite,
                FaultKind::Transient,
                Trigger::Nth { n: 1 },
            )
            .with(
                FaultPoint::StorageRead,
                FaultKind::Permanent,
                Trigger::Nth { n: 2 },
            );
        let storage = Storage::new(FaultHook::install(&plan));
        // First write faults; the atomic protocol cleans up after itself.
        let err = storage.write_atomic(&path, b"payload").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert!(!path.exists());
        // Second write passes; first read passes; second read faults.
        storage.write_atomic(&path, b"payload").unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"payload");
        assert!(storage.read(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
