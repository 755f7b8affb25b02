//! Fault plans: where and when to inject which kind of fault.

use cpdg_obs::Json;
use std::fmt;
use std::str::FromStr;

/// The named places in the pipeline where faults can be injected. Each
/// point corresponds to one consult of the [`FaultHook`](super::FaultHook)
/// in production code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// A raw byte write through [`Storage`](crate::storage::Storage)
    /// (including the temp-file leg of atomic publishes). A spec with
    /// `persist: n` tears the write: it lands the first `n` bytes, then
    /// fails.
    StorageWrite,
    /// A raw byte read through [`Storage`](crate::storage::Storage).
    StorageRead,
    /// One data row of JODIE CSV ingestion (a fired fault corrupts the
    /// row stream with a malformed line; see [`super::ingest`]).
    LoaderRow,
    /// One contrast-subgraph sampling batch inside the pre-training loop.
    SamplerBatch,
    /// One healthy pre-training step, after the guard's verdict and
    /// before its optimiser and memory writes.
    MemoryUpdate,
    /// One checkpoint publish (the whole atomic save, pointer included).
    CkptSave,
    /// One checkpoint candidate read during resume.
    CkptLoad,
    /// Admission of one request into the serving queue (a fired fault
    /// sheds the request with a typed `Overloaded` rejection).
    ServeAccept,
    /// One full-path inference attempt inside the serving engine (a fired
    /// fault counts as an inference failure toward the circuit breaker).
    ServeInfer,
    /// One hot model reload attempt (a fired fault aborts the swap and
    /// keeps the previous model epoch live).
    ServeReload,
    /// One write-ahead-log record append (before the frame bytes hit the
    /// segment file; a fired fault rejects the event, leaving it in
    /// neither memory nor the log).
    WalAppend,
    /// One WAL fsync per the configured policy (a fired fault rolls the
    /// segment back to its pre-append length — exactly-once semantics).
    WalFsync,
    /// One WAL segment rotation, run by the append that finds the tail
    /// full before any of its frame bytes are written (a fired fault
    /// rejects that event and keeps the full tail open, unsealed).
    WalRotate,
    /// One WAL record visited during startup replay (a fired permanent
    /// fault aborts recovery with a typed error).
    WalReplay,
    /// One job drained by a serving worker thread (a fired fault panics
    /// the worker, exercising the supervisor restart path).
    ServeWorker,
    /// One batch step of the continual trainer (a fired
    /// fault aborts the training cycle; the supervisor backs off and
    /// retries, and the serving epoch is untouched).
    TrainerStep,
    /// One candidate-epoch publish by the continual trainer (a fired
    /// fault quarantines the candidate before any bytes are written).
    TrainerEmit,
    /// One promotion attempt of a validated candidate epoch into the
    /// serving engine (a fired fault quarantines the candidate and keeps
    /// the last-good epoch live).
    TrainerPromote,
    /// One artifact read by the integrity scrubber (a fired fault fails
    /// that artifact's scan; the scrub cycle continues with the next
    /// artifact and the supervisor retries on its cadence).
    ScrubRead,
    /// One repair attempt — rewriting a corrupt copy from a verified
    /// replica (a fired fault leaves the bad copy in place; the next
    /// scrub cycle or copy-set read retries the repair).
    ScrubRepair,
    /// One replicated sealed-artifact read (a fired fault flips one
    /// deterministically-chosen byte of the bytes just read, simulating
    /// bit rot on any artifact class — the seeded corruption half of the
    /// scrub oracle).
    IntegrityBitflip,
}

impl FaultPoint {
    /// Every fault point, in catalogue order.
    pub const ALL: [FaultPoint; 21] = [
        FaultPoint::StorageWrite,
        FaultPoint::StorageRead,
        FaultPoint::LoaderRow,
        FaultPoint::SamplerBatch,
        FaultPoint::MemoryUpdate,
        FaultPoint::CkptSave,
        FaultPoint::CkptLoad,
        FaultPoint::ServeAccept,
        FaultPoint::ServeInfer,
        FaultPoint::ServeReload,
        FaultPoint::WalAppend,
        FaultPoint::WalFsync,
        FaultPoint::WalRotate,
        FaultPoint::WalReplay,
        FaultPoint::ServeWorker,
        FaultPoint::TrainerStep,
        FaultPoint::TrainerEmit,
        FaultPoint::TrainerPromote,
        FaultPoint::ScrubRead,
        FaultPoint::ScrubRepair,
        FaultPoint::IntegrityBitflip,
    ];

    /// The dotted wire name (`storage.write`, `ckpt.save`, …) used in plan
    /// files, log fields, and error messages.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::StorageWrite => "storage.write",
            FaultPoint::StorageRead => "storage.read",
            FaultPoint::LoaderRow => "loader.row",
            FaultPoint::SamplerBatch => "sampler.batch",
            FaultPoint::MemoryUpdate => "memory.update",
            FaultPoint::CkptSave => "ckpt.save",
            FaultPoint::CkptLoad => "ckpt.load",
            FaultPoint::ServeAccept => "serve.accept",
            FaultPoint::ServeInfer => "serve.infer",
            FaultPoint::ServeReload => "serve.reload",
            FaultPoint::WalAppend => "wal.append",
            FaultPoint::WalFsync => "wal.fsync",
            FaultPoint::WalRotate => "wal.rotate",
            FaultPoint::WalReplay => "wal.replay",
            FaultPoint::ServeWorker => "serve.worker",
            FaultPoint::TrainerStep => "trainer.step",
            FaultPoint::TrainerEmit => "trainer.emit",
            FaultPoint::TrainerPromote => "trainer.promote",
            FaultPoint::ScrubRead => "scrub.read",
            FaultPoint::ScrubRepair => "scrub.repair",
            FaultPoint::IntegrityBitflip => "integrity.bitflip",
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultPoint {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultPoint::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown fault point {s:?}"))
    }
}

/// Whether an injected fault is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Goes away on retry (flaky disk, transient EINTR). Retried by
    /// [`RetryPolicy`](super::RetryPolicy) up to its attempt budget.
    Transient,
    /// Sticks: retrying is pointless (dead disk, killed process). Surfaces
    /// immediately as an error — the crash half of crash/resume drills.
    Permanent,
}

/// When a fault fires, counted in *hits* of its fault point (retries hit
/// the point again, so a transient `Nth` fault clears itself on retry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fires exactly once, on the `n`-th hit (1-based).
    Nth {
        /// 1-based hit index that fires.
        n: u64,
    },
    /// Fires on every `k`-th hit (hit `k`, `2k`, `3k`, …).
    Every {
        /// Period in hits (≥ 1; 0 is treated as 1).
        k: u64,
    },
    /// Fires with probability `p` per hit, decided by a deterministic
    /// seeded hash of `(plan seed, point, hit index)` — never OS entropy.
    Prob {
        /// Fire probability in `[0, 1]`.
        p: f64,
    },
}

impl Trigger {
    /// Whether the trigger fires on 1-based hit `hit` of `point` under
    /// `seed`. Pure: same inputs, same answer, on every thread and host.
    pub fn fires(self, seed: u64, point: FaultPoint, hit: u64) -> bool {
        match self {
            Trigger::Nth { n } => hit == n.max(1),
            Trigger::Every { k } => hit.is_multiple_of(k.max(1)),
            Trigger::Prob { p } => {
                if p <= 0.0 {
                    return false;
                }
                if p >= 1.0 {
                    return true;
                }
                let mixed = splitmix64(
                    seed ^ (point as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ hit.wrapping_mul(0xBF58_476D_1CE4_E5B9),
                );
                // Map the hash to [0, 1) and compare against p.
                (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
            }
        }
    }
}

/// SplitMix64 finaliser — the standard avalanche mix used for the seeded
/// probability trigger.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One injection rule: raise a `kind` fault at `point` whenever `trigger`
/// fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Where to inject.
    pub point: FaultPoint,
    /// Transient or permanent.
    pub kind: FaultKind,
    /// When to fire, in hits of `point`.
    pub trigger: Trigger,
    /// `storage.write` only: a fired fault first persists this many
    /// leading bytes (a torn write), then fails.
    pub persist: Option<usize>,
}

/// A complete, seedable fault schedule. Written to and read from JSON for
/// `--chaos-plan` files (`seed` and `faults` may be left out):
///
/// ```json
/// {
///   "seed": 7,
///   "faults": [
///     {"point": "storage.write", "kind": "transient", "trigger": {"when": "every", "k": 3}},
///     {"point": "ckpt.save", "kind": "permanent", "trigger": {"when": "nth", "n": 2}},
///     {"point": "storage.write", "kind": "permanent", "trigger": {"when": "nth", "n": 5}, "persist": 16}
///   ]
/// }
/// ```
///
/// `persist` (allowed on `storage.write` only) tears the write: the first
/// `persist` bytes land before the fault is raised, as when a process
/// dies mid-write.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the probability triggers (irrelevant to `nth`/`every`).
    pub seed: u64,
    /// The injection rules, consulted in order (first firing rule wins).
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan under `seed` — extend with [`FaultPlan::with`].
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds one injection rule (builder style).
    pub fn with(mut self, point: FaultPoint, kind: FaultKind, trigger: Trigger) -> Self {
        self.faults.push(FaultSpec {
            point,
            kind,
            trigger,
            persist: None,
        });
        self
    }

    /// Adds a torn-write rule: a fired `storage.write` fault persists the
    /// first `persist` bytes, then fails (builder style).
    pub fn with_torn_write(mut self, kind: FaultKind, trigger: Trigger, persist: usize) -> Self {
        self.faults.push(FaultSpec {
            point: FaultPoint::StorageWrite,
            kind,
            trigger,
            persist: Some(persist),
        });
        self
    }

    /// Parses a plan from its JSON representation.
    pub fn from_json(s: &str) -> Result<Self, String> {
        Json::parse(s)
            .and_then(|doc| plan_from_json(&doc))
            .map_err(|e| format!("invalid chaos plan: {e}"))
    }

    /// Renders the plan as JSON (the `--chaos-plan` file format).
    pub fn to_json(&self) -> String {
        let spec = |f: &FaultSpec| {
            let (when, key, arg) = match f.trigger {
                Trigger::Nth { n } => ("nth", "n", n.into()),
                Trigger::Every { k } => ("every", "k", k.into()),
                Trigger::Prob { p } => ("prob", "p", p.into()),
            };
            let kind = match f.kind {
                FaultKind::Transient => "transient",
                FaultKind::Permanent => "permanent",
            };
            let trigger = Json::obj(vec![("when", when.into()), (key, arg)]);
            let mut fields = vec![
                ("point", f.point.name().into()),
                ("kind", kind.into()),
                ("trigger", trigger),
            ];
            if let Some(n) = f.persist {
                fields.push(("persist", n.into()));
            }
            Json::obj(fields)
        };
        let faults = Json::Arr(self.faults.iter().map(spec).collect());
        Json::obj(vec![("seed", self.seed.into()), ("faults", faults)]).pretty()
    }
}

fn plan_from_json(doc: &Json) -> Result<FaultPlan, String> {
    let seed = match doc.get("seed") {
        None => 0,
        Some(v) => v.as_u64().ok_or("seed must be a non-negative integer")?,
    };
    let faults = match doc.get("faults") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or("faults must be an array")?
            .iter()
            .map(spec_from_json)
            .collect::<Result<_, _>>()?,
    };
    Ok(FaultPlan { seed, faults })
}

fn spec_from_json(fault: &Json) -> Result<FaultSpec, String> {
    let text = |key: &str| {
        fault
            .get(key)
            .and_then(Json::as_str)
            .ok_or(format!("a fault needs a string {key:?}"))
    };
    let kind = match text("kind")? {
        "transient" => FaultKind::Transient,
        "permanent" => FaultKind::Permanent,
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    let trigger = fault.get("trigger").ok_or("a fault needs a \"trigger\"")?;
    let arg = |key: &str| trigger.get(key).ok_or(format!("the trigger needs {key:?}"));
    let count = |key: &str| {
        arg(key)?
            .as_u64()
            .ok_or(format!("trigger {key:?} must be a non-negative integer"))
    };
    let trigger = match trigger.get("when").and_then(Json::as_str) {
        Some("nth") => Trigger::Nth { n: count("n")? },
        Some("every") => Trigger::Every { k: count("k")? },
        Some("prob") => Trigger::Prob {
            p: arg("p")?.as_f64().ok_or("trigger \"p\" must be a number")?,
        },
        _ => return Err("trigger \"when\" must be \"nth\", \"every\" or \"prob\"".to_string()),
    };
    let point: FaultPoint = text("point")?.parse()?;
    let persist = match fault.get("persist").map(Json::as_u64) {
        None => None,
        Some(Some(n)) if point == FaultPoint::StorageWrite => Some(n as usize),
        Some(Some(_)) => {
            return Err(format!(
                "\"persist\" applies to storage.write only, not {point}"
            ))
        }
        Some(None) => return Err("\"persist\" must be a non-negative integer".to_string()),
    };
    Ok(FaultSpec {
        point,
        kind,
        trigger,
        persist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_names_round_trip() {
        for p in FaultPoint::ALL {
            assert_eq!(p.name().parse::<FaultPoint>().unwrap(), p);
        }
        assert!("disk.melt".parse::<FaultPoint>().is_err());
    }

    #[test]
    fn nth_fires_exactly_once() {
        let t = Trigger::Nth { n: 3 };
        let fired: Vec<u64> = (1..=10)
            .filter(|&h| t.fires(0, FaultPoint::CkptSave, h))
            .collect();
        assert_eq!(fired, vec![3]);
    }

    #[test]
    fn every_k_is_periodic() {
        let t = Trigger::Every { k: 4 };
        let fired: Vec<u64> = (1..=12)
            .filter(|&h| t.fires(0, FaultPoint::StorageWrite, h))
            .collect();
        assert_eq!(fired, vec![4, 8, 12]);
        // k = 0 degrades to every hit, not a division panic.
        assert!(Trigger::Every { k: 0 }.fires(0, FaultPoint::StorageWrite, 1));
    }

    #[test]
    fn prob_is_deterministic_and_seed_sensitive() {
        let t = Trigger::Prob { p: 0.5 };
        let a: Vec<bool> = (1..=64)
            .map(|h| t.fires(1, FaultPoint::LoaderRow, h))
            .collect();
        let b: Vec<bool> = (1..=64)
            .map(|h| t.fires(1, FaultPoint::LoaderRow, h))
            .collect();
        assert_eq!(a, b, "same seed must give the same schedule");
        let c: Vec<bool> = (1..=64)
            .map(|h| t.fires(2, FaultPoint::LoaderRow, h))
            .collect();
        assert_ne!(a, c, "different seeds must differ");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            (10..=54).contains(&fired),
            "p=0.5 over 64 hits fired {fired} times"
        );
        // Degenerate probabilities are exact.
        assert!(!Trigger::Prob { p: 0.0 }.fires(0, FaultPoint::LoaderRow, 1));
        assert!(Trigger::Prob { p: 1.0 }.fires(0, FaultPoint::LoaderRow, 1));
    }

    #[test]
    fn plan_json_round_trips() {
        let plan = FaultPlan::new(7)
            .with(
                FaultPoint::StorageWrite,
                FaultKind::Transient,
                Trigger::Every { k: 3 },
            )
            .with(
                FaultPoint::CkptSave,
                FaultKind::Permanent,
                Trigger::Nth { n: 2 },
            )
            .with(
                FaultPoint::LoaderRow,
                FaultKind::Transient,
                Trigger::Prob { p: 0.25 },
            )
            .with_torn_write(FaultKind::Permanent, Trigger::Nth { n: 5 }, 16);
        let json = plan.to_json();
        assert!(json.contains("\"storage.write\""), "{json}");
        assert!(json.contains("\"persist\": 16"), "{json}");
        assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
    }

    #[test]
    fn plan_json_rejects_unknown_points() {
        let err = FaultPlan::from_json(
            r#"{"seed":0,"faults":[{"point":"gpu.melt","kind":"transient","trigger":{"when":"nth","n":1}}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("invalid chaos plan"), "{err}");
        assert!(err.contains("gpu.melt"), "{err}");
        // Malformed plans are refused with the reason, not defaulted.
        let fault = |body: &str| format!(r#"{{"faults":[{{"point":"ckpt.save",{body}}}]}}"#);
        for (plan, reason) in [
            (
                fault(r#""kind":"sticky","trigger":{"when":"nth","n":1}"#),
                "fault kind",
            ),
            (
                fault(r#""kind":"transient","trigger":{"when":"often"}"#),
                "when",
            ),
            (
                fault(r#""kind":"transient","trigger":{"when":"nth","n":-1}"#),
                "\"n\"",
            ),
            (
                fault(r#""kind":"transient","trigger":{"when":"prob"}"#),
                "\"p\"",
            ),
            (fault(r#""kind":"transient""#), "trigger"),
            (
                fault(r#""kind":"permanent","trigger":{"when":"nth","n":1},"persist":16"#),
                "storage.write only",
            ),
            (r#"{"seed":"7"}"#.to_string(), "seed"),
            (r#"{"faults":{}}"#.to_string(), "array"),
            (r#"{"seed":7} {}"#.to_string(), "trailing"),
        ] {
            let err = FaultPlan::from_json(&plan).unwrap_err();
            assert!(err.contains(reason), "{plan}: {err}");
        }
    }

    #[test]
    fn empty_plan_parses_from_minimal_json() {
        let plan = FaultPlan::from_json("{}").unwrap();
        assert!(plan.faults.is_empty());
        assert_eq!(plan.seed, 0);
    }
}
