//! Bounded retries with deterministic exponential backoff.
//!
//! All storage and checkpoint I/O in the pipeline runs through a
//! [`RetryPolicy`], so a transient fault — injected by the chaos harness
//! or raised by a genuinely flaky disk — is absorbed instead of killing a
//! multi-hour run. Only *transient* error kinds are retried; permanent
//! failures surface immediately so crash/resume machinery (not retry
//! loops) handles them.
//!
//! Observability: every re-attempt bumps the `retry.attempts` counter, and
//! exhausting the budget bumps `retry.gave_up` and logs exactly one error
//! record on the `core.retry` target naming the fault point that gave up.

use std::io;
use std::time::Duration;

/// Bounded retry with deterministic exponential backoff.
///
/// The backoff schedule is a pure function of the attempt index
/// (`base_delay_ms << (attempt - 1)`, capped at `max_delay_ms`) — no
/// jitter, no wall clock — so chaos runs replay identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first try included (≥ 1; 0 behaves as 1).
    pub max_attempts: u32,
    /// Delay before the first re-attempt, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    /// Four attempts with 5 ms → 10 ms → 20 ms backoff, capped at 500 ms.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay_ms: 5,
            max_delay_ms: 500,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, no delay.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    /// Whether `err` is worth retrying. Transient kinds are the ones the
    /// chaos harness raises for [`FaultKind::Transient`](super::FaultKind)
    /// plus the classic flaky-syscall kinds.
    pub fn is_transient(err: &io::Error) -> bool {
        matches!(
            err.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }

    /// The deterministic delay before re-attempt number `attempt`
    /// (1-based: the delay after the first failure is `backoff_delay(1)`).
    ///
    /// The exponential shift is clamped to 63 so `1u64 << shift` stays
    /// defined for any attempt count (a shift of ≥ 64 is undefined
    /// behaviour on u64), and the multiply saturates before the
    /// `max_delay_ms` cap is applied — `attempt = u32::MAX` is as safe as
    /// `attempt = 2`.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(63);
        let ms = self
            .base_delay_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_delay_ms);
        Duration::from_millis(ms)
    }

    /// Runs `op` up to `max_attempts` times, backing off between transient
    /// failures. `what` names the operation (a fault-point name like
    /// `ckpt.save`) for the give-up error record.
    ///
    /// Non-transient errors return immediately without retrying or
    /// logging — they are the caller's to classify and report.
    pub fn run<T>(&self, what: &str, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let budget = self.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if !Self::is_transient(&e) => return Err(e),
                Err(e) if attempt >= budget => {
                    cpdg_obs::counter!("retry.gave_up").inc();
                    cpdg_obs::error!(
                        "core.retry",
                        "transient failures exhausted retry budget";
                        point = what,
                        attempts = budget,
                        error = e.to_string(),
                    );
                    return Err(e);
                }
                Err(e) => {
                    cpdg_obs::counter!("retry.attempts").inc();
                    cpdg_obs::debug!(
                        "core.retry",
                        "transient failure, retrying";
                        point = what,
                        attempt = attempt,
                        error = e.to_string(),
                    );
                    let delay = self.backoff_delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
            }
        }
    }
}

/// Held by every unit test that exhausts a retry budget, so a test
/// counting the process-global `retry.gave_up` sees only its own give-up.
#[cfg(test)]
pub(crate) fn budget_exhaustion_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient() -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, "flaky")
    }

    fn permanent() -> io::Error {
        io::Error::other("dead")
    }

    fn fast(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 5,
            max_delay_ms: 35,
        };
        assert_eq!(p.backoff_delay(1), Duration::from_millis(5));
        assert_eq!(p.backoff_delay(2), Duration::from_millis(10));
        assert_eq!(p.backoff_delay(3), Duration::from_millis(20));
        assert_eq!(p.backoff_delay(4), Duration::from_millis(35));
        assert_eq!(
            p.backoff_delay(60),
            Duration::from_millis(35),
            "huge attempts stay capped"
        );
    }

    #[test]
    fn backoff_shift_boundary_cannot_overflow() {
        // Attempts at and beyond the 64-bit shift boundary: with the shift
        // clamped to 63 and a saturating multiply, every attempt count maps
        // to the configured ceiling instead of overflowing (attempt 64
        // would otherwise shift by 64 — undefined on u64 — and attempt 65+
        // would wrap to tiny delays).
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay_ms: 5,
            max_delay_ms: 500,
        };
        for attempt in [63, 64, 65, 1_000, u32::MAX] {
            assert_eq!(
                p.backoff_delay(attempt),
                Duration::from_millis(500),
                "attempt {attempt} must hit the cap, not overflow"
            );
        }
        // Even a degenerate policy with no ceiling saturates instead of
        // wrapping: the delay is monotone non-decreasing in the attempt.
        let unbounded = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay_ms: 3,
            max_delay_ms: u64::MAX,
        };
        let mut last = Duration::ZERO;
        for attempt in [1, 2, 62, 63, 64, 65, u32::MAX] {
            let d = unbounded.backoff_delay(attempt);
            assert!(
                d >= last,
                "backoff regressed at attempt {attempt}: {d:?} < {last:?}"
            );
            last = d;
        }
    }

    #[test]
    fn transient_failures_clear_within_budget() {
        let mut calls = 0;
        let out = fast(4).run("test.retry.clears", || {
            calls += 1;
            if calls < 3 {
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls, 3);
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let mut calls = 0;
        let out: io::Result<()> = fast(4).run("test.retry.permanent", || {
            calls += 1;
            Err(permanent())
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "permanent errors must surface immediately");
    }

    #[test]
    fn none_policy_is_single_attempt() {
        let _exhausts = budget_exhaustion_lock();
        let mut calls = 0;
        let out: io::Result<()> = RetryPolicy::none().run("test.retry.none", || {
            calls += 1;
            Err(transient())
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn gave_up_logs_exactly_one_error_naming_the_point() {
        let _exhausts = budget_exhaustion_lock();
        let cap = cpdg_obs::capture();
        let before = cpdg_obs::counter!("retry.gave_up").get();
        let out: io::Result<()> = fast(3).run("test.retry.gaveup", || Err(transient()));
        assert!(out.is_err());
        assert_eq!(cpdg_obs::counter!("retry.gave_up").get(), before + 1);
        // Exactly one error record for this give-up, carrying the point
        // name — concurrent tests are filtered out by the unique field.
        let errors: Vec<_> = cap
            .records_for("core.retry")
            .into_iter()
            .filter(|r| {
                r.level == cpdg_obs::Level::Error
                    && matches!(r.field("point"), Some(cpdg_obs::Json::Str(p))
                        if p == "test.retry.gaveup")
            })
            .collect();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].field("attempts"), Some(&cpdg_obs::Json::U64(3)));
    }

    #[test]
    fn attempts_counter_advances_per_retry() {
        let before = cpdg_obs::counter!("retry.attempts").get();
        let mut calls = 0;
        let _ = fast(4).run("test.retry.counter", || {
            calls += 1;
            if calls < 4 {
                Err(transient())
            } else {
                Ok(())
            }
        });
        // 3 re-attempts were made; other tests may add more in parallel.
        assert!(cpdg_obs::counter!("retry.attempts").get() >= before + 3);
    }
}
