//! Bounded-retry policy for I/O against possibly-flaky storage.
//!
//! Out-of-core counting turns every shard into a sequence of positioned
//! reads, and on network filesystems or under memory pressure a read can
//! fail *transiently* (`Interrupted`, `WouldBlock`, `TimedOut`) without
//! the file being damaged. [`SegmentedGraph`](crate::bfly_format::SegmentedGraph)
//! routes every positioned payload read through [`with_retries`] under
//! the default [`RetryPolicy`]: transient error kinds
//! ([`is_transient_io_error`]) are retried a bounded number of times with
//! decorrelated-jitter backoff, and every retried attempt and give-up is
//! counted in a shared [`RetryStats`] so the telemetry layer can surface
//! `io_retries` / `io_giveups` per run.
//!
//! Determinism: the backoff jitter comes from a fixed xorshift sequence
//! seeded by the previous delay and attempt number, not from a clock or
//! OS entropy, so a test that injects `N` transient faults observes an
//! exactly reproducible retry schedule.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Is this `io::ErrorKind` worth retrying?
///
/// Transient kinds describe a read that may succeed if simply reissued:
/// `Interrupted` (signal delivery mid-syscall), `WouldBlock`
/// (non-blocking descriptor or overloaded network mount), and `TimedOut`
/// (remote storage hiccup). Everything else — `NotFound`,
/// `UnexpectedEof` (truncation), `PermissionDenied`, checksum-level
/// format errors — is permanent: retrying cannot help and would only
/// delay the typed failure.
#[inline]
pub fn is_transient_io_error(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Bounded-retry configuration with decorrelated-jitter backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (`1` = never retry).
    pub max_attempts: u32,
    /// First backoff sleep, microseconds (`0` = no sleeping, still
    /// bounded retries — what the in-process tests use).
    pub base_delay_us: u64,
    /// Backoff ceiling, microseconds.
    pub max_delay_us: u64,
}

impl Default for RetryPolicy {
    /// 4 attempts, 100 µs first backoff, 20 ms ceiling: generous enough
    /// to ride out signal storms, cheap enough that exhaustion surfaces
    /// within ~60 ms.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_us: 100,
            max_delay_us: 20_000,
        }
    }
}

impl RetryPolicy {
    /// Next backoff delay after sleeping `prev_us`, attempt number
    /// `attempt` — decorrelated jitter (`min(cap, uniform[base, 3·prev])`)
    /// from a deterministic xorshift stream, so schedules reproduce.
    pub fn next_delay_us(&self, prev_us: u64, attempt: u32) -> u64 {
        if self.base_delay_us == 0 {
            return 0;
        }
        let lo = self.base_delay_us;
        let hi = (prev_us.max(lo)).saturating_mul(3).max(lo + 1);
        let r = xorshift64star(prev_us ^ ((attempt as u64) << 32) ^ 0x9e37_79b9_7f4a_7c15);
        (lo + r % (hi - lo)).min(self.max_delay_us.max(lo))
    }
}

#[inline]
fn xorshift64star(seed: u64) -> u64 {
    let mut x = seed | 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Shared counters for retried attempts and give-ups.
///
/// Lives behind an `Arc` so `&self` read paths (positioned reads hold no
/// recorder) can count; the engine snapshots before/after a run and
/// raises the `io_retries` / `io_giveups` telemetry counters by the
/// delta.
#[derive(Debug, Default)]
pub struct RetryStats {
    retries: AtomicU64,
    giveups: AtomicU64,
}

impl RetryStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts that failed transiently and were retried.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Operations abandoned after exhausting the retry budget.
    pub fn giveups(&self) -> u64 {
        self.giveups.load(Ordering::Relaxed)
    }
}

/// Run `op`, retrying transient failures per `policy`, counting into
/// `stats`.
///
/// On exhaustion the final transient error is rewrapped with the attempt
/// count in the message (same `ErrorKind`), so the typed `Io` error the
/// caller surfaces — and the `--json-errors` payload downstream — names
/// how hard we tried. Permanent errors pass through untouched on the
/// first failure.
pub fn with_retries<T>(
    policy: &RetryPolicy,
    stats: &RetryStats,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let budget = policy.max_attempts.max(1);
    let mut delay_us = policy.base_delay_us;
    let mut attempt = 1u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient_io_error(e.kind()) && attempt < budget => {
                stats.retries.fetch_add(1, Ordering::Relaxed);
                if delay_us > 0 {
                    std::thread::sleep(Duration::from_micros(delay_us));
                }
                delay_us = policy.next_delay_us(delay_us, attempt);
                attempt += 1;
            }
            Err(e) if is_transient_io_error(e.kind()) => {
                stats.giveups.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::new(
                    e.kind(),
                    format!("giving up after {attempt} attempts: {e}"),
                ));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay_us: 0,
            max_delay_us: 0,
        }
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient_io_error(io::ErrorKind::Interrupted));
        assert!(is_transient_io_error(io::ErrorKind::WouldBlock));
        assert!(is_transient_io_error(io::ErrorKind::TimedOut));
        assert!(!is_transient_io_error(io::ErrorKind::UnexpectedEof));
        assert!(!is_transient_io_error(io::ErrorKind::NotFound));
        assert!(!is_transient_io_error(io::ErrorKind::PermissionDenied));
    }

    #[test]
    fn retries_then_succeeds_and_counts() {
        let stats = RetryStats::new();
        let mut left = 3u32;
        let out = with_retries(&quick(), &stats, || {
            if left > 0 {
                left -= 1;
                Err(io::Error::new(io::ErrorKind::WouldBlock, "busy"))
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(stats.retries(), 3);
        assert_eq!(stats.giveups(), 0);
    }

    #[test]
    fn exhaustion_names_the_attempt_count() {
        let stats = RetryStats::new();
        let out: io::Result<()> = with_retries(&quick(), &stats, || {
            Err(io::Error::new(io::ErrorKind::Interrupted, "always"))
        });
        let e = out.unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert!(
            e.to_string().contains("after 4 attempts"),
            "message was: {e}"
        );
        assert_eq!(stats.retries(), 3, "3 retried attempts before give-up");
        assert_eq!(stats.giveups(), 1);
    }

    #[test]
    fn permanent_errors_pass_through_immediately() {
        let stats = RetryStats::new();
        let mut calls = 0u32;
        let out: io::Result<()> = with_retries(&quick(), &stats, || {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn"))
        });
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(calls, 1, "permanent errors must not be retried");
        assert_eq!(stats.retries(), 0);
        assert_eq!(stats.giveups(), 0);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        let a = p.next_delay_us(p.base_delay_us, 1);
        let b = p.next_delay_us(p.base_delay_us, 1);
        assert_eq!(a, b, "same inputs, same jitter");
        let mut d = p.base_delay_us;
        for attempt in 1..20 {
            d = p.next_delay_us(d, attempt);
            assert!(d >= p.base_delay_us);
            assert!(d <= p.max_delay_us);
        }
    }
}
