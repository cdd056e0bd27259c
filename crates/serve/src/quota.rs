//! Per-tenant resource governance: live-query ceilings and an events/sec
//! token bucket.
//!
//! The bucket never blocks anything — callers ask [`TokenBucket::take`]
//! and *shed* (drop + count) on refusal, so a tenant over its rate can slow
//! only itself, never the pump loop. Time is injected through [`Clock`]:
//! the server runs on [`MonotonicClock`]; tests drive [`ManualClock`] so
//! refill behavior is exact instead of sleep-and-hope.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Nanosecond time source for quota accounting.
pub trait Clock: Send + Sync {
    /// Monotonic nanoseconds since an arbitrary origin.
    fn now_ns(&self) -> u64;
}

/// Wall-clock [`Clock`] over [`Instant`].
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A hand-cranked [`Clock`] for deterministic tests.
#[derive(Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Arc<ManualClock> {
        Arc::new(ManualClock::default())
    }

    /// Advance time by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::SeqCst);
    }

    /// Advance time by whole milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.advance_ns(ms * 1_000_000);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }
}

/// A tenant's resource limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Live (registered, not deregistered) queries the tenant may hold.
    pub max_live_queries: usize,
    /// Sustained ingest rate in events/sec; `0` means unlimited.
    pub events_per_sec: u64,
    /// Bucket capacity in events; `0` defaults to one second's worth of
    /// rate (minimum 1).
    pub burst: u64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_live_queries: 64,
            events_per_sec: 0,
            burst: 0,
        }
    }
}

impl TenantQuota {
    /// Effective bucket capacity.
    pub fn effective_burst(&self) -> u64 {
        if self.burst > 0 {
            self.burst
        } else {
            self.events_per_sec.max(1)
        }
    }
}

/// Classic token bucket: `rate` tokens/sec refill, `burst` capacity, one
/// token per event. A zero rate disables limiting (always grants).
pub struct TokenBucket {
    rate_per_sec: u64,
    burst: u64,
    /// Current fill, scaled by `NS_PER_SEC` so refill math stays integral:
    /// one token == 1e9 scaled units.
    scaled_tokens: u128,
    last_ns: u64,
}

const NS_PER_SEC: u128 = 1_000_000_000;

impl TokenBucket {
    /// A bucket for `quota`, starting full at `now_ns`.
    pub fn for_quota(quota: &TenantQuota, now_ns: u64) -> TokenBucket {
        TokenBucket {
            rate_per_sec: quota.events_per_sec,
            burst: quota.effective_burst(),
            scaled_tokens: quota.effective_burst() as u128 * NS_PER_SEC,
            last_ns: now_ns,
        }
    }

    /// Take up to `n` tokens — one per event — and return how many were
    /// granted. Refills lazily from elapsed time, so a whole chunk costs
    /// one clock read and one bucket update.
    pub fn take(&mut self, now_ns: u64, n: u64) -> u64 {
        if self.rate_per_sec == 0 {
            return n;
        }
        let elapsed = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns;
        let cap = self.burst as u128 * NS_PER_SEC;
        self.scaled_tokens =
            cap.min(self.scaled_tokens + elapsed as u128 * self.rate_per_sec as u128);
        let granted = n.min((self.scaled_tokens / NS_PER_SEC) as u64);
        self.scaled_tokens -= granted as u128 * NS_PER_SEC;
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quota(eps: u64, burst: u64) -> TenantQuota {
        TenantQuota {
            max_live_queries: 8,
            events_per_sec: eps,
            burst,
        }
    }

    #[test]
    fn zero_rate_is_unlimited() {
        let clock = ManualClock::new();
        let mut b = TokenBucket::for_quota(&quota(0, 0), clock.now_ns());
        assert_eq!(b.take(clock.now_ns(), 10_000), 10_000);
    }

    #[test]
    fn burst_grants_then_shed_until_refill() {
        let clock = ManualClock::new();
        let mut b = TokenBucket::for_quota(&quota(10, 5), clock.now_ns());
        // Full bucket: exactly the burst passes with no time elapsing.
        assert_eq!(b.take(clock.now_ns(), 64), 5, "one chunk gets the burst");
        assert_eq!(b.take(clock.now_ns(), 1), 0, "empty bucket sheds");
        // 100ms at 10/s refills exactly one token.
        clock.advance_ms(100);
        assert_eq!(b.take(clock.now_ns(), 1), 1);
        assert_eq!(b.take(clock.now_ns(), 1), 0);
        // Sub-token progress accumulates instead of being lost.
        clock.advance_ms(50);
        assert_eq!(b.take(clock.now_ns(), 1), 0);
        clock.advance_ms(50);
        assert_eq!(b.take(clock.now_ns(), 1), 1);
    }

    #[test]
    fn refill_caps_at_burst() {
        let clock = ManualClock::new();
        let mut b = TokenBucket::for_quota(&quota(1000, 3), clock.now_ns());
        clock.advance_ms(60_000); // a minute of refill cannot exceed capacity
        assert_eq!(b.take(clock.now_ns(), 100), 3);
    }

    #[test]
    fn default_burst_is_one_second_of_rate() {
        assert_eq!(quota(250, 0).effective_burst(), 250);
        assert_eq!(quota(0, 0).effective_burst(), 1);
        assert_eq!(quota(9, 2).effective_burst(), 2);
    }
}
