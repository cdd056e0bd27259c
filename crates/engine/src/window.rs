//! Sliding-window assignment.
//!
//! SAQL windows are event-time based: `#time(size, slide)` defines windows
//! `W_k = [k·slide, k·slide + size)`. With `slide == size` the windows
//! tumble (the paper's queries); with `slide < size` they overlap and an
//! event belongs to several consecutive windows.
//!
//! Window *closing* is driven by the stream watermark (the maximum event
//! time seen): `W_k` closes once the watermark reaches its end. The
//! [`WindowDriver`] tracks which windows have observed events and hands out
//! close notifications in window order.

use std::collections::BTreeSet;

use saql_lang::ast::WindowSpec;
use saql_model::Timestamp;

/// Pure window arithmetic for a `#time(size, slide)` spec.
#[derive(Debug, Clone, Copy)]
pub struct WindowAssigner {
    size_ms: u64,
    slide_ms: u64,
}

impl WindowAssigner {
    pub fn new(spec: WindowSpec) -> Self {
        let size_ms = spec.size.as_millis();
        let slide_ms = spec.slide.as_millis();
        assert!(size_ms > 0 && slide_ms > 0, "parser rejects zero windows");
        WindowAssigner { size_ms, slide_ms }
    }

    /// Window ids containing the given event time (inclusive range).
    pub fn windows_for(&self, ts: Timestamp) -> std::ops::RangeInclusive<u64> {
        let t = ts.as_millis();
        let hi = t / self.slide_ms;
        let lo = if t < self.size_ms {
            0
        } else {
            (t - self.size_ms) / self.slide_ms + 1
        };
        lo..=hi
    }

    /// `[start, end)` bounds of window `k`, saturating at the end of time
    /// (an event near `u64::MAX` ms, or a window id from a forged
    /// checkpoint, must not overflow).
    pub fn bounds(&self, k: u64) -> (Timestamp, Timestamp) {
        let start = k.saturating_mul(self.slide_ms);
        (
            Timestamp::from_millis(start),
            Timestamp::from_millis(start.saturating_add(self.size_ms)),
        )
    }

    /// Whether window `k` should close at the given watermark.
    pub fn closes_at(&self, k: u64, watermark: Timestamp) -> bool {
        self.bounds(k).1 <= watermark
    }
}

/// A compatibility group's view of its members' window clocks, so that an
/// event which closes nothing costs the group one comparison instead of a
/// probe of every member's [`WindowDriver`]: `now` is the group's clock —
/// the maximum event time this batch among the events that tick it — and
/// `deadline` the earliest [`WindowDriver::next_close`] of any attached
/// member. While `now < deadline` no member has a window due, and raising
/// a member's watermark to `now` ([`WindowDriver::catch_up`]) is all that
/// [`WindowDriver::advance`] would have done.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gate {
    pub now: Timestamp,
    pub deadline: Timestamp,
}

/// A deadline no clock reaches: nothing is open.
pub(crate) const NEVER: Timestamp = Timestamp::from_millis(u64::MAX);

impl Gate {
    /// A batch's starting state: no time seen, nothing open.
    pub fn idle() -> Gate {
        Gate {
            now: Timestamp::ZERO,
            deadline: NEVER,
        }
    }

    /// Whether some member may have a window to close.
    pub fn due(&self) -> bool {
        self.now >= self.deadline
    }

    /// Account for a member window closing at `close`.
    pub fn watch(&mut self, close: Option<Timestamp>) {
        self.deadline = self.deadline.min(close.unwrap_or(NEVER));
    }
}

/// Tracks open windows and the stream watermark for one query.
///
/// `allowed_lateness` delays window closing: a window closes only once the
/// watermark passes `window end + lateness`, so events arriving up to that
/// much out of timestamp order still land in their window (agent feeds from
/// many hosts merge with bounded skew).
#[derive(Debug)]
pub struct WindowDriver {
    assigner: WindowAssigner,
    lateness_ms: u64,
    watermark: Timestamp,
    /// Windows that observed at least one matching event and have not
    /// closed yet.
    open: BTreeSet<u64>,
    closed: u64,
}

impl WindowDriver {
    pub fn new(spec: WindowSpec) -> Self {
        Self::with_lateness(spec, saql_model::Duration::ZERO)
    }

    /// Driver that tolerates events up to `lateness` behind the watermark.
    pub fn with_lateness(spec: WindowSpec, lateness: saql_model::Duration) -> Self {
        WindowDriver {
            assigner: WindowAssigner::new(spec),
            lateness_ms: lateness.as_millis(),
            watermark: Timestamp::ZERO,
            open: BTreeSet::new(),
            closed: 0,
        }
    }

    pub fn assigner(&self) -> &WindowAssigner {
        &self.assigner
    }

    /// When window `k` closes: its end plus the allowed lateness
    /// (saturating, like [`WindowAssigner::bounds`]).
    pub fn close_at(&self, k: u64) -> Timestamp {
        let end = self.assigner.bounds(k).1.as_millis();
        Timestamp::from_millis(end.saturating_add(self.lateness_ms))
    }

    fn due(&self, k: u64) -> bool {
        self.close_at(k) <= self.watermark
    }

    /// Close time of the earliest open window, if any: until the watermark
    /// reaches it, [`advance`](Self::advance) has nothing to close.
    pub fn next_close(&self) -> Option<Timestamp> {
        self.open.first().map(|&k| self.close_at(k))
    }

    /// Raise the watermark to `now` (monotone) without looking for due
    /// windows — for callers that know `now` is before
    /// [`next_close`](Self::next_close), where it equals `advance(now)`.
    pub fn catch_up(&mut self, now: Timestamp) {
        self.watermark = self.watermark.max(now);
    }

    /// Advance the watermark (monotone) and return the window ids that are
    /// now due to close, in ascending order.
    pub fn advance(&mut self, ts: Timestamp) -> Vec<u64> {
        self.catch_up(ts);
        let mut due = Vec::new();
        while let Some(&k) = self.open.first() {
            if self.due(k) {
                self.open.remove(&k);
                due.push(k);
                self.closed += 1;
            } else {
                break;
            }
        }
        due
    }

    /// Record that a matching event at `ts` contributes to its windows;
    /// returns the ids the caller should fold the event into (late windows —
    /// already closed — are excluded).
    pub fn observe(&mut self, ts: Timestamp) -> Vec<u64> {
        let mut ks = Vec::new();
        self.observe_into(ts, &mut ks);
        ks
    }

    /// [`observe`](Self::observe) into a caller-owned buffer (cleared
    /// first) — the per-event path reuses one, so window assignment never
    /// allocates.
    pub fn observe_into(&mut self, ts: Timestamp, ks: &mut Vec<u64>) {
        ks.clear();
        for k in self.assigner.windows_for(ts) {
            if !self.due(k) {
                self.open.insert(k);
                ks.push(k);
            }
        }
    }

    /// Close every still-open window (end of stream), ascending.
    pub fn drain(&mut self) -> Vec<u64> {
        let due: Vec<u64> = self.open.iter().copied().collect();
        self.closed += due.len() as u64;
        self.open.clear();
        due
    }

    /// Total windows closed so far.
    pub fn closed_count(&self) -> u64 {
        self.closed
    }

    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Capture the driver's dynamic state (engine checkpoints). The window
    /// spec itself is static — it is recompiled from the query source.
    pub fn snapshot(&self) -> WindowSnapshot {
        WindowSnapshot {
            watermark: self.watermark,
            open: self.open.iter().copied().collect(),
            closed: self.closed,
        }
    }

    /// Restore the dynamic state captured by [`snapshot`](Self::snapshot)
    /// onto a freshly compiled driver with the same spec.
    pub fn restore(&mut self, snap: WindowSnapshot) {
        self.watermark = snap.watermark;
        self.open = snap.open.into_iter().collect();
        self.closed = snap.closed;
    }
}

/// Dynamic state of a [`WindowDriver`], exact under snapshot → restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    pub watermark: Timestamp,
    /// Open window ids, ascending.
    pub open: Vec<u64>,
    pub closed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::Duration;

    fn spec(size_s: u64, slide_s: u64) -> WindowSpec {
        WindowSpec {
            size: Duration::from_secs(size_s),
            slide: Duration::from_secs(slide_s),
        }
    }

    #[test]
    fn tumbling_assignment() {
        let a = WindowAssigner::new(spec(10, 10));
        assert_eq!(a.windows_for(Timestamp::from_secs(0)), 0..=0);
        assert_eq!(a.windows_for(Timestamp::from_millis(9_999)), 0..=0);
        assert_eq!(a.windows_for(Timestamp::from_secs(10)), 1..=1);
        assert_eq!(a.windows_for(Timestamp::from_secs(25)), 2..=2);
    }

    #[test]
    fn sliding_assignment_overlaps() {
        // size 10s, slide 5s: ts=12s is in W1 [5,15) and W2 [10,20).
        let a = WindowAssigner::new(spec(10, 5));
        assert_eq!(a.windows_for(Timestamp::from_secs(12)), 1..=2);
        // Early events fall only into the windows that exist.
        assert_eq!(a.windows_for(Timestamp::from_secs(3)), 0..=0);
        assert_eq!(a.windows_for(Timestamp::from_secs(7)), 0..=1);
    }

    #[test]
    fn bounds_and_closing() {
        let a = WindowAssigner::new(spec(10, 10));
        let (s, e) = a.bounds(3);
        assert_eq!(s, Timestamp::from_secs(30));
        assert_eq!(e, Timestamp::from_secs(40));
        assert!(!a.closes_at(3, Timestamp::from_millis(39_999)));
        assert!(a.closes_at(3, Timestamp::from_secs(40)));
    }

    #[test]
    fn driver_closes_in_order() {
        let mut d = WindowDriver::new(spec(10, 10));
        d.advance(Timestamp::from_secs(1));
        assert_eq!(d.observe(Timestamp::from_secs(1)), vec![0]);
        // Watermark 12s: window 0 (ends at 10s) closes.
        assert_eq!(d.advance(Timestamp::from_secs(12)), vec![0]);
        assert_eq!(d.observe(Timestamp::from_secs(12)), vec![1]);
        // Jump to 35s: window 1 closes; nothing else was open.
        assert_eq!(d.advance(Timestamp::from_secs(35)), vec![1]);
        assert_eq!(d.closed_count(), 2);
    }

    #[test]
    fn late_events_are_not_observed() {
        let mut d = WindowDriver::new(spec(10, 10));
        d.advance(Timestamp::from_secs(25));
        // ts=5s is in window 0, which already closed at watermark 25s.
        assert!(d.observe(Timestamp::from_secs(5)).is_empty());
    }

    #[test]
    fn drain_closes_everything() {
        let mut d = WindowDriver::new(spec(10, 10));
        d.observe(Timestamp::from_secs(1));
        d.observe(Timestamp::from_secs(15));
        assert_eq!(d.drain(), vec![0, 1]);
        assert_eq!(d.drain(), Vec::<u64>::new());
    }

    #[test]
    fn allowed_lateness_delays_closing_and_accepts_stragglers() {
        use saql_model::Duration;
        let mut d = WindowDriver::with_lateness(spec(10, 10), Duration::from_secs(5));
        d.advance(Timestamp::from_secs(1));
        d.observe(Timestamp::from_secs(1));
        // Watermark 12s: window 0 ends at 10s but lateness holds it open.
        assert!(d.advance(Timestamp::from_secs(12)).is_empty());
        // An out-of-order event at 8s still lands in window 0.
        assert_eq!(d.observe(Timestamp::from_secs(8)), vec![0]);
        // Watermark 15s (= 10s end + 5s lateness): now it closes.
        assert_eq!(d.advance(Timestamp::from_secs(15)), vec![0]);
        // Further stragglers for window 0 are rejected.
        assert!(d.observe(Timestamp::from_secs(9)).is_empty());
    }

    #[test]
    fn watermark_is_monotone() {
        let mut d = WindowDriver::new(spec(10, 10));
        d.advance(Timestamp::from_secs(30));
        d.advance(Timestamp::from_secs(20));
        assert_eq!(d.watermark(), Timestamp::from_secs(30));
    }
}
