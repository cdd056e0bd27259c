//! Trace time: timestamps and durations.
//!
//! SAQL operates on *event time* — the time recorded by the monitoring agent
//! — never wall-clock time, so that stored data replayed through the stream
//! replayer produces identical query results. Both types are thin wrappers
//! over milliseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Event time in milliseconds since the start of the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    pub const ZERO: Timestamp = Timestamp(0);

    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    pub fn from_secs(s: u64) -> Self {
        Timestamp(s * 1000)
    }

    pub fn as_millis(&self) -> u64 {
        self.0
    }

    /// Saturating difference between two timestamps.
    pub fn delta(&self, earlier: Timestamp) -> Duration {
        Duration::from_millis(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A span of trace time in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Duration(u64);

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms)
    }

    pub fn from_secs(s: u64) -> Self {
        Duration(s * 1000)
    }

    pub fn from_mins(m: u64) -> Self {
        Duration(m * 60_000)
    }

    pub fn as_millis(&self) -> u64 {
        self.0
    }

    /// Parse a SAQL duration: a number followed by a unit keyword, e.g.
    /// `10 min`, `30 s`, `500 ms`, `2 h`, `1 day`.
    ///
    /// Recognized units: `ms`, `s`/`sec`/`second`/`seconds`,
    /// `min`/`minute`/`minutes`, `h`/`hour`/`hours`, `day`/`days`.
    pub fn parse(value: u64, unit: &str) -> Option<Duration> {
        let scale = match unit {
            "ms" | "millis" | "millisecond" | "milliseconds" => 1,
            "s" | "sec" | "second" | "seconds" => 1_000,
            "min" | "minute" | "minutes" => 60_000,
            "h" | "hour" | "hours" => 3_600_000,
            "day" | "days" => 86_400_000,
            _ => return None,
        };
        Some(Duration(value.checked_mul(scale)?))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms.is_multiple_of(60_000) && ms > 0 {
            write!(f, "{} min", ms / 60_000)
        } else if ms.is_multiple_of(1000) && ms > 0 {
            write!(f, "{} s", ms / 1000)
        } else {
            write!(f, "{} ms", ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_parse_units() {
        assert_eq!(Duration::parse(10, "min"), Some(Duration::from_mins(10)));
        assert_eq!(Duration::parse(10, "s"), Some(Duration::from_secs(10)));
        assert_eq!(Duration::parse(500, "ms"), Some(Duration::from_millis(500)));
        assert_eq!(
            Duration::parse(2, "h"),
            Some(Duration::from_millis(7_200_000))
        );
        assert_eq!(
            Duration::parse(1, "day"),
            Some(Duration::from_millis(86_400_000))
        );
        assert_eq!(Duration::parse(1, "fortnight"), None);
    }

    #[test]
    fn duration_parse_overflow_is_none() {
        assert_eq!(Duration::parse(u64::MAX, "day"), None);
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(10);
        assert_eq!(t + Duration::from_secs(5), Timestamp::from_secs(15));
        assert_eq!(t - Duration::from_secs(20), Timestamp::ZERO);
        assert_eq!(Timestamp::from_secs(15).delta(t), Duration::from_secs(5));
        assert_eq!(t.delta(Timestamp::from_secs(15)), Duration::ZERO);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Duration::from_mins(10).to_string(), "10 min");
        assert_eq!(Duration::from_secs(90).to_string(), "90 s");
        assert_eq!(Duration::from_millis(250).to_string(), "250 ms");
    }
}
