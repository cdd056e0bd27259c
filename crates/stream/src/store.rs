//! The selection and error types every store read shares.
//!
//! The demo stores collected monitoring data "in databases" so the stream
//! replayer can re-create the attack stream on demand; the store itself is
//! [`crate::durable`], and the replayer is a
//! [`StoreSource`](crate::source::StoreSource) over a selection, sorted by
//! the store's verified floor. [`Selection`] is the host/time-range query
//! its reader answers (the replayer UI's knobs), [`StoreError`] what
//! opening, reading and writing can fail with.

use std::io;

use saql_model::{Event, Timestamp};

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// File did not begin with the store magic.
    BadMagic,
    /// Store-level invariant violation (a WAL that disagrees with the sealed
    /// segments it should extend, a segment whose header disagrees with its
    /// records).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a SAQL event store (bad magic)"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Host/time selection for reads (the replayer UI's knobs).
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Keep only events from these hosts; empty = all hosts.
    pub hosts: Vec<String>,
    /// Inclusive lower bound on event time.
    pub from: Option<Timestamp>,
    /// Exclusive upper bound on event time.
    pub until: Option<Timestamp>,
}

impl Selection {
    /// Select everything.
    pub fn all() -> Self {
        Selection::default()
    }

    /// Restrict to one host.
    pub fn host(host: impl Into<String>) -> Self {
        Selection {
            hosts: vec![host.into()],
            ..Selection::default()
        }
    }

    /// Restrict the time range `[from, until)`.
    pub fn between(mut self, from: Timestamp, until: Timestamp) -> Self {
        self.from = Some(from);
        self.until = Some(until);
        self
    }

    /// Whether an event passes the selection.
    pub fn matches(&self, event: &Event) -> bool {
        if !self.hosts.is_empty() && !self.hosts.iter().any(|h| **h == *event.agent_id) {
            return false;
        }
        if let Some(from) = self.from {
            if event.ts < from {
                return false;
            }
        }
        if let Some(until) = self.until {
            if event.ts >= until {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;

    #[test]
    fn selection_matches_host_and_half_open_time_range() {
        let ev = |host: &str, ts: u64| {
            EventBuilder::new(1, host, ts)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .starts_process(ProcessInfo::new(2, "b.exe", "u"))
                .build()
        };
        assert!(Selection::all().matches(&ev("h1", 0)));
        let h1 = Selection::host("h1");
        assert!(h1.matches(&ev("h1", 5)));
        assert!(!h1.matches(&ev("h2", 5)));
        let ranged = h1.between(Timestamp::from_millis(20), Timestamp::from_millis(40));
        assert!(!ranged.matches(&ev("h1", 19)));
        assert!(ranged.matches(&ev("h1", 20)), "from is inclusive");
        assert!(ranged.matches(&ev("h1", 39)));
        assert!(!ranged.matches(&ev("h1", 40)), "until is exclusive");
        assert!(!ranged.matches(&ev("h2", 30)));
    }
}
