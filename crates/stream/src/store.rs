//! The single-file store layout, and the selection and error types every
//! store shares.
//!
//! The demo stores collected monitoring data "in databases" so the stream
//! replayer can re-create the attack stream on demand. This layout is the
//! simplest functional equivalent: an append-only file of codec-encoded
//! records. It is read and written through
//! [`StoreWriter`](crate::durable::StoreWriter) /
//! [`StoreReader`](crate::durable::StoreReader), like the segmented layout;
//! [`Selection`] is the host/time-range query both answer.
//!
//! Layout: a fixed 8-byte header (`SAQLSTO1`) followed by back-to-back
//! records in `saql_model::codec` format.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use saql_model::codec::{self, DecodeError};
use saql_model::{Event, Timestamp};

const MAGIC: &[u8; 8] = b"SAQLSTO1";

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// File did not begin with the store magic.
    BadMagic,
    Decode(DecodeError),
    /// Store-level invariant violation (e.g. a WAL that disagrees with the
    /// sealed segments it should extend).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a SAQL event store (bad magic)"),
            StoreError::Decode(e) => write!(f, "corrupt store record: {e}"),
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

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

/// A single-file store: the header check and the streaming read path
/// behind the `File` arms of the store writer and reader.
#[derive(Debug)]
pub(crate) struct EventStore {
    path: PathBuf,
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

impl EventStore {
    /// Create a new store file (truncating any existing one).
    pub(crate) fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut f = File::create(&path)?;
        f.write_all(MAGIC)?;
        Ok(EventStore { path })
    }

    /// Open an existing store, validating the header.
    pub(crate) fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut f = File::open(&path)?;
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic).map_err(|_| StoreError::BadMagic)?;
        if &magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        Ok(EventStore { path })
    }

    /// Stream every stored event matching `selection`, in stored order,
    /// decoding incrementally from fixed-size read chunks — memory stays
    /// flat no matter how large the store is. The header is validated
    /// eagerly; per-record IO/decode failures surface as iterator items.
    pub(crate) fn iter(&self, selection: &Selection) -> Result<EventIter, StoreError> {
        let mut f = File::open(&self.path)?;
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic).map_err(|_| StoreError::BadMagic)?;
        if &magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        Ok(EventIter {
            file: Some(f),
            buf: Bytes::new(),
            selection: selection.clone(),
        })
    }

    /// Total number of stored events (full streaming scan).
    pub(crate) fn len(&self) -> Result<usize, StoreError> {
        let mut n = 0;
        for event in self.iter(&Selection::all())? {
            event?;
            n += 1;
        }
        Ok(n)
    }

    /// Distinct host ids present in the store, sorted.
    pub(crate) fn hosts(&self) -> Result<Vec<String>, StoreError> {
        let mut hosts: Vec<String> = Vec::new();
        for event in self.iter(&Selection::all())? {
            hosts.push(event?.agent_id.to_string());
        }
        hosts.sort();
        hosts.dedup();
        Ok(hosts)
    }

    /// Path of the backing file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

/// How much of the backing file one [`EventIter`] refill reads.
const READ_CHUNK: usize = 64 * 1024;

/// Streaming iterator over a store selection (see [`EventStore::iter`]).
///
/// Records are decoded straight out of a rolling read buffer; a record
/// split across chunk boundaries is retried after the next refill, so only
/// `READ_CHUNK` bytes plus one partial record are ever resident.
#[derive(Debug)]
pub(crate) struct EventIter {
    /// `None` once EOF was reached (or an error ended the stream).
    file: Option<File>,
    /// Undecoded bytes carried between refills.
    buf: Bytes,
    selection: Selection,
}

impl EventIter {
    /// Append the next chunk of the file to the undecoded remainder.
    /// Returns whether any new bytes arrived.
    fn refill(&mut self) -> Result<bool, StoreError> {
        let Some(file) = self.file.as_mut() else {
            return Ok(false);
        };
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut filled = 0;
        while filled < chunk.len() {
            match file.read(&mut chunk[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.file = None;
                    return Err(e.into());
                }
            }
        }
        if filled == 0 {
            self.file = None;
            return Ok(false);
        }
        if self.buf.is_empty() {
            chunk.truncate(filled);
            self.buf = Bytes::from(chunk);
        } else {
            let mut joined = Vec::with_capacity(self.buf.len() + filled);
            joined.extend_from_slice(&self.buf);
            joined.extend_from_slice(&chunk[..filled]);
            self.buf = Bytes::from(joined);
        }
        Ok(true)
    }
}

impl Iterator for EventIter {
    type Item = Result<Event, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if !self.buf.is_empty() {
                // Decode on a cheap view clone: on success advance the real
                // buffer by what was consumed, on a truncation mid-record
                // leave it untouched and read more.
                let mut attempt = self.buf.clone();
                match codec::decode_event(&mut attempt) {
                    Ok(event) => {
                        let consumed = self.buf.len() - attempt.len();
                        self.buf = self.buf.slice(consumed..);
                        if self.selection.matches(&event) {
                            return Some(Ok(event));
                        }
                        continue;
                    }
                    Err(DecodeError::Truncated) if self.file.is_some() => {}
                    Err(e) => {
                        // Corrupt record (or truncated tail at EOF): the
                        // stream cannot be resynced past it.
                        self.file = None;
                        self.buf = Bytes::new();
                        return Some(Err(e.into()));
                    }
                }
            }
            match self.refill() {
                Ok(true) => continue,
                Ok(false) => {
                    if self.buf.is_empty() {
                        return None;
                    }
                    // EOF inside a record.
                    self.buf = Bytes::new();
                    return Some(Err(DecodeError::Truncated.into()));
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::StoreWriter;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;

    /// A fresh single-file store at `path` holding `events`.
    fn store_with(path: &Path, events: &[Event]) -> EventStore {
        let mut writer = StoreWriter::create(path).unwrap();
        writer.append(events).unwrap();
        EventStore::open(path).unwrap()
    }

    fn read(store: &EventStore, selection: &Selection) -> Vec<Event> {
        let events: Result<Vec<Event>, StoreError> = store.iter(selection).unwrap().collect();
        events.unwrap()
    }

    fn ev(id: u64, host: &str, ts: u64) -> Event {
        EventBuilder::new(id, host, ts)
            .subject(ProcessInfo::new(1, "a.exe", "u"))
            .starts_process(ProcessInfo::new(2, "b.exe", "u"))
            .build()
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("saql-store-test-{}-{name}.bin", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_append_read() {
        let path = tmp("roundtrip");
        let events = vec![ev(1, "h1", 10), ev(2, "h2", 20), ev(3, "h1", 30)];
        let store = store_with(&path, &events);
        assert_eq!(read(&store, &Selection::all()), events);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn selection_by_host_and_time() {
        let path = tmp("selection");
        let store = store_with(
            &path,
            &[
                ev(1, "h1", 10),
                ev(2, "h2", 20),
                ev(3, "h1", 30),
                ev(4, "h1", 40),
            ],
        );
        let h1 = read(&store, &Selection::host("h1"));
        assert_eq!(h1.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 3, 4]);
        let sel =
            Selection::host("h1").between(Timestamp::from_millis(20), Timestamp::from_millis(40));
        let ranged = read(&store, &sel);
        assert_eq!(ranged.iter().map(|e| e.id).collect::<Vec<_>>(), vec![3]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn multiple_appends_accumulate() {
        let path = tmp("appends");
        let mut writer = StoreWriter::create(&path).unwrap();
        writer.append(&[ev(1, "h", 1)]).unwrap();
        writer.append(&[ev(2, "h", 2)]).unwrap();
        assert_eq!(EventStore::open(&path).unwrap().len().unwrap(), 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reopen_preserves_data() {
        let path = tmp("reopen");
        drop(store_with(&path, &[ev(7, "h", 70)]));
        let store = EventStore::open(&path).unwrap();
        assert_eq!(read(&store, &Selection::all())[0].id, 7);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn hosts_listing() {
        let path = tmp("hosts");
        let store = store_with(
            &path,
            &[ev(1, "zeta", 1), ev(2, "alpha", 2), ev(3, "zeta", 3)],
        );
        assert_eq!(
            store.hosts().unwrap(),
            vec!["alpha".to_string(), "zeta".to_string()]
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTASTORE").unwrap();
        assert!(matches!(EventStore::open(&path), Err(StoreError::BadMagic)));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn iter_streams_across_chunk_boundaries() {
        // Enough events that records straddle several 64 KiB read chunks.
        let path = tmp("iterchunks");
        let events: Vec<Event> = (0..4_000)
            .map(|i| ev(i, if i % 2 == 0 { "h-even" } else { "h-odd" }, i * 3))
            .collect();
        let store = store_with(&path, &events);
        let streamed: Vec<Event> = store
            .iter(&Selection::all())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, events);
        let odd: Vec<Event> = store
            .iter(&Selection::host("h-odd"))
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(odd.len(), 2_000);
        assert!(odd.iter().all(|e| &*e.agent_id == "h-odd"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn iter_reports_truncated_tail() {
        let path = tmp("itertrunc");
        drop(store_with(&path, &[ev(1, "h", 10), ev(2, "h", 20)]));
        // Chop the last record in half.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        let mut iter = EventStore::open(&path)
            .unwrap()
            .iter(&Selection::all())
            .unwrap();
        assert_eq!(iter.next().unwrap().unwrap().id, 1);
        assert!(matches!(iter.next(), Some(Err(StoreError::Decode(_)))));
        assert!(iter.next().is_none(), "stream ends after the error");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_store() {
        let path = tmp("empty");
        let store = store_with(&path, &[]);
        assert_eq!(store.len().unwrap(), 0);
        assert!(store.hosts().unwrap().is_empty());
        std::fs::remove_file(path).unwrap();
    }
}
