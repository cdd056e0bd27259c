//! Durable event store: the [`StoreWriter`]/[`StoreReader`] split over both
//! store layouts, with WAL-disciplined appends and recovery-on-open.
//!
//! Two on-disk layouts hide behind one opening surface:
//!
//! * **single file** — the classic [`crate::store`] layout (`SAQLSTO1` header
//!   plus back-to-back codec records); fine for demos and exports;
//! * **segmented directory** — the durable layout: immutable, atomically
//!   sealed segment files (`seg-NNNNNN.saqlseg`, the [`crate::segment`]
//!   format whose header carries the per-segment index: event count, time
//!   range, host set) plus one append-only WAL tail (`wal.saqlwal`).
//!
//! Append discipline for the segmented layout: every appended event first
//! lands in the WAL (`append` + [`StoreWriter::sync`] = durable ack). When
//! the WAL reaches the segment size, its head is sealed into a fresh
//! segment — written to a temp file, fsynced, renamed — and the WAL is
//! atomically rewritten to hold only the unsealed tail. The WAL header
//! records `base`, the number of events already sealed when that WAL
//! generation was written, so a crash *between* the segment rename and the
//! WAL rewrite is recoverable: recovery sees `base < sealed` and skips the
//! first `sealed - base` WAL events as duplicates of the freshly sealed
//! segment.
//!
//! Recovery-on-open ([`StoreWriter::open`]) truncates a torn tail: records
//! are decoded up to the first decode failure and the file is rewritten at
//! the last whole-record boundary. Everything appended before the last
//! successful [`sync`](StoreWriter::sync) survives any crash; a torn tail
//! can only lose the unsynced suffix. [`StoreReader`] applies the same scan
//! read-only (it tolerates a torn tail without repairing it), and addresses
//! events by **global offset** — the index of a record in append order
//! across all segments plus the WAL — which is what engine checkpoints
//! record and [`StoreReader::iter_from`] resumes from.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use saql_model::{codec, Event};

use crate::segment::{read_meta, read_segment_events, write_segment, SegmentMeta};
use crate::store::{EventIter, EventStore, Selection, StoreError};

const WAL_MAGIC: &[u8; 8] = b"SAQLWAL1";
/// WAL header: magic + little-endian `base` (events sealed when written).
const WAL_HEADER_LEN: usize = 16;

/// Default events per sealed segment.
pub const DEFAULT_SEGMENT_EVENTS: usize = 4096;

/// Which on-disk layout a store path resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFormat {
    /// Single `SAQLSTO1` file.
    File,
    /// Segment directory with a WAL tail.
    Segmented,
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.saqlwal")
}

fn segment_file(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("seg-{index:06}.saqlseg"))
}

fn sorted_segment_paths(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "saqlseg"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Parse `seg-NNNNNN` back into its index (next-segment numbering).
fn segment_index(path: &Path) -> Option<usize> {
    path.file_stem()?
        .to_str()?
        .strip_prefix("seg-")?
        .parse()
        .ok()
}

/// Result of scanning one WAL file up to its torn tail.
struct WalScan {
    /// Events sealed into segments when this WAL generation was written.
    base: u64,
    /// Whole records decoded before the tail (if any) tore.
    events: Vec<Event>,
}

/// Scan a WAL file, stopping at the first undecodable record (torn tail).
/// `Ok(None)` means the header itself is torn — recoverable as an empty
/// WAL. A wrong magic is a hard error: the file is not a WAL.
fn scan_wal(path: &Path) -> Result<Option<WalScan>, StoreError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() < WAL_HEADER_LEN {
        return Ok(None);
    }
    if &raw[..8] != WAL_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut buf = Bytes::from(raw);
    buf.advance(8);
    let base = buf.get_u64_le();
    let mut events = Vec::new();
    while buf.has_remaining() {
        let mut attempt = buf.clone();
        match codec::decode_event(&mut attempt) {
            Ok(event) => {
                buf = attempt;
                events.push(event);
            }
            // Torn tail: keep the whole-record prefix, drop the rest.
            Err(_) => break,
        }
    }
    Ok(Some(WalScan { base, events }))
}

/// Atomically replace the WAL with `base` + `tail` (tmp + fsync + rename).
fn rewrite_wal(dir: &Path, base: u64, tail: &[Event]) -> Result<(), StoreError> {
    let tmp = dir.join("wal.saqlwal.tmp");
    let mut buf = BytesMut::with_capacity(WAL_HEADER_LEN + tail.len() * 96);
    buf.put_slice(WAL_MAGIC);
    buf.put_u64_le(base);
    for e in tail {
        codec::encode_event(&mut buf, e);
    }
    let mut f = File::create(&tmp)?;
    f.write_all(&buf)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, wal_path(dir))?;
    Ok(())
}

/// Scan a single-file store, counting whole records up to a torn tail.
/// Returns `(events, valid_len, file_len)`.
fn scan_file_store(path: &Path) -> Result<(u64, u64, u64), StoreError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let file_len = raw.len() as u64;
    if raw.len() < 8 || &raw[..8] != b"SAQLSTO1" {
        return Err(StoreError::BadMagic);
    }
    let mut buf = Bytes::from(raw);
    buf.advance(8);
    let mut n = 0u64;
    let mut valid_len = 8u64;
    while buf.has_remaining() {
        let mut attempt = buf.clone();
        match codec::decode_event(&mut attempt) {
            Ok(_) => {
                valid_len += (buf.len() - attempt.len()) as u64;
                buf = attempt;
                n += 1;
            }
            Err(_) => break,
        }
    }
    Ok((n, valid_len, file_len))
}

/// The WAL tail a reader reconstructs: events not yet sealed into segments.
/// `sealed` is the segment event total; duplicates of a seal that crashed
/// before its WAL rewrite are skipped via the header `base` (see module
/// docs).
fn wal_tail(dir: &Path, sealed: u64) -> Result<Vec<Event>, StoreError> {
    let path = wal_path(dir);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let Some(scan) = scan_wal(&path)? else {
        return Ok(Vec::new());
    };
    if scan.base > sealed {
        return Err(StoreError::Corrupt(format!(
            "WAL base {} exceeds sealed event count {sealed}",
            scan.base
        )));
    }
    let skip = (sealed - scan.base) as usize;
    if skip > scan.events.len() {
        return Err(StoreError::Corrupt(format!(
            "{} sealed events missing from the WAL generation (base {}, {} WAL records)",
            sealed - scan.base,
            scan.base,
            scan.events.len()
        )));
    }
    Ok(scan.events[skip..].to_vec())
}

// ---------------------------------------------------------------------
// StoreWriter
// ---------------------------------------------------------------------

/// The single writing surface over both store layouts: create or recover a
/// store, append events, `sync` for a durable ack, and (segmented layout)
/// seal WAL head into immutable segments as it fills.
pub struct StoreWriter {
    inner: WriterInner,
}

enum WriterInner {
    File {
        store: EventStore,
        handle: File,
        len: u64,
    },
    Segmented(SegWriter),
}

struct SegWriter {
    dir: PathBuf,
    segment_events: usize,
    wal: File,
    /// Unsealed events (the WAL's logical content).
    tail: Vec<Event>,
    /// Events in sealed segments.
    sealed: u64,
    next_segment: usize,
    buf: BytesMut,
}

impl StoreWriter {
    /// Create a fresh single-file store (truncating any existing file).
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let store = EventStore::create(&path)?;
        let handle = OpenOptions::new().append(true).open(path.as_ref())?;
        Ok(StoreWriter {
            inner: WriterInner::File {
                store,
                handle,
                len: 0,
            },
        })
    }

    /// Create a fresh segmented store directory with the default segment
    /// size. Fails if the directory already holds a store.
    pub fn create_segmented(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::create_segmented_with(dir, DEFAULT_SEGMENT_EVENTS)
    }

    /// Create a fresh segmented store with an explicit segment size.
    pub fn create_segmented_with(
        dir: impl AsRef<Path>,
        segment_events: usize,
    ) -> Result<Self, StoreError> {
        assert!(segment_events > 0, "segments must hold at least one event");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if wal_path(&dir).exists() || !sorted_segment_paths(&dir)?.is_empty() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a store", dir.display()),
            )));
        }
        rewrite_wal(&dir, 0, &[])?;
        let wal = OpenOptions::new().append(true).open(wal_path(&dir))?;
        Ok(StoreWriter {
            inner: WriterInner::Segmented(SegWriter {
                dir,
                segment_events,
                wal,
                tail: Vec::new(),
                sealed: 0,
                next_segment: 0,
                buf: BytesMut::with_capacity(64 * 1024),
            }),
        })
    }

    /// Open an existing store for appending, recovering on open: a torn
    /// tail (crash mid-write) is truncated back to the last whole-record
    /// boundary, so every previously synced event survives. Directories
    /// open as segmented stores, files as single-file stores.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        if path.is_dir() {
            return Self::open_segmented(path, DEFAULT_SEGMENT_EVENTS);
        }
        let (len, valid_len, file_len) = scan_file_store(path)?;
        if valid_len < file_len {
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(valid_len)?;
        }
        let store = EventStore::open(path)?;
        let handle = OpenOptions::new().append(true).open(path)?;
        Ok(StoreWriter {
            inner: WriterInner::File { store, handle, len },
        })
    }

    /// Open (or recover) a segmented store with an explicit segment size.
    pub fn open_segmented(
        dir: impl AsRef<Path>,
        segment_events: usize,
    ) -> Result<Self, StoreError> {
        assert!(segment_events > 0, "segments must hold at least one event");
        let dir = dir.as_ref().to_path_buf();
        let paths = sorted_segment_paths(&dir)?;
        let mut sealed = 0u64;
        let mut next_segment = 0usize;
        for p in &paths {
            sealed += read_meta(p)?.events as u64;
            if let Some(idx) = segment_index(p) {
                next_segment = next_segment.max(idx + 1);
            }
        }
        let tail = wal_tail(&dir, sealed)?;
        // Normalize: drop the torn suffix and any crash-duplicated head by
        // rewriting the WAL as (base = sealed, tail).
        rewrite_wal(&dir, sealed, &tail)?;
        let wal = OpenOptions::new().append(true).open(wal_path(&dir))?;
        Ok(StoreWriter {
            inner: WriterInner::Segmented(SegWriter {
                dir,
                segment_events,
                wal,
                tail,
                sealed,
                next_segment,
                buf: BytesMut::with_capacity(64 * 1024),
            }),
        })
    }

    /// Append a batch of events, returning the store's new event count.
    /// Appends are buffered by the OS until [`sync`](Self::sync); sealing
    /// is automatic once the WAL holds a full segment.
    pub fn append(&mut self, events: &[Event]) -> Result<u64, StoreError> {
        match &mut self.inner {
            WriterInner::File { handle, len, .. } => {
                let mut buf = BytesMut::with_capacity(events.len() * 96);
                for e in events {
                    codec::encode_event(&mut buf, e);
                }
                handle.write_all(&buf)?;
                *len += events.len() as u64;
                Ok(*len)
            }
            WriterInner::Segmented(w) => {
                w.buf.clear();
                for e in events {
                    codec::encode_event(&mut w.buf, e);
                }
                w.wal.write_all(&w.buf)?;
                w.tail.extend_from_slice(events);
                while w.tail.len() >= w.segment_events {
                    w.seal_head()?;
                }
                Ok(w.sealed + w.tail.len() as u64)
            }
        }
    }

    /// Durably ack everything appended so far (fsync). Events appended
    /// before a successful `sync` survive any crash or torn tail.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        match &mut self.inner {
            WriterInner::File { handle, .. } => handle.sync_data()?,
            WriterInner::Segmented(w) => w.wal.sync_data()?,
        }
        Ok(())
    }

    /// Seal the WAL tail into a final (possibly short) segment. No-op on
    /// single-file stores and empty tails.
    pub fn seal(&mut self) -> Result<(), StoreError> {
        if let WriterInner::Segmented(w) = &mut self.inner {
            while w.tail.len() >= w.segment_events {
                w.seal_head()?;
            }
            if !w.tail.is_empty() {
                w.seal_all()?;
            }
        }
        Ok(())
    }

    /// Total events in the store (sealed + WAL tail).
    pub fn len(&self) -> u64 {
        match &self.inner {
            WriterInner::File { len, .. } => *len,
            WriterInner::Segmented(w) => w.sealed + w.tail.len() as u64,
        }
    }

    /// Whether the store holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's path (file or directory).
    pub fn path(&self) -> &Path {
        match &self.inner {
            WriterInner::File { store, .. } => store.path(),
            WriterInner::Segmented(w) => &w.dir,
        }
    }

    /// The layout this writer writes.
    pub fn format(&self) -> StoreFormat {
        match &self.inner {
            WriterInner::File { .. } => StoreFormat::File,
            WriterInner::Segmented(_) => StoreFormat::Segmented,
        }
    }
}

impl SegWriter {
    /// Seal the first `segment_events` WAL events into a segment.
    fn seal_head(&mut self) -> Result<(), StoreError> {
        let chunk: Vec<Event> = self.tail.drain(..self.segment_events).collect();
        self.seal_chunk(&chunk)
    }

    /// Seal the entire remaining tail into one segment.
    fn seal_all(&mut self) -> Result<(), StoreError> {
        let chunk: Vec<Event> = std::mem::take(&mut self.tail);
        self.seal_chunk(&chunk)
    }

    fn seal_chunk(&mut self, chunk: &[Event]) -> Result<(), StoreError> {
        let path = segment_file(&self.dir, self.next_segment);
        let tmp = path.with_extension("saqlseg.tmp");
        write_segment(&tmp, chunk)?;
        fs::rename(&tmp, &path)?;
        self.next_segment += 1;
        self.sealed += chunk.len() as u64;
        // Crash before this rewrite is safe: recovery skips the WAL head
        // that duplicates the just-sealed segment (header base < sealed).
        rewrite_wal(&self.dir, self.sealed, &self.tail)?;
        self.wal = OpenOptions::new().append(true).open(wal_path(&self.dir))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// StoreReader
// ---------------------------------------------------------------------

/// The single reading surface over both store layouts. Opening is
/// non-destructive: a torn tail is tolerated (ignored) but never repaired.
/// Segmented reads prune non-intersecting segments by header, and
/// [`iter_from`](Self::iter_from) skips whole segments by their counted
/// events when resuming from a global offset.
#[derive(Debug)]
pub struct StoreReader {
    inner: ReaderInner,
}

#[derive(Debug)]
enum ReaderInner {
    File {
        store: EventStore,
    },
    Segmented {
        dir: PathBuf,
        segments: Vec<SegmentMeta>,
        /// Unsealed WAL events (decoded eagerly; bounded by segment size).
        tail: Vec<Event>,
        sealed: u64,
    },
}

impl StoreReader {
    /// Open a store for reading: directories resolve to the segmented
    /// layout, files to the single-file layout (validated by magic).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        if path.is_dir() {
            let dir = path.to_path_buf();
            let mut segments = Vec::new();
            let mut sealed = 0u64;
            for p in sorted_segment_paths(&dir)? {
                let meta = read_meta(&p)?;
                sealed += meta.events as u64;
                segments.push(meta);
            }
            let tail = wal_tail(&dir, sealed)?;
            return Ok(StoreReader {
                inner: ReaderInner::Segmented {
                    dir,
                    segments,
                    tail,
                    sealed,
                },
            });
        }
        Ok(StoreReader {
            inner: ReaderInner::File {
                store: EventStore::open(path)?,
            },
        })
    }

    /// Stream events matching `selection`, in stored order. Segmented
    /// stores prune by segment header first.
    pub fn iter(&self, selection: &Selection) -> Result<StoreIter, StoreError> {
        match &self.inner {
            ReaderInner::File { store } => Ok(StoreIter {
                inner: IterInner::File(store.iter(selection)?),
                selection: Selection::all(),
                skip: 0,
            }),
            ReaderInner::Segmented { segments, tail, .. } => {
                let pending: VecDeque<SegmentMeta> = segments
                    .iter()
                    .filter(|m| m.intersects(selection))
                    .cloned()
                    .collect();
                Ok(StoreIter {
                    inner: IterInner::Segments(SegIter {
                        pending,
                        current: Vec::new().into_iter(),
                        tail: Some(tail.clone()),
                        failed: false,
                    }),
                    selection: selection.clone(),
                    skip: 0,
                })
            }
        }
    }

    /// Stream every event from global offset `offset` (0-based index in
    /// append order) to the end — the resume path: an engine checkpoint
    /// records the offset it was taken at, and the replacement session
    /// re-attaches here.
    pub fn iter_from(&self, offset: u64) -> Result<StoreIter, StoreError> {
        match &self.inner {
            ReaderInner::File { store } => Ok(StoreIter {
                inner: IterInner::File(store.iter(&Selection::all())?),
                selection: Selection::all(),
                skip: offset,
            }),
            ReaderInner::Segmented { segments, tail, .. } => {
                let mut skip = offset;
                let mut pending = VecDeque::new();
                for meta in segments {
                    if pending.is_empty() && skip >= meta.events as u64 {
                        skip -= meta.events as u64;
                        continue;
                    }
                    pending.push_back(meta.clone());
                }
                Ok(StoreIter {
                    inner: IterInner::Segments(SegIter {
                        pending,
                        current: Vec::new().into_iter(),
                        tail: Some(tail.clone()),
                        failed: false,
                    }),
                    selection: Selection::all(),
                    skip,
                })
            }
        }
    }

    /// Read every event matching `selection` into memory.
    pub fn read(&self, selection: &Selection) -> Result<Vec<Event>, StoreError> {
        self.iter(selection)?.collect()
    }

    /// Total stored events. Segmented stores answer from headers + WAL
    /// tail; single-file stores scan.
    pub fn len(&self) -> Result<u64, StoreError> {
        match &self.inner {
            ReaderInner::File { store } => Ok(store.len()? as u64),
            ReaderInner::Segmented { tail, sealed, .. } => Ok(sealed + tail.len() as u64),
        }
    }

    /// Whether the store holds no events.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Distinct host ids present, sorted. Segmented stores answer from
    /// segment headers plus the WAL tail.
    pub fn hosts(&self) -> Result<Vec<String>, StoreError> {
        match &self.inner {
            ReaderInner::File { store } => store.hosts(),
            ReaderInner::Segmented { segments, tail, .. } => {
                let mut hosts: Vec<String> = segments
                    .iter()
                    .flat_map(|m| m.hosts.iter().cloned())
                    .chain(tail.iter().map(|e| e.agent_id.to_string()))
                    .collect();
                hosts.sort();
                hosts.dedup();
                Ok(hosts)
            }
        }
    }

    /// The store's path (file or directory).
    pub fn path(&self) -> &Path {
        match &self.inner {
            ReaderInner::File { store } => store.path(),
            ReaderInner::Segmented { dir, .. } => dir,
        }
    }

    /// The layout this reader resolved.
    pub fn format(&self) -> StoreFormat {
        match &self.inner {
            ReaderInner::File { .. } => StoreFormat::File,
            ReaderInner::Segmented { .. } => StoreFormat::Segmented,
        }
    }

    /// Sealed segment headers (empty for single-file stores).
    pub fn segments(&self) -> &[SegmentMeta] {
        match &self.inner {
            ReaderInner::File { .. } => &[],
            ReaderInner::Segmented { segments, .. } => segments,
        }
    }
}

/// Streaming iterator over a [`StoreReader`] (both layouts): applies the
/// selection, skips the global-offset prefix, and surfaces per-record
/// decode failures as items.
pub struct StoreIter {
    inner: IterInner,
    selection: Selection,
    skip: u64,
}

enum IterInner {
    File(EventIter),
    Segments(SegIter),
}

struct SegIter {
    pending: VecDeque<SegmentMeta>,
    current: std::vec::IntoIter<Event>,
    tail: Option<Vec<Event>>,
    failed: bool,
}

impl SegIter {
    fn next_raw(&mut self) -> Option<Result<Event, StoreError>> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(e) = self.current.next() {
                return Some(Ok(e));
            }
            if let Some(meta) = self.pending.pop_front() {
                match read_segment_events(&meta.path) {
                    Ok(events) => {
                        self.current = events.into_iter();
                        continue;
                    }
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                }
            }
            if let Some(tail) = self.tail.take() {
                self.current = tail.into_iter();
                continue;
            }
            return None;
        }
    }
}

impl Iterator for StoreIter {
    type Item = Result<Event, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let item = match &mut self.inner {
                IterInner::File(iter) => iter.next()?,
                IterInner::Segments(iter) => iter.next_raw()?,
            };
            let event = match item {
                Ok(e) => e,
                Err(e) => return Some(Err(e)),
            };
            if self.skip > 0 {
                self.skip -= 1;
                continue;
            }
            if self.selection.matches(&event) {
                return Some(Ok(event));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;

    fn ev(id: u64, host: &str, ts: u64) -> Event {
        EventBuilder::new(id, host, ts)
            .subject(ProcessInfo::new(1, "a.exe", "u"))
            .starts_process(ProcessInfo::new(2, "b.exe", "u"))
            .build()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("saql-durable-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        let _ = fs::remove_file(&p);
        p
    }

    fn read_all(path: &Path) -> Vec<Event> {
        StoreReader::open(path)
            .unwrap()
            .iter(&Selection::all())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap()
    }

    #[test]
    fn segmented_roundtrip_seals_and_tails() {
        let dir = tmp_dir("roundtrip");
        let mut w = StoreWriter::create_segmented_with(&dir, 10).unwrap();
        let events: Vec<Event> = (0..35).map(|i| ev(i, "h", i * 100)).collect();
        w.append(&events).unwrap();
        assert_eq!(w.len(), 35);
        // 3 sealed segments of 10, 5 in the WAL tail.
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.segments().len(), 3);
        assert_eq!(reader.len().unwrap(), 35);
        assert_eq!(read_all(&dir), events);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reopen_appends_after_tail() {
        let dir = tmp_dir("reopen");
        let events: Vec<Event> = (0..7).map(|i| ev(i, "h", i)).collect();
        {
            let mut w = StoreWriter::create_segmented_with(&dir, 5).unwrap();
            w.append(&events[..4]).unwrap();
            w.sync().unwrap();
        }
        let mut w = StoreWriter::open_segmented(&dir, 5).unwrap();
        assert_eq!(w.len(), 4);
        w.append(&events[4..]).unwrap();
        assert_eq!(w.len(), 7);
        assert_eq!(read_all(&dir), events);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let events: Vec<Event> = (0..4).map(|i| ev(i, "h", i)).collect();
        {
            let mut w = StoreWriter::create_segmented_with(&dir, 100).unwrap();
            w.append(&events).unwrap();
            w.sync().unwrap();
        }
        // Tear the last record in half.
        let wal = wal_path(&dir);
        let raw = fs::read(&wal).unwrap();
        fs::write(&wal, &raw[..raw.len() - 7]).unwrap();
        // Reader tolerates the tear (loses only the torn record) …
        assert_eq!(StoreReader::open(&dir).unwrap().len().unwrap(), 3);
        // … writer repairs it and appends cleanly after the tear.
        let mut w = StoreWriter::open_segmented(&dir, 100).unwrap();
        assert_eq!(w.len(), 3);
        w.append(&[ev(9, "h", 9)]).unwrap();
        let back = read_all(&dir);
        assert_eq!(back.len(), 4);
        assert_eq!(back[3].id, 9);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn crash_between_seal_and_wal_rewrite_recovers_without_duplicates() {
        let dir = tmp_dir("sealcrash");
        let events: Vec<Event> = (0..6).map(|i| ev(i, "h", i)).collect();
        let mut w = StoreWriter::create_segmented_with(&dir, 100).unwrap();
        w.append(&events).unwrap();
        w.sync().unwrap();
        // Simulate the crash window: a segment holding the WAL's head
        // exists, but the WAL was never rewritten (its base is stale).
        write_segment(&segment_file(&dir, 0), &events[..4]).unwrap();
        drop(w);
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.len().unwrap(), 6, "no duplicates, no losses");
        assert_eq!(read_all(&dir), events);
        let w = StoreWriter::open_segmented(&dir, 100).unwrap();
        assert_eq!(w.len(), 6);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn iter_from_resumes_at_global_offset() {
        let dir = tmp_dir("offset");
        let events: Vec<Event> = (0..25).map(|i| ev(i, "h", i * 10)).collect();
        let mut w = StoreWriter::create_segmented_with(&dir, 8).unwrap();
        w.append(&events).unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        for offset in [0u64, 1, 7, 8, 9, 16, 24, 25] {
            let got: Vec<Event> = reader
                .iter_from(offset)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(got, events[offset as usize..], "offset {offset}");
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn file_store_recovery_truncates_torn_tail() {
        let path = tmp_dir("filetear");
        {
            let mut w = StoreWriter::create(&path).unwrap();
            w.append(&[ev(1, "h", 1), ev(2, "h", 2)]).unwrap();
            w.sync().unwrap();
        }
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        let mut w = StoreWriter::open(&path).unwrap();
        assert_eq!(w.len(), 1);
        w.append(&[ev(3, "h", 3)]).unwrap();
        let back = read_all(&path);
        assert_eq!(
            back.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![1, 3],
            "torn record dropped, append lands after the repair"
        );
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn reader_resolves_both_layouts() {
        let file = tmp_dir("asfile");
        StoreWriter::create(&file)
            .unwrap()
            .append(&[ev(1, "h", 1)])
            .unwrap();
        assert_eq!(
            StoreReader::open(&file).unwrap().format(),
            StoreFormat::File
        );
        let dir = tmp_dir("asdir");
        StoreWriter::create_segmented(&dir)
            .unwrap()
            .append(&[ev(2, "h", 2)])
            .unwrap();
        let r = StoreReader::open(&dir).unwrap();
        assert_eq!(r.format(), StoreFormat::Segmented);
        assert_eq!(r.hosts().unwrap(), vec!["h".to_string()]);
        fs::remove_file(file).unwrap();
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn selection_prunes_sealed_segments() {
        let dir = tmp_dir("prune");
        let mut w = StoreWriter::create_segmented_with(&dir, 5).unwrap();
        w.append(&(0..5).map(|i| ev(i, "web", i)).collect::<Vec<_>>())
            .unwrap();
        w.append(&(5..10).map(|i| ev(i, "db", i)).collect::<Vec<_>>())
            .unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let got = reader.read(&Selection::host("db")).unwrap();
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|e| &*e.agent_id == "db"));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn seal_flushes_the_tail() {
        let dir = tmp_dir("seal");
        let mut w = StoreWriter::create_segmented_with(&dir, 100).unwrap();
        w.append(&[ev(1, "h", 1), ev(2, "h", 2)]).unwrap();
        w.seal().unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.segments().len(), 1);
        assert_eq!(reader.len().unwrap(), 2);
        fs::remove_dir_all(dir).unwrap();
    }
}
