//! The event store: a directory of sealed segments plus a WAL tail, written
//! through [`StoreWriter`] and read through [`StoreReader`], with
//! WAL-disciplined appends and recovery-on-open.
//!
//! A store is a directory holding immutable, atomically sealed segment
//! files (`seg-NNNNNN.saqlseg`, the [`crate::segment`] format whose header
//! carries the per-segment index: event count, time range, host set) and
//! one append-only WAL tail (`wal.saqlwal`). It is the only on-disk layout;
//! opening a regular file is an error.
//!
//! Append discipline: every appended event first lands in the WAL
//! (`append` + [`StoreWriter::sync`] = durable ack). A session's
//! write-ahead tap makes one append + sync per round, and a tapped round
//! drains what is ready, up to the budget and the next cadence checkpoint,
//! so one sync covers a backlog. Each event is encoded once: the writer
//! keeps the unsealed tail as this WAL generation's encoded records plus a
//! running segment header. When the WAL holds a full segment it is sealed
//! into a fresh segment file (that header, then those bytes) and the WAL is
//! replaced by an empty one, each through [`replace_file`] (temp file,
//! fsync, rename, directory fsync), so the segment's rename is on disk
//! before the WAL's. The WAL header records `base`, the number of events
//! already sealed when that WAL generation was written, so a crash
//! *between* the segment rename and the WAL rewrite is recoverable:
//! recovery sees `base < sealed` and skips the first `sealed - base` WAL
//! events as duplicates of the freshly sealed segment.
//!
//! Recovery-on-open ([`StoreWriter::open`]) truncates a torn tail: WAL
//! records are decoded up to the first decode failure and the WAL is
//! rewritten at the last whole-record boundary. Everything appended before
//! the last successful [`sync`](StoreWriter::sync) survives any crash; a
//! torn tail can only lose the unsynced suffix. [`StoreReader`] applies the
//! same scan read-only (it tolerates a torn tail without repairing it), and
//! addresses events by **global offset** — the index of a record in append
//! order across all segments plus the WAL — which is what engine
//! checkpoints record and [`StoreReader::iter_from`] resumes from.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use saql_model::{codec, Event, Timestamp};

use crate::segment::{read_meta, SegmentMeta, SegmentRecords, Unsealed};
use crate::store::{Selection, StoreError};

const WAL_MAGIC: &[u8; 8] = b"SAQLWAL1";
/// WAL header: magic + little-endian `base` (events sealed when written).
const WAL_HEADER_LEN: usize = 16;

/// Default events per sealed segment.
pub const DEFAULT_SEGMENT_EVENTS: usize = 4096;

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.saqlwal")
}

fn segment_file(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("seg-{index:06}.saqlseg"))
}

/// An existing store path must be a directory. A regular file there is
/// what the single-file layout used to be, so the error says where it went.
fn existing_store_dir(path: &Path) -> Result<PathBuf, StoreError> {
    if fs::metadata(path)?.is_dir() {
        return Ok(path.to_path_buf());
    }
    Err(StoreError::Io(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{} is a regular file: single-file (`SAQLSTO1`) stores were removed, \
             a store is a segment directory (`saql simulate --out DIR` writes one)",
            path.display()
        ),
    )))
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

/// Replace the file at `path` with `bytes`, atomically and durably: the
/// bytes land in a `<file>.tmp` sibling and are fsynced, the sibling is
/// renamed over `path`, and the parent directory is fsynced so the rename
/// itself persists. A crash at any point leaves the old file or the new
/// one under `path`, never a torn one; and a later replacement in the same
/// directory cannot reach the disk before this one. Every file the store
/// and the engine's checkpoints publish goes through here.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    // The rename is only atomic-durable if the bytes it exposes already
    // reached the disk.
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let dir = dir.unwrap_or(Path::new("."));
    if let Ok(d) = File::open(dir) {
        // Best-effort: not all platforms allow fsync on directories.
        let _ = d.sync_all();
    }
    Ok(())
}

/// Atomically replace the WAL with `base` + the encoded `records`.
fn rewrite_wal(dir: &Path, base: u64, records: &[u8]) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(WAL_HEADER_LEN + records.len());
    buf.extend_from_slice(WAL_MAGIC);
    buf.extend_from_slice(&base.to_le_bytes());
    buf.extend_from_slice(records);
    replace_file(&wal_path(dir), &buf)?;
    Ok(())
}

/// The WAL tail a reader reconstructs: events not yet sealed into
/// segments, decoded up to the first undecodable record (a torn tail keeps
/// its whole-record prefix). A missing WAL, or one whose header itself is
/// torn, is an empty tail; a wrong magic is a hard error: the file is not a
/// WAL. `sealed` is the segment event total; duplicates of a seal that
/// crashed before its WAL rewrite are skipped via the header `base` (see
/// module docs).
fn wal_tail(dir: &Path, sealed: u64) -> Result<Vec<Event>, StoreError> {
    let raw = match fs::read(wal_path(dir)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        raw => raw?,
    };
    let Some((header, mut buf)) = raw.split_first_chunk::<WAL_HEADER_LEN>() else {
        return Ok(Vec::new());
    };
    let (magic, base) = header.split_at(WAL_MAGIC.len());
    if magic != WAL_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let base = u64::from_le_bytes(base.try_into().expect("8-byte base"));
    let mut events = Vec::new();
    while let Ok(event) = codec::decode_event(&mut buf) {
        events.push(event);
    }
    let Some(skip) = sealed.checked_sub(base) else {
        return Err(StoreError::Corrupt(format!(
            "WAL base {base} exceeds sealed event count {sealed}"
        )));
    };
    if skip > events.len() as u64 {
        return Err(StoreError::Corrupt(format!(
            "{skip} sealed events missing from the WAL generation (base {base}, {} WAL records)",
            events.len()
        )));
    }
    events.drain(..skip as usize);
    Ok(events)
}

// ---------------------------------------------------------------------
// StoreWriter
// ---------------------------------------------------------------------

/// The store's writing surface: create or recover a store, append events,
/// `sync` for a durable ack; the WAL is sealed into an immutable segment
/// each time it fills.
pub struct StoreWriter {
    dir: PathBuf,
    segment_events: usize,
    wal: File,
    /// The unsealed tail: this WAL generation's records as encoded, with
    /// the segment header they will be sealed under.
    tail: Unsealed,
    /// Events in sealed segments.
    sealed: u64,
    next_segment: usize,
}

impl StoreWriter {
    /// Create a fresh store directory with the default segment size. Fails
    /// if the directory already holds a store.
    pub fn create_segmented(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::create_segmented_with(dir, DEFAULT_SEGMENT_EVENTS)
    }

    /// Create a fresh store with an explicit segment size.
    pub fn create_segmented_with(
        dir: impl AsRef<Path>,
        segment_events: usize,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if wal_path(&dir).exists() || !sorted_segment_paths(&dir)?.is_empty() {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds a store", dir.display()),
            )));
        }
        Self::start(dir, segment_events, &[], 0, 0)
    }

    /// Open an existing store for appending, recovering on open: a torn
    /// WAL tail (crash mid-write) is truncated back to the last
    /// whole-record boundary, so every previously synced event survives.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_segmented(dir, DEFAULT_SEGMENT_EVENTS)
    }

    /// Open (or recover) a store with an explicit segment size.
    pub fn open_segmented(
        dir: impl AsRef<Path>,
        segment_events: usize,
    ) -> Result<Self, StoreError> {
        // What a reader sees is what recovery keeps.
        let seen = StoreReader::open(dir)?;
        let next_segment = seen
            .segments
            .iter()
            .filter_map(|m| segment_index(&m.path))
            .max()
            .map_or(0, |last| last + 1);
        Self::start(
            seen.dir,
            segment_events,
            &seen.tail,
            seen.sealed,
            next_segment,
        )
    }

    /// Write the WAL generation `(base = sealed, tail)` and open it for
    /// appending. For a recovered store this is the normalizing rewrite
    /// that drops the torn suffix and any crash-duplicated head.
    fn start(
        dir: PathBuf,
        segment_events: usize,
        events: &[Event],
        sealed: u64,
        next_segment: usize,
    ) -> Result<Self, StoreError> {
        assert!(segment_events > 0, "segments must hold at least one event");
        let mut tail = Unsealed::default();
        events.iter().for_each(|e| tail.push(e));
        rewrite_wal(&dir, sealed, &tail.records)?;
        let wal = OpenOptions::new().append(true).open(wal_path(&dir))?;
        Ok(StoreWriter {
            dir,
            segment_events,
            wal,
            tail,
            sealed,
            next_segment,
        })
    }

    /// Append a batch of events (owned, `Arc`'d or borrowed), returning
    /// the store's new event count. Each event is encoded once, into the
    /// unsealed tail, and those bytes are what the WAL and later the sealed
    /// segment receive. Appends are buffered by the OS until
    /// [`sync`](Self::sync); sealing is automatic each time the WAL holds a
    /// full segment. The batch is fed in chunks cut at the segment boundary,
    /// so the unsealed tail never outgrows one segment and the WAL rewrite
    /// after a seal is header-only.
    pub fn append<E: Borrow<Event>>(&mut self, mut events: &[E]) -> Result<u64, StoreError> {
        while !events.is_empty() {
            // A store reopened with a smaller segment size can start with
            // an over-full tail: no room, so the first turn only seals.
            let room = self.segment_events.saturating_sub(self.tail.events);
            let (chunk, rest) = events.split_at(room.min(events.len()));
            let from = self.tail.records.len();
            chunk.iter().for_each(|e| self.tail.push(e.borrow()));
            self.wal.write_all(&self.tail.records[from..])?;
            if self.tail.events >= self.segment_events {
                self.seal()?;
            }
            events = rest;
        }
        Ok(self.len())
    }

    /// Durably ack everything appended so far (fsync). Events appended
    /// before a successful `sync` survive any crash or torn tail.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync_data()?;
        Ok(())
    }

    /// Seal the WAL tail into a (possibly short) segment. No-op on an
    /// empty tail.
    pub fn seal(&mut self) -> Result<(), StoreError> {
        if self.tail.events == 0 {
            return Ok(());
        }
        self.tail
            .write(&segment_file(&self.dir, self.next_segment))?;
        self.next_segment += 1;
        self.sealed += self.tail.events as u64;
        self.tail = Unsealed::default();
        // Crash before this rewrite is safe: recovery skips the WAL head
        // that duplicates the just-sealed segment (header base < sealed).
        rewrite_wal(&self.dir, self.sealed, &[])?;
        self.wal = OpenOptions::new().append(true).open(wal_path(&self.dir))?;
        Ok(())
    }

    /// Total events in the store (sealed + WAL tail).
    pub fn len(&self) -> u64 {
        self.sealed + self.tail.events as u64
    }

    /// Whether the store holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

// ---------------------------------------------------------------------
// StoreReader
// ---------------------------------------------------------------------

/// The store's reading surface. Opening is non-destructive: a torn WAL
/// tail is tolerated (ignored) but never repaired. Reads prune
/// non-intersecting segments by header, and
/// [`iter_from`](Self::iter_from) skips whole segments by their counted
/// events when resuming from a global offset.
#[derive(Debug)]
pub struct StoreReader {
    dir: PathBuf,
    segments: Vec<SegmentMeta>,
    /// Unsealed WAL events (decoded eagerly; bounded by segment size).
    tail: Vec<Event>,
    sealed: u64,
}

impl StoreReader {
    /// Open a store directory for reading (segment headers and the WAL are
    /// validated eagerly).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = existing_store_dir(dir.as_ref())?;
        let mut segments = Vec::new();
        let mut sealed = 0u64;
        for p in sorted_segment_paths(&dir)? {
            let meta = read_meta(&p)?;
            sealed += meta.events as u64;
            segments.push(meta);
        }
        let tail = wal_tail(&dir, sealed)?;
        Ok(StoreReader {
            dir,
            segments,
            tail,
            sealed,
        })
    }

    fn iter_over(&self, segments: Vec<SegmentMeta>, selection: Selection, skip: u64) -> StoreIter {
        let tail_floor = self.tail.iter().map(|e| e.ts.as_millis()).min();
        let tail_floor = tail_floor.unwrap_or(u64::MAX);
        // Each pending segment carries the floor from it on: the smallest
        // header `min_ts` of it and every later segment, and the tail's.
        let mut floor = tail_floor;
        let mut pending = VecDeque::with_capacity(segments.len());
        for meta in segments.into_iter().rev() {
            floor = floor.min(meta.min_ts.as_millis());
            pending.push_front((meta, floor));
        }
        StoreIter {
            pending,
            current: None,
            tail: self.tail.clone().into_iter(),
            floor,
            tail_floor,
            failed: false,
            selection,
            skip,
        }
    }

    /// Stream events matching `selection`, in stored order, pruning
    /// segments by header first.
    pub fn iter(&self, selection: &Selection) -> StoreIter {
        let segments = self
            .segments
            .iter()
            .filter(|m| m.intersects(selection))
            .cloned()
            .collect();
        self.iter_over(segments, selection.clone(), 0)
    }

    /// Stream every event from global offset `offset` (0-based index in
    /// append order) to the end — the resume path: an engine checkpoint
    /// records the offset it was taken at, and the replacement session
    /// re-attaches here.
    pub fn iter_from(&self, offset: u64) -> Result<StoreIter, StoreError> {
        let mut skip = offset;
        let mut segments = Vec::new();
        for meta in &self.segments {
            if segments.is_empty() && skip >= meta.events as u64 {
                skip -= meta.events as u64;
                continue;
            }
            segments.push(meta.clone());
        }
        Ok(self.iter_over(segments, Selection::all(), skip))
    }

    /// Total stored events, from segment headers plus the WAL tail.
    pub fn len(&self) -> u64 {
        self.sealed + self.tail.len() as u64
    }

    /// Whether the store holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct host ids present, sorted — from segment headers plus the
    /// WAL tail.
    pub fn hosts(&self) -> Vec<String> {
        let mut hosts: Vec<String> = self
            .segments
            .iter()
            .flat_map(|m| m.hosts.iter().cloned())
            .chain(self.tail.iter().map(|e| e.agent_id.to_string()))
            .collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }

    /// The store directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Sealed segment headers.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }
}

/// Streaming iterator over a [`StoreReader`]: decodes the pending segments
/// record by record, then yields the WAL tail; applies the selection, skips
/// the global-offset prefix, and surfaces a segment's read failure as the
/// stream's last item.
pub struct StoreIter {
    /// Segments still to open, each with the floor from it on.
    pending: VecDeque<(SegmentMeta, u64)>,
    current: Option<SegmentRecords>,
    tail: std::vec::IntoIter<Event>,
    /// See [`floor`](Self::floor), in milliseconds (`u64::MAX`: none).
    floor: u64,
    /// The smallest timestamp in the WAL tail.
    tail_floor: u64,
    failed: bool,
    selection: Selection,
    skip: u64,
}

impl StoreIter {
    /// No event this iterator yields from now on is earlier than this:
    /// the smallest header `min_ts` of the segment being read and of every
    /// pending one, and after them the WAL tail's smallest timestamp.
    /// `None` once nothing is left to read. The segment headers are
    /// untrusted, but every record is checked against its header's range
    /// as it is decoded, and a record outside it ends the stream: a forged
    /// header can cut the stream short, not break this promise.
    pub(crate) fn floor(&self) -> Option<Timestamp> {
        (self.floor != u64::MAX).then(|| Timestamp::from_millis(self.floor))
    }

    /// The next stored event, before skip and selection.
    fn next_raw(&mut self) -> Option<Result<Event, StoreError>> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(records) = &mut self.current {
                match records.next() {
                    Some(item) => {
                        self.failed = item.is_err();
                        return Some(item);
                    }
                    None => self.current = None,
                }
            }
            let Some((meta, floor)) = self.pending.pop_front() else {
                self.floor = self.tail_floor;
                return self.tail.next().map(Ok);
            };
            self.floor = floor;
            match SegmentRecords::open(&meta.path) {
                Ok(records) => self.current = Some(records),
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl Iterator for StoreIter {
    type Item = Result<Event, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let event = match self.next_raw()? {
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
    use saql_model::{ProcessInfo, Timestamp};

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

    fn read(reader: &StoreReader, selection: &Selection) -> Result<Vec<Event>, StoreError> {
        reader.iter(selection).collect()
    }

    fn read_all(path: &Path) -> Vec<Event> {
        read(&StoreReader::open(path).unwrap(), &Selection::all()).unwrap()
    }

    fn ids(events: &[Event]) -> Vec<u64> {
        events.iter().map(|e| e.id).collect()
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
        assert_eq!(reader.len(), 35);
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
    fn multiple_appends_accumulate() {
        let dir = tmp_dir("appends");
        let mut w = StoreWriter::create_segmented(&dir).unwrap();
        assert_eq!(w.append(&[ev(1, "h", 1)]).unwrap(), 1);
        assert_eq!(w.append(&[ev(2, "h", 2)]).unwrap(), 2);
        assert_eq!(StoreReader::open(&dir).unwrap().len(), 2);
        assert_eq!(ids(&read_all(&dir)), vec![1, 2]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn selection_by_host_and_time_across_segments_and_tail() {
        // 10 events alternating hosts: two sealed segments of 4, 2 in the WAL.
        let dir = tmp_dir("selection");
        let events: Vec<Event> = (0..10)
            .map(|i| ev(i, if i % 2 == 0 { "h1" } else { "h2" }, i * 10))
            .collect();
        StoreWriter::create_segmented_with(&dir, 4)
            .unwrap()
            .append(&events)
            .unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.segments().len(), 2);
        let h1 = read(&reader, &Selection::host("h1")).unwrap();
        assert_eq!(ids(&h1), vec![0, 2, 4, 6, 8]);
        let sel =
            Selection::host("h1").between(Timestamp::from_millis(20), Timestamp::from_millis(80));
        assert_eq!(ids(&read(&reader, &sel).unwrap()), vec![2, 4, 6]);
        assert!(read(&reader, &Selection::host("h9")).unwrap().is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn hosts_listing_is_sorted_and_spans_segments_and_tail() {
        let dir = tmp_dir("hosts");
        StoreWriter::create_segmented_with(&dir, 2)
            .unwrap()
            .append(&[ev(1, "zeta", 1), ev(2, "alpha", 2), ev(3, "mid", 3)])
            .unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.segments().len(), 1, "`mid` is only in the WAL");
        assert_eq!(reader.hosts(), vec!["alpha", "mid", "zeta"]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_store() {
        let dir = tmp_dir("empty");
        let w = StoreWriter::create_segmented(&dir).unwrap();
        assert!(w.is_empty());
        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.is_empty());
        assert!(reader.hosts().is_empty());
        assert!(read(&reader, &Selection::all()).unwrap().is_empty());
        assert_eq!(reader.iter_from(0).unwrap().count(), 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tmp_dir("badmagic");
        drop(StoreWriter::create_segmented(&dir).unwrap());
        fs::write(wal_path(&dir), b"NOTASTORE-NOTASTORE").unwrap();
        assert!(matches!(StoreReader::open(&dir), Err(StoreError::BadMagic)));
        assert!(matches!(StoreWriter::open(&dir), Err(StoreError::BadMagic)));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn regular_file_is_rejected_with_the_removal_message() {
        // Both an arbitrary file and one carrying the removed layout's
        // magic: an error that says where single-file stores went — not a
        // panic, not an empty store.
        for (tag, content) in [
            ("plainfile", &b"hello"[..]),
            ("legacyfile", &b"SAQLSTO1"[..]),
        ] {
            let path = tmp_dir(tag);
            fs::write(&path, content).unwrap();
            for err in [
                StoreReader::open(&path).map(drop).unwrap_err(),
                StoreWriter::open(&path).map(drop).unwrap_err(),
            ] {
                let msg = err.to_string();
                assert!(msg.contains("single-file"), "{msg}");
                assert!(msg.contains("removed"), "{msg}");
            }
            assert_eq!(fs::read(&path).unwrap(), content, "file left untouched");
            fs::remove_file(path).unwrap();
        }
        let missing = tmp_dir("missing");
        assert!(matches!(
            StoreReader::open(&missing),
            Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::NotFound
        ));
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
        assert_eq!(StoreReader::open(&dir).unwrap().len(), 3);
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
        let mut head = Unsealed::default();
        events[..4].iter().for_each(|e| head.push(e));
        head.write(&segment_file(&dir, 0)).unwrap();
        drop(w);
        let reader = StoreReader::open(&dir).unwrap();
        assert_eq!(reader.len(), 6, "no duplicates, no losses");
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
    fn selection_prunes_sealed_segments() {
        let dir = tmp_dir("prune");
        let mut w = StoreWriter::create_segmented_with(&dir, 5).unwrap();
        w.append(&(0..5).map(|i| ev(i, "web", i)).collect::<Vec<_>>())
            .unwrap();
        w.append(&(5..10).map(|i| ev(i, "db", i)).collect::<Vec<_>>())
            .unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let got = read(&reader, &Selection::host("db")).unwrap();
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
        assert_eq!(reader.len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn truncated_segment_is_reported_and_ends_the_stream() {
        let dir = tmp_dir("truncseg");
        let events: Vec<Event> = (0..4).map(|i| ev(i, "h", i)).collect();
        StoreWriter::create_segmented_with(&dir, 2)
            .unwrap()
            .append(&events)
            .unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        // Chop the second segment's last record in half.
        let second = segment_file(&dir, 1);
        let raw = fs::read(&second).unwrap();
        fs::write(&second, &raw[..raw.len() - 5]).unwrap();
        // Everything before the tear streams out, then the error.
        let mut iter = reader.iter(&Selection::all());
        for id in 0..3 {
            assert_eq!(iter.next().unwrap().unwrap().id, id);
        }
        match iter.next() {
            Some(Err(StoreError::Corrupt(msg))) => {
                assert!(msg.contains("seg-000001"), "names the file: {msg}")
            }
            other => panic!("expected a corrupt-segment error, got {other:?}"),
        }
        assert!(iter.next().is_none(), "stream ends after the error");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn forged_segment_count_is_an_error_not_an_abort() {
        // A header claiming u32::MAX events must not size an allocation: the
        // segment's real records stream out, then the count mismatch.
        // Forged after `open` (which cross-checks counts against the WAL),
        // and again with the WAL gone so `open` itself accepts the header.
        let dir = tmp_dir("forged");
        let events: Vec<Event> = (0..6).map(|i| ev(i, "h", i)).collect();
        StoreWriter::create_segmented_with(&dir, 3)
            .unwrap()
            .append(&events)
            .unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let first = segment_file(&dir, 0);
        let mut raw = fs::read(&first).unwrap();
        raw[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&first, &raw).unwrap();
        fs::remove_file(wal_path(&dir)).unwrap();
        for reader in [reader, StoreReader::open(&dir).unwrap()] {
            assert!(matches!(
                read(&reader, &Selection::all()),
                Err(StoreError::Corrupt(_))
            ));
            let mut iter = reader.iter_from(0).unwrap();
            for id in 0..3 {
                assert_eq!(iter.next().unwrap().unwrap().id, id);
            }
            assert!(matches!(iter.next(), Some(Err(StoreError::Corrupt(_)))));
            assert!(iter.next().is_none(), "stream ends after the error");
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn one_append_spanning_segments_equals_one_append_per_segment() {
        const SEG: usize = 16;
        let events: Vec<Event> = (0..10 * SEG as u64 + 5)
            .map(|i| ev(i, if i % 3 == 0 { "web" } else { "db" }, i * 7))
            .collect();
        let at_once = tmp_dir("span-once");
        let mut w = StoreWriter::create_segmented_with(&at_once, SEG).unwrap();
        assert_eq!(w.append(&events).unwrap(), events.len() as u64);
        w.sync().unwrap();
        // The tail is fed a segment at a time: its record buffer never
        // held the batch, at most twice one segment's worth of records.
        let record_bytes = |e: &Event| {
            let mut buf = Vec::new();
            codec::encode_event(&mut buf, e);
            buf.len()
        };
        let largest = events.iter().map(record_bytes).max().unwrap();
        assert_eq!(w.tail.events, 5);
        let capacity = w.tail.records.capacity();
        assert!(capacity <= 2 * SEG * largest, "{capacity}");
        drop(w);
        let stepwise = tmp_dir("span-steps");
        let mut w = StoreWriter::create_segmented_with(&stepwise, SEG).unwrap();
        for chunk in events.chunks(SEG) {
            w.append(chunk).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Same files on disk, byte for byte — segments and WAL.
        let names = |dir: &Path| -> Vec<PathBuf> {
            let mut names: Vec<PathBuf> = fs::read_dir(dir)
                .unwrap()
                .map(|e| PathBuf::from(e.unwrap().file_name()))
                .collect();
            names.sort();
            names
        };
        assert_eq!(names(&at_once), names(&stepwise));
        assert_eq!(names(&at_once).len(), 11, "10 segments + the WAL");
        for name in names(&at_once) {
            assert_eq!(
                fs::read(at_once.join(&name)).unwrap(),
                fs::read(stepwise.join(&name)).unwrap(),
                "{name:?}"
            );
        }
        assert_eq!(read_all(&at_once), events);
        // Crash recovery after the spanning append sees no duplicates.
        let w = StoreWriter::open_segmented(&at_once, SEG).unwrap();
        assert_eq!(w.len(), events.len() as u64);
        drop(w);
        assert_eq!(read_all(&at_once), events);
        fs::remove_dir_all(at_once).unwrap();
        fs::remove_dir_all(stepwise).unwrap();
    }

    #[test]
    fn reopening_with_a_smaller_segment_size_seals_the_over_full_tail() {
        let dir = tmp_dir("shrink");
        let events: Vec<Event> = (0..8).map(|i| ev(i, "h", i)).collect();
        StoreWriter::create_segmented_with(&dir, 100)
            .unwrap()
            .append(&events[..7])
            .unwrap();
        let mut w = StoreWriter::open_segmented(&dir, 3).unwrap();
        assert_eq!(w.append(&events[7..]).unwrap(), 8);
        assert_eq!(read_all(&dir), events);
        fs::remove_dir_all(dir).unwrap();
    }
}
