//! Immutable event segments: the sealed files of the segmented store.
//!
//! Deployments that retain weeks of monitoring data (the paper: ~50 GB/day
//! per 100 hosts) need reads that touch only the relevant slices. The
//! segmented layout of [`crate::durable`] seals bounded runs of events
//! into immutable *segment* files whose headers carry the segment's time
//! range and host set; a selection read first plans over headers
//! ([`SegmentMeta::intersects`]) and decodes only intersecting segments —
//! the classic LSM/data-skipping layout, minimally. This module is the
//! segment file format; [`crate::durable::StoreWriter`] and
//! [`crate::durable::StoreReader`] are the store.
//!
//! Segment file layout:
//! `SAQLSEG1 | count:u32 | min_ts:u64 | max_ts:u64 | n_hosts:u32 |
//!  (len:u32 host-utf8)* | records…` (integers little-endian, records in
//! `saql_model::codec` format).

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};

use saql_model::{codec, Event, Timestamp};

use crate::durable::replace_file;
use crate::store::{Selection, StoreError};

const SEG_MAGIC: &[u8; 8] = b"SAQLSEG1";

/// Header metadata of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    pub path: PathBuf,
    pub events: u32,
    pub min_ts: Timestamp,
    pub max_ts: Timestamp,
    pub hosts: BTreeSet<String>,
}

impl SegmentMeta {
    /// Whether a selection could match anything in this segment.
    pub fn intersects(&self, selection: &Selection) -> bool {
        if let Some(from) = selection.from {
            if self.max_ts < from {
                return false;
            }
        }
        if let Some(until) = selection.until {
            if self.min_ts >= until {
                return false;
            }
        }
        if !selection.hosts.is_empty() && !selection.hosts.iter().any(|h| self.hosts.contains(h)) {
            return false;
        }
        true
    }
}

/// A segment being built: its records as encoded, and the running header
/// over them. The store's unsealed WAL tail is one; sealing it writes the
/// header and those bytes, so no record is encoded twice.
#[derive(Debug, Default)]
pub(crate) struct Unsealed {
    /// The records in `saql_model::codec` format, in append order.
    pub(crate) records: Vec<u8>,
    pub(crate) events: usize,
    /// The records' `(min_ts, max_ts)` in milliseconds.
    range: Option<(u64, u64)>,
    hosts: BTreeSet<String>,
}

impl Unsealed {
    /// Encode one more record and fold it into the header.
    pub(crate) fn push(&mut self, e: &Event) {
        codec::encode_event(&mut self.records, e);
        self.events += 1;
        let ts = e.ts.as_millis();
        let (min, max) = self.range.unwrap_or((ts, ts));
        self.range = Some((min.min(ts), max.max(ts)));
        if !self.hosts.contains(&*e.agent_id) {
            self.hosts.insert(e.agent_id.to_string());
        }
    }

    /// Write the header and the records as a sealed segment file.
    pub(crate) fn write(&self, path: &Path) -> Result<(), StoreError> {
        let (min_ts, max_ts) = self.range.unwrap_or((u64::MAX, 0));
        let mut buf = Vec::with_capacity(self.records.len() + 256);
        buf.extend_from_slice(SEG_MAGIC);
        buf.extend_from_slice(&(self.events as u32).to_le_bytes());
        buf.extend_from_slice(&min_ts.to_le_bytes());
        buf.extend_from_slice(&max_ts.to_le_bytes());
        buf.extend_from_slice(&(self.hosts.len() as u32).to_le_bytes());
        for h in &self.hosts {
            buf.extend_from_slice(&(h.len() as u32).to_le_bytes());
            buf.extend_from_slice(h.as_bytes());
        }
        buf.extend_from_slice(&self.records);
        // Sealed segments are the durability boundary: a segment appears
        // under its name whole and on disk, or not at all (see `crate::durable`).
        replace_file(path, &buf)?;
        Ok(())
    }
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("{}: {what}", path.display()))
}

/// Up to `n` bytes off the front of `r`: fewer only where the file ends.
/// Grows with what is read, so an untrusted `n` sizes no allocation.
fn take(r: &mut impl Read, n: u64) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    r.take(n).read_to_end(&mut out)?;
    Ok(out)
}

/// A little-endian unsigned integer.
fn le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b))
}

/// Read the header (fixed fields and host table) off the front of `r`,
/// leaving `r` at the first record; nothing past the header is read.
fn read_header(r: &mut impl Read, path: &Path) -> Result<SegmentMeta, StoreError> {
    // magic | count:u32 | min_ts:u64 | max_ts:u64 | n_hosts:u32
    let fixed = take(r, 8 + 4 + 8 + 8 + 4)?;
    if fixed.get(..SEG_MAGIC.len()) != Some(&SEG_MAGIC[..]) {
        return Err(StoreError::BadMagic);
    }
    if fixed.len() < 32 {
        return Err(corrupt(path, "truncated segment header"));
    }
    let mut hosts = BTreeSet::new();
    for _ in 0..le(&fixed[28..]) {
        let len = take(r, 4)?;
        let raw = take(r, le(&len))?;
        if len.len() < 4 || raw.len() as u64 != le(&len) {
            return Err(corrupt(path, "truncated host table"));
        }
        let host = String::from_utf8(raw).map_err(|_| corrupt(path, "host is not UTF-8"))?;
        hosts.insert(host);
    }
    Ok(SegmentMeta {
        path: path.to_path_buf(),
        events: le(&fixed[8..12]) as u32,
        min_ts: Timestamp::from_millis(le(&fixed[12..20])),
        max_ts: Timestamp::from_millis(le(&fixed[20..28])),
        hosts,
    })
}

/// A segment's header, read without touching its records.
pub(crate) fn read_meta(path: &Path) -> Result<SegmentMeta, StoreError> {
    read_header(&mut BufReader::new(File::open(path)?), path)
}

/// Streams one segment's records in stored order, decoding each on demand.
/// The header is untrusted input. Its event count sizes no allocation, and
/// a segment whose records do not add up to exactly that count ends in one
/// [`StoreError::Corrupt`] naming the file. So does a record outside the
/// header's `[min_ts, max_ts]`: the range is what a
/// [`StoreIter::floor`](crate::durable::StoreIter::floor) promises, and a
/// forged one ends the stream before it can break that promise.
pub(crate) struct SegmentRecords {
    path: PathBuf,
    /// The whole file; records are decoded from `data[at..]`.
    data: Vec<u8>,
    at: usize,
    claimed: u32,
    decoded: u32,
    min_ts: Timestamp,
    max_ts: Timestamp,
}

impl SegmentRecords {
    pub(crate) fn open(path: &Path) -> Result<Self, StoreError> {
        let data = std::fs::read(path)?;
        let mut rest = &data[..];
        let meta = read_header(&mut rest, path)?;
        let at = data.len() - rest.len();
        Ok(SegmentRecords {
            path: meta.path,
            data,
            at,
            claimed: meta.events,
            decoded: 0,
            min_ts: meta.min_ts,
            max_ts: meta.max_ts,
        })
    }

    /// The error that ends the stream: nothing is yielded after it.
    fn fail(&mut self, what: String) -> Option<Result<Event, StoreError>> {
        self.data = Vec::new();
        self.at = 0;
        self.claimed = self.decoded;
        Some(Err(corrupt(&self.path, what)))
    }
}

impl Iterator for SegmentRecords {
    type Item = Result<Event, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (claimed, decoded) = (self.claimed, self.decoded);
        if decoded == claimed {
            return match self.data.len() - self.at {
                0 => None,
                left => self.fail(format!("{left} bytes after the header's {claimed} events")),
            };
        }
        let mut rest = &self.data[self.at..];
        let record = codec::decode_event(&mut rest);
        self.at = self.data.len() - rest.len();
        match record {
            Ok(event) if !(self.min_ts..=self.max_ts).contains(&event.ts) => self.fail(format!(
                "record {decoded} at {} ms lies outside the header's range {}..={} ms",
                event.ts.as_millis(),
                self.min_ts.as_millis(),
                self.max_ts.as_millis()
            )),
            Ok(event) => {
                self.decoded += 1;
                Some(Ok(event))
            }
            Err(e) => self.fail(format!(
                "header claims {claimed} events, record {decoded} is unreadable ({e})"
            )),
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

    fn write_segment(path: &Path, events: &[Event]) -> Result<(), StoreError> {
        let mut segment = Unsealed::default();
        events.iter().for_each(|e| segment.push(e));
        segment.write(path)
    }

    fn read_segment_events(path: &Path) -> Result<Vec<Event>, StoreError> {
        SegmentRecords::open(path)?.collect()
    }

    fn tmp_file(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("saql-segment-{}-{tag}.saqlseg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn segment_roundtrips_events_and_header() {
        let path = tmp_file("roundtrip");
        let events = vec![ev(1, "web", 500), ev(2, "db", 900), ev(3, "web", 100)];
        write_segment(&path, &events).unwrap();
        assert_eq!(read_segment_events(&path).unwrap(), events);
        let meta = read_meta(&path).unwrap();
        assert_eq!(meta.events, 3);
        assert_eq!(meta.min_ts, Timestamp::from_millis(100));
        assert_eq!(meta.max_ts, Timestamp::from_millis(900));
        assert_eq!(
            meta.hosts.iter().cloned().collect::<Vec<_>>(),
            vec!["db".to_string(), "web".to_string()]
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn header_prunes_by_time_range_and_host_set() {
        let path = tmp_file("prune");
        // One segment covering ts 1000..1900 on host `web`.
        let events: Vec<Event> = (0..10).map(|i| ev(i, "web", 1_000 + i * 100)).collect();
        write_segment(&path, &events).unwrap();
        let meta = read_meta(&path).unwrap();
        let between = |from, until| {
            Selection::all().between(Timestamp::from_millis(from), Timestamp::from_millis(until))
        };
        assert!(meta.intersects(&Selection::all()));
        assert!(
            meta.intersects(&between(1_900, 5_000)),
            "max_ts is inclusive"
        );
        assert!(!meta.intersects(&between(1_901, 5_000)));
        assert!(!meta.intersects(&between(0, 1_000)), "until is exclusive");
        assert!(meta.intersects(&between(0, 1_001)));
        assert!(meta.intersects(&Selection::host("web")));
        assert!(!meta.intersects(&Selection::host("db")));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn corrupt_segment_is_an_error() {
        let path = tmp_file("corrupt");
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(read_meta(&path), Err(StoreError::BadMagic)));
        assert!(matches!(
            read_segment_events(&path),
            Err(StoreError::BadMagic)
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn header_that_disagrees_with_the_records_is_corrupt() {
        let path = tmp_file("forged");
        let events = vec![ev(1, "web", 500), ev(2, "db", 900)];
        write_segment(&path, &events).unwrap();
        let good = std::fs::read(&path).unwrap();
        let corrupt_naming_the_file = |raw: &[u8]| {
            std::fs::write(&path, raw).unwrap();
            match read_segment_events(&path) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains("saql-segment-"), "names the file: {msg}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        };
        // Count forged up (to the maximum: must not size an allocation),
        // forged down (records left over), and a torn last record.
        for count in [u32::MAX, 3, 1] {
            let mut raw = good.clone();
            raw[8..12].copy_from_slice(&count.to_le_bytes());
            corrupt_naming_the_file(&raw);
        }
        corrupt_naming_the_file(&good[..good.len() - 4]);
        // Header torn inside the fixed fields and inside the host table.
        for cut in [20, 8 + 4 + 8 + 8 + 4 + 2] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(matches!(read_meta(&path), Err(StoreError::Corrupt(_))));
        }
        std::fs::remove_file(path).unwrap();
    }

    /// A header whose time range excludes a record is what a store's
    /// watermark floor would trust: the record and everything after it
    /// must not come out, only an error naming the file.
    #[test]
    fn a_record_outside_the_header_time_range_is_corrupt() {
        let path = tmp_file("range");
        let events = vec![
            ev(1, "web", 600),
            ev(2, "web", 500),
            ev(3, "web", 900),
            ev(4, "web", 700),
        ];
        write_segment(&path, &events).unwrap();
        let good = std::fs::read(&path).unwrap();
        // min_ts forged up past record 1, max_ts forged down below record 2.
        for (at, forged, clean) in [(12, 550u64, 1), (20, 800, 2)] {
            let mut raw = good.clone();
            raw[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            std::fs::write(&path, raw).unwrap();
            let mut records = SegmentRecords::open(&path).unwrap();
            for want in &events[..clean] {
                assert_eq!(&records.next().unwrap().unwrap(), want);
            }
            match records.next() {
                Some(Err(StoreError::Corrupt(msg))) => {
                    assert!(msg.contains("saql-segment-"), "names the file: {msg}");
                    assert!(msg.contains("outside the header's range"), "{msg}");
                }
                other => panic!("expected Corrupt at record {clean}, got {other:?}"),
            }
            assert!(records.next().is_none(), "nothing after the bad record");
        }
        std::fs::remove_file(path).unwrap();
    }
}
