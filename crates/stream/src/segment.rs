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
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use saql_model::{codec, Event, Timestamp};

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

pub(crate) fn write_segment(path: &Path, events: &[Event]) -> Result<(), StoreError> {
    let mut hosts: BTreeSet<&str> = BTreeSet::new();
    let mut min_ts = u64::MAX;
    let mut max_ts = 0u64;
    for e in events {
        hosts.insert(&e.agent_id);
        min_ts = min_ts.min(e.ts.as_millis());
        max_ts = max_ts.max(e.ts.as_millis());
    }
    let mut buf = BytesMut::with_capacity(events.len() * 96 + 256);
    buf.put_slice(SEG_MAGIC);
    buf.put_u32_le(events.len() as u32);
    buf.put_u64_le(min_ts);
    buf.put_u64_le(max_ts);
    buf.put_u32_le(hosts.len() as u32);
    for h in hosts {
        buf.put_u32_le(h.len() as u32);
        buf.put_slice(h.as_bytes());
    }
    for e in events {
        codec::encode_event(&mut buf, e);
    }
    let mut f = File::create(path)?;
    f.write_all(&buf)?;
    // Sealed segments are the durability boundary: they must hit disk
    // before any rename publishes them (see `crate::durable`).
    f.sync_all()?;
    Ok(())
}

fn read_file(path: &Path) -> Result<Bytes, StoreError> {
    let mut f = File::open(path)?;
    let mut raw = Vec::new();
    f.read_to_end(&mut raw)?;
    Ok(Bytes::from(raw))
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("{}: {what}", path.display()))
}

fn parse_header(data: &mut Bytes, path: &Path) -> Result<SegmentMeta, StoreError> {
    if data.remaining() < SEG_MAGIC.len() || &data.chunk()[..SEG_MAGIC.len()] != SEG_MAGIC {
        return Err(StoreError::BadMagic);
    }
    data.advance(SEG_MAGIC.len());
    if data.remaining() < 4 + 8 + 8 + 4 {
        return Err(corrupt(path, "truncated segment header"));
    }
    let events = data.get_u32_le();
    let min_ts = Timestamp::from_millis(data.get_u64_le());
    let max_ts = Timestamp::from_millis(data.get_u64_le());
    let n_hosts = data.get_u32_le();
    let mut hosts = BTreeSet::new();
    for _ in 0..n_hosts {
        if data.remaining() < 4 {
            return Err(corrupt(path, "truncated host table"));
        }
        let len = data.get_u32_le() as usize;
        if data.remaining() < len {
            return Err(corrupt(path, "truncated host table"));
        }
        let raw = data.copy_to_bytes(len);
        let host = std::str::from_utf8(&raw).map_err(|_| corrupt(path, "host is not UTF-8"))?;
        hosts.insert(host.to_string());
    }
    Ok(SegmentMeta {
        path: path.to_path_buf(),
        events,
        min_ts,
        max_ts,
        hosts,
    })
}

pub(crate) fn read_meta(path: &Path) -> Result<SegmentMeta, StoreError> {
    let mut data = read_file(path)?;
    parse_header(&mut data, path)
}

/// Streams one segment's records in stored order, decoding each on demand.
/// The header's event count is untrusted input: it sizes no allocation, and
/// a segment whose records do not add up to exactly that count ends in one
/// [`StoreError::Corrupt`] naming the file.
pub(crate) struct SegmentRecords {
    path: PathBuf,
    data: Bytes,
    claimed: u32,
    decoded: u32,
}

impl SegmentRecords {
    pub(crate) fn open(path: &Path) -> Result<Self, StoreError> {
        let mut data = read_file(path)?;
        let meta = parse_header(&mut data, path)?;
        Ok(SegmentRecords {
            path: meta.path,
            data,
            claimed: meta.events,
            decoded: 0,
        })
    }

    /// The error that ends the stream: nothing is yielded after it.
    fn fail(&mut self, what: String) -> Option<Result<Event, StoreError>> {
        self.data = Bytes::new();
        self.claimed = self.decoded;
        Some(Err(corrupt(&self.path, what)))
    }
}

impl Iterator for SegmentRecords {
    type Item = Result<Event, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (claimed, decoded) = (self.claimed, self.decoded);
        if decoded == claimed {
            return match self.data.remaining() {
                0 => None,
                left => self.fail(format!("{left} bytes after the header's {claimed} events")),
            };
        }
        match codec::decode_event(&mut self.data) {
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
}
