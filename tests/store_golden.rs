//! Golden pin of the store's on-disk bytes: a small store whose segment
//! size forces several seals is checked in as `tests/fixtures/store_golden/`
//! (five sealed segments and the WAL tail). The writer must reproduce every
//! file byte for byte however the events reach it: in one `append`, one
//! event at a time, or as `Arc`'d events the way the session's write-ahead
//! tap hands them over.
//!
//! The fixture is only ever rewritten on a deliberate format change, by the
//! ignored test that made it:
//!
//! ```text
//! cargo test --test store_golden -- --ignored
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use saql::model::event::EventBuilder;
use saql::model::{Event, FileInfo, NetworkInfo, ProcessInfo};
use saql::stream::{StoreReader, StoreWriter};

/// Events per sealed segment: 45 events make five seals and a WAL of five.
const SEGMENT_EVENTS: usize = 8;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store_golden")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("saql-store-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every operation family on three hosts, timestamps jittered out of
/// order so each segment header's time range and host set differ.
fn golden_events() -> Vec<Event> {
    let hosts = ["web-1", "db", "mail-srv"];
    (0..45u64)
        .map(|i| {
            let ts = 1_000_000 + i * 250 - (i % 4) * 90;
            let b = EventBuilder::new(i + 1, hosts[(i % 7 % 3) as usize], ts)
                .subject(ProcessInfo::new(100 + i as u32 % 5, "worker.exe", "svc"));
            match i % 5 {
                0 => b.starts_process(ProcessInfo::new(900 + i as u32, "child.exe", "svc")),
                1 => b.writes_file(FileInfo::new(format!("C:\\data\\f{}.dmp", i % 6))),
                2 => b.reads_file(FileInfo::new("C:\\data\\shared.db")),
                3 => b
                    .sends(NetworkInfo::new(
                        "10.0.0.7",
                        40_000 + i as u16,
                        "172.16.0.9",
                        443,
                        "tcp",
                    ))
                    .amount(1_000 * i),
                _ => b
                    .receives(NetworkInfo::new("10.0.0.7", 53, "10.0.0.1", 5353, "udp"))
                    .amount(64),
            }
            .build()
        })
        .collect()
}

/// The store's files, sorted by name, with their bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store directory")
        .map(|entry| {
            let path = entry.expect("readable").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("readable"))
        })
        .collect();
    out.sort();
    out
}

#[test]
#[ignore = "rewrites the golden fixture; run only on a deliberate format change"]
fn write_store_fixture() {
    let dir = fixture_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create_segmented_with(&dir, SEGMENT_EVENTS).unwrap();
    writer.append(&golden_events()).unwrap();
    writer.sync().unwrap();
}

#[test]
fn the_writer_reproduces_the_golden_store_byte_for_byte() {
    let events = golden_events();
    let want = files(&fixture_dir());
    let names: Vec<&str> = want.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "seg-000000.saqlseg",
            "seg-000001.saqlseg",
            "seg-000002.saqlseg",
            "seg-000003.saqlseg",
            "seg-000004.saqlseg",
            "wal.saqlwal"
        ]
    );
    let shared: Vec<Arc<Event>> = events.iter().cloned().map(Arc::new).collect();
    type Feed<'a> = &'a dyn Fn(&mut StoreWriter);
    let feeds: [(&str, Feed); 3] = [
        ("one-append", &|w| {
            w.append(&events).unwrap();
        }),
        ("one-at-a-time", &|w| {
            for event in &events {
                w.append(std::slice::from_ref(event)).unwrap();
            }
        }),
        ("shared", &|w| {
            w.append(&shared).unwrap();
        }),
    ];
    for (tag, feed) in feeds {
        let dir = scratch_dir(tag);
        let mut writer = StoreWriter::create_segmented_with(&dir, SEGMENT_EVENTS).unwrap();
        feed(&mut writer);
        writer.sync().unwrap();
        assert_eq!(writer.len(), events.len() as u64, "{tag}");
        drop(writer);
        assert_eq!(files(&dir), want, "{tag}: every file byte for byte");
        let back: Vec<Event> = StoreReader::open(&dir)
            .unwrap()
            .iter_from(0)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, events, "{tag}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
