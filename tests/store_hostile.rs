//! Hostile store input: a damaged segment file, a damaged WAL, or a damaged
//! `encode_batch` buffer is read back with an `Ok` or an `Err` — by
//! `StoreReader::open` and a full iteration, by `StoreWriter::open`, or by
//! `decode_batch` — never with a panic, and never by asking the allocator
//! for much more memory than the damaged input holds.
//!
//! The inputs come from a small sealed store (two segments of four events,
//! three more in its WAL) and one batch of the same events. Each is cut at
//! every length and has seeded random bytes overwritten. A counting global
//! allocator records the largest single allocation each read makes; it
//! must stay within 8× the damaged input plus 64 KiB, the bound
//! `checkpoint_hostile.rs` holds the checkpoint decoder to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use saql::model::codec::{decode_batch, encode_batch};
use saql::model::event::EventBuilder;
use saql::model::{Event, FileInfo, NetworkInfo, ProcessInfo};
use saql::stream::store::Selection;
use saql::stream::{StoreReader, StoreWriter};

thread_local! {
    /// Largest single allocation (or reallocation) on this thread.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SEGMENT: &str = "seg-000000.saqlseg";
const WAL: &str = "wal.saqlwal";

/// The undamaged inputs: every file of the sealed store, and one batch.
struct Fixture {
    files: Vec<(String, Vec<u8>)>,
    batch: Vec<u8>,
}

fn events() -> Vec<Event> {
    (0..11u64)
        .map(|i| {
            let host = ["web", "db", "mail"][i as usize % 3];
            let e = EventBuilder::new(i, host, 1_000 + i * 250).subject(ProcessInfo::new(
                100 + i as u32,
                "cmd.exe",
                "admin",
            ));
            match i % 3 {
                0 => e.starts_process(ProcessInfo::new(900, "osql.exe", "admin")),
                1 => e.writes_file(FileInfo::new("C:/dump/backup1.dmp")),
                _ => e.sends(NetworkInfo::new(
                    "10.0.0.5",
                    50_000,
                    "172.16.0.9",
                    443,
                    "tcp",
                )),
            }
            .amount(i * 4_096)
            .build()
        })
        .collect()
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch("fixture");
        let events = events();
        let mut writer = StoreWriter::create_segmented_with(&dir, 4).unwrap();
        writer.append(&events).unwrap();
        writer.sync().unwrap();
        drop(writer);
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, [SEGMENT, "seg-000001.saqlseg", WAL]);
        fs::remove_dir_all(&dir).unwrap();
        Fixture {
            files,
            batch: encode_batch(&events),
        }
    })
}

/// An empty directory of this test's own.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("saql-store-hostile-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn good(name: &str) -> &'static [u8] {
    let files = &fixture().files;
    &files.iter().find(|(n, _)| n == name).unwrap().1
}

/// Fails the test if an allocation since `reset` broke the bound.
fn assert_within_bound(input: usize, what: &str) {
    let bound = 8 * input + 64 * 1024;
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= bound,
        "{what}: one allocation of {largest} bytes (bound {bound})"
    );
}

fn reset() {
    LARGEST.with(|largest| largest.set(0));
}

/// The store in `dir` with `file` holding `damaged`, every other file
/// intact: opened and read to the end, then reopened for appending.
fn open_damaged(dir: &Path, file: &str, damaged: &[u8]) {
    for (name, bytes) in &fixture().files {
        let bytes = if name == file { damaged } else { bytes };
        fs::write(dir.join(name), bytes).unwrap();
    }
    reset();
    if let Ok(reader) = StoreReader::open(dir) {
        // The stream ends after its first error.
        reader.iter(&Selection::all()).count();
    }
    let _ = StoreWriter::open(dir);
    assert_within_bound(damaged.len(), file);
}

fn decode_damaged(damaged: &[u8]) {
    reset();
    let _ = decode_batch(damaged);
    assert_within_bound(damaged.len(), "batch");
}

/// `input` with each `(at, byte)` overwritten.
fn overwrite(input: &[u8], edits: Vec<(usize, u8)>) -> Vec<u8> {
    let mut out = input.to_vec();
    for (at, byte) in edits {
        let at = at % out.len();
        out[at] = byte;
    }
    out
}

#[test]
fn the_undamaged_inputs_read_back_whole() {
    let dir = scratch("whole");
    open_damaged(&dir, WAL, good(WAL));
    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(
        reader
            .iter(&Selection::all())
            .collect::<Result<Vec<_>, _>>()
            .unwrap(),
        events()
    );
    assert_eq!(decode_batch(&fixture().batch).unwrap(), events());
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn every_truncation_of_a_segment_is_read_or_refused() {
    let dir = scratch("seg-cut");
    let segment = good(SEGMENT);
    for cut in 0..segment.len() {
        open_damaged(&dir, SEGMENT, &segment[..cut]);
    }
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn every_truncation_of_the_wal_is_read_or_refused() {
    let dir = scratch("wal-cut");
    let wal = good(WAL);
    for cut in 0..wal.len() {
        open_damaged(&dir, WAL, &wal[..cut]);
    }
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn every_truncation_of_a_batch_is_read_or_refused() {
    let batch = &fixture().batch;
    for cut in 0..batch.len() {
        decode_damaged(&batch[..cut]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_overwrites_of_a_segment_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let dir = scratch("seg-mut");
        open_damaged(&dir, SEGMENT, &overwrite(good(SEGMENT), edits));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn random_overwrites_of_the_wal_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let dir = scratch("wal-mut");
        open_damaged(&dir, WAL, &overwrite(good(WAL), edits));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn random_overwrites_of_a_batch_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        decode_damaged(&overwrite(&fixture().batch, edits));
    }
}
