//! Hostile checkpoint input: a damaged or forged checkpoint file is refused
//! with an error — by `Checkpoint::decode`, or by `Engine::resume_from`
//! validating the restored state against the recompiled plans — never with
//! a panic, and never by asking the allocator for much more memory than the
//! file holds.
//!
//! The input is the golden demo-run checkpoint (all four anomaly models, a
//! `|>` pipeline, live partial matches; see `checkpoint_golden.rs`): cut at
//! any length, with random bytes overwritten, or with a length prefix
//! forged to claim every byte after it. A counting global allocator records
//! the largest single allocation each decode-and-resume makes; it must stay
//! within 8× the input plus 64 KiB. The bound holds for damage to this
//! fixture — it catches a count-sized reservation — not for any crafted
//! file: decoded elements still cost their in-memory size (see the
//! `checkpoint` module doc).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use proptest::prelude::*;
use saql::engine::Checkpoint;
use saql::model::event::EventBuilder;
use saql::model::{NetworkInfo, ProcessInfo, Timestamp};
use saql::{Engine, EngineConfig};

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

const DEMO_RUN: &[u8] = include_bytes!("../crates/engine/tests/fixtures/demo_run.saqlckp");

/// Decode `data` and resume a serial engine from it. Returns whether the
/// resume succeeded; panics (failing the test) if any single allocation on
/// the way exceeded the bound.
fn decode_and_resume(data: Vec<u8>) -> bool {
    let bound = 8 * data.len() + 64 * 1024;
    LARGEST.with(|largest| largest.set(0));
    let resumed = Checkpoint::decode(&data)
        .and_then(|ckpt| Engine::resume_from(ckpt, EngineConfig::default()));
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= bound,
        "one allocation of {largest} bytes (bound {bound}); resumed: {}",
        resumed.is_ok()
    );
    resumed.is_ok()
}

/// `data` with the varint at `at` replaced by the number of bytes after it.
fn forge_count(data: &[u8], at: usize) -> Vec<u8> {
    let width = data[at..]
        .iter()
        .position(|b| b & 0x80 == 0)
        .map_or(data.len() - at, |i| i + 1);
    let tail = &data[at + width..];
    let mut out = data[..at].to_vec();
    let mut n = tail.len() as u64;
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
    out.extend_from_slice(tail);
    out
}

#[test]
fn the_golden_checkpoint_resumes_within_the_bound() {
    assert!(decode_and_resume(DEMO_RUN.to_vec()));
}

#[test]
fn every_truncation_is_refused() {
    for cut in 0..DEMO_RUN.len() {
        assert!(!decode_and_resume(DEMO_RUN[..cut].to_vec()), "cut at {cut}");
    }
}

#[test]
fn a_count_forged_to_the_bytes_remaining_never_over_reserves() {
    // Every position, read as a varint, stands in for a length prefix.
    for at in 0..DEMO_RUN.len() {
        decode_and_resume(forge_count(DEMO_RUN, at));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn random_byte_mutations_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut data = DEMO_RUN.to_vec();
        for (at, byte) in edits {
            let at = at % data.len();
            data[at] = byte;
        }
        decode_and_resume(data);
    }
}

#[test]
fn a_forged_window_id_resumes_without_overflow() {
    // Window ids restored from a checkpoint are not trusted: `k * slide +
    // size` saturates instead of overflowing, whatever id a forged file
    // names.
    let query = "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n";
    let event = |id: u64, ts: u64| {
        Arc::new(
            EventBuilder::new(id, "h", ts)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .sends(NetworkInfo::new("10.0.0.2", 44000, "1.1.1.1", 443, "tcp"))
                .amount(1)
                .build(),
        )
    };
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("q", query).unwrap();
    engine.process(&event(1, 1_000)).unwrap();
    let mut forged = engine.checkpoint(1, Timestamp::from_millis(1_000)).unwrap();
    let window = forged.rows[0].snapshot.as_mut().unwrap().window.as_mut();
    window.unwrap().open = vec![u64::MAX / 2, u64::MAX];

    let ckpt = Checkpoint::decode(&forged.encode()).unwrap();
    if let Ok(mut resumed) = Engine::resume_from(ckpt, EngineConfig::default()) {
        resumed.process(&event(2, 2_000)).unwrap();
        resumed.finish();
    }
}

#[test]
fn a_forged_window_lateness_is_refused_at_decode() {
    // The varint after the partial-match cap once held a per-query window
    // lateness. Every checkpoint wrote 0 there, and it is reserved-zero
    // now: a file forging any other value (u64::MAX used to overflow the
    // close time) is refused at decode, naming the removed setting.
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("q", "proc p start proc q as e\nreturn p")
        .unwrap();
    let raw = engine
        .checkpoint(1, Timestamp::from_millis(1_000))
        .unwrap()
        .encode();
    // Magic, version, offset 1 (one byte), frontier 1,000 (two), then the
    // cap 65,536 (three) and the lateness 0 (one).
    assert_eq!(raw[12..16], [0x80, 0x80, 0x04, 0x00]);
    for lateness in [
        vec![0x01],
        vec![0xff; 9].into_iter().chain([0x01]).collect(),
    ] {
        let mut forged = raw[..15].to_vec();
        forged.extend(lateness);
        forged.extend_from_slice(&raw[16..]);
        let err = Checkpoint::decode(&forged).unwrap_err().to_string();
        assert!(err.contains("window lateness"), "{err}");
        assert!(err.contains("removed"), "{err}");
    }
}
