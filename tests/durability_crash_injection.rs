//! Crash-injection properties for the durable pipeline: torn WAL
//! tails never lose a durably acked (synced) event, and an engine resumed
//! from a checkpoint reproduces exactly the alerts the uninterrupted run
//! would have produced from the checkpoint position on — ordered on the
//! serial backend, as a multiset across parallel worker counts.
//!
//! The crash model: everything synced is on disk (fsync happened), and a
//! crash may persist any byte-prefix of what was appended after the last
//! sync. Tests therefore tear the WAL at a random byte at or beyond the
//! synced length, reopen, and check the recovered stream is a clean,
//! loss-free prefix extension of the acked events.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use saql::engine::window::WindowSnapshot;
use saql::engine::{register_pipeline, Alert, Checkpoint, CheckpointConfig, Engine, EngineConfig};
use saql::model::event::EventBuilder;
use saql::model::{Event, NetworkInfo, ProcessInfo, Timestamp};
use saql::stream::merge::Lateness;
use saql::stream::source::{push_source, StoreSource};
use saql::stream::store::Selection;
use saql::stream::{SharedEvent, StoreReader, StoreWriter};

/// A windowed, grouped, stateful query: every closed 1-minute window emits
/// one alert per process group, so alert streams are position-sensitive.
const STATEFUL: &str = "proc p write ip i as evt #time(1 min)\n\
                        state ss { n := count() } group by p\n\
                        return p, ss[0].n";

/// A two-stage `|>` deployment over the same vocabulary: per-process write
/// counts in 1-minute windows, then how many of those summaries land in
/// each 3-minute window.
const STAGED: &str = "proc p write ip i as evt #time(1 min)\n\
                      state ss { n := count() } group by p\n\
                      alert ss[0].n >= 1\n\
                      return p, ss[0].n as amount\n\
                      |>\n\
                      from #time(3 min)\n\
                      state es { n := count() }\n\
                      alert es[0].n >= 2\n\
                      return es[0].n as n";

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "saql-crashinj-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

/// Deterministic event stream: strictly increasing timestamps with
/// seed-derived gaps (2s–80s, so 1-minute windows open and close at
/// varying positions) over two process groups.
fn stream(seed: u64, n: usize) -> Vec<Event> {
    let mut ts = 0u64;
    let mut x = seed | 1;
    (0..n as u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ts += 2_000 * (1 + x % 40);
            let exe = if x & 2 == 0 { "a.exe" } else { "b.exe" };
            EventBuilder::new(i + 1, "h", ts)
                .subject(ProcessInfo::new(1, exe, "u"))
                .sends(NetworkInfo::new("10.0.0.2", 44000, "1.1.1.1", 443, "tcp"))
                .amount(5)
                .build()
        })
        .collect()
}

/// Write `events` into a segmented store — the first `n_acked` synced
/// (durably acked), the rest unsynced — then tear the WAL at a random byte
/// at or beyond the synced length and return what a reader recovers.
///
/// Panics if the torn store loses an acked event or yields anything but a
/// clean prefix of the appended sequence (the no-loss half of the
/// acceptance property).
fn write_and_tear(
    dir: &Path,
    events: &[Event],
    n_acked: usize,
    seg: usize,
    cut_seed: u64,
) -> Vec<Event> {
    let mut w = StoreWriter::create_segmented_with(dir, seg).unwrap();
    w.append(&events[..n_acked]).unwrap();
    w.sync().unwrap();
    let wal = dir.join("wal.saqlwal");
    let synced_len = std::fs::metadata(&wal).unwrap().len();
    w.append(&events[n_acked..]).unwrap();
    drop(w);
    let full_len = std::fs::metadata(&wal).unwrap().len();
    let keep = synced_len + cut_seed % (full_len - synced_len + 1);
    let raw = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &raw[..keep as usize]).unwrap();

    let reader = StoreReader::open(dir).unwrap();
    let recovered = reader
        .iter(&Selection::all())
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert!(
        recovered.len() >= n_acked,
        "lost acked events: {} recovered < {n_acked} synced",
        recovered.len()
    );
    assert_eq!(
        recovered,
        events[..recovered.len()],
        "recovered stream is not a clean prefix"
    );
    recovered
}

/// Serial reference: feed `events` one engine, one event a batch,
/// splitting the alert stream at position `k`. Returns (alerts before k,
/// alerts from k through finish) — by serial determinism this IS the
/// uninterrupted run — and the query's window state at `k`.
fn serial_reference(events: &[Event], k: usize) -> (Vec<String>, Vec<String>, WindowSnapshot) {
    let shared: Vec<SharedEvent> = events.iter().cloned().map(Arc::new).collect();
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("w", STATEFUL).unwrap();
    let collect = |engine: &mut Engine, events: &[SharedEvent]| -> Vec<String> {
        let mut out = Vec::new();
        for e in events {
            out.extend(engine.process(e).unwrap().iter().map(|a| a.to_string()));
        }
        out
    };
    let pre = collect(&mut engine, &shared[..k]);
    let window = window_of(&engine.checkpoint(k as u64, Timestamp::ZERO).unwrap());
    let mut post = collect(&mut engine, &shared[k..]);
    post.extend(engine.finish().iter().map(|a| a.to_string()));
    (pre, post, window)
}

/// The one query's window state — watermark, open windows, closed count —
/// as a checkpoint holds it.
fn window_of(ckpt: &Checkpoint) -> WindowSnapshot {
    let snapshot = ckpt.rows[0].snapshot.as_ref().expect("live query");
    snapshot.window.clone().expect("windowed query")
}

/// Run a checkpointing session over the store up to exactly `k` events,
/// write a checkpoint, "crash" (drop engine and session unfinished), then
/// resume from disk and drain the store suffix. Returns the resumed alert
/// stream and the window state the checkpoint held.
fn crash_and_resume(
    store_dir: &Path,
    ckpt_dir: &Path,
    k: usize,
    run_config: EngineConfig,
    resume_config: EngineConfig,
) -> (Vec<String>, WindowSnapshot) {
    let reader = StoreReader::open(store_dir).unwrap();
    let mut engine = Engine::new(run_config);
    engine.register("w", STATEFUL).unwrap();
    let mut session = engine.session();
    session.enable_checkpoints(CheckpointConfig {
        dir: ckpt_dir.to_path_buf(),
        every_events: 0, // manual checkpoints only
    });
    session.attach(StoreSource::open("store", &reader, &Selection::all()));
    while session.processed() < k as u64 {
        let round = session.pump_max(k - session.processed() as usize);
        assert!(
            round.events > 0,
            "store source dried up before position {k}"
        );
    }
    session.checkpoint_now().unwrap();
    drop(session);
    drop(engine); // the crash: never finished

    let ckpt = Checkpoint::load(ckpt_dir).unwrap();
    assert_eq!(ckpt.offset, k as u64);
    let mut resumed = Engine::resume_from(ckpt.clone(), resume_config).unwrap();
    let mut session = resumed.session();
    session.resume_at(&ckpt);
    session.attach(StoreSource::open_at("store", &reader, ckpt.offset).unwrap());
    let resumed = session.drain().iter().map(|a| a.to_string()).collect();
    (resumed, window_of(&ckpt))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full acceptance property, serial: tear the store's WAL after a
    /// partial sync, recover, checkpoint the run at a random position,
    /// crash, resume — the resumed alert stream equals the uninterrupted
    /// run's suffix, in order, and no durably acked event is lost.
    #[test]
    fn serial_resume_reproduces_uninterrupted_suffix_exactly(
        seed in any::<u64>(),
        n_acked in 1usize..28,
        extra in 0usize..6,
        seg in 1usize..8,
        cut_seed in any::<u64>(),
        k_seed in any::<u64>(),
    ) {
        // Keep the unsynced tail inside the current WAL generation so the
        // crash model (tear ≥ synced length) stays sound: a seal during
        // the unsynced phase would atomically replace the WAL.
        let n_unsynced = extra.min(seg - 1 - (n_acked % seg).min(seg - 1));
        let events = stream(seed, n_acked + n_unsynced);
        let store_dir = scratch("serial-store");
        let ckpt_dir = scratch("serial-ckpt");
        let recovered = write_and_tear(&store_dir, &events, n_acked, seg, cut_seed);

        let k = (k_seed % (recovered.len() as u64 + 1)) as usize;
        let (_, suffix, window) = serial_reference(&recovered, k);
        let (resumed, checkpointed) = crash_and_resume(
            &store_dir,
            &ckpt_dir,
            k,
            EngineConfig::default(),
            EngineConfig::default(),
        );
        prop_assert_eq!(resumed, suffix, "resumed alerts diverge at offset {}", k);
        // The session pumped the prefix as ONE batch; the reference fed it
        // an event at a time: the checkpoint must not be able to tell.
        prop_assert_eq!(checkpointed, window, "window state at offset {}", k);

        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same property across worker counts: checkpoint taken on 0–8
    /// workers, resumed on 0–8 (independently chosen) workers, where 0 is
    /// the inline shard — so a worker checkpoint resumed serially, and the
    /// reverse, are covered too; the resumed stream matches the serial
    /// reference suffix as a multiset.
    #[test]
    fn parallel_resume_reproduces_suffix_multiset(
        seed in any::<u64>(),
        n_acked in 1usize..24,
        extra in 0usize..6,
        seg in 1usize..8,
        cut_seed in any::<u64>(),
        k_seed in any::<u64>(),
        w_run in 0usize..9,
        w_resume in 0usize..9,
    ) {
        let n_unsynced = extra.min(seg - 1 - (n_acked % seg).min(seg - 1));
        let events = stream(seed, n_acked + n_unsynced);
        let store_dir = scratch("par-store");
        let ckpt_dir = scratch("par-ckpt");
        let recovered = write_and_tear(&store_dir, &events, n_acked, seg, cut_seed);

        let k = (k_seed % (recovered.len() as u64 + 1)) as usize;
        let (_, suffix, _) = serial_reference(&recovered, k);
        let (resumed, _) = crash_and_resume(
            &store_dir,
            &ckpt_dir,
            k,
            EngineConfig { workers: w_run, ..EngineConfig::default() },
            EngineConfig { workers: w_resume, ..EngineConfig::default() },
        );
        let mut expected = suffix;
        expected.sort();
        let mut got = resumed;
        got.sort();
        prop_assert_eq!(got, expected, "multiset diverges at offset {}", k);

        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}

/// An engine with [`STAGED`] deployed.
fn staged_engine() -> Engine {
    let mut engine = Engine::new(EngineConfig::default());
    register_pipeline(&mut engine, "staged", STAGED).unwrap();
    engine
}

/// Per-stage alert lines, in emission order.
fn per_stage(alerts: &[Alert]) -> (Vec<String>, Vec<String>) {
    let stage = |name: &str| {
        alerts
            .iter()
            .filter(|a| a.query == name)
            .map(|a| a.to_string())
            .collect()
    };
    (stage("staged.s1"), stage("staged"))
}

/// Run [`STAGED`] with a cadence checkpoint every `every` base events over
/// a live feed of `events` — `round` events delivered before each pump
/// round, as ingest connections deliver them — until the session passes
/// base offset `crash`, then "crash". Returns the alerts the run had
/// emitted by its last checkpoint, and the offset it crashed at.
fn pipelined_run_until_crash(
    events: &[Event],
    ckpt_dir: &Path,
    every: u64,
    round: usize,
    crash: u64,
) -> (Vec<Alert>, u64) {
    let mut engine = staged_engine();
    let mut session = engine.session();
    session.enable_checkpoints(CheckpointConfig {
        dir: ckpt_dir.to_path_buf(),
        every_events: every,
    });
    let (push, live) = push_source("live", events.len() + 1);
    session.attach_with(live, Lateness::ArrivalOrder);
    let mut feed = events.chunks(round);
    let mut push = Some(push);
    let mut alerts = Vec::new();
    let mut covered = 0;
    while session.offset() < crash {
        match feed.next() {
            Some(chunk) => {
                for event in chunk {
                    let pushed = push
                        .as_ref()
                        .is_some_and(|p| p.push(Arc::new(event.clone())));
                    assert!(pushed, "the session consumes the live feed");
                }
            }
            None => push = None,
        }
        let before = session.last_checkpoint();
        alerts.extend(session.pump().alerts);
        if session.last_checkpoint() != before {
            covered = alerts.len();
        }
    }
    assert_eq!(session.checkpoint_failure(), None);
    alerts.truncate(covered);
    (alerts, session.offset())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cadence checkpoints on a pipelined session: the cadence counts base
    /// events and each checkpoint quiesces the stages, so crashing at a
    /// random offset and resuming from the last checkpoint on disk (the
    /// store suffix replayed, adapters continued) reproduces the
    /// uninterrupted run, stage by stage and in order.
    #[test]
    fn pipelined_cadence_resume_reproduces_uninterrupted_run(
        seed in any::<u64>(),
        n in 1usize..40,
        every in 1u64..8,
        round in 1usize..6,
        k_seed in any::<u64>(),
    ) {
        let events = stream(seed, n);
        let store_dir = scratch("pipe-store");
        let ckpt_dir = scratch("pipe-ckpt");
        let mut w = StoreWriter::create_segmented(&store_dir).unwrap();
        w.append(&events).unwrap();
        w.sync().unwrap();
        drop(w);
        let uninterrupted = staged_engine()
            .run(events.iter().cloned().map(Arc::new))
            .unwrap();

        let crash = k_seed % (n as u64 + 1);
        let (mut alerts, crashed_at) =
            pipelined_run_until_crash(&events, &ckpt_dir, every, round, crash);
        let reader = StoreReader::open(&store_dir).unwrap();
        let (mut engine, ckpt) = match Checkpoint::load(&ckpt_dir) {
            Ok(ckpt) => (
                Engine::resume_from(ckpt.clone(), EngineConfig::default()).unwrap(),
                Some(ckpt),
            ),
            // Crashed before the first checkpoint: start over.
            Err(_) => (staged_engine(), None),
        };
        let mut session = engine.session();
        if let Some(ckpt) = &ckpt {
            prop_assert!(ckpt.offset <= crashed_at, "a checkpoint past the crash");
            session.resume_at(ckpt);
        }
        let offset = ckpt.as_ref().map_or(0, |c| c.offset);
        session.attach(StoreSource::open_at("store", &reader, offset).unwrap());
        alerts.extend(session.drain());

        let (r1, r2) = per_stage(&alerts);
        let (u1, u2) = per_stage(&uninterrupted);
        prop_assert_eq!(r1, u1, "stage 1 diverges (crash at {}, every {})", crash, every);
        prop_assert_eq!(r2, u2, "stage 2 diverges (crash at {}, every {})", crash, every);

        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A tear anywhere in the unsynced suffix leaves a clean, loss-free
    /// prefix, and the writer repairs it on reopen so appends continue
    /// where the tear left off — also when the acked prefix was one append
    /// spanning several segments.
    #[test]
    fn torn_wal_reopens_for_append_where_the_tear_left_off(
        seed in any::<u64>(),
        n_acked in 1usize..40,
        extra in 0usize..8,
        seg in 1usize..8,
        cut_seed in any::<u64>(),
    ) {
        // As above: the unsynced tail stays inside the current WAL generation.
        let n_unsynced = extra.min(seg - 1 - (n_acked % seg).min(seg - 1));
        let events = stream(seed, n_acked + n_unsynced + 1);
        let (body, sentinel) = events.split_at(n_acked + n_unsynced);
        let dir = scratch("reopen-tear");
        let recovered = write_and_tear(&dir, body, n_acked, seg, cut_seed);

        let mut w = StoreWriter::open_segmented(&dir, seg).unwrap();
        prop_assert_eq!(w.len() as usize, recovered.len());
        w.append(sentinel).unwrap();
        drop(w);
        let back = StoreReader::open(&dir).unwrap().iter(&Selection::all()).collect::<Result<Vec<_>, _>>().unwrap();
        let mut expected = recovered;
        expected.extend_from_slice(sentinel);
        prop_assert_eq!(back, expected);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
