//! Golden pin of the checkpoint wire format on a real run: a mid-run
//! checkpoint of the 8 demo queries plus the tiered `|>` pipeline over a
//! seeded simulator trace is checked in as
//! `crates/engine/tests/fixtures/demo_run.saqlckp`. It must decode and
//! re-encode to the same bytes, carry every kind of query state, and
//! resume where the run it came from left off. (The codec's unit tests pin
//! `sample_checkpoint()` the same way.)
//!
//! The fixture is only ever rewritten on a deliberate format change (a
//! `CHECKPOINT_VERSION` bump), by the ignored test that made it:
//!
//! ```text
//! cargo test --test checkpoint_golden -- --ignored
//! ```

use std::path::{Path, PathBuf};

use saql::collector::{AttackStep, SimConfig, Simulator};
use saql::corpus::{DEMO_QUERIES, DEMO_TIERED_PIPELINE, DEMO_TIERED_PIPELINE_NAME};
use saql::engine::query::QuerySnapshot;
use saql::engine::{register_pipeline, Checkpoint, CheckpointConfig, SessionStatus};
use saql::stream::merge::Lateness;
use saql::stream::source::IterSource;
use saql::stream::SharedEvent;
use saql::{Engine, EngineConfig};

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/tests/fixtures/demo_run.saqlckp")
}

/// The fixture's trace and the position of its cut: the first event of the
/// attack's exfiltration step.
fn demo_trace() -> (Vec<SharedEvent>, usize) {
    let trace = Simulator::generate(&SimConfig {
        seed: 7,
        clients: 3,
        duration_ms: 45 * 60_000,
        ..SimConfig::default()
    });
    let (_, exfiltration) = trace
        .attack_ids
        .iter()
        .find(|(step, _)| *step == AttackStep::Exfiltration)
        .expect("the trace carries the attack");
    // Ids are dense from 1: the event with id `n` is the n-th.
    let cut = exfiltration[0] as usize;
    (trace.shared(), cut)
}

fn demo_engine() -> Engine {
    let mut engine = Engine::new(EngineConfig::default());
    for (name, text) in DEMO_QUERIES {
        engine.register(name, text).expect("demo query registers");
    }
    register_pipeline(&mut engine, DEMO_TIERED_PIPELINE_NAME, DEMO_TIERED_PIPELINE)
        .expect("pipeline registers");
    engine
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("saql-ckpt-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes the fixture: the demo deployment run over a seeded 3-client
/// trace up to the first event of the attack's exfiltration step (so that
/// rule's first step is a live partial match), then checkpointed.
#[test]
#[ignore = "rewrites the golden fixture; run only on a format version bump"]
fn write_demo_run_fixture() {
    let (events, cut) = demo_trace();
    let mut engine = demo_engine();
    let dir = scratch_dir("write");
    let mut session = engine.session();
    session.enable_checkpoints(CheckpointConfig {
        dir: dir.clone(),
        every_events: 0,
    });
    session.attach_with(
        IterSource::new("trace", events[..cut].to_vec()),
        Lateness::ArrivalOrder,
    );
    while session.pump().status != SessionStatus::Done {}
    let written = session.checkpoint_now().expect("checkpoints");
    std::fs::copy(&written.path, fixture_path()).expect("writes the fixture");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn demo_run_checkpoint_reencodes_to_its_golden_bytes() {
    let golden = std::fs::read(fixture_path()).expect("golden checkpoint fixture");
    let ckpt = Checkpoint::decode(&golden).expect("decodes");
    assert!(
        ckpt.encode()[..] == golden[..],
        "the codec no longer writes the version-{} bytes it reads",
        golden[8]
    );

    // The fixture exercises every kind of state the codec carries.
    let snaps: Vec<_> = ckpt
        .rows
        .iter()
        .filter_map(|r| r.snapshot.as_ref())
        .collect();
    assert_eq!(
        snaps.len(),
        DEMO_QUERIES.len() + 2,
        "8 demo queries + 2 stages"
    );
    let some = |f: fn(&QuerySnapshot) -> bool| snaps.iter().any(|s| f(s));
    assert!(some(
        |s| matches!(&s.matcher, Some(m) if !m.partials.is_empty())
    ));
    assert!(some(|s| matches!(&s.window, Some(w) if !w.open.is_empty())));
    assert!(some(
        |s| matches!(&s.state, Some(st) if !st.history.is_empty())
    ));
    assert!(some(
        |s| matches!(&s.state, Some(st) if st.open.iter().any(|g| !g.1.is_empty()))
    ));
    assert!(some(
        |s| matches!(&s.invariant, Some(i) if !i.groups.is_empty())
    ));
    assert!(!ckpt.adapters.is_empty() && ckpt.adapters.iter().all(|(_, seq)| *seq > 0));
    Engine::resume_from(ckpt, EngineConfig::default()).expect("the golden checkpoint resumes");
}

/// The fixture was written before window history followed the read depth,
/// so its `state` blocks carry history rows no query reads again. Resumed
/// under today's engine, the rest of the seed-7 trace must raise exactly
/// the alerts an uninterrupted run raises after the same cut.
#[test]
fn the_golden_checkpoint_resumes_into_the_straight_runs_alerts() {
    let (events, cut) = demo_trace();
    let shown = |alerts: Vec<saql::engine::Alert>| -> Vec<String> {
        alerts.iter().map(|a| a.to_string()).collect()
    };

    // Straight: the fixture's run, checkpointed at the cut as the fixture
    // was, then fed the rest in the same session.
    let mut engine = demo_engine();
    let dir = scratch_dir("straight");
    let mut session = engine.session();
    session.enable_checkpoints(CheckpointConfig {
        dir: dir.clone(),
        every_events: 0,
    });
    session.attach_with(
        IterSource::new("trace", events[..cut].to_vec()),
        Lateness::ArrivalOrder,
    );
    while session.pump().status != SessionStatus::Done {}
    session.checkpoint_now().expect("checkpoints");
    session.attach_with(
        IterSource::new("rest", events[cut..].to_vec()),
        Lateness::ArrivalOrder,
    );
    let straight = shown(session.drain());
    let _ = std::fs::remove_dir_all(&dir);

    let golden = std::fs::read(fixture_path()).expect("golden checkpoint fixture");
    let ckpt = Checkpoint::decode(&golden).expect("decodes");
    assert_eq!(
        ckpt.offset, cut as u64,
        "the fixture was cut at exfiltration"
    );
    let mut resumed = Engine::resume_from(ckpt.clone(), EngineConfig::default()).expect("resumes");
    let mut session = resumed.session();
    session.resume_at(&ckpt);
    session.attach_with(
        IterSource::new("rest", events[cut..].to_vec()),
        Lateness::ArrivalOrder,
    );
    let after_resume = shown(session.drain());

    assert!(!straight.is_empty(), "the rest of the trace raises alerts");
    assert_eq!(after_resume, straight);
}
