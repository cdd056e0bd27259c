//! Differential properties for multi-stage pipelines over random traces:
//! a `|>` pipeline running inside one engine must equal two hand-chained
//! engines (stage 1 alone, its alert stream adapted by hand and fed to
//! stage 2) — ordered on the serial backend, as a multiset on the parallel
//! backend — and a checkpoint taken at a random base-stream cut, "crashed"
//! and resumed into a fresh engine, must reproduce the uninterrupted run
//! exactly: no stage-2 alert lost, none derived twice.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use saql::engine::pipeline::{register_pipeline, AlertAdapter};
use saql::engine::{Checkpoint, CheckpointConfig, RunSession, SessionStatus};
use saql::model::event::EventBuilder;
use saql::model::{NetworkInfo, ProcessInfo};
use saql::stream::merge::Lateness;
use saql::stream::source::IterSource;
use saql::stream::SharedEvent;
use saql::{Alert, Engine, EngineConfig};

/// Tiered detection with low thresholds so random traces regularly fire
/// both stages: stage 1 counts writes per host in 10 s windows, stage 2
/// counts distinct bursting hosts in 30 s windows of stage 1's alerts.
const TIERED: &str = "\
proc p write ip i as evt #time(10 s)
state ss { writes := count() } group by evt.agentid
alert ss[0].writes >= 2
return evt.agentid as host, ss[0].writes as amount
|>
from #time(30 s)
state es { hosts := distinct_count(_in.agentid) }
alert es[0].hosts >= 2
return es[0].hosts as hosts";

/// Seed-derived trace: strictly increasing timestamps with 0.5 s – 10 s
/// gaps (so 10 s windows close at varying positions) over four hosts.
fn trace(seed: u64, n: usize) -> Vec<SharedEvent> {
    let hosts = ["web-1", "web-2", "web-3", "web-4"];
    let mut ts = 0u64;
    let mut x = seed | 1;
    (0..n as u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ts += 500 * (1 + x % 20);
            let host = hosts[(x >> 8) as usize % hosts.len()];
            Arc::new(
                EventBuilder::new(i + 1, host, ts)
                    .subject(ProcessInfo::new(100, "worker", "svc"))
                    .sends(NetworkInfo::new("10.0.0.1", 9999, "172.16.0.9", 443, "tcp"))
                    .amount(1024)
                    .build(),
            )
        })
        .collect()
}

/// Salient alert identity, ignoring engine-local query ids.
fn key(a: &Alert) -> (String, u64, String, Vec<(String, String)>) {
    (
        a.query.clone(),
        a.ts.as_millis(),
        format!("{:?}", a.origin),
        a.rows.clone(),
    )
}

/// Ordered per-stage alert keys: loss, duplication, and reordering within
/// a stage all show up as inequality.
type StageKeys = Vec<(String, u64, String, Vec<(String, String)>)>;
fn per_stage(alerts: &[Alert]) -> (StageKeys, StageKeys) {
    (
        alerts
            .iter()
            .filter(|a| a.query == "tiered.s1")
            .map(key)
            .collect(),
        alerts
            .iter()
            .filter(|a| a.query == "tiered")
            .map(key)
            .collect(),
    )
}

/// Pump `session` to the end of its stream in rounds of at most `round`
/// events, then finish it; returns every alert.
fn pump_to_end(session: &mut RunSession<'_>, round: usize) -> Vec<Alert> {
    let mut alerts = Vec::new();
    loop {
        let pumped = session.pump_max(round);
        alerts.extend(pumped.alerts);
        if pumped.status == SessionStatus::Done {
            break;
        }
    }
    alerts.extend(session.finish());
    alerts
}

/// Run the pipeline inside one engine over `events`, pumping at most
/// `round` events a round, and return all alerts.
fn run_pipeline(config: EngineConfig, events: Vec<SharedEvent>, round: usize) -> Vec<Alert> {
    let mut engine = Engine::new(config);
    register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
    let mut session = engine.session();
    session.attach_with(IterSource::new("trace", events), Lateness::ArrivalOrder);
    pump_to_end(&mut session, round)
}

/// A fresh scratch directory for one checkpoint.
fn scratch_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "saql-pipediff-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Hand-chain two engines: stage 1 alone in the first; its ordered alert
/// stream adapted (same adapter code) and fed to stage 2 in the second.
fn run_hand_chained(config: EngineConfig, events: &[SharedEvent]) -> Vec<Alert> {
    let stages = saql::lang::split_stages("tiered", TIERED).expect("splits");
    let (s1, s2) = (&stages[0].source, &stages[1].source);
    let mut e1 = Engine::new(config);
    e1.register("tiered.s1", s1).expect("stage 1 registers");
    let mut stage1 = Vec::new();
    for event in events {
        stage1.extend(e1.process(event).expect("processes"));
    }
    stage1.extend(e1.finish());

    // The upstream must exist for `from query` to validate, so stage 1
    // rides along in engine 2 — it never matches an adapted event and,
    // with no raw traffic, never alerts.
    let mut e2 = Engine::new(config);
    e2.register("tiered.s1", s1).expect("upstream registers");
    let up = e2.find("tiered.s1").expect("registered");
    e2.register("tiered", s2).expect("stage 2 registers");
    let mut adapter = AlertAdapter::new("tiered.s1", up);
    let mut out: Vec<Alert> = stage1.clone();
    for alert in &stage1 {
        let derived = adapter.adapt(alert);
        out.extend(e2.process(&derived).expect("processes"));
    }
    out.extend(e2.finish());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serial backend: the pipeline's per-stage alert streams equal the
    /// hand-chained reference, in order, on random traces — whether the
    /// stage's upstream alerts reach the scheduler one event a batch, or
    /// in batches that also hold raw events far ahead of the stage's clock
    /// (which is upstream alert time only; see DESIGN.md §4).
    #[test]
    fn pipeline_equals_hand_chained_serial(
        seed in any::<u64>(),
        n in 1usize..60,
        round in prop_oneof![Just(1usize), Just(7), Just(16), Just(256)],
    ) {
        let events = trace(seed, n);
        let (p1, p2) = per_stage(&run_pipeline(EngineConfig::default(), events.clone(), round));
        let (c1, c2) = per_stage(&run_hand_chained(EngineConfig::default(), &events));
        prop_assert_eq!(p1, c1, "stage 1 diverged (seed {seed}, n {n})");
        prop_assert_eq!(p2, c2, "stage 2 diverged (seed {seed}, n {n})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Parallel backend, 1–8 workers: the pipeline's alerts equal the
    /// serial hand-chained reference as a per-stage multiset.
    #[test]
    fn pipeline_equals_hand_chained_parallel_multiset(
        seed in any::<u64>(),
        n in 1usize..48,
        workers in 1usize..9,
    ) {
        let events = trace(seed, n);
        let config = EngineConfig { workers, ..EngineConfig::default() };
        let (mut p1, mut p2) = per_stage(&run_pipeline(config, events.clone(), 16));
        let (mut c1, mut c2) = per_stage(&run_hand_chained(EngineConfig::default(), &events));
        p1.sort();
        p2.sort();
        c1.sort();
        c2.sort();
        prop_assert_eq!(p1, c1, "stage 1 diverged ({workers} workers)");
        prop_assert_eq!(p2, c2, "stage 2 diverged ({workers} workers)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint at a random base-stream cut — in-flight cross-stage
    /// state and all — crash, resume into a fresh engine, feed the rest:
    /// the union equals the uninterrupted pipeline run, in order.
    #[test]
    fn pipeline_checkpoint_crash_resume_at_random_cut(
        seed in any::<u64>(),
        n in 1usize..48,
        k_seed in any::<u64>(),
    ) {
        let events = trace(seed, n);
        let uninterrupted = run_pipeline(EngineConfig::default(), events.clone(), 16);
        let cut = (k_seed % (n as u64 + 1)) as usize;

        let dir = scratch_dir();
        let mut alerts: Vec<Alert> = Vec::new();
        {
            let mut engine = Engine::new(EngineConfig::default());
            register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
            let mut session = engine.session();
            session.enable_checkpoints(CheckpointConfig { dir: dir.clone(), every_events: 0 });
            session.attach_with(
                IterSource::new("trace", events[..cut].to_vec()),
                Lateness::ArrivalOrder,
            );
            loop {
                let round = session.pump_max(4);
                alerts.extend(round.alerts);
                if round.status == SessionStatus::Done {
                    break;
                }
            }
            let written = session.checkpoint_now().expect("checkpoints");
            prop_assert_eq!(written.offset, cut as u64, "offset counts base events only");
        }
        // Read back from disk, as a real restart would.
        let checkpoint = Checkpoint::load(&dir).expect("loads");
        let _ = std::fs::remove_dir_all(&dir);

        let mut engine =
            Engine::resume_from(checkpoint.clone(), EngineConfig::default()).expect("resumes");
        let mut session = engine.session();
        session.resume_at(&checkpoint);
        session.attach_with(
            IterSource::new("trace", events[checkpoint.offset as usize..].to_vec()),
            Lateness::ArrivalOrder,
        );
        alerts.extend(pump_to_end(&mut session, 4));

        let (r1, r2) = per_stage(&alerts);
        let (u1, u2) = per_stage(&uninterrupted);
        prop_assert_eq!(r1, u1, "stage 1 lost or duplicated alerts across the resume (cut {cut})");
        prop_assert_eq!(r2, u2, "stage 2 lost or duplicated alerts across the resume (cut {cut})");
    }
}
