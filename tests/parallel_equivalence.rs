//! Property tests for worker-backed execution: on random event streams, an
//! [`Engine`] on workers emits exactly the same alert *multiset* as one on
//! the caller's thread, for every worker count from 1 to 8 — both for a
//! fixed deployment and under random mid-stream register / deregister /
//! pause / resume schedules driven through the engine control plane.
//!
//! The query set spans all the execution paths whose state the shards
//! carry: plain rules, `distinct` suppression, and stateful windows of
//! different lengths (so the queries split into several compatibility
//! groups and the runtime actually deals them across shards). Group
//! sharding is the engine's only parallel mode.

use proptest::prelude::*;

use saql::engine::{Alert, Engine, EngineConfig, QueryId};
use saql::model::event::EventBuilder;
use saql::model::{NetworkInfo, ProcessInfo};
use saql::stream::merge::MergeConfig;
use saql::stream::source::IterSource;
use saql::stream::{batched, SharedEvent};
use std::sync::Arc;

/// The fixed deployment every generated stream runs against.
fn query_set() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "rule-cmd",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
        ),
        (
            "rule-distinct",
            "proc p1 start proc p2 as e\nreturn distinct p1, p2",
        ),
        (
            "window-sum",
            "proc p write ip i as evt #time(30 s)\nstate ss { amt := sum(evt.amount) } group by p\nalert ss[0].amt > 500\nreturn p, ss[0].amt",
        ),
        (
            "window-count",
            "proc p write ip i as evt #time(45 s)\nstate ss { n := count() } group by p\nreturn p, ss[0].n",
        ),
        (
            "window-read",
            "proc p read ip i as evt #time(60 s)\nstate ss { amt := sum(evt.amount) } group by i.dstip\nreturn i.dstip, ss[0].amt",
        ),
    ]
}

/// One generated stream step: which shape, which actors, how far time
/// advances.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: u8,
    actor: u8,
    peer: u8,
    amount: u64,
    gap_ms: u64,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..4, 0u8..3, 0u8..3, 0u64..400, 0u64..20_000).prop_map(
            |(kind, actor, peer, amount, gap_ms)| Step {
                kind,
                actor,
                peer,
                amount,
                gap_ms,
            },
        ),
        1..120,
    )
}

fn materialize(steps: &[Step]) -> Vec<SharedEvent> {
    materialize_on(steps, &[], "host", 0)
}

/// Materialize steps as one feed: events of `host`, ids from `id_base`,
/// and — for the multi-source out-of-order tests — per-event forward
/// `jitter` added to a nondecreasing base timestamp, so arrival order
/// deviates from timestamp order by at most `max(jitter)`.
fn materialize_on(steps: &[Step], jitter: &[u64], host: &str, id_base: u64) -> Vec<SharedEvent> {
    const PROCS: [&str; 3] = ["cmd.exe", "sqlservr.exe", "chrome.exe"];
    const CHILDREN: [&str; 3] = ["osql.exe", "calc.exe", "cmd.exe"];
    const IPS: [&str; 3] = ["10.0.0.9", "8.8.8.8", "172.16.9.1"];
    let mut base = 0u64;
    steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            base += s.gap_ms;
            let ts = base + jitter.get(i).copied().unwrap_or(0);
            let id = id_base + i as u64 + 1;
            let subject = ProcessInfo::new(100 + s.actor as u32, PROCS[s.actor as usize], "u");
            let builder = EventBuilder::new(id, host, ts).subject(subject);
            let event = match s.kind {
                0 => builder.starts_process(ProcessInfo::new(
                    200 + s.peer as u32,
                    CHILDREN[s.peer as usize],
                    "u",
                )),
                1 | 2 => builder
                    .sends(NetworkInfo::new(
                        "10.0.0.2",
                        44_000,
                        IPS[s.peer as usize],
                        443,
                        "tcp",
                    ))
                    .amount(s.amount),
                _ => builder
                    .action(
                        saql::model::Operation::Read,
                        saql::model::Entity::Network(NetworkInfo::new(
                            "10.0.0.2",
                            44_001,
                            IPS[s.peer as usize],
                            443,
                            "tcp",
                        )),
                    )
                    .amount(s.amount),
            };
            Arc::new(event.build())
        })
        .collect()
}

/// Order-insensitive alert fingerprint, keyed by the control-plane id as
/// well as the name (both backends must tag identically).
fn multiset(mut alerts: Vec<Alert>) -> Vec<String> {
    let mut keys: Vec<String> = alerts
        .drain(..)
        .map(|a| format!("{}|{}|{a}", a.query_id, a.query))
        .collect();
    keys.sort();
    keys
}

// ---------------------------------------------------------------------
// Mid-stream lifecycle schedules
// ---------------------------------------------------------------------

/// The query pool for lifecycle schedules: the fixed deployment above plus
/// extras that only ever attach mid-stream. Slots 0..5 start registered;
/// 5..8 start detached.
fn lifecycle_pool() -> Vec<(&'static str, &'static str)> {
    let mut pool = query_set();
    pool.push((
        "late-rule",
        "proc p1[\"%sqlservr.exe\"] start proc p2 as e\nreturn p1, p2",
    ));
    pool.push((
        "late-window",
        "proc p write ip i as evt #time(20 s)\nstate ss { amt := sum(evt.amount) } group by p\nreturn p, ss[0].amt",
    ));
    // Same compat key as `rule-cmd`/`rule-distinct`: attaching it joins
    // their group (and detaching the others can promote it to master).
    pool.push((
        "late-join",
        "proc p1 start proc p2[\"%calc.exe\"] as e\nreturn p1, p2",
    ));
    pool
}

/// One random control-plane operation: applied once `at` events have been
/// processed (positions past the stream length apply before `finish`).
#[derive(Debug, Clone, Copy)]
struct LifecycleOp {
    at: u8,
    kind: u8,
    slot: u8,
}

fn arb_lifecycle_ops() -> impl Strategy<Value = Vec<LifecycleOp>> {
    proptest::collection::vec(
        (0u8..120, 0u8..4, 0u8..8).prop_map(|(at, kind, slot)| LifecycleOp { at, kind, slot }),
        0..12,
    )
}

/// Drive one engine through the stream with the schedule applied at exact
/// event positions, mirroring validity decisions on harness-side state so
/// serial and parallel engines receive *identical* control sequences.
fn run_with_schedule(
    engine: &mut Engine,
    events: &[SharedEvent],
    ops: &[LifecycleOp],
) -> Vec<Alert> {
    let pool = lifecycle_pool();
    let mut ids: Vec<Option<QueryId>> = vec![None; pool.len()];
    for (slot, (name, src)) in pool.iter().enumerate().take(5) {
        ids[slot] = Some(engine.register(name, src).unwrap());
    }
    let mut sorted: Vec<LifecycleOp> = ops.to_vec();
    sorted.sort_by_key(|op| op.at);
    let mut next = 0usize;
    let mut alerts = Vec::new();
    for (i, event) in events.iter().enumerate() {
        while next < sorted.len() && (sorted[next].at as usize) <= i {
            apply_op(engine, &pool, &mut ids, sorted[next]);
            next += 1;
        }
        alerts.extend(engine.process(event).unwrap());
    }
    for op in &sorted[next..] {
        apply_op(engine, &pool, &mut ids, *op);
    }
    alerts.extend(engine.finish());
    alerts
}

fn apply_op(
    engine: &mut Engine,
    pool: &[(&'static str, &'static str)],
    ids: &mut [Option<QueryId>],
    op: LifecycleOp,
) {
    let slot = op.slot as usize;
    let (name, src) = pool[slot];
    match (op.kind, ids[slot]) {
        (0, None) => ids[slot] = Some(engine.register(name, src).unwrap()),
        (0, Some(_)) => {} // already live: registration would be a dup
        (1, Some(id)) => {
            engine.deregister(id).unwrap();
            ids[slot] = None;
        }
        (2, Some(id)) => engine.pause(id).unwrap(),
        (3, Some(id)) => engine.resume(id).unwrap(),
        _ => {} // deregister/pause/resume of a detached slot: no-op
    }
}

// ---------------------------------------------------------------------
// Multi-source ingestion sessions
// ---------------------------------------------------------------------

/// Maximum forward jitter a generated feed applies to its nondecreasing
/// base timestamps — i.e. the bound on each source's out-of-orderness. The
/// sessions run with exactly this lateness bound, so nothing is dropped.
const JITTER_BOUND_MS: u64 = 5_000;

/// 2–4 interleaved feeds: steps plus per-event jitter.
fn arb_feeds() -> impl Strategy<Value = Vec<Vec<(Step, u64)>>> {
    let feed = proptest::collection::vec(
        (
            (0u8..4, 0u8..3, 0u8..3, 0u64..400, 0u64..20_000).prop_map(
                |(kind, actor, peer, amount, gap_ms)| Step {
                    kind,
                    actor,
                    peer,
                    amount,
                    gap_ms,
                },
            ),
            0u64..JITTER_BOUND_MS,
        ),
        1..60,
    );
    proptest::collection::vec(feed, 2..5)
}

/// Drive one engine over the feeds through a source session with the
/// jitter bound as lateness, collecting all alerts.
fn run_session_over(engine: &mut Engine, feeds: &[Vec<SharedEvent>]) -> Vec<Alert> {
    let mut session = engine.session_with(MergeConfig {
        lateness: saql::model::Duration::from_millis(JITTER_BOUND_MS),
        ..MergeConfig::default()
    });
    for (i, feed) in feeds.iter().enumerate() {
        session.attach(IterSource::new(format!("feed-{i}"), feed.clone()));
    }
    session.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaved sources with bounded out-of-orderness, merged by the
    /// watermarked session: the alert multiset must be identical on the
    /// serial backend and on the parallel backend for every worker count —
    /// the merge output is a pure function of the per-source sequences, so
    /// the equivalence of PR 2/3 must survive the new ingestion layer.
    #[test]
    fn multi_source_sessions_match_across_backends(specs in arb_feeds()) {
        let feeds: Vec<Vec<SharedEvent>> = specs
            .iter()
            .enumerate()
            .map(|(i, feed)| {
                let (steps, jitter): (Vec<Step>, Vec<u64>) = feed.iter().copied().unzip();
                materialize_on(&steps, &jitter, &format!("host-{i}"), i as u64 * 1_000_000)
            })
            .collect();

        let mut serial = Engine::new(EngineConfig::default());
        for (name, src) in query_set() {
            serial.register(name, src).unwrap();
        }
        let expected = multiset(run_session_over(&mut serial, &feeds));

        for workers in 1usize..=8 {
            let mut parallel =
                Engine::new(EngineConfig { workers, ..EngineConfig::default() });
            for (name, src) in query_set() {
                parallel.register(name, src).unwrap();
            }
            let got = multiset(run_session_over(&mut parallel, &feeds));
            prop_assert_eq!(
                &got,
                &expected,
                "multi-source alert multiset diverged at {} workers over {} feeds",
                workers,
                feeds.len()
            );
        }
    }

    #[test]
    fn parallel_engine_matches_serial_alert_multiset(steps in arb_steps()) {
        let events = materialize(&steps);

        let mut serial = Engine::new(EngineConfig::default());
        for (name, src) in query_set() {
            serial.register(name, src).unwrap();
        }
        let expected = multiset(serial.run(events.clone()).unwrap());

        for workers in 1usize..=8 {
            let mut parallel =
                Engine::new(EngineConfig { workers, ..EngineConfig::default() });
            for (name, src) in query_set() {
                parallel.register(name, src).unwrap();
            }
            // Batches of 7 force mid-stream dispatches even on short
            // generated streams.
            let mut alerts = Vec::new();
            for batch in batched(events.iter().cloned(), 7) {
                alerts.extend(parallel.process_batch(&batch).unwrap());
            }
            alerts.extend(parallel.finish());
            let got = multiset(alerts);
            prop_assert_eq!(
                &got,
                &expected,
                "alert multiset diverged at {} workers over {} events",
                workers,
                events.len()
            );
        }
    }

    /// Random mid-stream register/deregister/pause/resume schedules: every
    /// lifecycle operation lands at an exact stream position on both
    /// backends, so the per-query alert multisets (keyed by `QueryId` and
    /// name) must agree for every worker count.
    #[test]
    fn lifecycle_schedules_match_serial_alert_multiset(
        steps in arb_steps(),
        ops in arb_lifecycle_ops(),
    ) {
        let events = materialize(&steps);

        let mut serial = Engine::new(EngineConfig::default());
        let expected = multiset(run_with_schedule(&mut serial, &events, &ops));

        for workers in 1usize..=8 {
            let config = EngineConfig { workers, ..EngineConfig::default() };
            let mut parallel = Engine::new(config);
            let got = multiset(run_with_schedule(&mut parallel, &events, &ops));
            prop_assert_eq!(
                &got,
                &expected,
                "lifecycle alert multiset diverged at {} workers over {} events, ops {:?}",
                workers,
                events.len(),
                ops
            );
        }
    }
}
