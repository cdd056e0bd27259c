//! Batch-size invariance of the engine's one execution path: the same
//! stream cut into batches of {1, 2, 7, 64, 1024} events must yield
//!
//! * without workers the identical **ordered** alert stream — every field
//!   of every alert — and identical `SchedulerStats` / `QueryStats`;
//! * on 1–8 workers (each batch broadcast as cut) the identical alert
//!   multiset;
//!
//! with pause / resume / deregister operations landing between batches at
//! fixed stream positions, and — without workers — an engine checkpoint
//! taken at each of those positions byte-identical (so every query's
//! `WindowSnapshot`: watermark, open set, closed count). Batch size 1 is
//! the reference: it is what `Engine::process(&event)` does, and there the
//! scheduler's window gate is re-armed from the window drivers on every
//! event.
//!
//! Two kinds of deployment are drawn. Random subsets of `saql_lang::corpus`
//! (the paper's demo queries — all four anomaly models) over streams in the
//! corpus vocabulary, so predicate columns, matcher probes, window states
//! and the cluster stage all genuinely run. And a **Q-many-shaped**
//! deployment — 32 host-pinned selective queries, 4 event shapes x 2
//! windows = 8 compatibility groups of 4, most members matching under 1% of
//! the rows their group admits, over a stream with a 64-event stretch that
//! holds no process start at all (so at batch size 64 a whole batch admits
//! zero rows for two groups) — which is what routed prepare exists for.
//! The same deployment also runs over a stream whose events arrive up to
//! 3 s out of timestamp order, so stragglers behind a closed window come
//! late (counted in `QueryStats`) mid-batch.

use proptest::prelude::*;

use saql::engine::{Alert, Engine, EngineConfig};
use saql::lang::corpus::DEMO_QUERIES;
use saql::model::event::EventBuilder;
use saql::model::{FileInfo, NetworkInfo, ProcessInfo, Timestamp};
use saql::stream::{batched, SharedEvent};
use std::sync::Arc;

/// Batch sizes under test: degenerate (1), tiny, prime-odd, mid, and
/// larger than most generated streams (so one batch swallows everything).
const BATCH_SIZES: [usize; 5] = [1, 2, 7, 64, 1024];

/// One generated stream step.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: u8,
    host: u8,
    actor: u8,
    peer: u8,
    amount: u32,
    gap_ms: u32,
}

fn arb_steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u8..5,
            any::<u8>(),
            0u8..8,
            0u8..8,
            0u32..3_000_000,
            0u32..12_000,
        )
            .prop_map(|(kind, host, actor, peer, amount, gap_ms)| Step {
                kind,
                host,
                actor,
                peer,
                amount,
                gap_ms,
            }),
        len,
    )
}

/// A non-empty random subset of the demo corpus.
fn arb_deployment() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(0usize..DEMO_QUERIES.len(), 1..DEMO_QUERIES.len() + 1).prop_map(
        |mut picks| {
            picks.sort_unstable();
            picks.dedup();
            let query = |i: usize| (DEMO_QUERIES[i].0.to_string(), DEMO_QUERIES[i].1.to_string());
            picks.into_iter().map(query).collect()
        },
    )
}

/// Hosts of the Q-many-shaped stream: a quarter of the events land on
/// `host-000`, the rest spread over the other 127.
const MANY_HOSTS: usize = 128;

/// The Q-many-shaped deployment (see the module docs): per shape and
/// window, one member watches the busy host and three a tail host each.
fn many_deployment() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (shape, body) in [
        ("a", "proc p write file f as evt #time(W s)\nstate ss { amt := sum(evt.amount) } group by p\nalert ss.amt > 1000\nreturn p, ss.amt"),
        ("b", "proc p read ip i as evt #time(W s)\nstate ss { n := count() } group by i.dstip\nalert ss.n > 0\nreturn i.dstip, ss.n"),
        ("c", "proc p start proc c as evt #time(W s)\nstate ss { kids := distinct_count(c.exe_name) } group by p\nalert ss.kids > 0\nreturn p, ss.kids"),
        ("d", "proc p read file f[\"%.dmp\"] as evt #time(W s)\nstate ss { amt := sum(evt.amount) } group by p\nalert ss.amt > 1000\nreturn p, ss.amt"),
    ] {
        for window in [4, 9] {
            for member in 0..4 {
                let host = match member {
                    0 => 0,
                    m => 1 + (out.len() * 7 + m) % (MANY_HOSTS - 1),
                };
                out.push((
                    format!("{shape}-w{window}-m{member}"),
                    format!("agentid = \"host-{host:03}\"\n{}\n", body.replace('W', &window.to_string())),
                ));
            }
        }
    }
    out
}

/// Materialize steps in the corpus vocabulary so its constraints can match.
/// With `many_hosts` the events spread over [`MANY_HOSTS`] hosts instead of
/// the corpus's three, and steps 64..128 hold no process start. Each
/// event's timestamp falls up to `disorder_ms` behind the stream's clock.
fn materialize(steps: &[Step], many_hosts: bool, disorder_ms: u64) -> Vec<SharedEvent> {
    const HOSTS: [&str; 3] = ["client-3", "db-server", "web-server"];
    const PROCS: [&str; 8] = [
        "outlook.exe",
        "excel.exe",
        "cmd.exe",
        "sqlservr.exe",
        "sbblv.exe",
        "apache.exe",
        "wscript.exe",
        "chrome.exe",
    ];
    const CHILDREN: [&str; 8] = [
        "cscript.exe",
        "osql.exe",
        "gsecdump.exe",
        "sbblv.exe",
        "php-cgi.exe",
        "rotatelogs.exe",
        "cmd.exe",
        "calc.exe",
    ];
    const FILES: [&str; 8] = [
        "report.xlsm",
        "backup1.dmp",
        "drop.vbs",
        "notes.txt",
        "page.html",
        "invoice.xlsm",
        "dump2.dmp",
        "run.vbs",
    ];
    const IPS: [&str; 8] = [
        "172.16.9.129",
        "10.0.0.9",
        "8.8.8.8",
        "172.16.9.1",
        "10.0.0.50",
        "10.0.0.51",
        "10.0.0.52",
        "1.1.1.1",
    ];
    let mut clock = 0u64;
    steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            clock += s.gap_ms as u64;
            let ts = clock.saturating_sub(s.amount as u64 % (disorder_ms + 1));
            let subject = ProcessInfo::new(100 + s.actor as u32, PROCS[s.actor as usize], "user");
            let host = match (many_hosts, s.host as usize) {
                (false, h) => HOSTS[h % HOSTS.len()].to_string(),
                (true, h) if h < 64 => "host-000".to_string(),
                (true, h) => format!("host-{:03}", h % MANY_HOSTS),
            };
            let builder = EventBuilder::new(i as u64 + 1, host, ts).subject(subject);
            let kind = match s.kind {
                0 if many_hosts && (64..128).contains(&i) => 1,
                kind => kind,
            };
            let event = match kind {
                0 => builder.starts_process(ProcessInfo::new(
                    200 + s.peer as u32,
                    CHILDREN[s.peer as usize],
                    "user",
                )),
                1 => builder
                    .writes_file(FileInfo::new(FILES[s.peer as usize]))
                    .amount(s.amount as u64),
                2 => builder
                    .reads_file(FileInfo::new(FILES[s.peer as usize]))
                    .amount(s.amount as u64),
                3 => builder
                    .sends(NetworkInfo::new(
                        "10.0.0.2",
                        44_000,
                        IPS[s.peer as usize],
                        443,
                        "tcp",
                    ))
                    .amount(s.amount as u64),
                _ => builder
                    .receives(NetworkInfo::new(
                        "10.0.0.2",
                        44_001,
                        IPS[s.peer as usize],
                        443,
                        "tcp",
                    ))
                    .amount(s.amount as u64),
            };
            Arc::new(event.build())
        })
        .collect()
}

/// A control-plane operation applied once `at` events have been fed, to
/// the `target`-th query of the deployment.
#[derive(Debug, Clone, Copy)]
struct Op {
    at: usize,
    kind: u8,
    target: usize,
}

fn arb_schedule() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0usize..400, 0u8..3, 0usize..64).prop_map(|(at, kind, target)| Op { at, kind, target }),
        0..6,
    )
    .prop_map(|mut ops| {
        ops.sort_by_key(|op| op.at);
        ops
    })
}

/// Everything a run produces that must not depend on the batch size.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Fully rendered alerts in emission order: query id, name, origin,
    /// timestamps, every returned row.
    alerts: Vec<String>,
    scheduler: String,
    queries: Vec<String>,
    /// The engine checkpoint, encoded, at every scheduled stop and at the
    /// end of the stream (compared between serial runs only).
    checkpoints: Vec<Vec<u8>>,
}

/// Feed `events` in batches of `batch_size`, never letting a batch span a
/// scheduled operation: it lands between two batches, at its position.
fn run(
    deployment: &[(String, String)],
    events: &[SharedEvent],
    schedule: &[Op],
    workers: usize,
    batch_size: usize,
) -> Outcome {
    let mut engine = Engine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    });
    let ids: Vec<_> = deployment
        .iter()
        .map(|(name, src)| engine.register(name, src).unwrap())
        .collect();
    let mut alerts: Vec<Alert> = Vec::new();
    let mut checkpoints = Vec::new();
    let mut fed = 0;
    let stops = schedule
        .iter()
        .map(|op| (op.at.min(events.len()), Some(op)));
    for (stop, op) in stops.chain([(events.len(), None)]) {
        for batch in batched(events[fed..stop].iter().cloned(), batch_size) {
            alerts.extend(engine.process_batch(&batch).unwrap());
        }
        fed = stop;
        let checkpoint = engine.checkpoint(fed as u64, Timestamp::ZERO).unwrap();
        checkpoints.push(checkpoint.encode().to_vec());
        if let Some(op) = op {
            // Targets may already be gone: the refusal is as deterministic
            // as the operation.
            let id = ids[op.target % ids.len()];
            let _ = match op.kind {
                0 => engine.pause(id),
                1 => engine.resume(id),
                _ => engine.deregister(id),
            };
        }
    }
    alerts.extend(engine.finish());
    let mut queries: Vec<String> = engine
        .query_stats()
        .iter()
        .map(|(name, stats)| format!("{name}: {stats:?}"))
        .collect();
    queries.sort();
    Outcome {
        alerts: alerts
            .iter()
            .map(|a| format!("{}|{}|{a}", a.query_id, a.query))
            .collect(),
        scheduler: format!("{:?}", engine.scheduler_stats()),
        queries,
        checkpoints,
    }
}

/// The property, for one deployment over one stream.
fn assert_batch_size_invariant(
    deployment: &[(String, String)],
    events: &[SharedEvent],
    schedule: &[Op],
) {
    let reference = run(deployment, events, schedule, 0, 1);
    for batch_size in BATCH_SIZES {
        let got = run(deployment, events, schedule, 0, batch_size);
        prop_assert_eq!(
            &got,
            &reference,
            "serial run at batch size {} diverged from batch size 1 ({} events, schedule {:?})",
            batch_size,
            events.len(),
            schedule
        );
    }
    let mut expected = reference.alerts;
    expected.sort();
    for workers in 1usize..=8 {
        // Each batch is broadcast to the shards as cut; vary its size
        // with the worker count.
        let batch_size = BATCH_SIZES[workers % BATCH_SIZES.len()];
        let mut got = run(deployment, events, schedule, workers, batch_size);
        got.alerts.sort();
        prop_assert_eq!(
            &got.alerts,
            &expected,
            "alert multiset diverged at {} workers, batch size {} ({} events, schedule {:?})",
            workers,
            batch_size,
            events.len(),
            schedule
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random corpus deployments over corpus-vocabulary streams.
    #[test]
    fn corpus_deployments_are_batch_size_invariant(
        steps in arb_steps(1..120),
        deployment in arb_deployment(),
        schedule in arb_schedule(),
    ) {
        assert_batch_size_invariant(&deployment, &materialize(&steps, false, 0), &schedule);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The Q-many-shaped deployment: shared groups, selective members, a
    /// batch with an empty selection.
    #[test]
    fn selective_shared_groups_are_batch_size_invariant(
        steps in arb_steps(200..400),
        schedule in arb_schedule(),
    ) {
        assert_batch_size_invariant(&many_deployment(), &materialize(&steps, true, 0), &schedule);
    }

    /// The same deployment over a stream up to 3 s out of order: the
    /// stragglers behind a closed window come late, counted in
    /// `QueryStats`, wherever the batches are cut.
    #[test]
    fn out_of_order_streams_are_batch_size_invariant(
        steps in arb_steps(200..400),
        schedule in arb_schedule(),
    ) {
        let events = materialize(&steps, true, 3_000);
        assert_batch_size_invariant(&many_deployment(), &events, &schedule);
    }
}
