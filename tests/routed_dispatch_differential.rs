//! Routed dispatch against broadcast-by-construction: a deployment hosted
//! by ONE [`Scheduler`] — compatibility groups, interned global-filter
//! slots, the host-keyed filter index, the window-deadline gate — must
//! produce, per query, exactly what that query produces **alone in its own
//! scheduler**, where there is nothing to route: the ordered alerts, the
//! `QueryStats`, and the scheduler counters (`events`; `deliveries` as the
//! sum over the lone schedulers; `master_checks` as one per attached group
//! per event). The lone schedulers route too, so the filter index also
//! answers to an oracle that does not: the first body alerts once per
//! process start its filter accepts, and the test works those event ids
//! out from the filter's meaning, written down by hand.
//!
//! Deployments mix every kind of global filter the index must tell apart —
//! exact, the same host in another case, wildcard, `!=`, numeric, two
//! constraints, a second indexed attribute, none — over several
//! compatibility groups (rule, two-shape sequence, windowed state at three
//! window lengths), and the shared run is repeated at batch sizes {1, 7,
//! 256}. `add` / `remove` / `pause` / `resume` land between batches, so
//! removing a group's first member (the next one is promoted to master),
//! its last (the group dissolves) and re-adding under the same key all
//! happen with the routing tables live: a stale index entry, slot or member
//! position shows up as a diverging alert or counter.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use saql::engine::alert::AlertOrigin;
use saql::engine::query::QueryConfig;
use saql::engine::{QueryId, RunningQuery, Scheduler};
use saql::model::event::EventBuilder;
use saql::model::{Duration, FileInfo, NetworkInfo, ProcessInfo};
use saql::stream::{batched, SharedEvent};

const BATCH_SIZES: [usize; 3] = [1, 7, 256];

/// Query bodies: seven compatibility groups.
const BODIES: [&str; 7] = [
    "proc p start proc c as e\nreturn p, c",
    "proc a start proc b as e1\nproc b write file f as e2\nwith e1 ->[20 s] e2\nreturn a, b, f",
    "proc p write ip i as e\nreturn distinct p, i",
    "proc p start proc c as e #time(5 s)\nstate ss { n := count() } group by p\nreturn p, ss.n",
    "proc p write file f as e #time(5 s)\nstate ss { amt := sum(e.amount) } group by p\nreturn p, ss.amt",
    "proc p write file f as e #time(9 s)\nstate ss { amt := sum(e.amount) } group by p\nalert ss.amt > 2000\nreturn p, ss.amt",
    "proc p write ip i as e #time(7 s)\nstate ss { n := count() } group by i.dstip\nalert ss.n > 1\nreturn i.dstip, ss.n",
];

/// Global-filter heads. Events come from `host-000`…`host-004`, some
/// spelled `HOST-00N`.
const FILTERS: [&str; 9] = [
    "",
    "agentid = \"host-003\"\n",
    "agentid = \"Host-003\"\n",
    "agentid = \"host-0%\"\n",
    "agentid != \"host-001\"\n",
    "amount > 1000\n",
    "agentid = \"host-002\"\namount > 10\n",
    "agentid = \"host-001\"\n",
    "op = \"write\"\nagentid = \"HOST-002\"\n",
];

/// What each of [`FILTERS`] means, by hand: `LIKE` equality folds ASCII
/// case, `!=` does not.
fn filter_accepts(filter: usize, event: &saql::model::Event) -> bool {
    let host = |name: &str| event.agent_id.eq_ignore_ascii_case(name);
    match filter {
        0 => true,
        1 | 2 => host("host-003"),
        3 => event.agent_id.to_ascii_lowercase().starts_with("host-0"),
        4 => &*event.agent_id != "host-001",
        5 => event.amount > 1000,
        6 => host("host-002") && event.amount > 10,
        7 => host("host-001"),
        _ => event.op == saql::model::Operation::Write && host("host-002"),
    }
}

/// Every body under every filter: spec `i` is body `i / 9`, filter `i % 9`.
fn specs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (b, body) in BODIES.iter().enumerate() {
        for (f, filter) in FILTERS.iter().enumerate() {
            out.push((format!("b{b}-f{f}"), format!("{filter}{body}\n")));
        }
    }
    out
}

fn config() -> QueryConfig {
    QueryConfig {
        allowed_lateness: Duration::from_secs(1),
        ..QueryConfig::default()
    }
}

fn compile(spec: usize, (name, src): &(String, String)) -> RunningQuery {
    let mut q = RunningQuery::compile(name.clone(), src, config()).unwrap();
    q.set_id(QueryId::new(spec));
    q
}

#[derive(Debug, Clone, Copy)]
struct Step {
    kind: u8,
    host: u8,
    actor: u8,
    peer: u8,
    amount: u32,
    gap_ms: u32,
    back_ms: u32,
}

fn arb_steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u8..3,
            0u8..10,
            0u8..4,
            0u8..4,
            0u32..3_000,
            0u32..2_500,
            0u32..4_000,
        )
            .prop_map(|(kind, host, actor, peer, amount, gap_ms, back_ms)| Step {
                kind,
                host,
                actor,
                peer,
                amount,
                gap_ms,
                back_ms,
            }),
        len,
    )
}

/// Events over five hosts (half of them spelled in upper case), three
/// shapes, timestamps up to 4 s out of order — inside and beyond the 1 s
/// lateness, so windows open behind the clock and many events come late.
fn materialize(steps: &[Step]) -> Vec<SharedEvent> {
    const PROCS: [&str; 4] = ["cmd.exe", "excel.exe", "sqlservr.exe", "chrome.exe"];
    const FILES: [&str; 4] = ["a.dmp", "b.txt", "c.vbs", "d.html"];
    const IPS: [&str; 4] = ["10.0.0.9", "8.8.8.8", "172.16.9.1", "1.1.1.1"];
    let mut clock = 10_000u64;
    steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            clock += s.gap_ms as u64;
            let ts = clock - (s.back_ms as u64).min(clock);
            let host = match s.host {
                h if h < 5 => format!("host-{h:03}"),
                h => format!("HOST-{:03}", h - 5),
            };
            let subject = ProcessInfo::new(100 + s.actor as u32, PROCS[s.actor as usize], "u");
            let builder = EventBuilder::new(i as u64 + 1, host, ts).subject(subject);
            let peer = s.peer as usize;
            Arc::new(
                match s.kind {
                    0 => builder.starts_process(ProcessInfo::new(
                        100 + s.peer as u32,
                        PROCS[peer],
                        "u",
                    )),
                    1 => builder.writes_file(FileInfo::new(FILES[peer])),
                    _ => builder.sends(NetworkInfo::new("10.0.0.2", 44_000, IPS[peer], 443, "tcp")),
                }
                .amount(s.amount as u64)
                .build(),
            )
        })
        .collect()
}

/// A control-plane operation landing once `at` events have been fed.
#[derive(Debug, Clone, Copy)]
struct Op {
    at: usize,
    kind: u8,
    spec: usize,
}

/// What a run produces, per spec and in total.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    /// Rendered alerts per spec, in emission order (a removed query's
    /// flush included, at the point of removal).
    alerts: BTreeMap<usize, Vec<String>>,
    /// `QueryStats` per spec: one entry per lifetime (removal or end).
    stats: BTreeMap<usize, Vec<String>>,
    deliveries: u64,
}

/// Run the deployment: in ONE scheduler, or (`alone`) each query in its
/// own. Returns the outcome, the first scheduler's `(events,
/// master_checks)` next to what one check per attached group per event
/// comes to, and the whole ordered alert stream.
fn run(
    initial: &[usize],
    schedule: &[Op],
    events: &[SharedEvent],
    batch_size: usize,
    alone: bool,
) -> (Outcome, [u64; 3], Vec<String>) {
    let specs = specs();
    let keys: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| compile(i, s).compat_key().to_string())
        .collect();
    let mut scheds = vec![Scheduler::new()];
    let mut home: BTreeMap<usize, usize> = BTreeMap::new();
    let mut paused: BTreeSet<usize> = BTreeSet::new();
    let mut out = Outcome::default();
    let mut stream = Vec::new();
    let mut expected_checks = 0u64;
    // Body 0 (specs 0..9) alerts on every process start its filter
    // accepts: `(spec, event id)` expected by hand, and as alerted.
    let mut starts_expected: Vec<(usize, u64)> = Vec::new();
    let mut starts_alerted: Vec<(usize, u64)> = Vec::new();

    fn add(
        spec: usize,
        specs: &[(String, String)],
        scheds: &mut Vec<Scheduler>,
        home: &mut BTreeMap<usize, usize>,
        alone: bool,
    ) {
        if home.contains_key(&spec) {
            return;
        }
        if alone {
            scheds.push(Scheduler::new());
        }
        let at = if alone { scheds.len() - 1 } else { 0 };
        scheds[at].add(compile(spec, &specs[spec]));
        home.insert(spec, at);
    }
    for &spec in initial {
        add(spec, &specs, &mut scheds, &mut home, alone);
    }

    let mut fed = 0;
    let stops = schedule
        .iter()
        .map(|op| (op.at.min(events.len()), Some(op)));
    for (stop, op) in stops.chain([(events.len(), None)]) {
        for batch in batched(events[fed..stop].iter().cloned(), batch_size) {
            let attached: BTreeSet<&str> = home
                .keys()
                .filter(|spec| !paused.contains(spec))
                .map(|&spec| keys[spec].as_str())
                .collect();
            expected_checks += (attached.len() * batch.len()) as u64;
            for &spec in home
                .keys()
                .filter(|&&s| s < FILTERS.len() && !paused.contains(&s))
            {
                let accepted = batch
                    .iter()
                    .filter(|e| e.op == saql::model::Operation::Start && filter_accepts(spec, e));
                starts_expected.extend(accepted.map(|e| (spec, e.id)));
            }
            for sched in &mut scheds {
                for alert in sched.process_batch(&batch) {
                    if let AlertOrigin::Match { event_ids } = &alert.origin {
                        if alert.query_id.index() < FILTERS.len() {
                            starts_alerted.push((alert.query_id.index(), event_ids[0]));
                        }
                    }
                    let rendered = format!("{}|{alert}", alert.query);
                    let per_spec = out.alerts.entry(alert.query_id.index()).or_default();
                    per_spec.push(rendered.clone());
                    stream.push(rendered);
                }
            }
        }
        fed = stop;
        let Some(op) = op else { continue };
        let id = QueryId::new(op.spec);
        match (op.kind, home.get(&op.spec).copied()) {
            (0, _) => add(op.spec, &specs, &mut scheds, &mut home, alone),
            (1, Some(at)) => {
                // The departing query leaves with its windows intact:
                // flushing it must give what it had pending.
                let mut q = scheds[at].remove(id).expect("live query");
                let flushed = q.finish();
                let per_spec = out.alerts.entry(op.spec).or_default();
                per_spec.extend(flushed.iter().map(|a| format!("{}|{a}", a.query)));
                let lifetimes = out.stats.entry(op.spec).or_default();
                lifetimes.push(format!("{:?}", q.stats()));
                home.remove(&op.spec);
                paused.remove(&op.spec);
            }
            (2, Some(at)) => {
                assert!(scheds[at].pause(id));
                paused.insert(op.spec);
            }
            (3, Some(at)) => {
                assert!(scheds[at].resume(id));
                paused.remove(&op.spec);
            }
            _ => {}
        }
    }
    for sched in &mut scheds {
        for alert in sched.finish() {
            let per_spec = out.alerts.entry(alert.query_id.index()).or_default();
            per_spec.push(format!("{}|{alert}", alert.query));
        }
        for q in sched.queries() {
            let lifetimes = out.stats.entry(q.id().index()).or_default();
            lifetimes.push(format!("{:?}", q.stats()));
        }
        out.deliveries += sched.stats().deliveries;
    }
    starts_expected.sort_unstable();
    starts_alerted.sort_unstable();
    assert_eq!(
        starts_alerted, starts_expected,
        "process starts each global filter accepted (alone: {alone}, batch size {batch_size})"
    );
    let first = scheds[0].stats();
    (
        out,
        [first.events, first.master_checks, expected_checks],
        stream,
    )
}

fn assert_routed_equals_alone(initial: &[usize], schedule: &[Op], events: &[SharedEvent]) {
    let (alone, _, alone_stream) = run(initial, schedule, events, 1, true);
    // Fed one event at a time, the lone schedulers emit event-major and
    // then in registration order — within one compatibility group, the
    // order one scheduler owes. (Alerts start with the query name, `bB-fF`.)
    let of_body = |stream: &[String], body: usize| -> Vec<String> {
        let prefix = format!("b{body}-");
        let mine = stream.iter().filter(|a| a.starts_with(&prefix));
        mine.cloned().collect()
    };
    let mut streams = Vec::new();
    for batch_size in BATCH_SIZES {
        let (shared, [seen, checks, expected_checks], stream) =
            run(initial, schedule, events, batch_size, false);
        prop_assert_eq!(
            &shared,
            &alone,
            "one scheduler at batch size {} diverged from each query alone \
             (initial {:?}, schedule {:?})",
            batch_size,
            initial,
            schedule
        );
        prop_assert_eq!(seen, events.len() as u64);
        prop_assert_eq!(
            checks,
            expected_checks,
            "one master check per attached group per event"
        );
        for body in 0..BODIES.len() {
            prop_assert_eq!(
                of_body(&stream, body),
                of_body(&alone_stream, body),
                "alert order within the group of body {} at batch size {}",
                body,
                batch_size
            );
        }
        streams.push(stream);
    }
    prop_assert_eq!(&streams[1], &streams[0], "alert order at batch size 7");
    prop_assert_eq!(&streams[2], &streams[0], "alert order at batch size 256");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_scheduler_equals_each_query_alone(
        steps in arb_steps(60..320),
        initial in proptest::collection::vec(0usize..63, 4..20),
        ops in proptest::collection::vec((0usize..320, 0u8..4, 0usize..63), 0..10),
    ) {
        let mut schedule: Vec<Op> = ops.into_iter().map(|(at, kind, spec)| Op { at, kind, spec }).collect();
        // Half the operations aim at queries that are live at the start,
        // so removals and pauses usually find their target.
        for (i, op) in schedule.iter_mut().enumerate() {
            if i % 2 == 0 {
                op.spec = initial[op.spec % initial.len()];
            }
        }
        schedule.sort_by_key(|op| op.at);
        assert_routed_equals_alone(&initial, &schedule, &materialize(&steps));
    }

    /// The group-maintenance cases, on purpose: the write-file 5 s group
    /// (body 4) loses its first member (promotion), then every member
    /// (dissolved, later groups shift down), and is re-founded under the
    /// same key by a filter that was there before and one that was not; a
    /// member of the 9 s group is paused across several window ends and
    /// resumed.
    #[test]
    fn promotion_dissolution_and_refounding_keep_routing_exact(steps in arb_steps(200..320)) {
        let spec = |body: usize, filter: usize| body * FILTERS.len() + filter;
        let initial = [
            spec(4, 1), spec(4, 2), spec(4, 0), spec(4, 7),
            spec(5, 1), spec(5, 6), spec(6, 3), spec(0, 8), spec(1, 4),
        ];
        let op = |at, kind, spec| Op { at, kind, spec };
        let schedule = [
            op(40, 1, spec(4, 1)),
            op(55, 2, spec(5, 1)),
            op(70, 1, spec(4, 2)),
            op(70, 1, spec(4, 0)),
            op(90, 1, spec(4, 7)),
            op(120, 0, spec(4, 2)),
            op(120, 0, spec(4, 5)),
            op(150, 3, spec(5, 1)),
            op(170, 1, spec(0, 8)),
        ];
        assert_routed_equals_alone(&initial, &schedule, &materialize(&steps));
    }
}
