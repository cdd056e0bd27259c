//! Shared workload builders for the SAQL experiment benches (E4–E13).
//!
//! Every bench uses these helpers so workloads stay comparable across
//! experiments: the same event mixes, the same query variants, the same
//! seeds. The experiment → bench mapping lives in `DESIGN.md`; measured
//! results are recorded in `EXPERIMENTS.md`.

use saql_collector::workload::{synthetic_stream, WorkloadConfig};
use saql_engine::query::RunningQuery;
use saql_engine::{Alert, Engine, EngineConfig, Scheduler};
use saql_stream::{batched, EventBatch, SharedEvent, DEFAULT_BATCH_SIZE};

/// A synthetic stream of `n` events with default mix and ~5% matching the
/// target pattern, spread over trace time so windows regularly close.
pub fn stream(n: usize, seed: u64) -> Vec<SharedEvent> {
    saql_stream::share(synthetic_stream(&WorkloadConfig {
        seed,
        events: n,
        mean_gap_ms: 20, // ~50 events/s of trace time
        target_fraction: 0.05,
        ..WorkloadConfig::default()
    }))
}

/// `events` cut into batches of the engine's default size — how the
/// session pump feeds a scheduler, and how every bench does.
pub fn batches(events: &[SharedEvent]) -> Vec<EventBatch> {
    batched(events.iter().cloned(), DEFAULT_BATCH_SIZE)
}

/// A scheduler hosting `queries`.
pub fn scheduler(queries: impl IntoIterator<Item = RunningQuery>) -> Scheduler {
    let mut s = Scheduler::new();
    for q in queries {
        s.add(q);
    }
    s
}

/// Push `batches` through `scheduler` and flush; returns the alert count.
pub fn drive(scheduler: &mut Scheduler, batches: &[EventBatch]) -> usize {
    let mut alerts = 0usize;
    for batch in batches {
        alerts += scheduler.process_batch(batch).len();
    }
    alerts + scheduler.finish().len()
}

/// An engine on `workers` threads hosting `queries` (compiled on
/// registration, like [`scheduler`]'s are before it is built).
pub fn engine(
    workers: usize,
    queries: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
) -> Engine {
    let mut engine = Engine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    });
    for (name, src) in queries {
        engine
            .register(name.as_ref(), src.as_ref())
            .expect("workload query compiles");
    }
    engine
}

/// [`drive`] for an [`Engine`]: push `batches` through and flush; returns
/// the alerts.
pub fn drive_engine(engine: &mut Engine, batches: &[EventBatch]) -> Vec<Alert> {
    let mut alerts = Vec::new();
    for batch in batches {
        alerts.extend(engine.process_batch(batch).expect("engine is live"));
    }
    alerts.extend(engine.finish());
    alerts
}

/// One representative query per anomaly-model family, over the synthetic
/// workload's vocabulary.
pub fn family_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "rule",
            "proc a[\"%target.exe\"] write ip i[dstip=\"10.9.9.9\"] as e1\nreturn distinct a, i",
        ),
        (
            "rule-sequence",
            "proc a start proc b as e1\nproc b write ip i as e2\nwith e1 ->[60 s] e2\nreturn distinct a, b, i",
        ),
        (
            "time-series",
            "proc p write ip i as evt #time(60 s)\nstate[3] ss { avg_amount := avg(evt.amount) } group by p\nalert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 40000)\nreturn p, ss[0].avg_amount",
        ),
        (
            "invariant",
            "proc p1 start proc p2 as evt #time(60 s)\nstate ss { set_proc := set(p2.exe_name) } group by p1\ninvariant[5][offline] {\n a := empty_set\n a = a union ss.set_proc\n}\nalert |ss.set_proc diff a| > 0\nreturn p1, ss.set_proc",
        ),
        (
            "outlier",
            "proc p read || write ip i as evt #time(60 s)\nstate ss { amt := sum(evt.amount) } group by i.dstip\ncluster(points=all(ss.amt), distance=\"ed\", method=\"DBSCAN(100000, 5)\")\nalert cluster.outlier && ss.amt > 100000\nreturn i.dstip, ss.amt",
        ),
    ]
}

/// Compile one of the family queries by name.
pub fn compile_family(name: &str) -> RunningQuery {
    let (_, src) = family_queries()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown family query `{name}`"));
    RunningQuery::compile(name, src).expect("family query compiles")
}

/// `n` shape-compatible rule-query variants (the concurrent-scaling
/// workload: same pattern shape, different constraints).
pub fn variant_queries(n: usize) -> Vec<RunningQuery> {
    (0..n)
        .map(|i| {
            let src = format!(
                "proc p1[\"%proc-{}.exe\"] start proc p2 as e\nreturn distinct p1, p2",
                i % 20
            );
            RunningQuery::compile(format!("variant-{i}"), &src).unwrap()
        })
        .collect()
}

/// `n` host-pinned stateful queries of ONE compatibility group with a
/// skewed match rate over [`skewed_stream`]: every tenth watches one of its
/// four busy hosts in turn (an eighth of the events each), the rest a host
/// from the tail (a thousandth of the events each, at most) — ROADMAP 3's
/// "1k–10k registered queries with skewed match rates". What the scheduler
/// must not do on it is test every member's filter on every row.
pub fn host_pinned_queries(n: usize) -> Vec<RunningQuery> {
    (0..n)
        .map(|i| {
            let host = match i % 10 {
                0 => i / 10 % BUSY_HOSTS,
                _ => SKEWED_HOSTS / 2 + (i * 7) % (SKEWED_HOSTS / 2),
            };
            let src = format!(
                "agentid = \"host-{host}\"\nproc p write ip i as evt #time(30 s)\nstate ss {{ amt := sum(evt.amount) }} group by p\nalert ss[0].amt > 150000\nreturn p, ss[0].amt"
            );
            RunningQuery::compile(format!("pinned-{i}"), &src)
                .expect("host-pinned workload query compiles")
        })
        .collect()
}

/// Hosts of [`skewed_stream`], and how many of them are busy.
const SKEWED_HOSTS: usize = 1_000;
const BUSY_HOSTS: usize = 4;

/// [`stream`] with a skewed host distribution: half the events come from
/// four busy hosts (`host-0`…`host-3`), the other half spread evenly over
/// 500 tail hosts (`host-500`…`host-999`).
pub fn skewed_stream(n: usize, seed: u64) -> Vec<SharedEvent> {
    let mut events = synthetic_stream(&WorkloadConfig {
        seed,
        events: n,
        hosts: SKEWED_HOSTS,
        mean_gap_ms: 20,
        ..WorkloadConfig::default()
    });
    for event in &mut events {
        let host: usize = event.agent_id["host-".len()..]
            .parse()
            .expect("synthetic hosts are `host-N`");
        if host < SKEWED_HOSTS / 2 {
            event.agent_id = format!("host-{}", host % BUSY_HOSTS).into();
        }
    }
    saql_stream::share(events)
}

/// `groups × per_group` stateful queries spanning `groups` distinct
/// compatibility groups, the multi-query workload for the E11 parallel
/// scaling bench. Groups differ by window length (part of the compat key);
/// members within a group differ only by alert threshold, so they stay
/// dependents of one master. Stateful queries keep per-event work high
/// enough that sharding, not channel overhead, dominates.
pub fn sharded_queries(groups: usize, per_group: usize) -> Vec<RunningQuery> {
    sharded_sources(groups, per_group)
        .into_iter()
        .map(|(name, src)| {
            RunningQuery::compile(name, &src).expect("sharded workload query compiles")
        })
        .collect()
}

/// [`sharded_queries`] as `(name, SAQL text)`, for engines that compile on
/// registration.
pub fn sharded_sources(groups: usize, per_group: usize) -> Vec<(String, String)> {
    let mut out = Vec::with_capacity(groups * per_group);
    for g in 0..groups {
        for m in 0..per_group {
            let src = format!(
                "proc p write ip i as evt #time({} s)\nstate ss {{ amt := sum(evt.amount) }} group by p\nalert ss[0].amt > {}\nreturn p, ss[0].amt",
                30 + g,
                10_000 * (m + 1),
            );
            out.push((format!("shard-g{g}-m{m}"), src));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_family_queries_compile() {
        for (name, _) in family_queries() {
            let q = compile_family(name);
            assert_eq!(q.name(), name);
        }
    }

    #[test]
    fn stream_builder_is_deterministic() {
        let a = stream(100, 3);
        let b = stream(100, 3);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
    }

    #[test]
    fn variants_share_one_compat_key() {
        let vs = variant_queries(8);
        let key = vs[0].compat_key().to_string();
        assert!(vs.iter().all(|q| q.compat_key() == key));
    }

    #[test]
    fn host_pinned_queries_share_a_group_and_match_skewed() {
        let qs = host_pinned_queries(40);
        assert!(qs.iter().all(|q| q.compat_key() == qs[0].compat_key()));
        let events = skewed_stream(4_000, 5);
        let on = |host: &str| events.iter().filter(|e| &*e.agent_id == host).count();
        assert!(on("host-0") > 400, "busy hosts carry an eighth each");
        assert!(on("host-700") < 20, "tail hosts a thousandth each");
        let mut s = scheduler(qs);
        assert!(
            drive(&mut s, &batches(&events)) > 0,
            "busy-host queries alert"
        );
    }

    #[test]
    fn sharded_queries_span_the_declared_groups() {
        let qs = sharded_queries(6, 3);
        assert_eq!(qs.len(), 18);
        let mut keys: Vec<&str> = qs.iter().map(|q| q.compat_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 6, "one compat key per group");
    }
}
