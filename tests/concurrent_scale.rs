//! Concurrent-query scheduler behaviour at scale (precursor of bench E4):
//! grouping, master-check sharing, copy elimination, and correctness parity
//! with the naive per-query execution model.

use saql::baseline::NaiveScheduler;
use saql::collector::workload::{synthetic_stream, WorkloadConfig};
use saql::engine::query::{QueryConfig, RunningQuery};
use saql::engine::scheduler::Scheduler;
use saql::stream::{batched, share, DEFAULT_BATCH_SIZE};

/// N rule-query variants over the same shape, different constraints — the
/// realistic "many analysts watch process-start events" deployment.
fn variant_queries(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            (
                format!("variant-{i}"),
                format!("proc p1[\"%proc-{i}.exe\"] start proc p2 as e\nreturn distinct p1, p2"),
            )
        })
        .collect()
}

fn running(name: &str, src: &str) -> RunningQuery {
    RunningQuery::compile(name, src, QueryConfig::default()).unwrap()
}

#[test]
fn compatible_variants_form_one_group() {
    let mut s = Scheduler::new();
    for (name, src) in variant_queries(32) {
        s.add(running(&name, &src));
    }
    assert_eq!(s.query_count(), 32);
    assert_eq!(s.group_count(), 1, "{:?}", s.group_sizes());
}

#[test]
fn master_checks_stay_constant_as_queries_grow() {
    let events = share(synthetic_stream(&WorkloadConfig {
        events: 2_000,
        ..WorkloadConfig::default()
    }));

    let mut checks_at = Vec::new();
    for n in [1usize, 8, 32] {
        let mut s = Scheduler::new();
        for (name, src) in variant_queries(n) {
            s.add(running(&name, &src));
        }
        for batch in batched(events.clone(), DEFAULT_BATCH_SIZE) {
            s.process_batch(&batch);
        }
        checks_at.push(s.stats().master_checks);
    }
    // One compatible group ⇒ exactly one master check per event, no matter
    // how many dependent queries are registered.
    assert_eq!(checks_at[0], checks_at[1]);
    assert_eq!(checks_at[1], checks_at[2]);
}

#[test]
fn naive_scheduler_scales_checks_and_copies_linearly() {
    let events = share(synthetic_stream(&WorkloadConfig {
        events: 1_000,
        ..WorkloadConfig::default()
    }));
    let mut n8 = NaiveScheduler::new();
    for (name, src) in variant_queries(8) {
        n8.add(running(&name, &src));
    }
    for batch in batched(events.clone(), DEFAULT_BATCH_SIZE) {
        n8.process_batch(&batch);
    }
    assert_eq!(n8.stats().master_checks, 8 * events.len() as u64);
    assert_eq!(n8.stats().data_copies, 8 * events.len() as u64);
}

#[test]
fn scheduler_matches_naive_results_across_mixed_queries() {
    let mut cfg = WorkloadConfig {
        events: 5_000,
        target_fraction: 0.05,
        ..Default::default()
    };
    cfg.mean_gap_ms = 50; // spread trace time so windows close mid-stream
    let events = share(synthetic_stream(&cfg));

    let sources: Vec<(String, String)> = vec![
        (
            "rule-target".into(),
            saql::collector::workload::TARGET_QUERY.to_string(),
        ),
        (
            "rule-chain".into(),
            "proc a start proc b as e1\nproc b write ip i as e2\nwith e1 -> e2\nreturn distinct a, b, i".into(),
        ),
        (
            "windowed-count".into(),
            "proc p write ip i as evt #time(10 s)\nstate ss { n := count() } group by p\nalert ss[0].n > 3\nreturn p, ss[0].n".into(),
        ),
        (
            "windowed-sum-by-ip".into(),
            "proc p read || write ip i as evt #time(10 s)\nstate ss { amt := sum(evt.amount) } group by i.dstip\nalert ss[0].amt > 100000\nreturn i.dstip, ss[0].amt".into(),
        ),
    ];

    let mut shared = Scheduler::new();
    let mut naive = NaiveScheduler::new();
    for (name, src) in &sources {
        shared.add(running(name, src));
        naive.add(running(name, src));
    }

    let mut shared_alerts = Vec::new();
    let mut naive_alerts = Vec::new();
    for batch in batched(events, DEFAULT_BATCH_SIZE) {
        shared_alerts.extend(shared.process_batch(&batch));
        naive_alerts.extend(naive.process_batch(&batch));
    }
    shared_alerts.extend(shared.finish());
    naive_alerts.extend(naive.finish());

    let norm = |mut v: Vec<saql::engine::Alert>| {
        let mut s: Vec<String> = v.drain(..).map(|a| a.to_string()).collect();
        s.sort();
        s
    };
    assert_eq!(norm(shared_alerts), norm(naive_alerts));
    // And the shared scheduler did it with zero data copies.
    assert_eq!(shared.stats().data_copies, 0);
    assert!(naive.stats().data_copies > 0);
}

#[test]
fn incompatible_windows_split_groups() {
    let mut s = Scheduler::new();
    s.add(running(
        "w10",
        "proc p write ip i as evt #time(10 min)\nstate ss { n := count() } group by p\nalert ss[0].n > 1\nreturn p",
    ));
    s.add(running(
        "w5",
        "proc p write ip i as evt #time(5 min)\nstate ss { n := count() } group by p\nalert ss[0].n > 1\nreturn p",
    ));
    s.add(running(
        "w10-b",
        "proc q write ip j as evt #time(10 min)\nstate ss { n := count() } group by q\nalert ss[0].n > 1\nreturn q",
    ));
    assert_eq!(s.group_count(), 2, "{:?}", s.group_sizes());
}
