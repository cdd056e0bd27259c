//! Deeper window and cluster semantics: overlapping sliding windows
//! (`#time(size, slide)`), multi-dimensional comparison points, k-means
//! outlier queries, end-of-stream flushing, and the window close checked
//! against a direct reference (fired groups in label order, `distinct`
//! applied in that order, `ss[n]` history and warm-up).

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;
use saql::engine::alert::AlertOrigin;
use saql::engine::{Engine, EngineConfig, Value};
use saql::model::event::EventBuilder;
use saql::model::{NetworkInfo, ProcessInfo};
use saql::stream::SharedEvent;
use std::sync::Arc;

fn send(id: u64, ts: u64, exe: &str, dst: &str, amount: u64) -> SharedEvent {
    Arc::new(
        EventBuilder::new(id, "h", ts)
            .subject(ProcessInfo::new(1, exe, "u"))
            .sends(NetworkInfo::new("10.0.0.2", 44000, dst, 443, "tcp"))
            .amount(amount)
            .build(),
    )
}

#[test]
fn sliding_windows_count_events_in_every_overlap() {
    // size 60s, slide 20s: an event at 50s belongs to windows starting at
    // 0s, 20s, 40s — three overlapping counts.
    let query = "proc p write ip i as evt #time(60 s, 20 s)\nstate ss { n := count() } group by p\nreturn p, ss[0].n";
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("sliding", query).unwrap();
    let mut alerts = Vec::new();
    alerts.extend(
        engine
            .process(&send(1, 50_000, "a.exe", "1.1.1.1", 10))
            .unwrap(),
    );
    // Push the watermark far ahead so every containing window closes.
    alerts.extend(
        engine
            .process(&send(2, 500_000, "a.exe", "1.1.1.1", 10))
            .unwrap(),
    );
    alerts.extend(engine.finish());
    let ones: Vec<_> = alerts
        .iter()
        .filter(|a| a.get("ss[0].n") == Some("1") && a.ts.as_millis() <= 120_000)
        .collect();
    assert_eq!(
        ones.len(),
        3,
        "event must appear in 3 overlapping windows: {alerts:?}"
    );
}

#[test]
fn sliding_window_history_is_indexed_by_slide_steps() {
    // size 40s slide 20s: ss[1] refers to the window one *slide* back.
    let query = "proc p write ip i as evt #time(40 s, 20 s)\nstate[2] ss { amt := sum(evt.amount) } group by p\nalert ss[0].amt > ss[1].amt * 2 && ss[0].amt > 100\nreturn p, ss[0].amt, ss[1].amt";
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("sliding-hist", query).unwrap();
    let mut events = Vec::new();
    // Steady 100 bytes per 20s slot, then a burst.
    for (i, slot) in (0..6u64).enumerate() {
        events.push(send(
            i as u64 + 1,
            slot * 20_000 + 1_000,
            "a.exe",
            "1.1.1.1",
            100,
        ));
    }
    events.push(send(50, 6 * 20_000 + 2_000, "a.exe", "1.1.1.1", 5_000));
    events.push(send(51, 10 * 20_000, "a.exe", "1.1.1.1", 1)); // advance watermark
    let alerts = engine.run(events).unwrap();
    assert!(
        alerts
            .iter()
            .any(|a| a.get("ss[0].amt").is_some_and(|v| v.starts_with("5"))),
        "burst window must alert: {alerts:?}"
    );
}

#[test]
fn multi_dimensional_cluster_points() {
    // Two dimensions: volume and connection count. The attacker is average
    // in count but extreme in volume — only multi-dim distance sees it.
    let query = r#"proc p write ip i as evt #time(10 min)
state ss {
    amt := sum(evt.amount)
    conns := count()
} group by i.dstip
cluster(points=all(ss.amt, ss.conns), distance="ed", method="DBSCAN(200000, 4)")
alert cluster.outlier && ss.amt > 1000000
return i.dstip, ss.amt, ss.conns"#;
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("multi-dim", query).unwrap();
    let mut events = Vec::new();
    let mut id = 0u64;
    for c in 0..6u32 {
        for j in 0..10u64 {
            id += 1;
            events.push(send(
                id,
                j * 30_000,
                "sqlservr.exe",
                &format!("10.0.0.{c}"),
                50_000,
            ));
        }
    }
    for j in 0..10u64 {
        id += 1;
        events.push(send(
            id,
            j * 30_000 + 5_000,
            "sqlservr.exe",
            "172.16.9.129",
            300_000_000,
        ));
    }
    let alerts = engine.run(events).unwrap();
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert_eq!(alerts[0].get("i.dstip"), Some("172.16.9.129"));
    assert_eq!(alerts[0].get("ss.conns"), Some("10"));
}

#[test]
fn kmeans_outlier_query_end_to_end() {
    let query = r#"proc p write ip i as evt #time(10 min)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="KMEANS(2)")
alert cluster.outlier && ss.amt > 1000000
return i.dstip, ss.amt"#;
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("kmeans", query).unwrap();
    let mut events = Vec::new();
    let mut id = 0u64;
    for c in 0..11u32 {
        id += 1;
        events.push(send(
            id,
            c as u64 * 1_000,
            "a.exe",
            &format!("10.0.0.{c}"),
            400_000 + c as u64,
        ));
    }
    id += 1;
    events.push(send(id, 60_000, "a.exe", "172.16.9.129", 3_000_000_000));
    let alerts = engine.run(events).unwrap();
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert_eq!(alerts[0].get("i.dstip"), Some("172.16.9.129"));
}

#[test]
fn finish_flushes_partial_windows() {
    let query = "proc p write ip i as evt #time(10 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n";
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("flush", query).unwrap();
    // Single event; the window never closes by watermark.
    let mid = engine
        .process(&send(1, 5_000, "a.exe", "1.1.1.1", 10))
        .unwrap();
    assert!(mid.is_empty());
    let flushed = engine.finish();
    assert_eq!(flushed.len(), 1);
    assert_eq!(flushed[0].get("ss[0].n"), Some("1"));
}

#[test]
fn cluster_with_fewer_points_than_min_pts_marks_all_noise() {
    // Only two destinations, DBSCAN needs 5 neighbours: both are noise, but
    // the volume floor keeps the small one quiet.
    let query = r#"proc p write ip i as evt #time(10 min)
state ss { amt := sum(evt.amount) } group by i.dstip
cluster(points=all(ss.amt), distance="ed", method="DBSCAN(100000, 5)")
alert cluster.outlier && ss.amt > 1000000
return i.dstip, ss.amt"#;
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("sparse", query).unwrap();
    let events = vec![
        send(1, 1_000, "a.exe", "10.0.0.1", 2_000_000),
        send(2, 2_000, "a.exe", "10.0.0.2", 500),
    ];
    let alerts = engine.run(events).unwrap();
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert_eq!(alerts[0].get("i.dstip"), Some("10.0.0.1"));
}

const EXES: [&str; 3] = ["b.exe", "a.exe", "c.exe"];
const DSTS: [&str; 3] = ["10.0.0.9", "10.0.0.10", "172.16.0.1"];

/// The group-by clauses the close property runs: by process, by
/// destination, by both (each spelled as written in the query).
const GROUPINGS: [&[&str]; 3] = [&["p"], &["i.dstip"], &["p", "i.dstip"]];

/// One drawn event: executable, destination, amount, milliseconds after
/// the previous event.
type Draw = (usize, usize, u64, u64);

fn stream(draws: &[Draw]) -> Vec<SharedEvent> {
    let mut ts = 3_000;
    (draws.iter().enumerate())
        .map(|(i, &(exe, dst, amount, gap))| {
            ts += gap;
            send(i as u64 + 1, ts, EXES[exe], DSTS[dst], amount)
        })
        .collect()
}

fn close_query(keys: &[&str], deep: bool, distinct: bool) -> String {
    let (history, alert, extra) = if deep {
        ("[3]", "ss[0].n > ss[1].n", ", ss[1].n, ss[2].s")
    } else {
        ("", "ss[0].n > 1", "")
    };
    let distinct = if distinct { "distinct " } else { "" };
    format!(
        "proc p write ip i as evt #time(1 s)\nstate{history} ss {{\n n := count()\n s := sum(evt.amount)\n}} group by {}\nalert {alert}\nreturn {distinct}{}{extra}",
        keys.join(", "),
        keys[0],
    )
}

/// An alert as the property compares it: window end, group label, row
/// values.
type Seen = (u64, String, Vec<String>);

/// The window close computed directly: bucket by (1 s window, group key),
/// count and sum, read `ss[b]` with the warm-up rules (before the first
/// window: missing; a window the group skipped: 0), fire, sort the fired
/// groups by label, then apply `distinct` in that order.
fn close_reference(events: &[SharedEvent], keys: &[&str], deep: bool, distinct: bool) -> Vec<Seen> {
    let key_of = |e: &SharedEvent| -> Vec<String> {
        let dst = match &e.object {
            saql::model::Entity::Network(n) => n.dst_ip.to_string(),
            _ => unreachable!("network events only"),
        };
        (keys.iter())
            .map(|k| match *k {
                "p" => e.subject.exe_name.to_string(),
                _ => dst.clone(),
            })
            .collect()
    };
    // window → group key → (count, sum)
    let mut windows: BTreeMap<u64, BTreeMap<Vec<String>, (i64, f64)>> = BTreeMap::new();
    for e in events {
        let slot = windows.entry(e.ts.as_millis() / 1000).or_default();
        let agg = slot.entry(key_of(e)).or_default();
        agg.0 += 1;
        agg.1 += e.amount as f64;
    }
    let first = *windows.keys().next().expect("a non-empty stream");
    let at = |key: &Vec<String>, k: u64, back: u64| -> Option<(i64, f64)> {
        let t = k.checked_sub(back).filter(|t| *t >= first)?;
        let found = windows.get(&t).and_then(|groups| groups.get(key));
        Some(found.copied().unwrap_or((0, 0.0)))
    };
    let shown = |v: Option<Value>| v.unwrap_or(Value::Missing).to_string();
    let mut seen: HashSet<Vec<String>> = HashSet::new();
    let mut out = Vec::new();
    for (&k, groups) in &windows {
        let mut fired: Vec<(String, Vec<String>)> = Vec::new();
        for (key, &(n, _)) in groups {
            let fires = if deep {
                at(key, k, 1).is_some_and(|(n1, _)| n > n1)
            } else {
                n > 1
            };
            if !fires {
                continue;
            }
            let mut label: Vec<&str> = Vec::new();
            for part in key {
                if !label.contains(&part.as_str()) {
                    label.push(part);
                }
            }
            let mut row = vec![key[0].clone()];
            if deep {
                row.push(shown(at(key, k, 1).map(|(n1, _)| Value::int(n1))));
                row.push(shown(at(key, k, 2).map(|(_, s2)| Value::float(s2))));
            }
            fired.push((label.join("|"), row));
        }
        fired.sort_by(|a, b| a.0.cmp(&b.0));
        for (label, row) in fired {
            if distinct && !seen.insert(row.clone()) {
                continue;
            }
            out.push(((k + 1) * 1000, label, row));
        }
    }
    out
}

fn close_engine(events: &[SharedEvent], query: &str) -> Vec<Seen> {
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("close", query).expect("the query compiles");
    let alerts = engine.run(events.to_vec()).expect("runs");
    (alerts.iter())
        .map(|a| {
            let AlertOrigin::Window { end, group, .. } = &a.origin else {
                panic!("a window alert: {a:?}");
            };
            let row = a.rows.iter().map(|(_, v)| v.clone()).collect();
            (end.as_millis(), group.clone(), row)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every grouping, as `state` and as `state[3]` reading `ss[1]` and
    /// `ss[2]`, with and without `return distinct`: the engine's whole
    /// alert sequence equals the reference's.
    #[test]
    fn window_close_matches_a_direct_reference(
        draws in proptest::collection::vec((0usize..3, 0usize..3, 1u64..5, 0u64..400), 20..80)
    ) {
        let events = stream(&draws);
        for keys in GROUPINGS {
            for deep in [false, true] {
                for distinct in [false, true] {
                    let query = close_query(keys, deep, distinct);
                    prop_assert_eq!(
                        close_engine(&events, &query),
                        close_reference(&events, keys, deep, distinct),
                        "{}",
                        query
                    );
                }
            }
        }
    }
}
