//! Property-based tests over the core data structures and invariants:
//! codec roundtrips, LIKE matching vs a reference implementation, window
//! assignment laws, online-aggregate merge equality, DBSCAN label sanity,
//! pretty-printer fixpoints, and replayer ordering.

use proptest::prelude::*;

use saql::analytics::{dbscan::DbscanLabel, Metric, OnlineStats};
use saql::model::codec;
use saql::model::event::EventBuilder;
use saql::model::glob::like_match;
use saql::model::{Entity, FileInfo, NetworkInfo, ProcessInfo, Timestamp};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    // Windows-path-flavoured names with the characters wildcards care about.
    proptest::string::string_regex("[a-zA-Z0-9._\\\\:-]{0,24}").unwrap()
}

fn arb_process() -> impl Strategy<Value = ProcessInfo> {
    (any::<u32>(), arb_name(), arb_name())
        .prop_map(|(pid, exe, user)| ProcessInfo::new(pid, exe, user))
}

fn arb_entity() -> impl Strategy<Value = Entity> {
    prop_oneof![
        arb_process().prop_map(Entity::Process),
        arb_name().prop_map(|n| Entity::File(FileInfo::new(n))),
        (arb_name(), any::<u16>(), arb_name(), any::<u16>())
            .prop_map(|(s, sp, d, dp)| Entity::Network(NetworkInfo::new(s, sp, d, dp, "tcp"))),
    ]
}

fn arb_event() -> impl Strategy<Value = saql::model::Event> {
    (
        any::<u64>(),
        arb_name(),
        any::<u32>(), // ts (bounded)
        arb_process(),
        arb_entity(),
        any::<u64>(),
    )
        .prop_map(|(id, host, ts, subject, object, amount)| {
            // Pick an operation valid for the object type.
            let op = match object.entity_type() {
                saql::model::EntityType::Process => saql::model::Operation::Start,
                saql::model::EntityType::File => saql::model::Operation::Write,
                saql::model::EntityType::Network => saql::model::Operation::Read,
            };
            EventBuilder::new(id, host, ts as u64)
                .subject(subject)
                .action(op, object)
                .amount(amount)
                .build()
        })
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn codec_roundtrips_any_event(event in arb_event()) {
        let mut buf = Vec::new();
        codec::encode_event(&mut buf, &event);
        let mut data = &buf[..];
        let back = codec::decode_event(&mut data).expect("decode");
        prop_assert_eq!(back, event);
        prop_assert!(data.is_empty());
    }

    #[test]
    fn codec_roundtrips_batches(events in proptest::collection::vec(arb_event(), 0..20)) {
        let data = codec::encode_batch(&events);
        let back = codec::decode_batch(data).expect("decode batch");
        prop_assert_eq!(back, events);
    }
}

// ---------------------------------------------------------------------
// LIKE matching vs a naive reference (recursive definition)
// ---------------------------------------------------------------------

fn reference_like(p: &[char], t: &[char]) -> bool {
    match (p.first(), t.first()) {
        (None, None) => true,
        (Some('%'), _) => {
            reference_like(&p[1..], t) || (!t.is_empty() && reference_like(p, &t[1..]))
        }
        (Some('_'), Some(_)) => reference_like(&p[1..], &t[1..]),
        (Some(&pc), Some(&tc)) if pc.eq_ignore_ascii_case(&tc) => reference_like(&p[1..], &t[1..]),
        _ => false,
    }
}

proptest! {
    #[test]
    fn like_match_agrees_with_reference(
        pattern in proptest::string::string_regex("[ab%_]{0,8}").unwrap(),
        text in proptest::string::string_regex("[abc]{0,8}").unwrap(),
    ) {
        let p: Vec<char> = pattern.chars().collect();
        let t: Vec<char> = text.chars().collect();
        prop_assert_eq!(like_match(&pattern, &text), reference_like(&p, &t),
            "pattern={} text={}", pattern, text);
    }

    #[test]
    fn like_pattern_matches_itself_when_literal(s in proptest::string::string_regex("[a-z.]{0,16}").unwrap()) {
        prop_assert!(like_match(&s, &s));
        let lead = format!("%{s}");
        prop_assert!(like_match(&lead, &s));
        let trail = format!("{s}%");
        prop_assert!(like_match(&trail, &s));
    }
}

// ---------------------------------------------------------------------
// Window assignment laws
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn window_assignment_covers_timestamp(
        size_s in 1u64..600,
        slide_div in 1u64..5,
        ts_ms in 0u64..10_000_000,
    ) {
        use saql::engine::window::WindowAssigner;
        use saql::lang::ast::WindowSpec;
        use saql::model::Duration;
        let size = Duration::from_secs(size_s);
        let slide_ms = (size.as_millis() / slide_div).max(1);
        let spec = WindowSpec { size, slide: Duration::from_millis(slide_ms) };
        let a = WindowAssigner::new(spec);
        let ts = Timestamp::from_millis(ts_ms);
        let range = a.windows_for(ts);
        // Every assigned window contains ts; neighbours outside don't.
        for k in range.clone() {
            let (start, end) = a.bounds(k);
            prop_assert!(ts >= start && ts < end, "k={} ts={} [{start},{end})", k, ts);
        }
        let lo = *range.start();
        let hi = *range.end();
        if lo > 0 {
            let (start, end) = a.bounds(lo - 1);
            prop_assert!(!(ts >= start && ts < end), "window below range also contains ts");
        }
        let (start, end) = a.bounds(hi + 1);
        prop_assert!(!(ts >= start && ts < end), "window above range also contains ts");
    }
}

// ---------------------------------------------------------------------
// Online aggregates: merge == sequential
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn stats_merge_equals_sequential(
        data in proptest::collection::vec(-1e6f64..1e6, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(data.len());
        let sequential: OnlineStats = data.iter().copied().collect();
        let mut merged: OnlineStats = data[..split].iter().copied().collect();
        let right: OnlineStats = data[split..].iter().copied().collect();
        merged.merge(&right);
        prop_assert_eq!(merged.count(), sequential.count());
        prop_assert!((merged.sum() - sequential.sum()).abs() <= 1e-6 * sequential.sum().abs().max(1.0));
        prop_assert!((merged.mean() - sequential.mean()).abs() <= 1e-6 * sequential.mean().abs().max(1.0));
        prop_assert!((merged.variance() - sequential.variance()).abs() <= 1e-5 * sequential.variance().abs().max(1.0));
    }
}

// ---------------------------------------------------------------------
// DBSCAN sanity
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn dbscan_labels_are_sane(
        xs in proptest::collection::vec(-1000.0f64..1000.0, 0..60),
        eps in 0.1f64..100.0,
        min_pts in 1usize..6,
    ) {
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let labels = saql::analytics::dbscan(&points, eps, min_pts, Metric::Euclidean);
        prop_assert_eq!(labels.len(), points.len());
        // Cluster ids are dense from 0.
        let max_id = labels.iter().filter_map(DbscanLabel::cluster_id).max();
        if let Some(max_id) = max_id {
            for id in 0..=max_id {
                prop_assert!(labels.iter().any(|l| l.cluster_id() == Some(id)), "gap at id {}", id);
            }
        }
        // A noise point has fewer than min_pts neighbours within eps
        // OR would only be reachable via non-core chains (border rescue is
        // possible, so we only check the core condition one-way):
        for (i, l) in labels.iter().enumerate() {
            if l.is_noise() {
                let neighbours = points
                    .iter()
                    .filter(|p| Metric::Euclidean.distance(p, &points[i]) <= eps)
                    .count();
                prop_assert!(neighbours < min_pts, "core point labelled noise at {}", i);
            }
        }
    }

    #[test]
    fn dbscan_permutation_invariant_outlier_count(
        xs in proptest::collection::vec(-1000.0f64..1000.0, 2..40),
    ) {
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let labels = saql::analytics::dbscan(&points, 10.0, 3, Metric::Euclidean);
        let mut rev = points.clone();
        rev.reverse();
        let labels_rev = saql::analytics::dbscan(&rev, 10.0, 3, Metric::Euclidean);
        let noise = labels.iter().filter(|l| l.is_noise()).count();
        let noise_rev = labels_rev.iter().filter(|l| l.is_noise()).count();
        prop_assert_eq!(noise, noise_rev);
    }
}

// ---------------------------------------------------------------------
// Pretty-printer fixpoint on generated query text
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn printer_is_a_fixpoint_for_generated_rule_queries(
        exe in proptest::string::string_regex("%?[a-z]{1,8}\\.exe").unwrap(),
        dst in proptest::string::string_regex("[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}").unwrap(),
        gap_s in 1u64..3600,
    ) {
        let src = format!(
            "proc p1[\"{exe}\"] start proc p2 as e1\nproc p2 write ip i1[dstip=\"{dst}\"] as e2\nwith e1 ->[{gap_s} s] e2\nreturn distinct p1, p2, i1"
        );
        let q1 = saql::lang::parse(&src).expect("generated query parses");
        let p1 = saql::lang::pretty::print_query(&q1);
        let q2 = saql::lang::parse(&p1).expect("printed query reparses");
        let p2 = saql::lang::pretty::print_query(&q2);
        prop_assert_eq!(p1, p2);
    }
}

// ---------------------------------------------------------------------
// Replayer ordering
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn replayer_emits_sorted_selection(
        events in proptest::collection::vec(arb_event(), 1..50),
        pick_host in any::<bool>(),
    ) {
        use saql::stream::source::{StoreSource, FLOOR_GATED};
        use saql::stream::store::Selection;
        use saql::stream::{MergeConfig, StoreReader, StoreWriter, WatermarkMerge};
        let mut path = std::env::temp_dir();
        path.push(format!("saql-prop-replayer-{}-{}", std::process::id(), events.len()));
        let _ = std::fs::remove_dir_all(&path);
        // Small segments: most cases read across sealed segments and the WAL.
        let mut store = StoreWriter::create_segmented_with(&path, 8).unwrap();
        store.append(&events).unwrap();
        let selection = if pick_host {
            Selection::host(events[0].agent_id.to_string())
        } else {
            Selection::all()
        };
        drop(store);
        // The stream replayer: the selection sorted by its verified floor.
        let reader = StoreReader::open(&path).unwrap();
        let mut merge = WatermarkMerge::new(MergeConfig::default());
        let source = StoreSource::open("replay", &reader, &selection);
        merge.attach_with(Box::new(source), FLOOR_GATED);
        let replayed = merge.collect_remaining();
        let _ = std::fs::remove_dir_all(&path);
        // Sorted by (ts, id) and exactly the matching subset: the stored
        // order, stably sorted by time.
        prop_assert!(replayed.windows(2).all(|w| (w[0].ts, w[0].id) <= (w[1].ts, w[1].id)));
        let expected = events.iter().filter(|e| selection.matches(e)).count();
        prop_assert_eq!(replayed.len(), expected);
        let mut sorted: Vec<_> = events.iter().filter(|e| selection.matches(e)).collect();
        sorted.sort_by_key(|e| e.ts);
        prop_assert!(replayed.iter().map(|e| &**e).eq(sorted.into_iter()));
    }
}
