//! E17 — pipeline stages: the alert→event adapter's mapping throughput
//! (every cross-stage hop pays it), and a two-stage pipeline run inside
//! one engine vs the same stage 1 alone — the whole-topology overhead of
//! `|>` chaining: subscription drains, adaptation, the derived-channel
//! merge, and watermark punctuation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use saql_bench::stream;
use saql_engine::alert::AlertOrigin;
use saql_engine::pipeline::{register_pipeline, AlertAdapter};
use saql_engine::{Alert, Engine, EngineConfig, QueryId};
use saql_model::time::Timestamp;
use saql_stream::merge::Lateness;
use saql_stream::source::IterSource;

const ALERTS: usize = 50_000;
const EVENTS: usize = 20_000;

/// Tiered detection over the synthetic workload's vocabulary: stage 1
/// counts writes per host in 60 s windows, stage 2 counts distinct
/// bursting hosts in 5 min windows of stage 1's alert stream.
const TIERED: &str = "\
proc p write ip i as evt #time(60 s)
state ss { writes := count() } group by evt.agentid
alert ss[0].writes >= 5
return evt.agentid as host, ss[0].writes as amount
|>
from #time(5 min)
state es { hosts := distinct_count(_in.agentid) }
alert es[0].hosts >= 2
return es[0].hosts as hosts";

/// Synthetic upstream alerts shaped like stage 1's output (labeled host +
/// amount rows, window origin), cycling over 64 hosts.
fn upstream_alerts(n: usize) -> Vec<Alert> {
    (0..n)
        .map(|i| Alert {
            query: "tiered.s1".into(),
            query_id: QueryId::new(1),
            ts: Timestamp::from_millis(60_000 * (i as u64 + 1)),
            origin: AlertOrigin::Window {
                start: Timestamp::from_millis(60_000 * i as u64),
                end: Timestamp::from_millis(60_000 * (i as u64 + 1)),
                group: format!("host-{}", i % 64),
            },
            rows: vec![
                ("host".into(), format!("host-{}", i % 64)),
                ("amount".into(), format!("{}", 100 + i % 900)),
            ],
        })
        .collect()
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_pipeline");
    group.sample_size(10);

    // Alert→event adaptation: label→attribute mapping, id/seq stamping,
    // schema synthesis — the per-alert cost of every cross-stage hop.
    let alerts = upstream_alerts(ALERTS);
    group.throughput(Throughput::Elements(ALERTS as u64));
    group.bench_function("adapter-adapt-50k", |b| {
        b.iter(|| {
            let mut adapter = AlertAdapter::new("tiered.s1", QueryId::new(1));
            let mut sum = 0u64;
            for alert in &alerts {
                sum += adapter.adapt(alert).amount;
            }
            sum
        });
    });

    // Whole-topology overhead: the two-stage pipeline vs its stage 1
    // alone, same trace, same engine configuration.
    let events = stream(EVENTS, 17);
    group.throughput(Throughput::Elements(EVENTS as u64));
    let stages = saql_lang::split_stages("tiered", TIERED).expect("pipeline splits");
    group.bench_function("stage1-only-20k", |b| {
        b.iter(|| {
            let mut engine = Engine::new(EngineConfig::default());
            engine
                .register("tiered.s1", &stages[0].source)
                .expect("registers");
            engine.run(events.clone()).expect("runs").len()
        });
    });
    group.bench_function("two-stage-pipeline-20k", |b| {
        b.iter(|| {
            let mut engine = Engine::new(EngineConfig::default());
            register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
            let mut session = engine.session();
            session.attach_with(
                IterSource::new("trace", events.clone()),
                Lateness::ArrivalOrder,
            );
            session.drain().len()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
