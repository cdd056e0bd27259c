//! E5 — SAQL vs a generic CEP engine (MiniCep, the Siddhi/Esper/Flink
//! stand-in) on the workload both can express: filter + tumbling window +
//! grouped sum + threshold.
//!
//! Expected shape: the bare CEP engine is somewhat faster on this least
//! common denominator (it does strictly less), while SAQL's overhead stays
//! within a small factor — the price of the anomaly-model machinery that
//! MiniCep cannot express at all (see `saql_baseline::capability`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use saql_baseline::{BaselineAgg, CepQuery, Filter, GroupBy, MiniCep};
use saql_bench::{batches, drive, scheduler, stream};
use saql_engine::query::RunningQuery;
use saql_engine::Scheduler;

/// The shared workload, SAQL form.
const SAQL_QUERY: &str = "proc p write ip i as evt #time(60 s)\nstate ss { amt := sum(evt.amount) } group by p\nalert ss[0].amt > 500000\nreturn p, ss[0].amt";

/// The shared workload, MiniCep form.
fn cep_query() -> CepQuery {
    CepQuery {
        name: "sum-by-proc".into(),
        filter: Filter {
            ops: vec![saql_model::Operation::Write],
            family: Some(saql_model::EntityType::Network),
            ..Filter::default()
        },
        window_ms: Some(60_000),
        group_by: GroupBy::SubjectExe,
        agg: BaselineAgg::Sum,
        threshold: Some(500_000.0),
    }
}

fn saql_scheduler() -> Scheduler {
    scheduler([RunningQuery::compile("saql", SAQL_QUERY).unwrap()])
}

fn bench_engines(c: &mut Criterion) {
    let events = stream(50_000, 23);
    let mut group = c.benchmark_group("e5_baseline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));

    group.bench_with_input("saql-engine", &batches(&events), |b, batches| {
        b.iter(|| drive(&mut saql_scheduler(), batches));
    });

    group.bench_with_input("minicep-baseline", &events, |b, events| {
        b.iter(|| {
            let mut cep = MiniCep::new();
            cep.add(cep_query());
            let mut n = 0usize;
            for e in events {
                n += cep.process(e).len();
            }
            n + cep.finish().len()
        });
    });
    group.finish();
}

/// Result-parity check lives here (bench harnesses must compute the same
/// answer before their speeds are comparable); it runs as part of the
/// bench binary's tests.
#[allow(dead_code)]
fn parity() {
    let events = stream(20_000, 23);
    let mut q = saql_scheduler();
    let mut saql_hits: Vec<(String, f64)> = Vec::new();
    let mut alerts = Vec::new();
    for batch in batches(&events) {
        alerts.extend(q.process_batch(&batch));
    }
    alerts.extend(q.finish());
    for a in alerts {
        saql_hits.push((
            a.get("p").unwrap().to_string(),
            a.get("ss[0].amt").unwrap().parse().unwrap(),
        ));
    }
    let mut cep = MiniCep::new();
    cep.add(cep_query());
    let mut cep_hits: Vec<(String, f64)> = Vec::new();
    for e in &events {
        for r in cep.process(e) {
            cep_hits.push((r.group, r.value));
        }
    }
    for r in cep.finish() {
        cep_hits.push((r.group, r.value));
    }
    saql_hits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cep_hits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(
        saql_hits, cep_hits,
        "engines disagree on the shared workload"
    );
}

fn bench_parity_guard(c: &mut Criterion) {
    // Run parity once (cheap) so a drifting engine fails the bench run
    // instead of producing meaningless numbers.
    parity();
    c.bench_function("e5_parity_guard", |b| b.iter(|| 1u32));
}

criterion_group!(benches, bench_engines, bench_parity_guard);
criterion_main!(benches);
