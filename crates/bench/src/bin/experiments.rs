//! `experiments` — regenerates the paper-style result tables in one run
//! (the quick, deterministic companion to the Criterion benches; its output
//! is recorded in `EXPERIMENTS.md`).
//!
//! ```sh
//! cargo run --release -p saql-bench --bin experiments
//! ```

use std::time::Instant;

use saql_baseline::{BaselineAgg, Capability, CepQuery, Filter, GroupBy, MiniCep, NaiveScheduler};
use saql_bench::{
    batches, compile_family, drive, family_queries, host_pinned_queries, scheduler, skewed_stream,
    stream, variant_queries,
};
use saql_collector::{AttackConfig, SimConfig, Simulator};
use saql_engine::{Engine, EngineConfig};
use saql_lang::corpus;
use saql_lang::semantic::QueryKind;

fn main() {
    table_e2_detection();
    table_e3_throughput();
    table_e4_concurrent();
    table_e5_baseline();
    table_e5_capabilities();
}

/// E2 — the demo detection matrix: 8 queries × 5 attack steps.
fn table_e2_detection() {
    println!("== E2: APT detection matrix (8 demo queries over the simulated attack) ==");
    let trace = Simulator::generate(&SimConfig {
        seed: 2020,
        clients: 8,
        duration_ms: 60 * 60_000,
        attack: Some(AttackConfig::default()),
    });
    let mut engine = Engine::new(EngineConfig::default());
    for (name, src) in corpus::DEMO_QUERIES {
        engine.register(name, src).unwrap();
    }
    let alerts = engine.run(trace.shared()).unwrap();
    println!("{:<28} {:>8} {:>10}", "query", "alerts", "detects");
    for (name, _) in corpus::DEMO_QUERIES {
        let n = alerts.iter().filter(|a| a.query == name).count();
        let target = match name {
            "c1-initial-compromise" => "c1",
            "c2-malware-infection" => "c2",
            "c3-privilege-escalation" => "c3",
            "c4-penetration" => "c4",
            "c5-exfiltration" => "c5",
            "invariant-excel-children" => "c2",
            "time-series-db-network" => "c5",
            "outlier-db-peer" => "c5",
            _ => "?",
        };
        println!(
            "{:<28} {:>8} {:>10}",
            name,
            n,
            if n > 0 { target } else { "MISSED" }
        );
    }
    println!(
        "events: {}, total alerts: {}, clean-trace alerts: {}\n",
        trace.events.len(),
        alerts.len(),
        clean_alerts()
    );
}

fn clean_alerts() -> usize {
    let trace = Simulator::generate(&SimConfig {
        seed: 2020,
        clients: 8,
        duration_ms: 60 * 60_000,
        attack: None,
    });
    let mut engine = Engine::new(EngineConfig::default());
    for (name, src) in corpus::DEMO_QUERIES {
        engine.register(name, src).unwrap();
    }
    engine.run(trace.shared()).unwrap().len()
}

/// E3 — throughput per anomaly-model family.
fn table_e3_throughput() {
    println!("== E3: single-query throughput by anomaly-model family ==");
    let events = stream(200_000, 42);
    let batches = batches(&events);
    println!(
        "{:<16} {:>12} {:>14} {:>8}",
        "family", "events/s", "ns/event", "alerts"
    );
    for (name, _) in family_queries() {
        let mut q = scheduler([compile_family(name)]);
        let t0 = Instant::now();
        let alerts = drive(&mut q, &batches);
        let dt = t0.elapsed();
        println!(
            "{:<16} {:>12.0} {:>14.0} {:>8}",
            name,
            events.len() as f64 / dt.as_secs_f64(),
            dt.as_nanos() as f64 / events.len() as f64,
            alerts
        );
    }
    println!();
}

/// E4 — master–dependent vs naive at 1..64 concurrent queries.
fn table_e4_concurrent() {
    println!("== E4: concurrent compatible queries — master–dependent vs naive ==");
    let events = stream(50_000, 11);
    let batches = batches(&events);
    println!(
        "{:>7} {:>16} {:>13} {:>16} {:>13} {:>9}",
        "queries", "shared ev/s", "shared copies", "naive ev/s", "naive copies", "speedup"
    );
    for n in [1usize, 4, 16, 64] {
        let mut shared = scheduler(variant_queries(n));
        let t0 = Instant::now();
        let a1 = drive(&mut shared, &batches);
        let shared_dt = t0.elapsed();

        let mut naive = NaiveScheduler::new();
        for q in variant_queries(n) {
            naive.add(q);
        }
        let t0 = Instant::now();
        let mut a2 = 0usize;
        for batch in &batches {
            a2 += naive.process_batch(batch).len();
        }
        a2 += naive.finish().len();
        let naive_dt = t0.elapsed();
        assert_eq!(a1, a2, "schemes must agree");

        println!(
            "{:>7} {:>16.0} {:>13} {:>16.0} {:>13} {:>8.2}x",
            n,
            events.len() as f64 / shared_dt.as_secs_f64(),
            shared.stats().data_copies,
            events.len() as f64 / naive_dt.as_secs_f64(),
            naive.stats().data_copies,
            naive_dt.as_secs_f64() / shared_dt.as_secs_f64(),
        );
    }
    println!();

    // The same scheme at the scale a deployment registers: one group of
    // host-pinned queries, one in ten on a busy host.
    println!("-- E4: host-pinned queries of one group, skewed match rate --");
    let events = skewed_stream(50_000, 11);
    let batches = saql_bench::batches(&events);
    println!(
        "{:>7} {:>12} {:>10} {:>15} {:>12} {:>8}",
        "queries", "shared ev/s", "ns/event", "deliveries/ev", "matched/ev", "alerts"
    );
    for n in [256usize, 1_024, 4_096] {
        let mut shared = scheduler(host_pinned_queries(n));
        let t0 = Instant::now();
        let alerts = drive(&mut shared, &batches);
        let dt = t0.elapsed();
        let matched: u64 = shared.queries().map(|q| q.stats().events_matched).sum();
        let per_event = |count: u64| count as f64 / events.len() as f64;
        println!(
            "{:>7} {:>12.0} {:>10.0} {:>15.1} {:>12.2} {:>8}",
            n,
            events.len() as f64 / dt.as_secs_f64(),
            dt.as_nanos() as f64 / events.len() as f64,
            per_event(shared.stats().deliveries),
            per_event(matched),
            alerts
        );
    }
    println!();
}

/// E5 — SAQL vs MiniCep on the shared filter+window+sum workload.
fn table_e5_baseline() {
    println!("== E5: SAQL vs generic CEP baseline (shared workload) ==");
    let events = stream(200_000, 23);
    let saql_src = "proc p write ip i as evt #time(60 s)\nstate ss { amt := sum(evt.amount) } group by p\nalert ss[0].amt > 500000\nreturn p, ss[0].amt";

    let mut q = scheduler([saql_engine::query::RunningQuery::compile(
        "saql",
        saql_src,
        saql_engine::query::QueryConfig::default(),
    )
    .unwrap()]);
    let batches = batches(&events);
    let t0 = Instant::now();
    let saql_records = drive(&mut q, &batches);
    let saql_dt = t0.elapsed();

    let mut cep = MiniCep::new();
    cep.add(CepQuery {
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
    });
    let t0 = Instant::now();
    let mut cep_records = 0usize;
    for e in &events {
        cep_records += cep.process(e).len();
    }
    cep_records += cep.finish().len();
    let cep_dt = t0.elapsed();

    println!("{:<18} {:>12} {:>10}", "engine", "events/s", "records");
    println!(
        "{:<18} {:>12.0} {:>10}",
        "saql-engine",
        events.len() as f64 / saql_dt.as_secs_f64(),
        saql_records
    );
    println!(
        "{:<18} {:>12.0} {:>10}",
        "minicep-baseline",
        events.len() as f64 / cep_dt.as_secs_f64(),
        cep_records
    );
    assert_eq!(saql_records, cep_records, "parity on the shared workload");
    println!(
        "overhead: {:.2}x (records agree: {})\n",
        cep_dt.as_secs_f64().recip() / saql_dt.as_secs_f64().recip(),
        saql_records
    );
}

/// E5b — capability matrix: what the generic engine cannot express.
fn table_e5_capabilities() {
    println!("== E5b: anomaly-model expressibility (generic CEP vs SAQL) ==");
    println!("{:<16} {:>10} {:>6}", "model family", "MiniCep", "SAQL");
    for kind in [
        QueryKind::Rule,
        QueryKind::TimeSeries,
        QueryKind::Invariant,
        QueryKind::Outlier,
    ] {
        println!(
            "{:<16} {:>10} {:>6}",
            kind.name(),
            if Capability::supports(kind) {
                "yes"
            } else {
                "no"
            },
            "yes"
        );
    }
    println!();
}
