//! E10 — matcher ablation: indexed partial-match buckets vs naive NFA scan.
//!
//! DESIGN.md calls out the multievent matcher's per-step indexing as a
//! design choice; this bench quantifies it on sequence-heavy workloads
//! where many partial matches stay live (the `rule-sequence` family).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saql_bench::stream;
use saql_engine::matcher::{MatcherMode, MultiMatcher};

const SEQUENCE_QUERY: &str = "\
proc a start proc b as e1
proc b write ip i as e2
with e1 ->[60 s] e2
return distinct a, b, i";

fn bench_modes(c: &mut Criterion) {
    let query = saql_lang::parse(SEQUENCE_QUERY).unwrap();
    let events = stream(20_000, 31);
    let mut group = c.benchmark_group("e10_matcher");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));

    for (label, mode) in [
        ("indexed", MatcherMode::Indexed),
        ("scan", MatcherMode::Scan),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &events, |b, events| {
            b.iter(|| {
                let mut m = MultiMatcher::compile_with_mode(&query, 65_536, mode);
                let mut matches = 0usize;
                for e in events {
                    matches += m.feed(e).len();
                }
                matches
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);
