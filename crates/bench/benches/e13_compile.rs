//! E13 — compile-once query plans: what compiling costs, and what a
//! compiled program saves per evaluation over walking the AST.
//!
//! The engine only ever runs register programs (`DESIGN.md` §8); the
//! tree-walking interpreter survives as the reference evaluator of
//! `tests/compiled_plans_differential.rs`. Two measurements remain:
//!
//! * `compile/<family>` — parse + semantic check + name resolution + plan
//!   lowering of one family query (the cost `Engine::register` pays once);
//! * `eval/<expression>/{program,tree-walk}` — evaluations of the same
//!   expression, *context construction included*, the way the engine does
//!   it vs the way a tree-walking engine would: the time-series alert
//!   condition per closed group (`run_program` over an `ExecCtx` of slot
//!   slices vs `eval` over a `Scope` of name-keyed maps), and a state-field
//!   argument per matched event (`run_program_batch` over a batch's
//!   selected rows vs binding alias, subject and object by name for every
//!   event).
//!
//! Each iteration repeats its unit of work (`COMPILES` / `EVALS` times) so
//! the harness's one clock pair per iteration is noise, not the reading.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saql_bench::{compile_family, family_queries};
use std::sync::Arc;

use saql_engine::eval::{
    eval, run_program, run_program_batch, EventRow, Scope, StateLookup, StateSlots,
};
use saql_engine::plan::{ExecCtx, QueryPlan};
use saql_engine::state::KeyAtom;
use saql_engine::Value;
use saql_model::event::EventBuilder;
use saql_model::{Entity, Event, NetworkInfo, ProcessInfo};
use saql_stream::SharedEvent;

const COMPILES: u64 = 100;
const EVALS: u64 = 100_000;

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_compile");
    group.sample_size(10);
    group.throughput(Throughput::Elements(COMPILES));
    for (family, _) in family_queries() {
        group.bench_function(BenchmarkId::new("compile", family), |b| {
            b.iter(|| {
                (0..COMPILES)
                    .map(|_| black_box(compile_family(family)).name().len())
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

/// Three windows of history for the one state field, by index and by name.
struct History;

impl StateSlots for History {
    fn field(&self, back: usize, _field: usize) -> Value {
        Value::float([90_000.0, 20_000.0, 30_000.0][back.min(2)])
    }
}

impl StateLookup for History {
    fn state_value(&self, name: &str, back: usize, field: Option<&str>) -> Value {
        if name == "ss" && field == Some("avg_amount") {
            self.field(back, 0)
        } else {
            Value::Missing
        }
    }
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_compile");
    group.sample_size(10);
    group.throughput(Throughput::Elements(EVALS));
    let mut regs = Vec::new();

    // Window-close context: the time-series family's alert condition, once
    // per closed group — context construction included, as the engine pays
    // it (slot slices) and as a tree-walking engine would (name-keyed maps).
    let (_, src) = family_queries()
        .into_iter()
        .find(|(name, _)| *name == "time-series")
        .unwrap();
    let checked = saql_lang::compile(src).unwrap();
    let plan = QueryPlan::compile(&checked);
    let program = plan.alert.as_ref().unwrap();
    let expr = checked.ast.alert.as_ref().unwrap();
    let key = [KeyAtom::Str("proc-3.exe".into())];
    let by_program = |regs: &mut Vec<Value>| {
        let ctx = ExecCtx {
            group_keys: &key,
            states: &History,
            ..ExecCtx::empty()
        };
        run_program(black_box(program), &ctx, regs).truthy()
    };
    let by_tree_walk = || {
        let mut scope = Scope::empty();
        scope.states = &History;
        for spelling in &plan.group_keys[0].spellings {
            scope.group_keys.insert(spelling.clone(), key[0].to_attr());
        }
        eval(black_box(expr), &scope).truthy()
    };
    assert!(by_program(&mut regs) && by_tree_walk());
    group.bench_function(BenchmarkId::new("eval/state-alert", "program"), |b| {
        b.iter(|| (0..EVALS).filter(|_| by_program(&mut regs)).count());
    });
    group.bench_function(BenchmarkId::new("eval/state-alert", "tree-walk"), |b| {
        b.iter(|| (0..EVALS).filter(|_| by_tree_walk()).count());
    });

    // Event context: a state-field argument with arithmetic, once per
    // matched event. The engine runs it column-wise over a batch's
    // selected rows; a tree-walker binds alias, subject and object by name
    // for every event.
    let checked = saql_lang::compile(
        "proc p write ip i as evt #time(60 s)\nstate ss { scaled := sum(evt.amount * 2 + 1) } group by p\nreturn p",
    )
    .unwrap();
    let plan = QueryPlan::compile(&checked);
    let program = &plan.field_programs[0];
    let expr = &checked.ast.states[0].fields[0].arg;
    let events: Vec<SharedEvent> = vec![Arc::new(
        EventBuilder::new(1, "host-1", 1_000)
            .subject(ProcessInfo::new(7, "proc-3.exe", "user"))
            .sends(NetworkInfo::new("10.0.0.1", 40000, "10.1.2.3", 443, "tcp"))
            .amount(4096)
            .build(),
    )];
    let (subject_slot, object_slot) = plan.pattern_slots[0];
    let rows = vec![
        EventRow {
            row: 0,
            ev_slot: 0,
            subject_slot,
            object_slot,
        };
        EVALS as usize
    ];
    let (mut cols, mut out) = (Vec::new(), Vec::new());
    let by_tree_walk = |event: &Event| {
        let subject = Entity::Process(event.subject.clone());
        let mut scope = Scope::empty();
        scope.events.insert("evt", event);
        scope.entities.insert("p", &subject);
        scope.entities.insert("i", &event.object);
        eval(black_box(expr), &scope).as_f64()
    };
    run_program_batch(program, &events, &rows[..1], &mut cols, &mut out);
    assert_eq!(out[0].as_f64(), by_tree_walk(&events[0]));
    group.bench_function(BenchmarkId::new("eval/field-arg", "program"), |b| {
        b.iter(|| {
            run_program_batch(black_box(program), &events, &rows, &mut cols, &mut out);
            out.iter().filter_map(Value::as_f64).sum::<f64>()
        });
    });
    group.bench_function(BenchmarkId::new("eval/field-arg", "tree-walk"), |b| {
        b.iter(|| {
            (0..EVALS)
                .filter_map(|_| by_tree_walk(&events[0]))
                .sum::<f64>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_compile, bench_eval);
criterion_main!(benches);
