//! Differential suite for the query-compilation layer: **compiled register
//! programs must agree with the tree-walking reference evaluator** on every
//! expression of every shipped query — `lang::corpus` (the paper's four and
//! the demo deployment, pipeline included) and the ladder's
//! `benchmark/queries/family` — in each of the four binding contexts an
//! expression can be evaluated in:
//!
//! * **event** — state-field arguments and group keys of a matched event,
//!   alert conditions and return items of a completed rule match;
//! * **group / window close** — alert conditions, return items and
//!   invariant updates over a closed group's state history;
//! * **invariant initialiser** — `a := empty_set`, against nothing;
//! * **cluster** — the comparison-point expressions, before outcomes exist.
//!
//! The engine evaluates expressions only through [`Program`]s; nothing in
//! it can construct a [`Scope`]. So the contexts come from a *reference
//! executor* here: the engine's own matcher, window, state, invariant and
//! cluster components driven event by event over simulator traces, every
//! expression evaluated by tree-walk **and** by program and compared on the
//! spot. As a whole-query check on top, the reference's alert stream must
//! equal what an [`Engine`] running the same query reports.

use std::collections::HashSet;

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::engine::alert::AlertOrigin;
use saql::engine::cluster::run_cluster;
use saql::engine::eval::{eval, run_program, run_program_batch, ClusterOutcome, EventRow, Scope};
use saql::engine::invariant::InvariantRuntime;
use saql::engine::matcher::{
    FullMatch, GlobalFilter, MultiMatcher, PatternMatcher, PARTIAL_MATCH_CAP,
};
use saql::engine::plan::{ExecCtx, KeySource, Program, QueryPlan};
use saql::engine::state::{group_label, ClosedGroup, KeyAtom, StateMaintainer, StateView};
use saql::engine::window::WindowDriver;
use saql::engine::{Alert, AlertAdapter, Engine, EngineConfig, Value};
use saql::lang::ast::{Expr, Ref};
use saql::lang::semantic::{CheckedQuery, QueryKind};
use saql::lang::{corpus, split_stages};
use saql::model::{Entity, Event, Operation};
use saql::stream::SharedEvent;

/// An alert reduced to what both sides must agree on.
type Rendered = (u64, String, Vec<(String, String)>);

fn rendered(alert: &Alert) -> Rendered {
    (
        alert.ts.as_millis(),
        format!("{:?}", alert.origin),
        alert.rows.clone(),
    )
}

/// Evaluates one expression both ways and insists the values agree.
#[derive(Default)]
struct Oracle {
    regs: Vec<Value>,
    compared: usize,
}

impl Oracle {
    fn both(&mut self, prog: &Program, ctx: &ExecCtx<'_>, expr: &Expr, scope: &Scope<'_>) -> Value {
        let got = run_program(prog, ctx, &mut self.regs);
        let want = eval(expr, scope);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "program and tree-walk disagree on `{}`",
            saql::lang::pretty::print_expr(expr)
        );
        self.compared += 1;
        got
    }
}

/// One query executed event by event with tree-walk semantics, checking
/// every evaluation against the compiled plan.
struct Reference {
    checked: CheckedQuery,
    plan: QueryPlan,
    globals: GlobalFilter,
    patterns: Vec<PatternMatcher>,
    matcher: Option<MultiMatcher>,
    window: Option<WindowDriver>,
    state: Option<StateMaintainer>,
    invariant: Option<InvariantRuntime>,
    distinct: HashSet<Vec<String>>,
    oracle: Oracle,
    alerts: Vec<Rendered>,
}

impl Reference {
    fn new(source: &str) -> Reference {
        let checked = saql::lang::compile(source).expect("shipped query compiles");
        let plan = QueryPlan::compile(&checked);
        let slots: Vec<String> = plan.entity_vars.iter().map(|(v, _)| v.clone()).collect();
        Reference {
            globals: GlobalFilter::compile(&checked.ast.globals),
            patterns: checked
                .ast
                .patterns
                .iter()
                .map(|p| PatternMatcher::compile(p, &slots))
                .collect(),
            matcher: (checked.kind == QueryKind::Rule)
                .then(|| MultiMatcher::compile(&checked.ast, PARTIAL_MATCH_CAP)),
            window: checked.window.map(WindowDriver::new),
            // The whole declared history: the reference does not prune to
            // the read depth.
            state: (checked.ast.states.first()).map(|b| StateMaintainer::new(b, b.history)),
            invariant: checked.ast.invariants.first().map(|block| {
                let stmts = plan.invariant_programs.iter().map(|(s, i, _)| (*s, *i));
                InvariantRuntime::new(block, stmts.collect(), plan.invariant_vars.len())
            }),
            distinct: HashSet::new(),
            oracle: Oracle::default(),
            alerts: Vec::new(),
            plan,
            checked,
        }
    }

    fn run(mut self, events: &[SharedEvent]) -> (Vec<Rendered>, usize) {
        for event in events {
            self.feed(event);
        }
        let open = self.window.as_mut().map(WindowDriver::drain);
        for k in open.unwrap_or_default() {
            self.close(k);
        }
        (self.alerts, self.oracle.compared)
    }

    /// Time first, then payload — the scheduler's order.
    fn feed(&mut self, event: &SharedEvent) {
        let due = self.window.as_mut().map(|w| w.advance(event.ts));
        for k in due.unwrap_or_default() {
            self.close(k);
        }
        if !self.globals.accepts(event) {
            return;
        }
        if self.matcher.is_some() {
            // A pattern satisfied on its own is an event context too (the
            // other aliases and variables unbound): it keeps the queries
            // whose whole chain never completes on these traces covered.
            for idx in 0..self.patterns.len() {
                if self.patterns[idx].matches(event) {
                    let subject = Entity::Process(event.subject.clone());
                    let (events, entities) = bind(&self.plan, idx, event, &subject);
                    self.rule_rows(&events, &entities);
                }
            }
            let fulls = self.matcher.as_mut().expect("rule").feed(event);
            for full in fulls {
                self.rule_alert(&full);
            }
        } else {
            self.fold(event);
        }
    }

    /// Event context of a rule query: events by alias slot, entities by
    /// variable slot. The return rows, unless the alert condition fails.
    fn rule_rows(
        &mut self,
        events: &[Option<&Event>],
        entities: &[Option<&Entity>],
    ) -> Option<Vec<(String, String)>> {
        let (ast, plan) = (&self.checked.ast, &self.plan);
        let ctx = ExecCtx {
            events,
            entities,
            ..ExecCtx::empty()
        };
        let mut scope = Scope::empty();
        for (pattern, event) in ast.patterns.iter().zip(events) {
            if let Some(event) = event {
                scope.events.insert(pattern.alias.as_str(), event);
            }
        }
        for ((var, _), entity) in plan.entity_vars.iter().zip(entities) {
            if let Some(entity) = entity {
                scope.entities.insert(var.as_str(), entity);
            }
        }
        if let (Some(prog), Some(expr)) = (&plan.alert, &ast.alert) {
            if !self.oracle.both(prog, &ctx, expr, &scope).truthy() {
                return None;
            }
        }
        let items = ast.ret.iter().flat_map(|r| &r.items);
        let rows = (plan.ret.iter().zip(items))
            .map(|((label, prog), item)| {
                let value = self.oracle.both(prog, &ctx, &item.expr, &scope);
                (label.clone(), value.to_string())
            })
            .collect();
        Some(rows)
    }

    /// A completed match: the alert a rule query raises for it.
    fn rule_alert(&mut self, full: &FullMatch) {
        let events: Vec<Option<&Event>> = full.events.iter().map(|e| Some(e.as_ref())).collect();
        let entities: Vec<Option<&Entity>> = full.bindings.iter().map(Option::as_ref).collect();
        let Some(rows) = self.rule_rows(&events, &entities) else {
            return;
        };
        let ret = self.checked.ast.ret.as_ref();
        if ret.is_some_and(|r| r.distinct)
            && !self
                .distinct
                .insert(rows.iter().map(|(_, v)| v.clone()).collect())
        {
            return;
        }
        let origin = AlertOrigin::Match {
            event_ids: full.events.iter().map(|e| e.id).collect(),
        };
        let ts = full.events.iter().map(|e| e.ts.as_millis()).max();
        self.alerts
            .push((ts.unwrap_or(0), format!("{origin:?}"), rows));
    }

    /// Event context of a stateful query: the matched event under its
    /// alias, subject and object under their variables.
    fn fold(&mut self, event: &SharedEvent) {
        let (ast, plan) = (&self.checked.ast, &self.plan);
        let Some(idx) = self.patterns.iter().position(|p| p.matches(event)) else {
            return;
        };
        let windows = self.window.as_mut().expect("windowed").observe(event.ts);
        if windows.is_empty() {
            return;
        }
        let pattern = &ast.patterns[idx];
        let (subject_slot, object_slot) = plan.pattern_slots[idx];
        let subject = Entity::Process(event.subject.clone());
        let (events, entities) = bind(plan, idx, event, &subject);
        let ctx = ExecCtx {
            events: &events,
            entities: &entities,
            ..ExecCtx::empty()
        };
        let mut scope = Scope::empty();
        scope.events.insert(pattern.alias.as_str(), event);
        scope
            .entities
            .insert(pattern.subject.var.as_str(), &subject);
        scope
            .entities
            .insert(pattern.object.var.as_str(), &event.object);

        // Group keys: a `Ref` by tree-walk, a slot/attribute load compiled.
        let block = &ast.states[0];
        let mut key = Vec::with_capacity(block.group_by.len());
        for (gk, resolved) in block.group_by.iter().zip(&plan.group_keys) {
            let want = eval(
                &Expr::Ref(Ref {
                    base: gk.var.clone(),
                    index: None,
                    attr: gk.attr.clone(),
                    span: gk.span,
                }),
                &scope,
            );
            let got = match resolved.source {
                KeySource::Entity { slot, attr } => {
                    attr.and_then(|id| entities[slot].and_then(|e| e.attr_value(id)))
                }
                KeySource::Event { slot, attr } => {
                    attr.and_then(|id| events[slot].and_then(|e| e.attr_value(id)))
                }
            };
            let got = got.map_or(Value::Missing, Value::Attr);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "group key {gk:?}");
            self.oracle.compared += 1;
            match got {
                Value::Attr(a) => key.push(KeyAtom::of_owned(a)),
                _ => return, // unresolvable: the engine reports and skips
            }
        }

        // Field arguments: tree-walk, `run_program`, and the batch kernel
        // the engine actually folds with.
        let row = EventRow {
            row: 0,
            ev_slot: idx,
            subject_slot,
            object_slot,
        };
        let (mut cols, mut out) = (Vec::new(), Vec::new());
        let mut folded = Vec::with_capacity(block.fields.len());
        for (field, prog) in block.fields.iter().zip(&plan.field_programs) {
            let value = self.oracle.both(prog, &ctx, &field.arg, &scope);
            run_program_batch(
                prog,
                std::slice::from_ref(event),
                &[row],
                &mut cols,
                &mut out,
            );
            assert_eq!(
                format!("{:?}", out[0]),
                format!("{value:?}"),
                "batch kernel"
            );
            folded.push(value);
        }
        let state = self.state.as_mut().expect("stateful");
        state.observe(&windows, &key, &folded);
    }

    /// Window close: cluster, invariant-initialiser and group contexts.
    fn close(&mut self, k: u64) {
        let Reference {
            checked,
            plan,
            state,
            invariant,
            window,
            oracle,
            ..
        } = self;
        let Some(state) = state.as_mut() else { return };
        // The pre-late-materialization close: every group's label rendered,
        // every group sorted by it (stably, so equal labels keep map order)
        // before anything is evaluated.
        state.close(k);
        let state = &*state;
        let mut closed: Vec<(String, ClosedGroup)> =
            state.closed().map(|g| (group_label(g.key), g)).collect();
        closed.sort_by(|a, b| a.0.cmp(&b.0));
        let ast = &checked.ast;
        let (start, end) = window.as_ref().expect("windowed").assigner().bounds(k);

        let mut outcomes: Vec<Option<ClusterOutcome>> = vec![None; closed.len()];
        if let Some(spec) = &ast.cluster {
            let (mut points, mut owners) = (Vec::new(), Vec::new());
            for (i, (_, group)) in closed.iter().enumerate() {
                let at = GroupCtx::new(plan, state, k, *group, &[], None);
                let point: Option<Vec<f64>> = (plan.cluster_programs.iter().zip(&spec.points))
                    .map(|(prog, expr)| at.both(oracle, prog, expr).as_f64())
                    .collect();
                if let Some(point) = point {
                    owners.push(i);
                    points.push(point);
                }
            }
            for (i, outcome) in owners.into_iter().zip(run_cluster(spec, &points, k)) {
                outcomes[i] = Some(outcome);
            }
        }

        for ((label, group), outcome) in closed.iter().zip(outcomes) {
            // Invariant statements: initialisers see nothing, updates see
            // the group with the variables so far.
            let stmt = |oracle: &mut Oracle, i: usize, vars: &[Value]| {
                let (_, init, prog) = &plan.invariant_programs[i];
                let expr = &ast.invariants[0].stmts[i].expr;
                if *init {
                    oracle.both(prog, &ExecCtx::empty(), expr, &Scope::empty())
                } else {
                    GroupCtx::new(plan, state, k, *group, vars, outcome).both(oracle, prog, expr)
                }
            };
            let ready = match invariant.as_mut() {
                Some(inv) => inv.on_window(label, &mut |i, vars| stmt(oracle, i, vars)),
                None => true,
            };
            if !ready {
                continue;
            }
            let vars: Vec<Value> = match invariant.as_ref() {
                Some(inv) => inv.vars(label).to_vec(),
                None => Vec::new(),
            };
            let at = GroupCtx::new(plan, state, k, *group, &vars, outcome);
            let fired = match (&plan.alert, &ast.alert) {
                (Some(prog), Some(expr)) => at.both(oracle, prog, expr).truthy(),
                _ => true,
            };
            if !fired {
                if let Some(inv) = invariant.as_mut() {
                    inv.absorb_online(label, &mut |i, vars| stmt(oracle, i, vars));
                }
                continue;
            }
            let rows: Vec<(String, String)> = match &ast.ret {
                None => vec![("group".to_string(), label.clone())],
                Some(ret) => (plan.ret.iter().zip(&ret.items))
                    .map(|((label, prog), item)| {
                        (label.clone(), at.both(oracle, prog, &item.expr).to_string())
                    })
                    .collect(),
            };
            if ast.ret.as_ref().is_some_and(|r| r.distinct)
                && !self
                    .distinct
                    .insert(rows.iter().map(|(_, v)| v.clone()).collect())
            {
                continue;
            }
            let origin = AlertOrigin::Window {
                start,
                end,
                group: label.clone(),
            };
            self.alerts
                .push((end.as_millis(), format!("{origin:?}"), rows));
        }
    }
}

/// The slot arrays of `event` matched alone as pattern `idx`: the event
/// under its alias, `subject` and its object under their variables (the
/// object second, so it wins a `proc p start proc p` collision as it does
/// in the engine).
fn bind<'a>(
    plan: &QueryPlan,
    idx: usize,
    event: &'a Event,
    subject: &'a Entity,
) -> (Vec<Option<&'a Event>>, Vec<Option<&'a Entity>>) {
    let (subject_slot, object_slot) = plan.pattern_slots[idx];
    let mut events = vec![None; plan.aliases.len()];
    let mut entities = vec![None; plan.entity_vars.len()];
    events[idx] = Some(event);
    entities[subject_slot] = Some(subject);
    entities[object_slot] = Some(&event.object);
    (events, entities)
}

/// The window-close context of one closed group, in both forms.
struct GroupCtx<'a> {
    plan: &'a QueryPlan,
    view: StateView<'a>,
    group: ClosedGroup<'a>,
    vars: &'a [Value],
    cluster: Option<ClusterOutcome>,
}

impl<'a> GroupCtx<'a> {
    fn new(
        plan: &'a QueryPlan,
        state: &'a StateMaintainer,
        k: u64,
        group: ClosedGroup<'a>,
        vars: &'a [Value],
        cluster: Option<ClusterOutcome>,
    ) -> Self {
        let view = StateView {
            maintainer: state,
            group,
            current_window: k,
        };
        GroupCtx {
            plan,
            view,
            group,
            vars,
            cluster,
        }
    }

    fn both(&self, oracle: &mut Oracle, prog: &Program, expr: &Expr) -> Value {
        let ctx = ExecCtx {
            events: &[],
            entities: &[],
            group_keys: self.group.key,
            states: &self.view,
            invariants: self.vars,
            cluster: self.cluster,
        };
        let mut scope = Scope::empty();
        scope.states = &self.view;
        for (key, value) in self.plan.group_keys.iter().zip(self.group.key) {
            for spelling in &key.spellings {
                scope.group_keys.insert(spelling.clone(), value.to_attr());
            }
        }
        let names = self.plan.invariant_vars.iter().cloned();
        scope.invariants = names.zip(self.vars.iter().cloned()).collect();
        scope.cluster = self.cluster;
        oracle.both(prog, &ctx, expr, &scope)
    }
}

/// A simulated enterprise trace with the APT attack in it, three times over
/// in three vocabularies, one after the other in time: as simulated (what
/// the demo corpus names), with the paper's obfuscated constants (`agentid
/// = xxx`, `XXX.129`), and with the ladder family's executables on hosts of
/// its own.
fn traces() -> Vec<SharedEvent> {
    const FAMILY: [(&str, &str); 9] = [
        ("outlook.exe", "mailer.exe"),
        ("excel.exe", "sheet.exe"),
        ("cscript.exe", "script.exe"),
        ("cmd.exe", "shell.exe"),
        ("osql.exe", "dumper.exe"),
        ("sbblv.exe", "courier.exe"),
        ("sqlservr.exe", "dbsrv.exe"),
        ("apache.exe", "launcher.exe"),
        ("chrome.exe", "uploader.exe"),
    ];
    let trace = Simulator::generate(&SimConfig {
        seed: 12,
        clients: 3,
        duration_ms: 55 * 60_000,
        attack: Some(AttackConfig::default()),
    });
    let last = trace.events.last().expect("non-empty trace");
    let (span, ids) = (last.ts.as_millis() + 60_000, last.id);
    let mut all = trace.events.clone();
    for (copy, family) in [(1, false), (2, true)] {
        all.extend(trace.events.iter().map(|e| {
            let mut e = e.clone();
            e.id += copy * ids;
            e.ts = saql::model::Timestamp::from_millis(e.ts.as_millis() + copy * span);
            if family {
                e.agent_id = format!("f-{}", e.agent_id).into();
                let rename = |exe: &mut std::sync::Arc<str>| {
                    if let Some((_, to)) = FAMILY.iter().find(|(from, _)| **from == **exe) {
                        *exe = (*to).into();
                    }
                };
                rename(&mut e.subject.exe_name);
                if let Entity::Process(p) = &mut e.object {
                    rename(&mut p.exe_name);
                }
            } else {
                if &*e.agent_id == "db-server" {
                    e.agent_id = "xxx".into();
                }
                if let Entity::Network(n) = &mut e.object {
                    if &*n.dst_ip == "172.16.9.129" {
                        n.dst_ip = "XXX.129".into();
                    }
                }
            }
            e
        }));
    }
    // The family pipeline summarises upload bursts no simulated browser
    // produces: 25 writes inside one second, on each of three hosts.
    let upload = all
        .iter()
        .find(|e| &*e.subject.exe_name == "uploader.exe" && e.op == Operation::Write)
        .expect("a browser upload to model the burst on")
        .clone();
    let (t0, id0) = (3 * span, 3 * ids);
    all.extend((0..75).map(|i| {
        let mut e = upload.clone();
        e.id = id0 + i;
        e.ts = saql::model::Timestamp::from_millis(t0 + 10 * i);
        e.agent_id = format!("f-burst-{}", i % 3).into();
        e
    }));
    saql::stream::share(all)
}

/// Every shipped query: the paper's four, the demo deployment, the ladder
/// family, the demo pipeline.
fn shipped_queries() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for (i, src) in corpus::PAPER_QUERIES.iter().enumerate() {
        out.push((format!("paper-{}", i + 1), src.to_string()));
    }
    for (name, src) in corpus::DEMO_QUERIES {
        out.push((name.to_string(), src.to_string()));
    }
    let family = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/queries/family");
    let mut files: Vec<_> = std::fs::read_dir(&family)
        .expect("ladder family directory")
        .map(|entry| entry.expect("readable").path())
        .collect();
    files.sort();
    for path in files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        out.push((name, std::fs::read_to_string(&path).expect("readable")));
    }
    out.push((
        corpus::DEMO_TIERED_PIPELINE_NAME.to_string(),
        corpus::DEMO_TIERED_PIPELINE.to_string(),
    ));
    out
}

#[test]
fn programs_match_tree_walk_on_every_expression_of_every_shipped_query() {
    let events = traces();
    let mut alerting = 0;
    for (name, source) in shipped_queries() {
        // A `|>` pipeline is its stages hand-chained: each stage's ordered
        // alert stream, adapted, is the next stage's event stream.
        let stages = split_stages(&name, &source).expect("splits");
        let mut input = events.clone();
        let mut upstream: Option<(String, String)> = None;
        for stage in stages {
            let (want, compared) = Reference::new(&stage.source).run(&input);
            assert!(
                compared > 0,
                "`{}`: no expression was evaluated",
                stage.name
            );
            let mut engine = Engine::new(EngineConfig::default());
            if let Some((up_name, up_source)) = &upstream {
                // `from query` must resolve; the upstream sees no raw
                // traffic here and stays silent.
                engine.register(up_name, up_source).expect("registers");
            }
            engine
                .register(&stage.name, &stage.source)
                .expect("registers");
            let alerts = engine.run(input.clone()).expect("runs");
            let got: Vec<Rendered> = alerts.iter().map(rendered).collect();
            assert_eq!(got, want, "`{}`: engine and reference disagree", stage.name);
            alerting += !want.is_empty() as usize;

            let id = engine.find(&stage.name).expect("registered");
            let mut adapter = AlertAdapter::new(&stage.name, id);
            input = alerts.iter().map(|a| adapter.adapt(a)).collect();
            upstream = Some((stage.name, stage.source));
        }
    }
    assert!(
        alerting >= 8,
        "only {alerting} queries alerted: traces too quiet"
    );
}

/// `ss[65535]`, the deepest index the checker admits, reads 65,535 windows
/// back compiled and tree-walked alike (a truncating 16-bit conversion once
/// ran `ss[65536]` as `ss[0]`).
#[test]
fn the_deepest_history_index_reads_the_same_both_ways() {
    let src = "proc p write ip i as evt #time(1 s)\nstate[65536] ss { n := count() } group by p\nreturn p, ss[65535].n";
    let checked = saql::lang::compile(src).expect("compiles");
    let plan = QueryPlan::compile(&checked);
    let block = &checked.ast.states[0];
    let mut state = StateMaintainer::new(block, block.history);
    let key = [KeyAtom::Str("x.exe".into())];
    for _ in 0..2 {
        state.observe(&[0], &key, &[Value::int(1)]);
    }
    state.close(0);
    state.observe(&[65_535], &key, &[Value::int(1)]);
    state.close(65_535);
    let closed: Vec<_> = state.closed().collect();
    let mut oracle = Oracle::default();
    let at = GroupCtx::new(&plan, &state, 65_535, closed[0], &[], None);
    let item = &checked.ast.ret.as_ref().expect("a return clause").items[1];
    let read = at.both(&mut oracle, &plan.ret[1].1, &item.expr);
    assert_eq!(
        read.to_string(),
        "2",
        "window 0's count, not window 65535's"
    );
}
