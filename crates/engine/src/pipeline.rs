//! Multi-stage query pipelines: alerts as an event stream.
//!
//! A pipeline chains SAQL queries with `|>` (or explicit `from query NAME`
//! clauses): each downstream *stage* consumes its upstream's **alert
//! stream** instead of raw collector events, so per-host window summaries
//! can feed an enterprise-wide correlation query — the cross-host,
//! multi-window attack stories the paper's flat queries cannot express.
//!
//! The subsystem composes two primitives:
//!
//! 1. the **alert→event adapter** ([`AlertAdapter`]) turns each alert into
//!    an ordinary [`Event`] with `op = alert` — the emitting query becomes
//!    the *subject* (`exe_name` = query name), the alert's group label the
//!    *object*, and labeled return rows map onto the event schema through
//!    the global [`saql_model::AttrTable`] (`agentid`- and
//!    `amount`-labeled rows surface as `_in.agentid` / `_in.amount`);
//! 2. the session's **edge table** (one row per upstream with dependents:
//!    its id, depth, adapter and last punctuation) hands the adapted
//!    events straight back to the engine, where every downstream stage
//!    (compiled with the injected `_in` pattern) picks them up.
//!
//! **Time.** A stage's clock ticks only on its own upstream's adapted
//! events (the scheduler gates each group of stages on that clock), so its
//! windows close exactly as they would in a dedicated engine fed only the
//! upstream's alerts — this is what makes pipeline execution equivalent to
//! hand-chaining two engines. Silent upstreams cannot stall a stage
//! forever: each round punctuates every edge with a **watermark event**
//! (`op = alert`, object `user` = the reserved
//! [`saql_lang::semantic::PIPELINE_WM_USER`] marker) at the session
//! frontier minus a lateness margin. Punctuations advance the stage clock
//! but are excluded by the injected `_in` pattern, so they never count as
//! payload. The margin is `(depth+1) × allowed_lateness` per edge: an
//! upstream at depth `d` can still emit window alerts up to `d+1` lateness
//! bounds behind the frontier, and a punctuation must never outrun an
//! alert that is still coming.
//!
//! **Who drives it.** A [`RunSession`] owns the edge table: every pump
//! round rebuilds it when the registry's edge set changed, processes its
//! base events, then offers the alerts they raised to their stages — in
//! the same round, pass after pass until a pass derives nothing, so stage
//! 2's alerts reach stage 3 too. Its end of stream flushes the stages
//! layer by layer. Callers register stages and pump — nothing more.
//!
//! **Checkpoints.** Adapted event ids are deterministic —
//! `(upstream_id+1) << 40 | seq` with a per-edge counter — and the counter
//! travels in the engine checkpoint (`Checkpoint::adapters`, format v2),
//! so a resumed pipeline keeps minting the ids the uninterrupted run would
//! have. No alert is ever in flight between rounds, so a checkpoint taken
//! at a round boundary captures the *whole* pipeline state as it stands.

use std::collections::HashMap;
use std::sync::Arc;

use saql_lang::{LangError, Stage};
use saql_model::entity::{Entity, ProcessInfo};
use saql_model::{AttrId, AttrNs, AttrTable, Duration, Event, Operation, Timestamp};
use saql_stream::SharedEvent;

use crate::alert::{Alert, AlertOrigin};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::query::QueryId;
use crate::session::RunSession;

pub use saql_lang::semantic::PIPELINE_WM_USER;

/// Turns one upstream query's alerts into derived events, deterministically.
///
/// The mapping (documented in DESIGN.md §12, "the `_in` schema"):
///
/// | event field | value |
/// |---|---|
/// | `id` | `(upstream_id+1) << 40 \| seq` (per-edge counter) |
/// | `ts` | the alert's event time (window end, or last matched event) |
/// | `agent_id` | first return row whose label spells `agentid` (else `"saql"`) |
/// | `subject` | `proc(pid = upstream_id, exe = upstream name, user = "saql")` |
/// | `op` | `alert` |
/// | `object` | `proc(pid = 0, exe = group label \| first row value, user = "")` |
/// | `amount` | first return row whose label spells `amount`, parsed (else 0) |
#[derive(Debug)]
pub struct AlertAdapter {
    upstream: Arc<str>,
    upstream_id: QueryId,
    seq: u64,
}

impl AlertAdapter {
    pub fn new(upstream: &str, upstream_id: QueryId) -> Self {
        AlertAdapter {
            upstream: Arc::from(upstream),
            upstream_id,
            seq: 0,
        }
    }

    /// Next adapted-event sequence number (checkpoint position).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Restore the sequence counter from a checkpoint.
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// The upstream query this adapter derives events from.
    pub fn upstream(&self) -> &str {
        &self.upstream
    }

    /// The upstream query's id (wiring staleness checks).
    pub fn upstream_id(&self) -> QueryId {
        self.upstream_id
    }

    /// Adapt one alert into a derived event.
    pub fn adapt(&mut self, alert: &Alert) -> SharedEvent {
        let id = ((self.upstream_id.index() as u64 + 1) << 40) | self.seq;
        self.seq += 1;
        let table = AttrTable::global();
        let mut agent: Option<&str> = None;
        let mut amount: u64 = 0;
        let mut amount_set = false;
        for (label, value) in &alert.rows {
            match table.resolve(AttrNs::Event, label) {
                Some(AttrId::AgentId) if agent.is_none() => agent = Some(value),
                Some(AttrId::Amount) if !amount_set => {
                    if let Ok(v) = value.parse::<f64>() {
                        if v >= 0.0 {
                            amount = v as u64;
                            amount_set = true;
                        }
                    }
                }
                _ => {}
            }
        }
        let group: &str = match &alert.origin {
            AlertOrigin::Window { group, .. } => group,
            AlertOrigin::Match { .. } => alert.rows.first().map(|(_, v)| v.as_str()).unwrap_or(""),
        };
        Arc::new(Event {
            id,
            agent_id: Arc::from(agent.unwrap_or("saql")),
            ts: alert.ts,
            subject: ProcessInfo {
                pid: self.upstream_id.index() as u32,
                exe_name: Arc::clone(&self.upstream),
                user: Arc::from("saql"),
            },
            op: Operation::Alert,
            object: Entity::Process(ProcessInfo {
                pid: 0,
                exe_name: Arc::from(group),
                user: Arc::from(""),
            }),
            amount,
        })
    }

    /// A watermark punctuation at `ts`: advances downstream clocks (it
    /// carries this upstream's subject identity, so dependents accept its
    /// time) but never matches the injected `_in` pattern (the object
    /// `user` carries the reserved marker). Punctuations do not consume
    /// sequence numbers — their cadence depends on pump timing, and
    /// adapted-event ids must be a deterministic function of the alert
    /// stream alone.
    pub fn punctuation(&self, ts: Timestamp) -> SharedEvent {
        Arc::new(Event {
            // High tag well clear of both collector ids and adapted ids.
            id: u64::MAX - self.upstream_id.index() as u64,
            agent_id: Arc::from("saql"),
            ts,
            subject: ProcessInfo {
                pid: self.upstream_id.index() as u32,
                exe_name: Arc::clone(&self.upstream),
                user: Arc::from("saql"),
            },
            op: Operation::Alert,
            object: Entity::Process(ProcessInfo {
                pid: 0,
                exe_name: Arc::from(""),
                user: Arc::from(PIPELINE_WM_USER),
            }),
            amount: 0,
        })
    }
}

/// Validate a batch of pipeline stages against each other and an engine's
/// live registry: every `from query` reference must resolve (to a stage in
/// the batch or an already-registered query), and batch-internal references
/// must form a DAG. Returns registration order (indices into `stages`,
/// upstreams first). Errors carry the offending `from` clause's span into
/// that stage's source.
pub fn validate_stages(stages: &[Stage], engine: &Engine) -> Result<Vec<usize>, LangError> {
    let by_name: HashMap<&str, usize> = stages
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.as_str(), i))
        .collect();
    for s in stages {
        if let Some((up, span)) = &s.input {
            if !by_name.contains_key(up.as_str()) && engine.find(up).is_none() {
                return Err(LangError::semantic(
                    format!(
                        "stage `{}`: `from query {up}` references neither a \
                         pipeline stage nor a registered query",
                        s.name
                    ),
                    *span,
                ));
            }
        }
    }
    // Topological order over batch-internal edges (DFS, cycle detection).
    let mut order = Vec::with_capacity(stages.len());
    let mut mark = vec![0u8; stages.len()]; // 0 unvisited / 1 on stack / 2 done
    fn visit(
        i: usize,
        stages: &[Stage],
        by_name: &HashMap<&str, usize>,
        mark: &mut [u8],
        order: &mut Vec<usize>,
    ) -> Result<(), LangError> {
        match mark[i] {
            2 => return Ok(()),
            1 => {
                let span = stages[i]
                    .input
                    .as_ref()
                    .map(|(_, s)| *s)
                    .unwrap_or_default();
                return Err(LangError::semantic(
                    format!(
                        "pipeline stages form a cycle through `{}` — a stage \
                         cannot (transitively) consume its own alert stream",
                        stages[i].name
                    ),
                    span,
                ));
            }
            _ => {}
        }
        mark[i] = 1;
        if let Some((up, _)) = &stages[i].input {
            if let Some(&j) = by_name.get(up.as_str()) {
                visit(j, stages, by_name, mark, order)?;
            }
        }
        mark[i] = 2;
        order.push(i);
        Ok(())
    }
    for i in 0..stages.len() {
        visit(i, stages, &by_name, &mut mark, &mut order)?;
    }
    Ok(order)
}

/// Split, validate, and register a (possibly multi-stage) query on an
/// engine. Returns the stages with their assigned ids, in registration
/// (topological) order. Single-stage sources register exactly like a plain
/// [`Engine::register`] call.
pub fn register_pipeline(
    engine: &mut Engine,
    name: &str,
    source: &str,
) -> Result<Vec<(Stage, QueryId)>, LangError> {
    register_pipeline_scoped(engine, name, source, "")
}

/// [`register_pipeline`] with every explicit `from query` reference
/// confined to a name scope (the serving layer's `{tenant}/` prefix).
///
/// Implicit `|>` edges already carry the scope through the pipeline name
/// and are left alone. An explicit bare reference (`from query "q"`) is
/// resolved *under* the scope — the stage's stored source is rewritten to
/// `from query "{scope}q"`, so recompiles from the registry or a
/// checkpoint resolve identically — and a reference containing `/` is
/// rejected with a spanned error: registered names never contain `/`
/// inside a scope, so such a reference could only reach another scope's
/// queries (a cross-tenant alert-stream leak). The empty scope confines
/// nothing: that is [`register_pipeline`].
pub fn register_pipeline_scoped(
    engine: &mut Engine,
    name: &str,
    source: &str,
    scope: &str,
) -> Result<Vec<(Stage, QueryId)>, LangError> {
    register_stages(engine, saql_lang::split_stages(name, source)?, scope)
}

/// [`register_pipeline_scoped`] for a source already split into stages.
pub(crate) fn register_stages(
    engine: &mut Engine,
    mut stages: Vec<Stage>,
    scope: &str,
) -> Result<Vec<(Stage, QueryId)>, LangError> {
    if !scope.is_empty() {
        scope_stage_inputs(&mut stages, scope)?;
    }
    // Register upstream-first, rolling back on failure so a failed
    // registration leaves the engine unchanged.
    let order = validate_stages(&stages, engine)?;
    let mut registered: Vec<(Stage, QueryId)> = Vec::new();
    for i in order {
        let stage = &stages[i];
        match engine.register(&stage.name, &stage.source) {
            Ok(id) => registered.push((stage.clone(), id)),
            Err(e) => {
                for (_, id) in registered.drain(..).rev() {
                    let _ = engine.deregister(id);
                }
                return Err(e);
            }
        }
    }
    Ok(registered)
}

/// Confine each stage's explicit `from query` reference to `scope` (see
/// [`register_pipeline_scoped`]). Rewrites both the parsed input name and
/// the quoted literal inside the stage source.
fn scope_stage_inputs(stages: &mut [Stage], scope: &str) -> Result<(), LangError> {
    let batch: Vec<String> = stages.iter().map(|s| s.name.clone()).collect();
    for stage in stages.iter_mut() {
        let Some((up, span)) = stage.input.clone() else {
            continue;
        };
        if batch.contains(&up) {
            continue;
        }
        if up.contains('/') {
            return Err(LangError::semantic(
                format!(
                    "stage `{}`: `from query \"{up}\"` reaches outside the \
                     tenant scope — reference queries by their bare name",
                    stage.name
                ),
                span,
            ));
        }
        let needle = format!("\"{up}\"");
        let clause = &stage.source[span.start..span.end.min(stage.source.len())];
        let rel = clause.find(&needle).ok_or_else(|| {
            LangError::semantic(
                format!(
                    "stage `{}`: cannot scope `from query \"{up}\"` — the \
                     upstream name is not a plain string literal",
                    stage.name
                ),
                span,
            )
        })?;
        stage.source.insert_str(span.start + rel + 1, scope);
        let mut scoped_span = span;
        scoped_span.end += scope.len();
        stage.input = Some((format!("{scope}{up}"), scoped_span));
    }
    Ok(())
}

/// Render the multi-stage execution plan of a pipeline source: the stage
/// topology (who consumes whose alert stream) followed by each stage's
/// compiled plan dump. Deterministic — the CLI's `explain` golden fixtures
/// pin this output. Errors come back pre-rendered (stage compile errors
/// span the *stage* source, not the original file).
pub fn explain_pipeline(name: &str, source: &str) -> Result<String, String> {
    let stages = saql_lang::split_stages(name, source).map_err(|e| e.render(source))?;
    let mut out = String::new();
    out.push_str(&format!("pipeline `{name}`: {} stage(s)\n", stages.len()));
    for s in &stages {
        let input = s
            .input
            .as_ref()
            .map(|(n, _)| n.as_str())
            .unwrap_or("<base events>");
        out.push_str(&format!("  {} <- {}\n", s.name, input));
    }
    for s in &stages {
        let query = crate::RunningQuery::compile(s.name.as_str(), &s.source, Default::default())
            .map_err(|e| format!("stage {}: {}", s.name, e.render(&s.source)))?;
        out.push_str(&format!("\n## stage {}\n", s.name));
        out.push_str(&query.explain());
    }
    Ok(out)
}

/// Deregister a (possibly multi-stage) query and cascade over its
/// auto-generated `NAME.sK` upstream stages — the inverse of
/// [`register_pipeline`]. Stages that still have *other* dependents (an
/// explicit `from query` reference from elsewhere) are left registered.
/// Returns the names actually deregistered, downstream first.
pub fn deregister_pipeline(engine: &mut Engine, id: QueryId) -> Result<Vec<String>, EngineError> {
    let base = engine
        .name_of(id)
        .ok_or(EngineError::UnknownQuery(id))?
        .to_string();
    // The `|>` chain upstream of `id`: walk `from query` inputs while the
    // names keep the auto-generated `{base}.sK` shape.
    let mut chain = vec![(base.clone(), id)];
    let mut cur = id;
    while let Some(up_id) = engine.input_of(cur).and_then(|up| engine.find(up)) {
        let name = match engine.name_of(up_id) {
            Some(n) if n.starts_with(&format!("{base}.s")) => n.to_string(),
            _ => break,
        };
        chain.push((name, up_id));
        cur = up_id;
    }
    let mut removed = Vec::new();
    for (name, qid) in chain {
        match engine.deregister(qid) {
            Ok(()) => removed.push(name),
            // The head must go; a shared upstream stage may stay.
            Err(e) if removed.is_empty() => return Err(e),
            Err(_) => break,
        }
    }
    Ok(removed)
}

/// One pipeline edge: an upstream query with at least one dependent.
struct Edge {
    /// Stage depth of the upstream (0 = reads raw events); sets the
    /// punctuation lateness margin.
    depth: u64,
    adapter: AlertAdapter,
    last_punct: Option<Timestamp>,
}

/// A session's pipeline topology: one adapter per live upstream, all
/// dependents of an upstream sharing its derived events. Owned by
/// [`RunSession`], which rebuilds it whenever the registry's edge set
/// changes.
#[derive(Default)]
pub(crate) struct Edges {
    edges: Vec<Edge>,
}

/// Pipeline depth of a live query (0 = reads raw events), memoized in
/// `depth`.
fn depth_of(engine: &Engine, id: QueryId, depth: &mut HashMap<QueryId, u64>) -> u64 {
    if let Some(&d) = depth.get(&id) {
        return d;
    }
    let d = match engine.input_of(id).and_then(|up| engine.find(up)) {
        // Validation rejects cycles, so recursion terminates.
        Some(up_id) => depth_of(engine, up_id, depth) + 1,
        None => 0,
    };
    depth.insert(id, d);
    d
}

/// The registry's upstream queries — those with at least one dependent —
/// sorted by id.
fn upstreams(engine: &Engine) -> Vec<QueryId> {
    let mut ups: Vec<QueryId> = engine.pipeline_edges().iter().map(|(_, up)| *up).collect();
    ups.sort_by_key(|id| id.index());
    ups.dedup();
    ups
}

impl Edges {
    /// One edge per upstream of `engine`. Adapters resume at the position
    /// `seqs` names for their upstream (first match wins), else at 0.
    pub(crate) fn connect(engine: &Engine, seqs: &[(String, u64)]) -> Edges {
        let mut depth: HashMap<QueryId, u64> = HashMap::new();
        let edges = upstreams(engine)
            .into_iter()
            .filter_map(|up_id| {
                let name = engine.name_of(up_id)?;
                let mut adapter = AlertAdapter::new(name, up_id);
                if let Some((_, seq)) = seqs.iter().find(|(n, _)| n == name) {
                    adapter.set_seq(*seq);
                }
                Some(Edge {
                    depth: depth_of(engine, up_id, &mut depth),
                    adapter,
                    last_punct: None,
                })
            })
            .collect();
        Edges { edges }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether some upstream is itself a stage: its alerts exist only once
    /// the derived events feeding it have been processed.
    pub(crate) fn deep(&self) -> bool {
        self.edges.iter().any(|e| e.depth > 0)
    }

    /// Whether the live registry's edge set no longer matches this table
    /// (a pipeline was registered or deregistered mid-run). Compares the
    /// upstream id *sets*: replacing a pipeline under the same name keeps
    /// the count but changes the ids, and the registry never reuses one.
    pub(crate) fn stale(&self, engine: &Engine) -> bool {
        let ups = upstreams(engine);
        ups.len() != self.edges.len()
            || ups
                .iter()
                .zip(&self.edges)
                .any(|(id, e)| e.adapter.upstream_id() != *id)
    }

    /// Adapter positions, `(upstream name, next seq)` — what
    /// [`Checkpoint::adapters`](crate::Checkpoint) records.
    pub(crate) fn adapter_seqs(&self) -> Vec<(String, u64)> {
        self.edges
            .iter()
            .map(|e| (e.adapter.upstream().to_string(), e.adapter.seq()))
            .collect()
    }

    /// The derived events for `alerts`: each alert of an upstream, adapted
    /// in order, then the punctuation of each edge at `depth` — whose
    /// upstream's alerts are all in by now — at `frontier` minus its
    /// lateness margin, if that moved past the edge's last one.
    pub(crate) fn derive(
        &mut self,
        alerts: &[Alert],
        depth: u64,
        frontier: Timestamp,
        lateness: Duration,
    ) -> Vec<SharedEvent> {
        let mut derived = Vec::new();
        for alert in alerts {
            if let Some(edge) = self
                .edges
                .iter_mut()
                .find(|e| e.adapter.upstream_id() == alert.query_id)
            {
                derived.push(edge.adapter.adapt(alert));
            }
        }
        for edge in self.edges.iter_mut().filter(|e| e.depth == depth) {
            // A safe lower bound on anything this upstream can still emit:
            // `(depth+1)` lateness bounds behind the frontier.
            let margin = lateness.as_millis().saturating_mul(edge.depth + 1);
            let punct = Timestamp::from_millis(frontier.as_millis().saturating_sub(margin));
            if punct.as_millis() > 0 && edge.last_punct.is_none_or(|p| punct > p) {
                edge.last_punct = Some(punct);
                derived.push(edge.adapter.punctuation(punct));
            }
        }
        derived
    }

    /// Every query some dependent consumes, in end-of-stream flush order:
    /// shallow first, so each layer's final windows reach its dependents
    /// before those flush in turn.
    pub(crate) fn flush_order(engine: &Engine) -> Vec<QueryId> {
        let mut depth: HashMap<QueryId, u64> = HashMap::new();
        let mut flush: Vec<(u64, QueryId)> = upstreams(engine)
            .into_iter()
            .map(|up| (depth_of(engine, up, &mut depth), up))
            .collect();
        flush.sort_by_key(|(d, id)| (*d, id.index()));
        flush.into_iter().map(|(_, id)| id).collect()
    }
}

/// A hand-driving handle on a session's `|>` stages.
///
/// A [`RunSession`] feeds, checkpoints, and flushes its pipeline stages
/// itself — no caller needs this handle. It remains as the benchmark
/// ladder's seam; each call forwards to the session.
#[derive(Debug)]
pub struct PipelineWiring;

impl PipelineWiring {
    /// Build the session's edge table now instead of at its next pump
    /// round.
    pub fn connect(session: &mut RunSession) -> Result<PipelineWiring, EngineError> {
        session.wire();
        Ok(PipelineWiring)
    }

    /// Nothing to move: every pump round hands its alerts to their stages
    /// before it returns. Returns 0.
    pub fn transfer(&mut self, _session: &mut RunSession) -> u64 {
        0
    }

    /// Flush the stages layer by layer (the first half of
    /// [`RunSession::finish`]).
    pub fn finish_stages(&mut self, session: &mut RunSession) -> Vec<Alert> {
        session.finish_stages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::query::QueryId;
    use crate::session::SessionStatus;
    use saql_model::event::EventBuilder;
    use saql_model::NetworkInfo;
    use saql_stream::merge::Lateness;
    use saql_stream::source::IterSource;

    fn alert(query: &str, ts: u64, group: &str, rows: Vec<(String, String)>) -> Alert {
        Alert {
            query: query.into(),
            query_id: QueryId::new(3),
            ts: Timestamp::from_millis(ts),
            origin: AlertOrigin::Window {
                start: Timestamp::ZERO,
                end: Timestamp::from_millis(ts),
                group: group.into(),
            },
            rows,
        }
    }

    #[test]
    fn adapter_maps_labeled_rows_onto_schema() {
        let mut a = AlertAdapter::new("burst", QueryId::new(3));
        let ev = a.adapt(&alert(
            "burst",
            10_000,
            "web-1",
            vec![
                ("host".into(), "web-1".into()),
                ("total".into(), "9".into()),
                ("amount".into(), "4096".into()),
            ],
        ));
        assert_eq!(ev.id, (4u64 << 40), "first seq under the upstream tag");
        assert_eq!(&*ev.agent_id, "web-1", "host label resolves to agentid");
        assert_eq!(ev.amount, 4096);
        assert_eq!(ev.op, Operation::Alert);
        assert_eq!(&*ev.subject.exe_name, "burst");
        match &ev.object {
            Entity::Process(p) => assert_eq!(&*p.exe_name, "web-1"),
            other => panic!("object should be the group process, got {other:?}"),
        }
        let ev2 = a.adapt(&alert("burst", 20_000, "web-2", vec![]));
        assert_eq!(ev2.id, (4u64 << 40) | 1, "sequence advances");
        assert_eq!(&*ev2.agent_id, "saql", "no agentid-labeled row");
    }

    #[test]
    fn punctuation_carries_marker_and_no_seq() {
        let mut a = AlertAdapter::new("burst", QueryId::new(0));
        let before = a.seq();
        let p = a.punctuation(Timestamp::from_millis(5_000));
        assert_eq!(a.seq(), before, "punctuations do not consume sequence");
        assert_eq!(p.op, Operation::Alert);
        match &p.object {
            Entity::Process(pr) => assert_eq!(&*pr.user, PIPELINE_WM_USER),
            other => panic!("punctuation object must be a process, got {other:?}"),
        }
        let _ = a.adapt(&alert("burst", 1, "g", vec![]));
        assert_eq!(a.seq(), before + 1);
    }

    /// Two-stage tiered burst detection and a trace on which both stages
    /// fire (see `crates/engine/tests/pipeline.rs`).
    const TIERED: &str = "\
proc p write ip i as evt #time(10 s)
state ss { writes := count() } group by evt.agentid
alert ss[0].writes >= 3
return evt.agentid as host, ss[0].writes as amount
|>
from #time(30 s)
state es { hosts := distinct_count(_in.agentid) }
alert es[0].hosts >= 2
return es[0].hosts as hosts";

    fn tiered_trace() -> Vec<SharedEvent> {
        let mut stamps: Vec<(&str, u64)> = Vec::new();
        for k in 0..4 {
            stamps.push(("web-1", 1_000 + k * 2_000));
            stamps.push(("web-2", 1_100 + k * 2_000));
        }
        stamps.extend([("web-1", 41_000), ("web-3", 95_000)]);
        stamps
            .into_iter()
            .enumerate()
            .map(|(i, (host, ts))| {
                Arc::new(
                    EventBuilder::new(i as u64 + 1, host, ts)
                        .subject(ProcessInfo::new(100, "worker", "svc"))
                        .sends(NetworkInfo::new("10.0.0.1", 9999, "172.16.0.9", 443, "tcp"))
                        .amount(1024)
                        .build(),
                )
            })
            .collect()
    }

    #[test]
    fn the_ladder_seam_equals_a_plain_drain() {
        // `benchmark/ladder` drives stages through the handle: connect,
        // then transfer + `pump_max` rounds, then `finish_stages`. The
        // handle forwards to the session, so that sequence (plus the
        // engine's own finish) must equal `drain` alert for alert.
        let run = |by_hand: bool| -> Vec<String> {
            let mut engine = Engine::new(EngineConfig::default());
            register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
            let mut session = engine.session();
            session.attach_with(
                IterSource::new("all", tiered_trace()),
                Lateness::ArrivalOrder,
            );
            let alerts = if by_hand {
                let mut wiring = PipelineWiring::connect(&mut session).expect("wires");
                let mut alerts = Vec::new();
                loop {
                    let moved = wiring.transfer(&mut session);
                    let round = session.pump_max(4);
                    alerts.extend(round.alerts);
                    match round.status {
                        SessionStatus::Done => break,
                        SessionStatus::Idle if moved == 0 && round.events == 0 => break,
                        _ => {}
                    }
                }
                alerts.extend(wiring.finish_stages(&mut session));
                alerts.extend(session.engine().finish());
                alerts
            } else {
                session.drain()
            };
            alerts.iter().map(|a| a.to_string()).collect()
        };
        let drained = run(false);
        assert!(
            drained.iter().any(|a| a.starts_with("[ALERT tiered ")),
            "stage 2 fires: {drained:?}"
        );
        assert_eq!(run(true), drained);
    }
}
