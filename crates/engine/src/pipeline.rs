//! Multi-stage query pipelines: alerts as an event stream.
//!
//! A pipeline chains SAQL queries with `|>` (or explicit `from query NAME`
//! clauses): each downstream *stage* consumes its upstream's **alert
//! stream** instead of raw collector events, so per-host window summaries
//! can feed an enterprise-wide correlation query — the cross-host,
//! multi-window attack stories the paper's flat queries cannot express.
//!
//! The subsystem composes three primitives that already exist:
//!
//! 1. per-query [`Engine::subscribe`] channels carry a stage's alerts out
//!    of the engine;
//! 2. the **alert→event adapter** ([`AlertAdapter`]) turns each alert into
//!    an ordinary [`Event`] with `op = alert` — the emitting query becomes
//!    the *subject* (`exe_name` = query name), the alert's group label the
//!    *object*, and labeled return rows map onto the event schema through
//!    the global [`saql_model::AttrTable`] (`agentid`- and
//!    `amount`-labeled rows surface as `_in.agentid` / `_in.amount`);
//! 3. a `push_source` channel per upstream feeds those derived events back
//!    into the session's watermarked merge, where every downstream stage
//!    (compiled with the injected `_in` pattern) picks them up.
//!
//! **Time.** A stage's clock ticks only on its own upstream's adapted
//! events (the scheduler gates each group of stages on that clock), so its
//! windows close exactly as they would in a dedicated engine fed only the
//! upstream's alerts — this is what makes pipeline execution equivalent to
//! hand-chaining two engines. Silent upstreams cannot stall a stage
//! forever: each transfer round punctuates every edge with a **watermark
//! event** (`op = alert`, object `user` = the reserved
//! [`saql_lang::semantic::PIPELINE_WM_USER`] marker) at
//! the session frontier minus a lateness margin. Punctuations advance the
//! stage clock but are excluded by the injected `_in` pattern, so they
//! never count as payload. The margin is `(depth+1) × allowed_lateness`
//! per edge: an upstream at depth `d` can still emit window alerts up to
//! `d+1` lateness bounds behind the frontier, and a punctuation must never
//! outrun an alert that is still coming.
//!
//! **Checkpoints.** Adapted event ids are deterministic —
//! `(upstream_id+1) << 40 | seq` with a per-edge counter — and the counter
//! travels in the engine checkpoint (`Checkpoint::adapters`, format v2),
//! so a resumed pipeline keeps minting the ids the uninterrupted run would
//! have. [`PipelineWiring::quiesce`] runs transfer+pump rounds until no
//! alert is in flight between stages, which is what makes a checkpoint
//! capture the *whole* pipeline state with nothing stuck in a channel.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::Receiver;
use saql_lang::{LangError, Stage};
use saql_model::entity::{Entity, ProcessInfo};
use saql_model::{AttrId, AttrNs, AttrTable, Event, Operation, Timestamp};
use saql_stream::merge::Lateness;
use saql_stream::source::{push_source, PushHandle};
use saql_stream::SharedEvent;

use crate::alert::{Alert, AlertOrigin};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::query::QueryId;
use crate::session::RunSession;

pub use saql_lang::semantic::PIPELINE_WM_USER;

/// Default capacity of each per-upstream derived-event channel.
const EDGE_CAPACITY: usize = 4096;

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

    /// Advance downstream time through `push` when this upstream is
    /// silent: raise the derived channel's watermark so it never gates the
    /// session merge (PR 4's gating rule — a quiet live source otherwise
    /// holds the frontier), then push a [`punctuation`](Self::punctuation)
    /// so the downstream stage's *own* clock reaches `ts` and its windows
    /// close. [`PipelineWiring::transfer`] calls this every round;
    /// hand-wired topologies call it directly. Returns `false` once the
    /// consuming session is gone.
    pub fn advance_watermark(&self, push: &PushHandle, ts: Timestamp) -> bool {
        push.advance_watermark(ts);
        push.push(self.punctuation(ts))
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
    let stages = saql_lang::split_stages(name, source)?;
    register_stages(engine, stages)
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
/// queries (a cross-tenant alert-stream leak).
pub fn register_pipeline_scoped(
    engine: &mut Engine,
    name: &str,
    source: &str,
    scope: &str,
) -> Result<Vec<(Stage, QueryId)>, LangError> {
    let mut stages = saql_lang::split_stages(name, source)?;
    scope_stage_inputs(&mut stages, scope)?;
    register_stages(engine, stages)
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

/// Validate a pre-split stage batch and register it upstream-first,
/// rolling back on failure — the shared tail of [`register_pipeline`] and
/// [`register_pipeline_scoped`].
fn register_stages(
    engine: &mut Engine,
    stages: Vec<Stage>,
) -> Result<Vec<(Stage, QueryId)>, LangError> {
    let order = validate_stages(&stages, engine)?;
    let mut registered: Vec<(Stage, QueryId)> = Vec::new();
    for i in order {
        let stage = &stages[i];
        match engine.register(&stage.name, &stage.source) {
            Ok(id) => registered.push((stage.clone(), id)),
            Err(e) => {
                // Roll back earlier stages of this batch so a failed
                // registration leaves the engine unchanged.
                for (_, id) in registered.drain(..).rev() {
                    let _ = engine.deregister(id);
                }
                return Err(e);
            }
        }
    }
    Ok(registered)
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

/// One wired pipeline edge: an upstream query with at least one dependent.
struct Edge {
    upstream: String,
    /// Stage depth of the upstream (0 = reads raw events); sets the
    /// punctuation lateness margin.
    depth: u64,
    rx: Receiver<Alert>,
    push: Option<PushHandle>,
    adapter: AlertAdapter,
    last_punct: Option<Timestamp>,
}

/// The session-level pipeline topology: subscriptions, adapters, and push
/// channels for every live `from query` edge of an engine.
///
/// Built *after* stages are registered (see [`register_pipeline`]) and
/// after the session's base sources are attached:
/// [`PipelineWiring::connect`] discovers the edges from the engine
/// registry, subscribes to each upstream once (all dependents share the
/// derived stream through the merge), and attaches one
/// [`push_source`] per upstream. Drive the session with
/// [`transfer`](Self::transfer) between pump rounds.
pub struct PipelineWiring {
    edges: Vec<Edge>,
    /// Derived events (adapted alerts + punctuations) pushed into the
    /// merge over this wiring's lifetime — the session's processed-event
    /// count minus this is the *base* stream position for checkpoints.
    derived_pushed: u64,
}

impl Default for PipelineWiring {
    /// A wiring with no edges — the engine has no pipelines (yet). Useful
    /// as a placeholder where [`connect`](Self::connect) may fail.
    fn default() -> Self {
        PipelineWiring {
            edges: Vec::new(),
            derived_pushed: 0,
        }
    }
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

impl PipelineWiring {
    /// Wire every pipeline edge of the session's engine. Fresh adapters
    /// start at sequence 0.
    pub fn connect(session: &mut RunSession) -> Result<PipelineWiring, EngineError> {
        PipelineWiring::connect_with(session, &[])
    }

    /// [`connect`](Self::connect) with adapter positions restored from a
    /// checkpoint ([`Checkpoint::adapters`](crate::Checkpoint)).
    pub fn connect_with(
        session: &mut RunSession,
        seqs: &[(String, u64)],
    ) -> Result<PipelineWiring, EngineError> {
        let engine = session.engine();
        let edges_spec = engine.pipeline_edges();
        // depth of every live query (0 = base).
        let mut depth: HashMap<QueryId, u64> = HashMap::new();
        let mut upstreams: Vec<QueryId> = edges_spec.iter().map(|(_, up)| *up).collect();
        upstreams.sort_by_key(|id| id.index());
        upstreams.dedup();
        let mut edges = Vec::with_capacity(upstreams.len());
        for up_id in upstreams {
            let engine = session.engine();
            let d = depth_of(engine, up_id, &mut depth);
            let name = engine
                .name_of(up_id)
                .ok_or(EngineError::UnknownQuery(up_id))?
                .to_string();
            let rx = engine.subscribe_with_capacity(up_id, EDGE_CAPACITY)?;
            let mut adapter = AlertAdapter::new(&name, up_id);
            if let Some((_, seq)) = seqs.iter().find(|(n, _)| *n == name) {
                adapter.set_seq(*seq);
            }
            let (push, source) = push_source(format!("pipe:{name}"), EDGE_CAPACITY);
            session.attach_with(source, Lateness::ArrivalOrder);
            edges.push(Edge {
                upstream: name,
                depth: d,
                rx,
                push: Some(push),
                adapter,
                last_punct: None,
            });
        }
        Ok(PipelineWiring {
            edges,
            derived_pushed: 0,
        })
    }

    /// Whether the engine has any pipeline edges at all.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of wired upstream edges — compare against
    /// [`Engine::pipeline_edges`] (deduplicated by upstream) to detect a
    /// topology change from a mid-run register/deregister.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the live registry's edge set no longer matches this wiring
    /// (a pipeline was registered or deregistered mid-run).
    pub fn stale(&self, session: &mut RunSession) -> bool {
        let mut ups: Vec<QueryId> = session
            .engine()
            .pipeline_edges()
            .iter()
            .map(|(_, up)| *up)
            .collect();
        ups.sort_by_key(|id| id.index());
        ups.dedup();
        // Compare the id *sets*, not just the counts: a deregister+register
        // pair drained in one control round (replacing a pipeline under the
        // same name) keeps the count equal while changing the upstream ids
        // — the registry never reuses a retired id, so the id set always
        // reflects such a swap. Edges are built sorted by upstream id
        // (`connect_with`), so a positional compare is a set compare.
        ups.len() != self.edges.len()
            || ups
                .iter()
                .zip(&self.edges)
                .any(|(id, e)| e.adapter.upstream_id() != *id)
    }

    /// Rebuild the edge set in place after a mid-run topology change,
    /// carrying adapter positions (and the derived-event count) forward for
    /// upstreams that survive. Dropping the stale edges closes their push
    /// channels, so the merge retires the old `pipe:` sources. Call after a
    /// [`quiesce`](Self::quiesce) so no in-flight alert is stranded in a
    /// dropped subscription.
    pub fn reconnect(&mut self, session: &mut RunSession) -> Result<(), EngineError> {
        let seqs = self.adapter_seqs();
        let fresh = PipelineWiring::connect_with(session, &seqs)?;
        self.edges = fresh.edges;
        Ok(())
    }

    /// Adapter checkpoint positions, `(upstream name, next seq)` — stamp
    /// these into [`Checkpoint::adapters`](crate::Checkpoint) before
    /// writing it.
    pub fn adapter_seqs(&self) -> Vec<(String, u64)> {
        self.edges
            .iter()
            .map(|e| (e.upstream.clone(), e.adapter.seq()))
            .collect()
    }

    /// Derived events pushed into the merge so far (adapted alerts plus
    /// watermark punctuations). `session.processed() - derived_processed`
    /// is the base-stream position once the wiring is quiesced.
    pub fn derived_pushed(&self) -> u64 {
        self.derived_pushed
    }

    /// One transfer round: drain every upstream subscription, adapt and
    /// push the alerts into the merge, then punctuate each edge's
    /// watermark at the session frontier minus its lateness margin.
    /// Returns the number of derived events pushed.
    pub fn transfer(&mut self, session: &mut RunSession) -> u64 {
        // Barrier first (free without workers): the
        // punctuations below assert "every upstream has processed every
        // event up to the frontier", which is only true once the workers
        // have caught up and their alerts are routed. Without this, a
        // punctuation can advance a downstream clock past alerts still
        // being computed, and the stage would drop them as late.
        let _ = session.engine().sync();
        let frontier = session.frontier();
        let lateness = session.engine().config().query.allowed_lateness;
        // A derived channel's events *trail* processing: they can only be
        // minted from base events the merge already released, so holding
        // base traffic back for them deadlocks the feedback loop (the
        // merge waits on the adapter, the adapter waits on alerts, alerts
        // wait on events). Promise the merge the derived channels never
        // gate anything at or below the lead of the real sources. The
        // promise is deliberately optimistic — adapted alerts may carry
        // older timestamps — which is sound because nothing orders against
        // a derived event: pipeline stages clock on their own upstream's
        // events only, and base queries never match `op = alert` traffic.
        let lead = session
            .source_stats()
            .iter()
            .map(|(_, s)| s.watermark.as_millis())
            .max()
            .unwrap_or(0)
            .max(frontier.as_millis());
        let mut pushed = 0u64;
        for edge in &mut self.edges {
            if let Some(push) = edge.push.as_ref() {
                push.advance_watermark(Timestamp::from_millis(lead));
            }
        }
        for edge in &mut self.edges {
            let Some(push) = edge.push.as_ref() else {
                continue;
            };
            while let Ok(alert) = edge.rx.try_recv() {
                let event = edge.adapter.adapt(&alert);
                if push.push(event) {
                    pushed += 1;
                }
            }
            // Punctuate: safe lower bound on anything this upstream can
            // still emit. `(depth+1)` lateness bounds behind the frontier.
            let margin = lateness.as_millis().saturating_mul(edge.depth + 1);
            let punct = Timestamp::from_millis(frontier.as_millis().saturating_sub(margin));
            if punct.as_millis() > 0
                && edge.last_punct.is_none_or(|p| punct > p)
                && edge.adapter.advance_watermark(push, punct)
            {
                edge.last_punct = Some(punct);
                pushed += 1;
            }
        }
        self.derived_pushed += pushed;
        pushed
    }

    /// Run transfer+pump rounds until the pipeline is *quiet*: a full
    /// round moves no alert and feeds no event. Because derived channels
    /// are never gated (their watermarks are raised to the source lead on
    /// every transfer), a round that pumps zero events proves the channels
    /// are empty — at that point the engine's queries hold the complete
    /// pipeline state, with nothing in flight between stages, and an
    /// engine checkpoint taken now captures the pipeline exactly.
    /// Returns the alerts produced while quiescing.
    pub fn quiesce(&mut self, session: &mut RunSession) -> Vec<Alert> {
        let mut out = Vec::new();
        loop {
            let moved = self.transfer(session);
            let round = session.pump();
            out.extend(round.alerts);
            if moved == 0 && round.events == 0 {
                break;
            }
        }
        out
    }

    /// Quiesce the pipeline and take a checkpoint that captures it whole.
    ///
    /// The engine snapshot is stamped with this wiring's adapter positions
    /// ([`Checkpoint::adapters`](crate::Checkpoint)), and its offset is the
    /// **base**-stream position — the session's offset minus the derived
    /// events this wiring injected — so a resumed session re-attaches the
    /// collector source at the right place and nothing is re-derived: the
    /// pre-checkpoint alerts already live inside the restored query state.
    /// Returns the checkpoint and any alerts produced while quiescing.
    pub fn checkpoint(
        &mut self,
        session: &mut RunSession,
    ) -> Result<(crate::Checkpoint, Vec<Alert>), EngineError> {
        let alerts = self.quiesce(session);
        let offset = session.offset().saturating_sub(self.derived_pushed);
        let frontier = session.frontier();
        let mut checkpoint = session.engine().checkpoint(offset, frontier)?;
        checkpoint.adapters = self.adapter_seqs();
        Ok((checkpoint, alerts))
    }

    /// Layered end-of-stream drain. Stages flush in topological order
    /// (shallow first): each layer's final window alerts transfer to its
    /// dependents *before* those flush in turn, so stage-2 sees stage-1's
    /// last windows — exactly like hand-chained engines finishing in
    /// sequence. Closes the derived-event channels at the end, so a
    /// subsequent `session.drain()` terminates.
    pub fn finish_stages(&mut self, session: &mut RunSession) -> Vec<Alert> {
        let mut out = self.quiesce(session);
        // Flush every query some dependent consumes, shallow first.
        let mut flush: Vec<(u64, QueryId)> = Vec::new();
        {
            let engine = session.engine();
            let mut depth: HashMap<QueryId, u64> = HashMap::new();
            for (_, up) in engine.pipeline_edges() {
                let d = depth_of(engine, up, &mut depth);
                if !flush.iter().any(|(_, id)| *id == up) {
                    flush.push((d, up));
                }
            }
        }
        flush.sort_by_key(|(d, id)| (*d, id.index()));
        for (_, id) in flush {
            match session.engine().flush_query(id) {
                Ok(_) => {}
                Err(_) => continue,
            }
            // The flushed alerts are routed to the upstream's subscribers;
            // move them through the adapter and let dependents process
            // them (their own windows may close and cascade — quiesce).
            out.extend(self.quiesce(session));
        }
        // End of derived streams: dropping the push handles lets the
        // channel sources report done, so `session.drain()` terminates.
        for edge in &mut self.edges {
            edge.push = None;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryId;

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
}
