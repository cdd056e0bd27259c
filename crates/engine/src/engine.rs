//! The engine facade: the query *control plane* over a running stream.
//!
//! [`Engine::register`] attaches a SAQL query to a live engine and returns a
//! [`QueryId`] handle; [`deregister`](Engine::deregister) and
//! [`pause`](Engine::pause)/[`resume`](Engine::resume) operate on that
//! handle **mid-stream**, whatever [`EngineConfig::workers`] is: each is one
//! control message to the engine's runtime, applied in place when the
//! engine runs on the caller's thread and shipped in-band, at a batch
//! boundary, when it runs on workers. Alerts come back only from the
//! data-plane calls. This is the analyst-session model of the paper:
//! queries are submitted, tuned, and retired against a stream that never
//! stops.

use saql_lang::{LangError, Span};
use saql_stream::{EventBatch, SharedEvent, DEFAULT_BATCH_SIZE};

use crate::alert::Alert;
use crate::checkpoint::{Checkpoint, CheckpointRow, RowStatus};
use crate::error::EngineError;
use crate::query::{QueryStats, RunningQuery};
use crate::runtime::Runtime;
use crate::scheduler::SchedulerStats;
use crate::shard::ControlMsg;

pub use crate::query::QueryId;

/// Engine-wide configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Track processing latency: one clock read pair per execution batch,
    /// recorded as that batch's amortised nanoseconds per event, with no
    /// influence on how events execute. Every shard records its own
    /// histogram; [`Engine::latency`] merges them.
    pub record_latency: bool,
    /// Worker threads. `0` (the default) runs every scheduler group on the
    /// calling thread; any other value deals the groups across that many
    /// workers, each fed every batch over a bounded channel. Same queries,
    /// same alerts — in emission order at `0`, as a multiset otherwise.
    pub workers: usize,
}

/// One registry row; the row index is the query's [`QueryId`].
struct QueryEntry {
    name: String,
    /// Retained SAQL source text, so checkpoints can recompile the exact
    /// plan on [`Engine::resume_from`].
    source: String,
    status: RowStatus,
    /// Upstream query name when this row is a pipeline stage (`from query
    /// NAME`) — deregistration of an upstream with live dependents is
    /// refused.
    input: Option<String>,
}

/// The SAQL anomaly query engine.
///
/// ```
/// use saql_engine::Engine;
/// use saql_model::event::EventBuilder;
/// use saql_model::ProcessInfo;
/// use std::sync::Arc;
///
/// let mut engine = Engine::new(Default::default());
/// engine
///     .register("osql-start", "proc p1[\"%cmd.exe\"] start proc p2[\"%osql.exe\"] as e1\nreturn p1, p2")
///     .unwrap();
/// let event = Arc::new(
///     EventBuilder::new(1, "db-server", 1_000)
///         .subject(ProcessInfo::new(10, "cmd.exe", "admin"))
///         .starts_process(ProcessInfo::new(11, "osql.exe", "admin"))
///         .build(),
/// );
/// let alerts = engine.process(&event).unwrap();
/// assert_eq!(alerts.len(), 1);
/// assert_eq!(alerts[0].query, "osql-start");
/// ```
pub struct Engine {
    runtime: Runtime,
    /// Registry of every query ever registered; row index == `QueryId`.
    /// Ids are never reused, so deregistered rows stay as tombstones.
    registry: Vec<QueryEntry>,
    /// Alerts produced by control-plane operations (e.g. the window flush
    /// of a deregistered query) waiting to be returned by the next
    /// [`process`](Self::process)/[`sync`](Self::sync)/[`finish`](Self::finish)
    /// call.
    pending: Vec<Alert>,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            runtime: Runtime::new(&config),
            registry: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Worker threads in use (`0` = execution on the caller's thread).
    pub fn workers(&self) -> usize {
        self.runtime.workers()
    }

    /// Latency histogram — one sample per execution batch, its amortised
    /// ns per event — when [`EngineConfig::record_latency`] is on.
    ///
    /// Like every counter, it is live at `workers == 0` and surfaces after
    /// [`finish`](Self::finish) otherwise. Each worker records the
    /// *processing* latency of its own groups (workers overlap in
    /// wall-clock time, so the merged histogram measures per-worker work,
    /// not end-to-end delivery).
    pub fn latency(&self) -> Option<saql_analytics::Histogram> {
        self.runtime.latency()
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    /// Parse, check, and attach a query to the engine — before the first
    /// event or live, mid-stream. Returns the [`QueryId`] handle for the
    /// other control-plane calls ([`deregister`](Self::deregister),
    /// [`pause`](Self::pause), [`resume`](Self::resume)). Compile errors
    /// carry spans renderable against `source` (see [`LangError::render`]);
    /// registering a name that is already live is rejected the same way, so
    /// [`query_stats`](Self::query_stats) names stay unambiguous.
    ///
    /// A live attach/detach session:
    ///
    /// ```
    /// use saql_engine::{Engine, EngineConfig};
    /// use saql_model::event::EventBuilder;
    /// use saql_model::ProcessInfo;
    /// use std::sync::Arc;
    ///
    /// let start = |id: u64, ts: u64, parent: &str, child: &str| Arc::new(
    ///     EventBuilder::new(id, "host", ts)
    ///         .subject(ProcessInfo::new(1, parent, "u"))
    ///         .starts_process(ProcessInfo::new(2, child, "u"))
    ///         .build(),
    /// );
    /// let mut engine = Engine::new(EngineConfig::default());
    ///
    /// // Attach a query: its alerts come back tagged with its id.
    /// let id = engine
    ///     .register("cmd-watch", "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2")
    ///     .unwrap();
    /// let alerts = engine.process(&start(1, 10, "cmd.exe", "osql.exe")).unwrap();
    /// assert_eq!(alerts[0].query_id, id);
    ///
    /// // Live names are exclusive while registered...
    /// assert!(engine.register("cmd-watch", "proc p start proc q as e\nreturn p").is_err());
    ///
    /// // ...detach mid-stream and the name frees up; the stream never stops.
    /// engine.deregister(id).unwrap();
    /// let id2 = engine
    ///     .register("cmd-watch", "proc p start proc q as e\nreturn p")
    ///     .unwrap();
    /// assert_ne!(id, id2, "ids are never reused");
    /// let alerts = engine.process(&start(2, 20, "cmd.exe", "calc.exe")).unwrap();
    /// assert_eq!(alerts.len(), 1);
    /// assert_eq!(alerts[0].query_id, id2);
    /// ```
    pub fn register(&mut self, name: &str, source: &str) -> Result<QueryId, LangError> {
        if let Err(finished) = self.runtime.live() {
            return Err(LangError::semantic(finished.to_string(), Span::default()));
        }
        if self
            .registry
            .iter()
            .any(|e| e.status != RowStatus::Removed && e.name == name)
        {
            return Err(LangError::semantic(
                crate::control::already_registered(name),
                Span::default(),
            ));
        }
        let mut query = RunningQuery::compile(name, source)?;
        if let Some(up) = query.pipeline_input() {
            if self.find(up).is_none() {
                let span = query.pipeline_input_span().unwrap_or_default();
                return Err(LangError::semantic(
                    format!(
                        "`from query {up}` references no registered query \
                         (register the upstream stage first)"
                    ),
                    span,
                ));
            }
        }
        let input = query.pipeline_input().map(str::to_string);
        let id = QueryId::new(self.registry.len());
        query.set_id(id);
        self.control(|runtime, arrived| runtime.add(query, arrived))
            .expect("runtime is live: finished engines reject register above");
        self.registry.push(QueryEntry {
            name: name.to_string(),
            source: source.to_string(),
            status: RowStatus::Active,
            input,
        });
        Ok(id)
    }

    /// Detach a query from the engine at the current stream position. Its
    /// open windows are flushed — those final alerts surface through the
    /// normal delivery path (the next [`process`](Self::process) /
    /// [`sync`](Self::sync) / [`finish`](Self::finish) return) — then the
    /// query, its stats, and its compatibility-group membership are gone. The id is retired, never reused; the name
    /// becomes available again.
    pub fn deregister(&mut self, id: QueryId) -> Result<(), EngineError> {
        self.runtime.live()?;
        self.expect_live(id)?;
        let name = &self.registry[id.index()].name;
        let dependents: Vec<&str> = self
            .registry
            .iter()
            .filter(|e| e.status != RowStatus::Removed && e.input.as_deref() == Some(name))
            .map(|e| e.name.as_str())
            .collect();
        if !dependents.is_empty() {
            return Err(EngineError::PipelineDependents {
                query: name.clone(),
                dependents: dependents.iter().map(|d| d.to_string()).collect(),
            });
        }
        let flushed = self.control(|runtime, arrived| runtime.remove(id, arrived))?;
        self.absorb(flushed);
        self.registry[id.index()].status = RowStatus::Removed;
        Ok(())
    }

    /// Flush one live query's open windows at the current stream position
    /// without deregistering it — the pipeline layered drain: upstream
    /// stages flush first so their final window alerts can still feed
    /// dependents before *those* flush in turn. The flushed alerts are
    /// buffered for the next data-plane call like any control-plane alert.
    pub fn flush_query(&mut self, id: QueryId) -> Result<(), EngineError> {
        let flushed = self.query_control(id, ControlMsg::Flush)?;
        self.absorb(flushed);
        Ok(())
    }

    /// Synchronize with the data plane: when this returns, every event fed
    /// so far has been fully processed, and every alert it produced that
    /// no data-plane call returned yet is returned here — control-plane
    /// alerts buffered for the next call included. Execution on the caller's thread is always synchronous, so
    /// this costs nothing there; with workers it is a barrier. A session
    /// with pipeline stages syncs each round before punctuating them, so a
    /// punctuation can never outrun an upstream alert still being computed
    /// on a worker.
    pub fn sync(&mut self) -> Result<Vec<Alert>, EngineError> {
        self.control(|runtime, arrived| runtime.sync(arrived))?;
        Ok(std::mem::take(&mut self.pending))
    }

    /// Detach a query from the stream without removing it: while paused it
    /// sees no events and no time, and emits nothing. Idempotent.
    pub fn pause(&mut self, id: QueryId) -> Result<(), EngineError> {
        self.query_control(id, ControlMsg::Pause)?;
        self.registry[id.index()].status = RowStatus::Paused;
        Ok(())
    }

    /// Re-attach a paused query at the current stream position. Events
    /// that arrived during the pause are gone for this query; stream time
    /// catches up on the next event. Idempotent.
    pub fn resume(&mut self, id: QueryId) -> Result<(), EngineError> {
        self.query_control(id, ControlMsg::Resume)?;
        self.registry[id.index()].status = RowStatus::Active;
        Ok(())
    }

    /// Whether this id names a live (active or paused) query.
    pub fn contains(&self, id: QueryId) -> bool {
        self.registry
            .get(id.index())
            .is_some_and(|e| e.status != RowStatus::Removed)
    }

    /// Whether this live query is currently paused.
    pub fn is_paused(&self, id: QueryId) -> bool {
        self.registry
            .get(id.index())
            .is_some_and(|e| e.status == RowStatus::Paused)
    }

    /// The live query registered under `name`, if any.
    pub fn find(&self, name: &str) -> Option<QueryId> {
        self.registry
            .iter()
            .position(|e| e.status != RowStatus::Removed && e.name == name)
            .map(QueryId::new)
    }

    /// Live query names, in registration order.
    pub fn query_names(&self) -> Vec<String> {
        self.registry
            .iter()
            .filter(|e| e.status != RowStatus::Removed)
            .map(|e| e.name.clone())
            .collect()
    }

    /// The name of a live query.
    pub fn name_of(&self, id: QueryId) -> Option<&str> {
        self.registry
            .get(id.index())
            .filter(|e| e.status != RowStatus::Removed)
            .map(|e| e.name.as_str())
    }

    /// The SAQL text a live query was registered with.
    pub fn source_of(&self, id: QueryId) -> Option<&str> {
        self.registry
            .get(id.index())
            .filter(|e| e.status != RowStatus::Removed)
            .map(|e| e.source.as_str())
    }

    /// The upstream a live query consumes (`from query NAME`), if it is a
    /// pipeline stage.
    pub fn input_of(&self, id: QueryId) -> Option<&str> {
        self.registry
            .get(id.index())
            .filter(|e| e.status != RowStatus::Removed)
            .and_then(|e| e.input.as_deref())
    }

    /// Live pipeline edges as `(downstream, upstream)` ids, in
    /// registration order — the topology the session-level pipeline
    /// wiring (and `saql explain`) reconstructs after a resume.
    pub fn pipeline_edges(&self) -> Vec<(QueryId, QueryId)> {
        self.registry
            .iter()
            .enumerate()
            .filter(|(_, e)| e.status != RowStatus::Removed)
            .filter_map(|(i, e)| {
                let up = e.input.as_deref()?;
                Some((QueryId::new(i), self.find(up)?))
            })
            .collect()
    }

    /// Live query ids, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.registry
            .iter()
            .enumerate()
            .filter(|(_, e)| e.status != RowStatus::Removed)
            .map(|(i, _)| QueryId::new(i))
            .collect()
    }

    fn expect_live(&self, id: QueryId) -> Result<(), EngineError> {
        if self.contains(id) {
            Ok(())
        } else {
            Err(EngineError::UnknownQuery(id))
        }
    }

    /// Run one control-plane operation on the runtime, absorbing the
    /// alerts that arrived from the workers while it waited.
    fn control<T>(
        &mut self,
        op: impl FnOnce(&mut Runtime, &mut Vec<Alert>) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let mut arrived = Vec::new();
        let out = op(&mut self.runtime, &mut arrived);
        self.absorb(arrived);
        out
    }

    /// Apply one per-query control message to a live query and return the
    /// alerts it answered with.
    fn query_control(
        &mut self,
        id: QueryId,
        msg: fn(QueryId) -> ControlMsg,
    ) -> Result<Vec<Alert>, EngineError> {
        self.runtime.live()?;
        self.expect_live(id)?;
        let reply = self.control(|runtime, arrived| runtime.control(id, msg, arrived))?;
        Ok(reply.alerts)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of scheduler compatibility groups currently formed.
    pub fn group_count(&self) -> usize {
        self.runtime.group_count()
    }

    /// Execution counters, merged across shards. Like every counter below
    /// they are read from the shards themselves: live at `workers == 0`;
    /// with workers, zero while the stream runs and complete once
    /// [`finish`](Self::finish) has brought the shards home.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.runtime.stats()
    }

    /// Per-worker `(shard id, counters)` — the work-partition view, after
    /// [`finish`](Self::finish). Empty at `workers == 0`, where
    /// [`scheduler_stats`](Self::scheduler_stats) is the whole engine.
    pub fn shard_stats(&self) -> Vec<(usize, SchedulerStats)> {
        self.runtime.shard_stats()
    }

    /// Per-query execution stats, `(name, stats)` in arbitrary order, for
    /// live queries (deregistered queries leave with their stats).
    pub fn query_stats(&self) -> Vec<(String, QueryStats)> {
        self.runtime.query_stats()
    }

    /// Total runtime errors across queries (the error reporter), plus
    /// workers that died.
    pub fn error_count(&self) -> u64 {
        self.runtime.error_count()
    }

    /// Recent runtime error messages across queries.
    pub fn recent_errors(&self) -> Vec<String> {
        self.runtime.recent_errors()
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume
    // ------------------------------------------------------------------

    /// Capture the engine's full dynamic state at the current stream
    /// position: every registered query's window/group/invariant/
    /// partial-match state plus its name, source text, and lifecycle
    /// status (tombstones included, so resumed [`QueryId`]s align with the
    /// original run's). `offset` is the position of the next unprocessed
    /// event in the durable store; `frontier` is the session's merge
    /// frontier at that position — both are carried verbatim so
    /// [`resume_from`](Self::resume_from) can reattach the store exactly
    /// where this run left off.
    ///
    /// Must be taken at a batch boundary (between `process*` calls —
    /// [`crate::RunSession`] checkpoints there). With workers the snapshot
    /// request rides the shard channels in-band, so the captured state is
    /// the same at every worker count. Alerts arriving during the barrier
    /// surface on the next data-plane call, as with any control-plane
    /// operation.
    pub fn checkpoint(
        &mut self,
        offset: u64,
        frontier: saql_model::Timestamp,
    ) -> Result<Checkpoint, EngineError> {
        let mut by_id = self.control(|runtime, arrived| runtime.snapshots(arrived))?;
        let mut rows = Vec::with_capacity(self.registry.len());
        for (i, entry) in self.registry.iter().enumerate() {
            let snapshot = match entry.status {
                RowStatus::Removed => None,
                _ => Some(by_id.remove(&QueryId::new(i)).ok_or_else(|| {
                    EngineError::Checkpoint(format!(
                        "state for query `{}` is missing from the runtime \
                         (a shard worker died?)",
                        entry.name
                    ))
                })?),
            };
            rows.push(CheckpointRow {
                name: entry.name.clone(),
                source: entry.source.clone(),
                status: entry.status,
                snapshot,
            });
        }
        Ok(Checkpoint {
            offset,
            frontier,
            rows,
            // Pipeline adapter positions are session-level state: the
            // wiring layer stamps them before the checkpoint is written.
            adapters: Vec::new(),
        })
    }

    /// Reconstruct an engine from a [`checkpoint`](Self::checkpoint):
    /// every query is recompiled from its retained source, its dynamic
    /// state is restored exactly, and its [`QueryId`] is its original
    /// registry index (tombstones are replayed so ids align). Feeding the
    /// resumed engine the event suffix from the checkpoint's `offset`
    /// yields the same alerts the uninterrupted run would have produced
    /// from that position — in order at `workers == 0`, as a multiset
    /// otherwise.
    ///
    /// `config` is free: the worker count and latency tracking change
    /// neither the alerts nor the state.
    ///
    /// A row whose state does not fit its recompiled plan (see
    /// [`RunningQuery::restore`]) fails the resume with
    /// [`EngineError::Checkpoint`] naming the query.
    pub fn resume_from(
        checkpoint: Checkpoint,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        let mut engine = Engine::new(config);
        for (i, row) in checkpoint.rows.into_iter().enumerate() {
            let mut input = None;
            if row.status != RowStatus::Removed {
                let mut query = RunningQuery::compile(&row.name, &row.source).map_err(|e| {
                    EngineError::Checkpoint(format!(
                        "query `{}` no longer compiles: {}",
                        row.name, e.message
                    ))
                })?;
                input = query.pipeline_input().map(str::to_string);
                query.set_id(QueryId::new(i));
                let snap = row.snapshot.ok_or_else(|| {
                    EngineError::Checkpoint(format!(
                        "checkpoint row for live query `{}` carries no state",
                        row.name
                    ))
                })?;
                query
                    .restore(snap)
                    .map_err(|e| EngineError::Checkpoint(format!("query `{}`: {e}", row.name)))?;
                query.set_paused(row.status == RowStatus::Paused);
                engine.control(|runtime, arrived| runtime.add(query, arrived))?;
            }
            engine.registry.push(QueryEntry {
                name: row.name,
                source: row.source,
                status: row.status,
                input,
            });
        }
        Ok(engine)
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Push one event through all registered queries: a one-row
    /// [`process_batch`](Self::process_batch), with the same contract.
    pub fn process(&mut self, event: &SharedEvent) -> Result<Vec<Alert>, EngineError> {
        self.process_batch(&EventBatch::from_events(vec![event.clone()]))
    }

    /// Push a run of consecutive events through all registered queries —
    /// the engine's one execution path (see
    /// [`crate::scheduler::Scheduler::process_batch`]). The alerts and
    /// every counter are independent of how the stream is cut into batches.
    ///
    /// At `workers == 0` the return is this batch's alerts, in emission
    /// order. With workers the batch is broadcast as given and the return
    /// is whatever alerts have arrived from them so far (everything is in
    /// by [`finish`](Self::finish)); an empty batch just collects. Alerts
    /// buffered by control-plane operations (a deregistration's window
    /// flush) are prepended either way.
    ///
    /// Returns [`EngineError::EngineFinished`] on a finished worker-backed
    /// engine (its workers are gone, so the events would be silently
    /// lost); at `workers == 0` the engine stays operable after
    /// [`finish`](Self::finish) and never fails here.
    pub fn process_batch(&mut self, batch: &EventBatch) -> Result<Vec<Alert>, EngineError> {
        let fresh = self.runtime.process_batch(batch)?;
        Ok(self.drain_pending(fresh))
    }

    /// Events per execution batch ([`DEFAULT_BATCH_SIZE`]) — the chunk
    /// size the session pump feeds [`process_batch`](Self::process_batch)
    /// with. The alerts do not depend on it.
    pub fn batch_size(&self) -> usize {
        DEFAULT_BATCH_SIZE
    }

    /// Drive an entire stream and flush; returns all alerts — in emission
    /// order at `workers == 0`, the same alerts as a multiset (interleaved
    /// across workers) otherwise.
    ///
    /// A thin wrapper over [`session`](Self::session): one
    /// [arrival-order](saql_stream::Lateness::ArrivalOrder) iterator source,
    /// which passes the caller's stream through untouched (no reordering,
    /// no late drops), drained like any session — registered `|>`
    /// pipelines included. Multi-source or live ingestion goes through
    /// [`Engine::session`] directly.
    ///
    /// Like [`process_batch`](Self::process_batch), returns
    /// [`EngineError::EngineFinished`] on a finished worker-backed engine —
    /// its workers are gone, so the stream would be silently lost.
    pub fn run(
        &mut self,
        stream: impl IntoIterator<Item = SharedEvent>,
    ) -> Result<Vec<Alert>, EngineError> {
        self.runtime.live()?;
        let mut session = self.session();
        session.attach_with(
            saql_stream::source::IterSource::new("run", stream),
            saql_stream::Lateness::ArrivalOrder,
        );
        Ok(session.drain())
    }

    /// Flush end-of-stream state: close remaining windows, and drain and
    /// join the workers if there are any.
    pub fn finish(&mut self) -> Vec<Alert> {
        let fresh = self.runtime.finish();
        self.drain_pending(fresh)
    }

    /// Buffer control-plane alerts for the next data-plane return.
    fn absorb(&mut self, alerts: Vec<Alert>) {
        self.pending.extend(alerts);
    }

    /// Prepend buffered control-plane alerts to a data-plane batch.
    fn drain_pending(&mut self, fresh: Vec<Alert>) -> Vec<Alert> {
        if self.pending.is_empty() {
            return fresh;
        }
        let mut alerts = std::mem::take(&mut self.pending);
        alerts.extend(fresh);
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::{ProcessInfo, Timestamp};
    use std::sync::Arc;

    fn start(id: u64, ts: u64, parent: &str, child: &str) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "h", ts)
                .subject(ProcessInfo::new(1, parent, "u"))
                .starts_process(ProcessInfo::new(2, child, "u"))
                .build(),
        )
    }

    #[test]
    fn register_and_run() {
        let mut e = Engine::new(EngineConfig::default());
        e.register(
            "q",
            "proc p1[\"%cmd.exe\"] start proc p2 as e1\nreturn p1, p2",
        )
        .unwrap();
        let alerts = e
            .run(vec![
                start(1, 10, "cmd.exe", "osql.exe"),
                start(2, 20, "explorer.exe", "notepad.exe"),
            ])
            .unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].get("p2"), Some("osql.exe"));
    }

    #[test]
    fn register_error_carries_span() {
        let mut e = Engine::new(EngineConfig::default());
        let err = e
            .register("bad", "proc p teleport proc q as e\nreturn p")
            .unwrap_err();
        assert!(err.message.contains("teleport"));
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn duplicate_names_rejected_until_deregistered() {
        let src = "proc p start proc q as e\nreturn p";
        for workers in [0usize, 2] {
            let mut e = Engine::new(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            let id = e.register("watch", src).unwrap();
            let err = e.register("watch", src).unwrap_err();
            assert!(err.message.contains("already registered"), "{err:?}");
            // The engine is untouched by the rejected registration.
            assert_eq!(e.query_names(), vec!["watch".to_string()]);
            e.deregister(id).unwrap();
            let id2 = e.register("watch", src).unwrap();
            assert_ne!(id, id2);
            assert_eq!(e.query_names(), vec!["watch".to_string()]);
        }
    }

    #[test]
    fn control_plane_rejects_unknown_ids() {
        let mut e = Engine::new(EngineConfig::default());
        let ghost = QueryId::new(7);
        assert!(matches!(
            e.deregister(ghost),
            Err(EngineError::UnknownQuery(id)) if id == ghost
        ));
        assert!(e.pause(ghost).is_err());
        assert!(e.resume(ghost).is_err());
        let id = e
            .register("q", "proc p start proc q as e\nreturn p")
            .unwrap();
        e.deregister(id).unwrap();
        assert!(e.deregister(id).is_err(), "retired ids are not live");
        assert!(!e.contains(id));
    }

    #[test]
    fn parallel_control_plane_errors_after_finish_instead_of_panicking() {
        let src = "proc p start proc q as e\nreturn p";
        let mut e = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let id = e.register("q", src).unwrap();
        e.run(vec![start(1, 10, "a.exe", "b.exe")]).unwrap(); // run() ends in finish()
        assert!(matches!(e.deregister(id), Err(EngineError::EngineFinished)));
        assert!(matches!(e.pause(id), Err(EngineError::EngineFinished)));
        assert!(matches!(e.resume(id), Err(EngineError::EngineFinished)));
        let err = e.register("late", src).unwrap_err();
        assert!(err.message.contains("already finished"), "{err:?}");
        // Locationless: no caret blaming the (valid) query text.
        assert!(!err.render(src).contains('^'), "{}", err.render(src));
        // The data plane reports the finished engine too.
        assert!(matches!(
            e.process(&start(2, 20, "a.exe", "b.exe")),
            Err(EngineError::EngineFinished)
        ));
        // ...and so do whole-stream runs: nothing is silently dropped.
        assert!(matches!(
            e.run(vec![start(3, 30, "a.exe", "b.exe")]),
            Err(EngineError::EngineFinished)
        ));
        // Without workers the engine stays fully operable after finish.
        let mut s = Engine::new(EngineConfig::default());
        let sid = s.register("q", src).unwrap();
        s.run(vec![start(1, 10, "a.exe", "b.exe")]).unwrap();
        s.pause(sid).unwrap();
        s.resume(sid).unwrap();
        s.deregister(sid).unwrap();
        s.register("q2", src).unwrap();
        assert_eq!(s.process(&start(2, 20, "a.exe", "b.exe")).unwrap().len(), 1);
    }

    #[test]
    fn multiple_queries_grouped() {
        let mut e = Engine::new(EngineConfig::default());
        for i in 0..8 {
            e.register(&format!("q{i}"), "proc p start proc q as e\nreturn p")
                .unwrap();
        }
        assert_eq!(e.group_count(), 1);
        assert_eq!(e.query_names().len(), 8);
        assert_eq!(e.query_ids().len(), 8);
    }

    #[test]
    fn deregister_flushes_open_windows_through_normal_delivery() {
        for workers in [0usize, 2] {
            let mut e = Engine::new(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            let id = e
                .register(
                    "w",
                    "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n",
                )
                .unwrap();
            let write = Arc::new(
                EventBuilder::new(1, "h", 1_000)
                    .subject(ProcessInfo::new(1, "x.exe", "u"))
                    .sends(saql_model::NetworkInfo::new(
                        "10.0.0.2", 44000, "1.1.1.1", 443, "tcp",
                    ))
                    .amount(5)
                    .build(),
            );
            assert!(e.process(&write).unwrap().is_empty(), "window still open");
            e.deregister(id).unwrap();
            // The flush came back with the removal, on every worker count,
            // and surfaces on the next data-plane call.
            let alerts = e.process(&start(2, 2_000, "a.exe", "b.exe")).unwrap();
            assert_eq!(alerts.len(), 1, "workers={workers}");
            assert_eq!(alerts[0].query_id, id);
            assert!(e.query_stats().is_empty(), "stats left with the query");
        }
    }

    #[test]
    fn pause_and_resume_mid_stream_serial_matches_parallel() {
        let run = |workers: usize| -> Vec<String> {
            let mut e = Engine::new(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            let id = e
                .register(
                    "q",
                    "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
                )
                .unwrap();
            let mut alerts = Vec::new();
            alerts.extend(e.process(&start(1, 10, "cmd.exe", "a.exe")).unwrap());
            e.pause(id).unwrap();
            assert!(e.is_paused(id));
            alerts.extend(e.process(&start(2, 20, "cmd.exe", "b.exe")).unwrap());
            e.resume(id).unwrap();
            assert!(!e.is_paused(id));
            alerts.extend(e.process(&start(3, 30, "cmd.exe", "c.exe")).unwrap());
            alerts.extend(e.finish());
            let mut keys: Vec<String> = alerts.iter().map(|a| a.to_string()).collect();
            keys.sort();
            keys
        };
        let serial = run(0);
        assert_eq!(serial.len(), 2, "event 2 fell inside the pause");
        for workers in [1usize, 2, 4] {
            assert_eq!(run(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn latency_tracking_records_one_sample_per_batch_per_shard() {
        // 50 events in batches of 16: four batches (the last one partial).
        for (workers, samples) in [(0usize, 4u64), (2, 8)] {
            let mut e = Engine::new(EngineConfig {
                record_latency: true,
                workers,
            });
            e.register("q", "proc p start proc q as e\nreturn p")
                .unwrap();
            let events: Vec<_> = (0..50)
                .map(|i| start(i, i * 10, "a.exe", "b.exe"))
                .collect();
            for chunk in events.chunks(16) {
                e.process_batch(&EventBatch::from_events(chunk.to_vec()))
                    .unwrap();
            }
            e.finish();
            let hist = e.latency().expect("tracking enabled");
            assert_eq!(hist.count(), samples, "workers={workers}");
            assert!(hist.quantile(0.5).unwrap() > 0);
        }
        // Disabled by default.
        let e2 = Engine::new(EngineConfig::default());
        assert!(e2.latency().is_none());
    }

    #[test]
    fn parallel_backend_matches_serial_results() {
        let events: Vec<SharedEvent> = (0..100)
            .map(|i| {
                if i % 3 == 0 {
                    start(i, i * 1_000, "cmd.exe", "osql.exe")
                } else {
                    start(i, i * 1_000, "explorer.exe", "notepad.exe")
                }
            })
            .collect();
        let sources = [
            (
                "a",
                "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
            ),
            (
                "b",
                "proc p1 start proc p2[\"%notepad.exe\"] as e\nreturn p1, p2",
            ),
        ];
        let mut serial = Engine::new(EngineConfig::default());
        let mut parallel = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        assert_eq!(serial.workers(), 0);
        assert_eq!(parallel.workers(), 2);
        for (name, src) in sources {
            serial.register(name, src).unwrap();
            parallel.register(name, src).unwrap();
        }
        let norm = |mut v: Vec<Alert>| {
            let mut keys: Vec<String> = v.drain(..).map(|a| format!("{}|{a}", a.query)).collect();
            keys.sort();
            keys
        };
        let serial_alerts = norm(serial.run(events.clone()).unwrap());
        let parallel_alerts = norm(parallel.run(events).unwrap());
        assert_eq!(serial_alerts, parallel_alerts);
        assert_eq!(
            parallel.scheduler_stats().events,
            serial.scheduler_stats().events
        );
        assert_eq!(parallel.query_stats().len(), 2);
        assert!(parallel.latency().is_none());
        // The facade surfaces the per-shard work partition after finish.
        let shards = parallel.shard_stats();
        assert_eq!(shards.len(), 2);
        assert_eq!(
            shards.iter().map(|(_, s)| s.master_checks).sum::<u64>(),
            serial.scheduler_stats().master_checks
        );
        assert!(serial.shard_stats().is_empty(), "no worker rows inline");
    }

    #[test]
    fn run_streams_json() {
        let mut e = Engine::new(EngineConfig::default());
        e.register("q", "proc p start proc q as e\nreturn p, q")
            .unwrap();
        let alerts = e.run(vec![start(1, 10, "cmd.exe", "osql.exe")]).unwrap();
        assert_eq!(alerts.len(), 1);
        let text = crate::render_alert_json(&alerts[0]);
        assert!(text.contains("\"query\":\"q\""), "{text}");
        assert!(text.contains("\"query_id\":0"), "{text}");
        assert!(text.contains("\"p\":\"cmd.exe\""), "{text}");
    }

    /// Checkpoint a one-query engine after `events`, let `forge` edit the
    /// query's state, and resume from the result.
    fn resume_forged(
        src: &str,
        events: Vec<SharedEvent>,
        forge: impl FnOnce(&mut crate::query::QuerySnapshot),
    ) -> Result<Engine, EngineError> {
        let mut e = Engine::new(EngineConfig::default());
        e.register("q", src).unwrap();
        for event in &events {
            e.process(event).unwrap();
        }
        let mut ckpt = e.checkpoint(events.len() as u64, Timestamp::ZERO).unwrap();
        forge(ckpt.rows[0].snapshot.as_mut().unwrap());
        Engine::resume_from(ckpt, EngineConfig::default())
    }

    fn refused(resumed: Result<Engine, EngineError>) -> String {
        let err = resumed
            .err()
            .expect("the forged checkpoint must be refused");
        assert!(matches!(err, EngineError::Checkpoint(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("query `q`"), "{msg}");
        msg
    }

    #[test]
    fn resume_refuses_a_partial_match_step_outside_the_plan() {
        let resumed = resume_forged("proc p start proc q as e\nreturn p", vec![], |snap| {
            let matcher = snap.matcher.as_mut().unwrap();
            matcher.partials.push(crate::matcher::PartialSnapshot {
                seq: 0,
                next: 7,
                events: vec![None],
                bindings: vec![None, None],
                last_ts: Timestamp::ZERO,
            });
        });
        refused(resumed);
    }

    #[test]
    fn resume_refuses_a_short_accumulator_list() {
        let src = "proc p write ip i as evt #time(1 min)\n\
                   state ss { n := count()\n total := sum(evt.amount) } group by p\n\
                   return p, ss[0].total";
        let write = Arc::new(
            EventBuilder::new(1, "h", 1_000)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .sends(saql_model::NetworkInfo::new(
                    "10.0.0.2", 44000, "1.1.1.1", 443, "tcp",
                ))
                .amount(5)
                .build(),
        );
        let resumed = resume_forged(src, vec![write], |snap| {
            let state = snap.state.as_mut().unwrap();
            state.open[0].1[0].accums.pop();
        });
        refused(resumed);
    }

    #[test]
    fn stats_and_errors_accessible() {
        let mut e = Engine::new(EngineConfig::default());
        e.register("q", "proc p start proc q as e\nreturn p")
            .unwrap();
        e.run(vec![start(1, 10, "a", "b")]).unwrap();
        let stats = e.query_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.alerts, 1);
        assert_eq!(e.error_count(), 0);
        assert!(e.recent_errors().is_empty());
    }
}
