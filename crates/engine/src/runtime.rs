//! The parallel sharded execution runtime: scheduler groups partitioned
//! across worker threads, events fanned out in batches.
//!
//! ```text
//!                 ┌── bounded batch channel ──► worker 0 (groups 0, N, …)──┐
//!   coordinator ──┼── bounded batch channel ──► worker 1 (groups 1, …)    ─┼─► merged
//!   (batches the  └── bounded batch channel ──► worker N-1 (…)           ──┘   alert
//!    event stream)                                                            channel
//! ```
//!
//! Design points:
//!
//! * **Groups are the sharding unit.** Queries are grouped by compatibility
//!   key first (preserving the master–dependent sharing win), then whole
//!   groups are dealt round-robin across shards. Two compatible queries
//!   never land on different shards.
//! * **Every shard sees every event.** Windows close on stream time, so a
//!   shard cannot skip events that miss its shapes; the coordinator
//!   broadcasts each [`EventBatch`] to all workers. Batches carry
//!   `Arc<Event>`s, so the broadcast clones handles, never payloads.
//! * **Key-partitioned queries** (opt-in via
//!   [`ParallelConfig::key_partitioning`]). A query whose state is keyed
//!   purely by group key ([`RunningQuery::partition_decision`]) is
//!   replicated to *every* shard instead of being pinned to one; replica
//!   `i` owns the rows whose key tuple hashes to `i mod workers` and
//!   skips the rest before field evaluation. Batches still broadcast in
//!   full — every replica's window clock then evolves exactly as the
//!   serial scheduler's, which is what keeps the serial/parallel alert
//!   multiset equivalence intact under lateness — but the per-row field
//!   programs, state observes, and deliveries split ~1/N per shard with
//!   zero duplicates. Control messages fan out to all shards for such
//!   queries, and [`query_snapshots`](ParallelEngine::query_snapshots)
//!   merges the per-replica [`QuerySnapshot`]s back into one canonical
//!   snapshot, so checkpoints are worker-count independent (resume may
//!   re-split at a different width).
//! * **Batched dispatch.** Events buffer into an [`EventBatch`] and ship
//!   when full, amortizing channel synchronization over
//!   [`ParallelConfig::batch_size`] events.
//! * **Non-blocking backpressure.** The coordinator never blocks on a full
//!   batch channel while alerts back up: it drains the merged alert channel
//!   between send retries, so a worker stalled on a full alert channel
//!   cannot deadlock the dispatcher.
//! * **Live query lifecycle.** Queries can be added, removed, paused, and
//!   resumed *mid-stream*: the coordinator flushes its partial batch, then
//!   ships a [`ControlMsg`] to the owning shard on the same bounded channel
//!   as the event batches. Each worker therefore sees a total order of
//!   batches and controls, so every lifecycle operation takes effect at an
//!   exact stream position — identical to performing it on the serial
//!   scheduler at that position (the work-partition audit and the
//!   serial/parallel equivalence property survive).
//! * **Graceful drain.** [`ParallelEngine::finish`] flushes the partial
//!   batch, closes the shard channels, drains alerts until every worker's
//!   sink disconnects, then joins workers and merges their
//!   [`ShardReport`]s into engine-wide [`SchedulerStats`].

use crossbeam::channel::{bounded, Receiver, TryRecvError, TrySendError};
use saql_stream::batch::DEFAULT_BATCH_SIZE;
use saql_stream::{EventBatch, SharedEvent};
use std::collections::HashMap;
use std::thread::JoinHandle;

use crate::alert::Alert;
use crate::error::EngineError;
use crate::query::{QueryConfig, QueryId, QuerySnapshot, QueryStats, RunningQuery};
use crate::scheduler::{SchedulerStats, ShardMerge};
use crate::shard::{run_worker, ControlMsg, Shard, ShardMsg, ShardReport};
use crate::sink::{AlertSink, ChannelSink};

/// Per-query state snapshots plus the alerts that surfaced while the
/// snapshot barrier drained (see [`ParallelEngine::query_snapshots`]).
type SnapshotsAndAlerts = (Vec<(QueryId, QuerySnapshot)>, Vec<Alert>);

/// Tuning knobs for the parallel runtime.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker threads (also the shard count). Zero clamps to one.
    pub workers: usize,
    /// Events per dispatched batch.
    pub batch_size: usize,
    /// Batches buffered per worker channel before the coordinator backs
    /// off.
    pub batch_backlog: usize,
    /// Alerts buffered in the merged channel before workers block.
    pub alert_backlog: usize,
    /// Track per-batch processing latency on every shard (histograms merge
    /// at [`ParallelEngine::finish`]).
    pub record_latency: bool,
    /// Replicate partitionable queries across all shards, each replica
    /// owning the groups whose key tuple hashes to its shard index — one
    /// heavy query's work then splits ~1/N per worker. Off by default:
    /// replicated groups run one master check per shard, so merged
    /// `master_checks` exceed the serial scheduler's (the group-sharded
    /// audit invariant).
    pub key_partitioning: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 4,
            batch_size: DEFAULT_BATCH_SIZE,
            batch_backlog: 4,
            alert_backlog: 4096,
            record_latency: false,
            key_partitioning: false,
        }
    }
}

impl ParallelConfig {
    /// Defaults with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers,
            ..ParallelConfig::default()
        }
    }

    fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.batch_size = self.batch_size.max(1);
        self.batch_backlog = self.batch_backlog.max(1);
        self.alert_backlog = self.alert_backlog.max(1);
        self
    }
}

/// Live worker-thread state while a stream is in flight.
struct Running {
    shard_txs: Vec<crossbeam::channel::Sender<ShardMsg>>,
    alerts_rx: Receiver<Alert>,
    reports_rx: Receiver<ShardReport>,
    handles: Vec<JoinHandle<()>>,
}

/// Coordinator-side record of one live (registered, not yet removed)
/// query: enough to route control messages to its owning shard.
struct QueryInfo {
    name: String,
    key: String,
    /// Key-partitioned queries are replicated to every shard; control
    /// messages fan out instead of routing to one owner.
    partitioned: bool,
}

/// Merged end-of-stream state, available after [`ParallelEngine::finish`].
#[derive(Debug, Default)]
struct Drained {
    stats: SchedulerStats,
    shard_stats: Vec<(usize, SchedulerStats)>,
    query_stats: Vec<(String, QueryStats)>,
    error_count: u64,
    recent_errors: Vec<String>,
    dropped_alerts: u64,
    dropped_by_query: HashMap<QueryId, u64>,
    latency: Option<saql_analytics::Histogram>,
}

/// A sharded, multi-threaded counterpart to the serial [`crate::Engine`]
/// execution path: same queries, same alerts (as a multiset), spread over
/// `workers` threads.
///
/// Lifecycle: [`add`](Self::add)/[`register`](Self::register) queries —
/// before the first event *or mid-stream* — then push events
/// ([`process`](Self::process) or [`run`](Self::run)); worker threads spawn
/// lazily on the first event and shut down in [`finish`](Self::finish).
/// While the stream is live, [`remove`](Self::remove),
/// [`pause`](Self::pause), and [`resume`](Self::resume) reconfigure the
/// deployment without stopping the workers. A finished engine can be
/// inspected ([`stats`](Self::stats), [`query_stats`](Self::query_stats))
/// but not restarted.
pub struct ParallelEngine {
    config: ParallelConfig,
    query_config: QueryConfig,
    /// Queries registered before the workers spawn.
    pending: Vec<RunningQuery>,
    /// Live queries in registration order (pending or shard-hosted).
    queries: Vec<(QueryId, QueryInfo)>,
    /// Next id handed out by [`register`](Self::register) (standalone use;
    /// the [`crate::Engine`] facade assigns ids itself and calls
    /// [`add`](Self::add)).
    next_id: usize,
    /// Compat key → owning shard, for queries currently hosted on workers.
    assignment: HashMap<String, usize>,
    /// Compat key → live member count on the owning shard.
    key_members: HashMap<String, usize>,
    /// Round-robin cursor for assigning fresh compat keys to shards.
    next_group: usize,
    /// Snapshot of the group count at drain time.
    group_count: usize,
    buffer: EventBatch,
    running: Option<Running>,
    drained: Option<Drained>,
}

impl ParallelEngine {
    pub fn new(config: ParallelConfig, query_config: QueryConfig) -> Self {
        let config = config.normalized();
        ParallelEngine {
            config,
            query_config,
            pending: Vec::new(),
            queries: Vec::new(),
            next_id: 0,
            assignment: HashMap::new(),
            key_members: HashMap::new(),
            next_group: 0,
            group_count: 0,
            buffer: EventBatch::with_capacity(config.batch_size),
            running: None,
            drained: None,
        }
    }

    /// Worker threads this runtime shards over.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Compile and register a query, before the first event or mid-stream.
    /// Returns the id to use for later control-plane calls.
    pub fn register(&mut self, name: &str, source: &str) -> Result<QueryId, saql_lang::LangError> {
        if self.ensure_not_drained().is_err() {
            return Err(saql_lang::LangError::semantic(
                EngineError::EngineFinished.to_string(),
                saql_lang::Span::default(),
            ));
        }
        let mut query = RunningQuery::compile(name, source, self.query_config)?;
        let id = QueryId::new(self.next_id);
        self.next_id += 1;
        query.set_id(id);
        self.add(query)
            .expect("drained state checked above; add cannot fail");
        Ok(id)
    }

    /// Register an already-compiled query (carrying its control-plane id).
    ///
    /// Legal at any stream position: before the workers spawn the query
    /// joins the pending set; afterwards the coordinator flushes its
    /// partial batch and ships an [`ControlMsg::AddQuery`] to the owning
    /// shard — a compat key already hosted somewhere keeps its shard, so
    /// the newcomer joins the existing group and shares its master. The
    /// returned alerts are any that arrived from the workers while
    /// flushing (delivery is asynchronous; see [`process`](Self::process)).
    ///
    /// After [`finish`](Self::finish) this returns
    /// [`EngineError::EngineFinished`]: the workers are gone, so the query
    /// could never observe an event (same lifecycle rule as
    /// [`process`](Self::process)).
    pub fn add(&mut self, query: RunningQuery) -> Result<Vec<Alert>, EngineError> {
        self.ensure_not_drained()?;
        let mut alerts = Vec::new();
        let partitioned = self.partitions(&query);
        self.queries.push((
            query.id(),
            QueryInfo {
                name: query.name().to_string(),
                key: query.compat_key().to_string(),
                partitioned,
            },
        ));
        self.next_id = self.next_id.max(query.id().index().saturating_add(1));
        if self.running.is_some() {
            self.flush_partial(&mut alerts);
            let key = query.compat_key().to_string();
            *self.key_members.entry(key.clone()).or_insert(0) += 1;
            if partitioned {
                // One replica per shard, each restored with a disjoint
                // slice of the query's (possibly restored) group state.
                for (shard, replica) in
                    query.replicas(self.config.workers).into_iter().enumerate()
                {
                    self.send_control(shard, ControlMsg::AddQuery(Box::new(replica)), &mut alerts);
                }
            } else {
                let shard = self.shard_for(&key);
                self.send_control(shard, ControlMsg::AddQuery(Box::new(query)), &mut alerts);
            }
        } else {
            self.pending.push(query);
        }
        Ok(alerts)
    }

    /// Whether this query runs key-partitioned under the current config.
    fn partitions(&self, query: &RunningQuery) -> bool {
        self.config.key_partitioning && query.partition_decision().is_ok()
    }

    /// Deregister a live query at the current stream position. Its pending
    /// window state is flushed (the returned/later-drained alerts include
    /// the flush), its compatibility group dissolves if it was the last
    /// member, and its per-query stats leave the engine with it. Unknown
    /// ids are a no-op.
    pub fn remove(&mut self, id: QueryId) -> Result<Vec<Alert>, EngineError> {
        self.ensure_not_drained()?;
        let mut alerts = Vec::new();
        let Some(pos) = self.queries.iter().position(|(qid, _)| *qid == id) else {
            return Ok(alerts);
        };
        let (_, info) = self.queries.remove(pos);
        if self.running.is_some() {
            self.flush_partial(&mut alerts);
            // A partitioned query has a replica on every shard, not an
            // owning shard in the assignment map.
            let shard = (!info.partitioned).then(|| self.assignment[&info.key]);
            let members = self
                .key_members
                .get_mut(&info.key)
                .expect("hosted key has a member count");
            *members -= 1;
            if *members == 0 {
                self.key_members.remove(&info.key);
                self.assignment.remove(&info.key);
            }
            match shard {
                Some(shard) => self.send_control(shard, ControlMsg::RemoveQuery(id), &mut alerts),
                None => {
                    for shard in 0..self.config.workers {
                        self.send_control(shard, ControlMsg::RemoveQuery(id), &mut alerts);
                    }
                }
            }
        } else {
            self.pending.retain(|q| q.id() != id);
        }
        Ok(alerts)
    }

    /// Flush one query's open windows in place — it stays registered and
    /// keeps running (the pipeline layered drain). Returns
    /// `(flushed, drained)`: the flushed window alerts of *this* query at
    /// the current stream position, plus any unrelated alerts that arrived
    /// while the barrier waited.
    pub fn flush_query(&mut self, id: QueryId) -> Result<(Vec<Alert>, Vec<Alert>), EngineError> {
        self.ensure_not_drained()?;
        let mut alerts = Vec::new();
        let Some((_, info)) = self.queries.iter().find(|(qid, _)| *qid == id) else {
            return Err(EngineError::UnknownQuery(id));
        };
        if self.running.is_none() {
            let flushed = self
                .pending
                .iter_mut()
                .find(|q| q.id() == id)
                .map(|q| q.finish())
                .unwrap_or_default();
            return Ok((flushed, alerts));
        }
        // Partitioned queries host one replica per shard, owning disjoint
        // groups — flush all of them and concatenate the disjoint results.
        let shards: Vec<usize> = if info.partitioned {
            (0..self.config.workers).collect()
        } else {
            vec![self.assignment[&info.key]]
        };
        self.flush_partial(&mut alerts);
        let (reply_tx, reply_rx) = bounded::<Vec<Alert>>(shards.len());
        for &shard in &shards {
            self.send_control(shard, ControlMsg::Flush(id, reply_tx.clone()), &mut alerts);
        }
        drop(reply_tx);
        let running = self
            .running
            .as_ref()
            .expect("running checked above; flush keeps workers alive");
        // Same non-deadlocking barrier as `query_snapshots`: the owning
        // worker may be blocked on a full alert channel ahead of the flush
        // message, so keep draining alerts while waiting for the replies.
        let mut flushed = Vec::new();
        let mut replies = 0usize;
        while replies < shards.len() {
            match reply_rx.recv_timeout(std::time::Duration::from_millis(1)) {
                Ok(batch) => {
                    flushed.extend(batch);
                    replies += 1;
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    drain_ready(&running.alerts_rx, &mut alerts);
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
        drain_ready(&running.alerts_rx, &mut alerts);
        Ok((flushed, alerts))
    }

    /// Barrier: dispatch the partial batch and wait until every worker has
    /// processed everything queued so far. Returns the alerts that arrived
    /// in the meantime. After `sync` returns, every query's clock reflects
    /// every event fed to the engine — the precondition for watermark
    /// punctuation on a derived (pipeline) stream.
    pub fn sync(&mut self) -> Result<Vec<Alert>, EngineError> {
        self.ensure_not_drained()?;
        let mut alerts = Vec::new();
        if self.running.is_none() {
            return Ok(alerts);
        }
        self.flush_partial(&mut alerts);
        let running = self
            .running
            .as_ref()
            .expect("running checked above; sync keeps workers alive");
        let expected = running.shard_txs.len();
        let (reply_tx, reply_rx) = bounded::<()>(expected);
        for tx in &running.shard_txs {
            send_draining(
                tx,
                ShardMsg::Control(ControlMsg::Sync(reply_tx.clone())),
                &running.alerts_rx,
                &mut alerts,
            );
        }
        drop(reply_tx);
        let mut replies = 0usize;
        // Same non-deadlocking barrier as `query_snapshots`: workers ahead
        // of the sync message may be blocked on a full alert channel.
        while replies < expected {
            match reply_rx.recv_timeout(std::time::Duration::from_millis(1)) {
                Ok(()) => replies += 1,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    drain_ready(&running.alerts_rx, &mut alerts);
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
        drain_ready(&running.alerts_rx, &mut alerts);
        Ok(alerts)
    }

    /// Detach a live query from the stream until [`resume`](Self::resume):
    /// it sees no events and no time, and emits nothing. Unknown ids are a
    /// no-op.
    pub fn pause(&mut self, id: QueryId) -> Result<Vec<Alert>, EngineError> {
        self.set_paused(id, true)
    }

    /// Re-attach a paused query at the current stream position.
    pub fn resume(&mut self, id: QueryId) -> Result<Vec<Alert>, EngineError> {
        self.set_paused(id, false)
    }

    fn set_paused(&mut self, id: QueryId, paused: bool) -> Result<Vec<Alert>, EngineError> {
        self.ensure_not_drained()?;
        let mut alerts = Vec::new();
        let Some((_, info)) = self.queries.iter().find(|(qid, _)| *qid == id) else {
            return Ok(alerts);
        };
        if self.running.is_some() {
            let shards: Vec<usize> = if info.partitioned {
                (0..self.config.workers).collect()
            } else {
                vec![self.assignment[&info.key]]
            };
            self.flush_partial(&mut alerts);
            for shard in shards {
                let msg = if paused {
                    ControlMsg::Pause(id)
                } else {
                    ControlMsg::Resume(id)
                };
                self.send_control(shard, msg, &mut alerts);
            }
        } else if let Some(q) = self.pending.iter_mut().find(|q| q.id() == id) {
            q.set_paused(paused);
        }
        Ok(alerts)
    }

    /// Whether a query with this id is live (registered and not removed).
    pub fn contains(&self, id: QueryId) -> bool {
        self.queries.iter().any(|(qid, _)| *qid == id)
    }

    /// Live query names, in registration order.
    pub fn query_names(&self) -> Vec<String> {
        self.queries
            .iter()
            .map(|(_, info)| info.name.clone())
            .collect()
    }

    /// Live query ids, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.iter().map(|(id, _)| *id).collect()
    }

    /// Compatibility groups across all shards.
    pub fn group_count(&self) -> usize {
        if self.drained.is_some() {
            return self.group_count;
        }
        if self.running.is_some() {
            return self.key_members.len();
        }
        let mut keys: Vec<&str> = self.pending.iter().map(|q| q.compat_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Push one event. Returns alerts that have *arrived* from workers so
    /// far — delivery is asynchronous, so they may stem from earlier events
    /// and alerts for this event may surface later (or in
    /// [`finish`](Self::finish)).
    ///
    /// Returns [`EngineError::EngineFinished`] after
    /// [`finish`](Self::finish): the workers are gone, so unlike the serial
    /// scheduler this engine cannot resume a drained stream (silently
    /// buffering the events would lose them).
    pub fn process(&mut self, event: &SharedEvent) -> Result<Vec<Alert>, EngineError> {
        self.ensure_not_drained()?;
        let mut alerts = Vec::new();
        self.ensure_started();
        self.buffer.push(event.clone());
        if self.buffer.is_full() {
            let batch = self.buffer.take();
            self.dispatch(batch, &mut alerts);
        } else if let Some(running) = &self.running {
            drain_ready(&running.alerts_rx, &mut alerts);
        }
        Ok(alerts)
    }

    /// Drive an entire stream to completion and return all alerts. Unlike
    /// the serial engine, ordering across queries is not stream order —
    /// equality with serial execution holds for the alert *multiset*.
    pub fn run(
        &mut self,
        stream: impl IntoIterator<Item = SharedEvent>,
    ) -> Result<Vec<Alert>, EngineError> {
        self.ensure_not_drained()?;
        let mut alerts = Vec::new();
        self.ensure_started();
        for event in stream {
            self.buffer.push(event);
            if self.buffer.is_full() {
                let batch = self.buffer.take();
                self.dispatch(batch, &mut alerts);
            }
        }
        alerts.extend(self.finish());
        Ok(alerts)
    }

    /// Drive a stream, delivering every alert to `sink` as it arrives from
    /// the workers. Returns the alert count.
    pub fn run_with_sink(
        &mut self,
        stream: impl IntoIterator<Item = SharedEvent>,
        sink: &mut dyn AlertSink,
    ) -> Result<u64, EngineError> {
        self.ensure_not_drained()?;
        let mut n = 0u64;
        let mut pending = Vec::new();
        self.ensure_started();
        for event in stream {
            self.buffer.push(event);
            if self.buffer.is_full() {
                let batch = self.buffer.take();
                self.dispatch(batch, &mut pending);
            }
            for alert in pending.drain(..) {
                n += 1;
                sink.deliver(&alert);
            }
        }
        for alert in self.finish() {
            n += 1;
            sink.deliver(&alert);
        }
        sink.flush();
        Ok(n)
    }

    /// End of stream: flush the partial batch, drain the workers, merge
    /// their reports, and return every remaining alert. Idempotent.
    pub fn finish(&mut self) -> Vec<Alert> {
        self.ensure_started();
        let mut alerts = Vec::new();
        self.flush_partial(&mut alerts);
        self.group_count = self.key_members.len();
        let Some(running) = self.running.take() else {
            return alerts;
        };
        // Closing the shard channels is the drain signal; workers flush
        // their remaining windows and hang up their alert sinks.
        drop(running.shard_txs);
        while let Ok(alert) = running.alerts_rx.recv() {
            alerts.push(alert);
        }
        let mut drained = Drained::default();
        let mut reports: Vec<ShardReport> = Vec::new();
        while let Ok(report) = running.reports_rx.recv() {
            reports.push(report);
        }
        // A panicked worker never sends its report, so its groups' alerts
        // are missing from the run — that must not pass silently.
        let expected_reports = running.handles.len();
        for handle in running.handles {
            if handle.join().is_err() {
                drained.error_count += 1;
                drained
                    .recent_errors
                    .push("shard worker panicked; its alerts are lost".to_string());
            }
        }
        if reports.len() < expected_reports {
            let missing = expected_reports - reports.len();
            drained.error_count += missing as u64;
            drained.recent_errors.push(format!(
                "{missing} shard report(s) missing; merged stats are partial"
            ));
        }
        reports.sort_by_key(|r| r.id);
        // Partitioned queries report once per shard under the same id;
        // their per-query stats fold into one row (replica slices are
        // disjoint, so counters sum; windows close on every replica, so
        // `windows_closed` takes the max).
        let mut stat_row: HashMap<QueryId, usize> = HashMap::new();
        for report in reports {
            // Batches broadcast to every shard (even in partitioned mode),
            // so `events` merges as a maximum.
            drained.stats.absorb_shard(report.stats, ShardMerge::Broadcast);
            drained.shard_stats.push((report.id, report.stats));
            for (qid, name, stats) in report.query_stats {
                match stat_row.get(&qid) {
                    Some(&row) => drained.query_stats[row].1.absorb_replica(&stats),
                    None => {
                        stat_row.insert(qid, drained.query_stats.len());
                        drained.query_stats.push((name, stats));
                    }
                }
            }
            drained.error_count += report.error_count;
            drained.recent_errors.extend(report.recent_errors);
            drained.dropped_alerts += report.dropped_alerts;
            for (id, n) in report.dropped_by_query {
                *drained.dropped_by_query.entry(id).or_insert(0) += n;
            }
            if let Some(shard_hist) = report.latency {
                match drained.latency.as_mut() {
                    Some(merged) => merged.merge(&shard_hist),
                    None => drained.latency = Some(shard_hist),
                }
            }
        }
        self.drained = Some(drained);
        alerts
    }

    /// Merged scheduler counters; complete after [`finish`](Self::finish),
    /// zero before.
    pub fn stats(&self) -> SchedulerStats {
        self.drained.as_ref().map(|d| d.stats).unwrap_or_default()
    }

    /// Per-shard `(shard id, counters)`, after [`finish`](Self::finish) —
    /// the work-partition audit: summed master checks equal the serial
    /// scheduler's, split across shards.
    pub fn shard_stats(&self) -> Vec<(usize, SchedulerStats)> {
        self.drained
            .as_ref()
            .map(|d| d.shard_stats.clone())
            .unwrap_or_default()
    }

    /// Per-query `(name, stats)`, available after [`finish`](Self::finish)
    /// (shards own the queries while the stream is live).
    pub fn query_stats(&self) -> Vec<(String, QueryStats)> {
        self.drained
            .as_ref()
            .map(|d| d.query_stats.clone())
            .unwrap_or_default()
    }

    /// Total runtime errors across queries, after [`finish`](Self::finish).
    pub fn error_count(&self) -> u64 {
        self.drained.as_ref().map(|d| d.error_count).unwrap_or(0)
    }

    /// Recent runtime error messages, after [`finish`](Self::finish).
    pub fn recent_errors(&self) -> Vec<String> {
        self.drained
            .as_ref()
            .map(|d| d.recent_errors.clone())
            .unwrap_or_default()
    }

    /// Alerts lost because a worker's sink disconnected (0 in normal runs).
    pub fn dropped_alerts(&self) -> u64 {
        self.drained.as_ref().map(|d| d.dropped_alerts).unwrap_or(0)
    }

    /// Forwarding drops attributed to the emitting query, after
    /// [`finish`](Self::finish) (empty in normal runs).
    pub fn dropped_alerts_by_query(&self) -> Vec<(QueryId, u64)> {
        let mut out: Vec<(QueryId, u64)> = self
            .drained
            .as_ref()
            .map(|d| d.dropped_by_query.iter().map(|(id, n)| (*id, *n)).collect())
            .unwrap_or_default();
        out.sort_by_key(|(id, _)| id.index());
        out
    }

    /// Per-batch latency histogram merged across shards, after
    /// [`finish`](Self::finish), when [`ParallelConfig::record_latency`]
    /// was on and events were seen.
    pub fn latency(&self) -> Option<&saql_analytics::Histogram> {
        self.drained.as_ref().and_then(|d| d.latency.as_ref())
    }

    /// Capture every live query's dynamic state at the current stream
    /// position (engine checkpoints). On a running stream this flushes the
    /// coordinator's partial batch and ships an in-band snapshot request to
    /// every shard, so the captured state is exactly "all dispatched events
    /// processed, nothing after" — identical to snapshotting the serial
    /// scheduler at that position. Alerts that arrive while the barrier
    /// drains are returned alongside (delivery is asynchronous, as with
    /// [`process`](Self::process)).
    pub fn query_snapshots(&mut self) -> Result<SnapshotsAndAlerts, EngineError> {
        self.ensure_not_drained()?;
        let mut alerts = Vec::new();
        if self.running.is_none() {
            // Workers not spawned yet: the pending queries hold all state.
            let snaps = self
                .pending
                .iter()
                .map(|q| (q.id(), q.snapshot()))
                .collect();
            return Ok((snaps, alerts));
        }
        self.flush_partial(&mut alerts);
        let running = self
            .running
            .as_ref()
            .expect("running checked above; flush keeps workers alive");
        let expected = running.shard_txs.len();
        let (reply_tx, reply_rx) = bounded::<Vec<(QueryId, QuerySnapshot)>>(expected);
        for tx in &running.shard_txs {
            send_draining(
                tx,
                ShardMsg::Control(ControlMsg::Snapshot(reply_tx.clone())),
                &running.alerts_rx,
                &mut alerts,
            );
        }
        drop(reply_tx);
        let mut snaps = Vec::new();
        let mut replies = 0usize;
        // Workers ahead of the snapshot message may be blocked on a full
        // alert channel; keep draining it while waiting so the barrier
        // cannot deadlock. A disconnected reply channel means every live
        // worker answered (a panicked worker's queries are lost — finish()
        // reports the dead shard).
        while replies < expected {
            match reply_rx.recv_timeout(std::time::Duration::from_millis(1)) {
                Ok(batch) => {
                    snaps.extend(batch);
                    replies += 1;
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    drain_ready(&running.alerts_rx, &mut alerts);
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
        drain_ready(&running.alerts_rx, &mut alerts);
        snaps.sort_by_key(|(id, _)| id.index());
        // A partitioned query answered once per shard under the same id;
        // merge the replica snapshots back into one canonical snapshot, so
        // checkpoints are independent of the worker count that took them.
        let mut merged: Vec<(QueryId, QuerySnapshot)> = Vec::with_capacity(snaps.len());
        let mut parts: Vec<QuerySnapshot> = Vec::new();
        for (id, snap) in snaps {
            match merged.last() {
                Some((last, _)) if *last == id => parts.push(snap),
                _ => {
                    if let Some((id, base)) = merged.pop() {
                        merged.push((id, Self::fold_snapshot(base, std::mem::take(&mut parts))));
                    }
                    merged.push((id, snap));
                }
            }
        }
        if let Some((id, base)) = merged.pop() {
            merged.push((id, Self::fold_snapshot(base, parts)));
        }
        Ok((merged, alerts))
    }

    /// Merge trailing replica parts into a base snapshot (no-op for the
    /// common unpartitioned single-part case).
    fn fold_snapshot(base: QuerySnapshot, rest: Vec<QuerySnapshot>) -> QuerySnapshot {
        if rest.is_empty() {
            return base;
        }
        let mut parts = Vec::with_capacity(rest.len() + 1);
        parts.push(base);
        parts.extend(rest);
        QuerySnapshot::merge(parts).expect("nonempty replica set merges")
    }

    /// Partition pending groups over shards and spawn the workers.
    fn ensure_started(&mut self) {
        if self.running.is_some() || self.drained.is_some() {
            return;
        }
        let mut shards: Vec<Shard> = (0..self.config.workers).map(Shard::new).collect();
        if self.config.record_latency {
            for shard in &mut shards {
                shard.enable_latency_tracking();
            }
        }
        for query in std::mem::take(&mut self.pending) {
            let key = query.compat_key().to_string();
            *self.key_members.entry(key.clone()).or_insert(0) += 1;
            if self.partitions(&query) {
                // Replica i owns the groups hashing to shard i; restored
                // state (resume at a new worker count) re-splits here.
                for (i, replica) in query.replicas(self.config.workers).into_iter().enumerate() {
                    shards[i].assign(replica);
                }
            } else {
                let shard_idx = self.shard_for(&key);
                shards[shard_idx].assign(query);
            }
        }

        let (alert_sink, alerts_rx) = ChannelSink::new(self.config.alert_backlog);
        let (reports_tx, reports_rx) = bounded::<ShardReport>(self.config.workers);
        let mut shard_txs = Vec::with_capacity(self.config.workers);
        let mut handles = Vec::with_capacity(self.config.workers);
        for shard in shards {
            let (shard_tx, shard_rx) = bounded::<ShardMsg>(self.config.batch_backlog);
            let sink = alert_sink.clone();
            let reports = reports_tx.clone();
            handles.push(std::thread::spawn(move || {
                run_worker(shard, shard_rx, sink, reports)
            }));
            shard_txs.push(shard_tx);
        }
        // Drop the coordinator's copies so the channels disconnect once the
        // last worker hangs up.
        drop(alert_sink);
        drop(reports_tx);
        self.running = Some(Running {
            shard_txs,
            alerts_rx,
            reports_rx,
            handles,
        });
    }

    /// The shard hosting `key`, assigning fresh keys round-robin.
    fn shard_for(&mut self, key: &str) -> usize {
        if let Some(&shard) = self.assignment.get(key) {
            return shard;
        }
        let shard = self.next_group % self.config.workers;
        self.next_group += 1;
        self.assignment.insert(key.to_string(), shard);
        shard
    }

    /// Data-plane and lifecycle calls are rejected once the workers have
    /// shut down — accepting events or queries then would silently lose
    /// them (the known PR 3 wart was a panic here).
    fn ensure_not_drained(&self) -> Result<(), EngineError> {
        if self.drained.is_some() {
            Err(EngineError::EngineFinished)
        } else {
            Ok(())
        }
    }

    /// Dispatch the buffered partial batch, if any — the barrier that puts
    /// a control message at an exact stream position.
    fn flush_partial(&mut self, alerts: &mut Vec<Alert>) {
        if let Some(batch) = self.buffer.take_if_nonempty() {
            self.dispatch(batch, alerts);
        }
    }

    /// Broadcast one batch to every worker, draining arrived alerts while
    /// any shard channel is full (backpressure without deadlock). The last
    /// worker takes the batch by value — N-1 clones for N workers.
    fn dispatch(&mut self, batch: EventBatch, alerts: &mut Vec<Alert>) {
        let running = self
            .running
            .as_ref()
            .expect("dispatch only happens while running");
        let last = running.shard_txs.len() - 1;
        let mut batch = Some(batch);
        for (i, tx) in running.shard_txs.iter().enumerate() {
            let item = if i == last {
                batch
                    .take()
                    .expect("batch consumed only by the last worker")
            } else {
                batch
                    .as_ref()
                    .expect("batch lives until the last worker")
                    .clone()
            };
            send_draining(tx, ShardMsg::Events(item), &running.alerts_rx, alerts);
        }
        drain_ready(&running.alerts_rx, alerts);
    }

    /// Ship one control message to a single shard, with the same
    /// drain-while-full backpressure discipline as batch dispatch.
    fn send_control(&mut self, shard: usize, msg: ControlMsg, alerts: &mut Vec<Alert>) {
        let running = self
            .running
            .as_ref()
            .expect("control messages only flow while running");
        send_draining(
            &running.shard_txs[shard],
            ShardMsg::Control(msg),
            &running.alerts_rx,
            alerts,
        );
        drain_ready(&running.alerts_rx, alerts);
    }
}

/// Push one message into a shard channel, draining forwarded alerts while
/// the channel is full so a stalled worker cannot deadlock the coordinator.
fn send_draining(
    tx: &crossbeam::channel::Sender<ShardMsg>,
    msg: ShardMsg,
    alerts_rx: &Receiver<Alert>,
    alerts: &mut Vec<Alert>,
) {
    let mut item = msg;
    loop {
        match tx.try_send(item) {
            Ok(()) => return,
            Err(TrySendError::Full(back)) => {
                item = back;
                // Workers are behind: sleep on the alert channel instead of
                // spinning, so a saturated machine gives this core to the
                // workers. Forwarded alerts keep draining either way,
                // preserving deadlock freedom.
                if let Ok(alert) = alerts_rx.recv_timeout(std::time::Duration::from_millis(1)) {
                    alerts.push(alert);
                }
                drain_ready(alerts_rx, alerts);
            }
            // A worker can only disappear if it panicked; drop its share
            // rather than wedge the stream (finish() reports the dead
            // shard).
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

impl Drop for ParallelEngine {
    fn drop(&mut self) {
        // Never leak worker threads: close channels and join.
        if self.running.is_some() {
            let _ = self.finish();
        }
    }
}

/// Move every already-arrived alert out of the channel without blocking.
fn drain_ready(rx: &Receiver<Alert>, out: &mut Vec<Alert>) {
    loop {
        match rx.try_recv() {
            Ok(alert) => out.push(alert),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use saql_model::event::EventBuilder;
    use saql_model::{NetworkInfo, ProcessInfo};
    use std::sync::Arc;

    fn rq(name: &str, src: &str) -> RunningQuery {
        RunningQuery::compile(name, src, QueryConfig::default()).unwrap()
    }

    fn start(id: u64, ts: u64, parent: &str, child: &str) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "h", ts)
                .subject(ProcessInfo::new(1, parent, "u"))
                .starts_process(ProcessInfo::new(2, child, "u"))
                .build(),
        )
    }

    fn send(id: u64, ts: u64, exe: &str, dst: &str, amount: u64) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "h", ts)
                .subject(ProcessInfo::new(1, exe, "u"))
                .sends(NetworkInfo::new("10.0.0.2", 44000, dst, 443, "tcp"))
                .amount(amount)
                .build(),
        )
    }

    fn sources() -> Vec<(&'static str, &'static str)> {
        vec![
            ("rule-a", "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn distinct p1, p2"),
            ("rule-b", "proc x start proc y[\"%osql.exe\"] as e\nreturn distinct x, y"),
            ("window", "proc p write ip i as evt #time(1 min)\nstate ss { amt := sum(evt.amount) } group by p\nalert ss[0].amt > 100\nreturn p, ss[0].amt"),
            ("count", "proc p write ip i as evt #time(2 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n"),
        ]
    }

    fn events() -> Vec<SharedEvent> {
        let mut out = Vec::new();
        for i in 0..200u64 {
            out.push(start(i * 3 + 1, i * 5_000, "cmd.exe", "osql.exe"));
            out.push(send(
                i * 3 + 2,
                i * 5_000 + 1_000,
                "sqlservr.exe",
                "10.0.0.9",
                90 + i,
            ));
            out.push(start(
                i * 3 + 3,
                i * 5_000 + 2_000,
                "explorer.exe",
                "calc.exe",
            ));
        }
        out
    }

    fn sorted(mut alerts: Vec<Alert>) -> Vec<String> {
        let mut keys: Vec<String> = alerts
            .drain(..)
            .map(|a| format!("{}|{a}", a.query))
            .collect();
        keys.sort();
        keys
    }

    /// Process on a live runtime (tests only hit the error path on purpose).
    fn par_process(par: &mut ParallelEngine, event: &SharedEvent) -> Vec<Alert> {
        par.process(event).expect("runtime not finished")
    }

    #[test]
    fn matches_serial_scheduler_across_worker_counts() {
        let mut serial = Scheduler::new();
        for (name, src) in sources() {
            serial.add(rq(name, src));
        }
        let mut serial_alerts = Vec::new();
        for e in events() {
            serial_alerts.extend(serial.process(&e));
        }
        serial_alerts.extend(serial.finish());

        for workers in [1usize, 2, 3, 8] {
            let mut par = ParallelEngine::new(
                ParallelConfig {
                    workers,
                    batch_size: 16,
                    ..ParallelConfig::default()
                },
                QueryConfig::default(),
            );
            for (name, src) in sources() {
                par.register(name, src).unwrap();
            }
            let par_alerts = par.run(events()).unwrap();
            assert_eq!(
                sorted(par_alerts),
                sorted(serial_alerts.clone()),
                "alert multiset diverged at {workers} workers"
            );
            assert_eq!(par.dropped_alerts(), 0);
        }
    }

    #[test]
    fn merged_stats_match_serial_counters() {
        let mut serial = Scheduler::new();
        for (name, src) in sources() {
            serial.add(rq(name, src));
        }
        for e in events() {
            serial.process(&e);
        }
        serial.finish();
        let expect = serial.stats();

        let mut par = ParallelEngine::new(ParallelConfig::with_workers(3), QueryConfig::default());
        for (name, src) in sources() {
            par.register(name, src).unwrap();
        }
        par.run(events()).unwrap();
        let got = par.stats();
        assert_eq!(got.events, expect.events);
        assert_eq!(got.master_checks, expect.master_checks);
        assert_eq!(got.deliveries, expect.deliveries);
        assert_eq!(got.data_copies, 0);
    }

    #[test]
    fn compatible_queries_stay_on_one_shard() {
        let mut par = ParallelEngine::new(ParallelConfig::with_workers(4), QueryConfig::default());
        for i in 0..8 {
            par.register(
                &format!("q{i}"),
                "proc p start proc q as e\nreturn distinct p, q",
            )
            .unwrap();
        }
        assert_eq!(par.group_count(), 1);
        par.run(vec![start(1, 10, "cmd.exe", "osql.exe")]).unwrap();
        // One group ⇒ exactly one master check per event, same as serial.
        assert_eq!(par.stats().master_checks, 1);
        assert_eq!(par.stats().deliveries, 8);
    }

    #[test]
    fn finish_without_events_flushes_cleanly() {
        let mut par = ParallelEngine::new(ParallelConfig::with_workers(2), QueryConfig::default());
        par.register("q", "proc p start proc q as e\nreturn p")
            .unwrap();
        assert!(par.finish().is_empty());
        assert_eq!(par.stats().events, 0);
        // Idempotent.
        assert!(par.finish().is_empty());
    }

    #[test]
    fn process_and_lifecycle_after_finish_return_finished_error() {
        let mut par = ParallelEngine::new(ParallelConfig::with_workers(2), QueryConfig::default());
        let id = par
            .register("q", "proc p start proc q as e\nreturn p")
            .unwrap();
        par.run(vec![start(1, 10, "a.exe", "b.exe")]).unwrap();
        // The PR 3 wart was a panic here; every data-plane and lifecycle
        // entry point now reports the finished engine instead.
        assert!(matches!(
            par.process(&start(2, 20, "a.exe", "b.exe")),
            Err(EngineError::EngineFinished)
        ));
        assert!(matches!(
            par.add(rq("late", "proc p start proc q as e\nreturn p")),
            Err(EngineError::EngineFinished)
        ));
        assert!(matches!(par.remove(id), Err(EngineError::EngineFinished)));
        assert!(matches!(par.pause(id), Err(EngineError::EngineFinished)));
        assert!(matches!(par.resume(id), Err(EngineError::EngineFinished)));
        assert!(matches!(
            par.run(vec![start(3, 30, "a.exe", "b.exe")]),
            Err(EngineError::EngineFinished)
        ));
        let err = par.register("late", "proc p start proc q as e\nreturn p");
        assert!(err.is_err());
        // The engine stays inspectable after the rejected calls.
        assert_eq!(par.stats().events, 1);
    }

    #[test]
    fn incremental_process_delivers_everything_by_finish() {
        let mut par = ParallelEngine::new(
            ParallelConfig {
                workers: 2,
                batch_size: 8,
                ..ParallelConfig::default()
            },
            QueryConfig::default(),
        );
        par.register(
            "q",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
        )
        .unwrap();
        let mut alerts = Vec::new();
        for e in events() {
            alerts.extend(par.process(&e).unwrap());
        }
        alerts.extend(par.finish());
        assert_eq!(alerts.len(), 200, "one alert per cmd.exe start");
    }

    #[test]
    fn run_with_sink_counts_all_alerts() {
        let mut par = ParallelEngine::new(ParallelConfig::with_workers(2), QueryConfig::default());
        par.register(
            "q",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
        )
        .unwrap();
        let mut sink = crate::sink::CollectSink::default();
        let n = par.run_with_sink(events(), &mut sink).unwrap();
        assert_eq!(n, 200);
        assert_eq!(sink.alerts.len(), 200);
    }

    #[test]
    fn mid_stream_register_joins_existing_group() {
        let mut par = ParallelEngine::new(
            ParallelConfig {
                workers: 2,
                batch_size: 4,
                ..ParallelConfig::default()
            },
            QueryConfig::default(),
        );
        par.register(
            "a",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
        )
        .unwrap();
        let mut alerts = Vec::new();
        // Start the stream, then attach a compatible query mid-flight.
        for i in 0..10u64 {
            alerts.extend(par_process(
                &mut par,
                &start(i + 1, (i + 1) * 1_000, "cmd.exe", "osql.exe"),
            ));
        }
        let id_b = par
            .register(
                "b",
                "proc p1 start proc p2[\"%osql.exe\"] as e\nreturn p1, p2",
            )
            .unwrap();
        assert!(par.contains(id_b));
        assert_eq!(par.group_count(), 1, "same compat key joins the group");
        for i in 10..20u64 {
            alerts.extend(par_process(
                &mut par,
                &start(i + 1, (i + 1) * 1_000, "cmd.exe", "osql.exe"),
            ));
        }
        alerts.extend(par.finish());
        let a_count = alerts.iter().filter(|a| a.query == "a").count();
        let b_count = alerts.iter().filter(|a| a.query == "b").count();
        assert_eq!(a_count, 20, "a saw the whole stream");
        assert_eq!(b_count, 10, "b saw exactly the post-registration suffix");
        // One group ⇒ one master check per event, even with the newcomer.
        assert_eq!(par.stats().master_checks, 20);
        assert_eq!(par.query_stats().len(), 2);
    }

    #[test]
    fn mid_stream_remove_flushes_windows_and_dissolves_group() {
        let mut par = ParallelEngine::new(
            ParallelConfig {
                workers: 3,
                batch_size: 4,
                ..ParallelConfig::default()
            },
            QueryConfig::default(),
        );
        let id_w = par
            .register(
                "w",
                "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n",
            )
            .unwrap();
        par.register("r", "proc p start proc q as e\nreturn distinct p, q")
            .unwrap();
        let mut alerts = Vec::new();
        alerts.extend(par.process(&send(1, 1_000, "x.exe", "1.1.1.1", 5)).unwrap());
        alerts.extend(par_process(&mut par, &start(2, 2_000, "a.exe", "b.exe")));
        assert_eq!(par.group_count(), 2);
        // Deregister the window query mid-stream: its open window flushes.
        alerts.extend(par.remove(id_w).unwrap());
        assert!(!par.contains(id_w));
        assert_eq!(par.group_count(), 1, "write-group dissolved");
        alerts.extend(par.process(&send(3, 3_000, "x.exe", "1.1.1.1", 5)).unwrap());
        alerts.extend(par.finish());
        let w_alerts: Vec<_> = alerts.iter().filter(|a| a.query == "w").collect();
        assert_eq!(w_alerts.len(), 1, "{alerts:?}");
        assert_eq!(
            w_alerts[0].get("ss[0].n"),
            Some("1"),
            "post-removal event unseen"
        );
        assert_eq!(w_alerts[0].query_id, id_w);
        // Removed queries leave the stats with them.
        assert_eq!(par.query_stats().len(), 1);
    }

    #[test]
    fn mid_stream_pause_resume_skips_exactly_the_paused_span() {
        let mut par = ParallelEngine::new(
            ParallelConfig {
                workers: 2,
                batch_size: 2,
                ..ParallelConfig::default()
            },
            QueryConfig::default(),
        );
        let id = par
            .register(
                "q",
                "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
            )
            .unwrap();
        let mut alerts = Vec::new();
        alerts.extend(par_process(
            &mut par,
            &start(1, 1_000, "cmd.exe", "osql.exe"),
        ));
        alerts.extend(par.pause(id).unwrap());
        for i in 2..=5u64 {
            alerts.extend(par_process(
                &mut par,
                &start(i, i * 1_000, "cmd.exe", "osql.exe"),
            ));
        }
        alerts.extend(par.resume(id).unwrap());
        alerts.extend(par_process(
            &mut par,
            &start(6, 6_000, "cmd.exe", "osql.exe"),
        ));
        alerts.extend(par.finish());
        assert_eq!(
            alerts.len(),
            2,
            "events 2..=5 fell in the pause: {alerts:?}"
        );
        assert!(alerts.iter().all(|a| a.query_id == id));
    }

    /// A heavy stateful-aggregation stream over `keys` distinct group keys
    /// — the key-partitioning target workload.
    fn keyed_events(n: u64, keys: u64) -> Vec<SharedEvent> {
        (0..n)
            .map(|i| {
                send(
                    i + 1,
                    i * 700,
                    &format!("p{}.exe", i % keys),
                    "10.0.0.9",
                    40 + (i % 90),
                )
            })
            .collect()
    }

    const HOT: &str = "proc p write ip i as evt #time(1 min)\nstate ss { amt := sum(evt.amount); n := count() } group by p\nalert ss[0].amt > 120\nreturn p, ss[0].amt, ss[0].n";

    #[test]
    fn partitioned_matches_serial_multiset_across_worker_counts() {
        let mut serial = Scheduler::new();
        serial.add(rq("hot", HOT));
        let mut serial_alerts = Vec::new();
        for e in keyed_events(400, 37) {
            serial_alerts.extend(serial.process(&e));
        }
        serial_alerts.extend(serial.finish());
        let expect = serial.stats();
        let expect_q = serial.queries().next().unwrap().stats();
        assert!(!serial_alerts.is_empty(), "workload must alert");

        for workers in [1usize, 2, 3, 8] {
            let mut par = ParallelEngine::new(
                ParallelConfig {
                    workers,
                    batch_size: 16,
                    key_partitioning: true,
                    ..ParallelConfig::default()
                },
                QueryConfig::default(),
            );
            par.register("hot", HOT).unwrap();
            let par_alerts = par.run(keyed_events(400, 37)).unwrap();
            assert_eq!(
                sorted(par_alerts),
                sorted(serial_alerts.clone()),
                "alert multiset diverged at {workers} workers"
            );
            let got = par.stats();
            // Each row is owned by exactly one replica, so deliveries stay
            // disjoint and sum to the serial count — the work-partition
            // audit's "0 duplicated deliveries".
            assert_eq!(got.deliveries, expect.deliveries);
            assert_eq!(got.events, expect.events);
            // The replication cost: one master check per shard per row.
            assert_eq!(got.master_checks, expect.master_checks * workers as u64);
            assert_eq!(got.data_copies, 0);
            if workers > 1 {
                let busy = par
                    .shard_stats()
                    .iter()
                    .filter(|(_, s)| s.deliveries > 0)
                    .count();
                assert!(busy > 1, "work did not spread across shards");
            }
            // Replica stats folded back into one row matching serial.
            let qs = par.query_stats();
            assert_eq!(qs.len(), 1);
            assert_eq!(qs[0].1.events_seen, expect_q.events_seen);
            assert_eq!(qs[0].1.events_matched, expect_q.events_matched);
            assert_eq!(qs[0].1.alerts, expect_q.alerts);
            assert_eq!(qs[0].1.windows_closed, expect_q.windows_closed);
        }
    }

    #[test]
    fn partitioned_checkpoint_resumes_at_different_worker_count() {
        let evs = keyed_events(400, 37);
        let mut serial = Scheduler::new();
        serial.add(rq("hot", HOT));
        let mut expected = Vec::new();
        for e in &evs {
            expected.extend(serial.process(e));
        }
        expected.extend(serial.finish());

        // First half at 3 workers, snapshot mid-stream, resume at 5.
        let mut par = ParallelEngine::new(
            ParallelConfig {
                workers: 3,
                batch_size: 8,
                key_partitioning: true,
                ..ParallelConfig::default()
            },
            QueryConfig::default(),
        );
        let id = par.register("hot", HOT).unwrap();
        let mut got = Vec::new();
        for e in &evs[..200] {
            got.extend(par_process(&mut par, e));
        }
        let (snaps, alerts) = par.query_snapshots().unwrap();
        got.extend(alerts);
        assert_eq!(snaps.len(), 1, "replica snapshots merge to one per query");
        let (snap_id, snap) = snaps.into_iter().next().unwrap();
        assert_eq!(snap_id, id);
        // Dropping the old engine discards its unflushed windows — the
        // resumed engine owns that state now.
        drop(par);

        let mut par = ParallelEngine::new(
            ParallelConfig {
                workers: 5,
                batch_size: 8,
                key_partitioning: true,
                ..ParallelConfig::default()
            },
            QueryConfig::default(),
        );
        let mut q = rq("hot", HOT);
        q.set_id(id);
        q.restore(snap);
        par.add(q).unwrap();
        for e in &evs[200..] {
            got.extend(par_process(&mut par, e));
        }
        got.extend(par.finish());
        assert_eq!(
            sorted(got),
            sorted(expected),
            "checkpoint at 3 workers + resume at 5 diverged from serial"
        );
    }

    #[test]
    fn partitioned_lifecycle_controls_fan_out() {
        let mut par = ParallelEngine::new(
            ParallelConfig {
                workers: 4,
                batch_size: 4,
                key_partitioning: true,
                ..ParallelConfig::default()
            },
            QueryConfig::default(),
        );
        let id = par.register("hot", HOT).unwrap();
        let evs = keyed_events(100, 11);
        let mut got = Vec::new();
        for e in &evs[..50] {
            got.extend(par_process(&mut par, e));
        }
        // In-place flush touches every replica; each owns disjoint groups,
        // so no group key appears twice in the flushed rows.
        let (flushed, rest) = par.flush_query(id).unwrap();
        got.extend(rest);
        assert!(!flushed.is_empty(), "open window per key expected");
        let mut rows: Vec<String> = flushed.iter().map(|a| a.to_string()).collect();
        let total = rows.len();
        rows.sort();
        rows.dedup();
        assert_eq!(rows.len(), total, "a replica duplicated a group flush");
        // Pause/resume/remove route to all shards without wedging.
        got.extend(par.pause(id).unwrap());
        for e in &evs[50..60] {
            got.extend(par_process(&mut par, e));
        }
        got.extend(par.resume(id).unwrap());
        got.extend(par.remove(id).unwrap());
        assert!(!par.contains(id));
        par.finish();
        assert_eq!(par.dropped_alerts(), 0);
        assert_eq!(par.error_count(), 0);
    }

    #[test]
    fn query_stats_surface_after_finish() {
        let mut par = ParallelEngine::new(ParallelConfig::with_workers(3), QueryConfig::default());
        for (name, src) in sources() {
            par.register(name, src).unwrap();
        }
        assert!(par.query_stats().is_empty(), "stats only after finish");
        par.run(events()).unwrap();
        let stats = par.query_stats();
        assert_eq!(stats.len(), sources().len());
        assert!(stats
            .iter()
            .any(|(name, s)| name == "rule-a" && s.alerts > 0));
        assert_eq!(par.error_count(), 0);
    }
}
