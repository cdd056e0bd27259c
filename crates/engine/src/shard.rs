//! Shard workers for the parallel runtime: each shard owns a disjoint
//! subset of scheduler groups and drives them with its own
//! [`Scheduler`].
//!
//! The unit of distribution is the *compatibility group*, not the query:
//! splitting a group across shards would force every shard to run its own
//! master check for the same shape, duplicating exactly the work the
//! master–dependent-query scheme exists to share. The runtime therefore
//! assigns whole groups round-robin, and every shard observes the full
//! event stream (group state depends on stream time, so windows must
//! advance on every shard regardless of which groups matched).
//!
//! Shards are plain values until the runtime moves them onto worker
//! threads, which is why this module carries the compile-time guarantee
//! that all group state — queries, matchers, window drivers, invariant
//! models — is [`Send`].

use crossbeam::channel::{Receiver, Sender};
use saql_stream::EventBatch;

use crate::query::{QueryId, QuerySnapshot, QueryStats, RunningQuery};
use crate::scheduler::{Scheduler, SchedulerStats};
use crate::sink::{AlertSink, ChannelSink};

/// A query-lifecycle operation applied by a shard worker between batches.
///
/// Control messages travel on the same bounded channel as event batches, so
/// each worker observes a *total order* of batches and controls: everything
/// dispatched before the control is processed first, everything after is
/// processed later. That is what makes mid-stream lifecycle changes
/// deterministic — the operation takes effect at an exact stream position,
/// identical to performing it on the serial scheduler at that position.
pub enum ControlMsg {
    /// Host a new query (it joins an existing compatibility group on this
    /// shard when its compat key matches, sharing that group's master).
    AddQuery(Box<RunningQuery>),
    /// Deregister a query: flush its pending window state to the alert
    /// sink, then drop it (dissolving its group if it was the last member).
    RemoveQuery(QueryId),
    /// Detach a query from the stream until resumed.
    Pause(QueryId),
    /// Re-attach a paused query.
    Resume(QueryId),
    /// Capture every hosted query's dynamic state and send it back on the
    /// reply channel. Because this travels in-band with event batches, the
    /// snapshot lands at an exact stream position (engine checkpoints).
    Snapshot(Sender<Vec<(QueryId, QuerySnapshot)>>),
    /// Flush one query's open windows *in place* (it stays registered) and
    /// send the flushed alerts back on the reply channel — the pipeline
    /// layered drain. Alerts travel on the reply, not the shard sink, so
    /// the coordinator can route them to dependents at a known point.
    Flush(QueryId, Sender<Vec<crate::alert::Alert>>),
    /// Pure barrier: acknowledge once every batch queued before this
    /// message has been processed. The pipeline wiring syncs before
    /// punctuating a derived stream — a punctuation must not outrun alerts
    /// still being computed on the workers.
    Sync(Sender<()>),
}

impl std::fmt::Debug for ControlMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // A running query is a live pipeline, not a printable value.
            ControlMsg::AddQuery(q) => write!(f, "AddQuery({} `{}`)", q.id(), q.name()),
            ControlMsg::RemoveQuery(id) => write!(f, "RemoveQuery({id})"),
            ControlMsg::Pause(id) => write!(f, "Pause({id})"),
            ControlMsg::Resume(id) => write!(f, "Resume({id})"),
            ControlMsg::Snapshot(_) => write!(f, "Snapshot"),
            ControlMsg::Flush(id, _) => write!(f, "Flush({id})"),
            ControlMsg::Sync(_) => write!(f, "Sync"),
        }
    }
}

/// What the runtime ships to a shard worker: event batches interleaved with
/// control messages, processed strictly in arrival order.
#[derive(Debug)]
pub enum ShardMsg {
    Events(EventBatch),
    Control(ControlMsg),
}

/// One worker's slice of the engine: a scheduler over a subset of groups.
pub struct Shard {
    id: usize,
    scheduler: Scheduler,
}

/// End-of-stream summary a shard sends back to the runtime on drain.
#[derive(Debug)]
pub struct ShardReport {
    /// Which shard produced this report.
    pub id: usize,
    /// The shard scheduler's execution counters.
    pub stats: SchedulerStats,
    /// Per-query `(id, name, stats)` for the queries this shard hosted.
    /// The id lets the runtime fold the per-shard rows of a partitioned
    /// query (one replica per shard, same id) back into one.
    pub query_stats: Vec<(QueryId, String, QueryStats)>,
    /// Total runtime errors across the shard's queries.
    pub error_count: u64,
    /// Recent runtime error messages, `name: message` formatted.
    pub recent_errors: Vec<String>,
    /// Alerts this shard failed to forward (receiver hung up).
    pub dropped_alerts: u64,
    /// Forwarding drops attributed to the emitting query.
    pub dropped_by_query: Vec<(QueryId, u64)>,
    /// Per-batch latency histogram (amortised ns/event), when tracking was
    /// enabled.
    pub latency: Option<saql_analytics::Histogram>,
}

impl Shard {
    pub fn new(id: usize) -> Self {
        Shard {
            id,
            scheduler: Scheduler::new(),
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// Record per-batch processing latency on this shard's scheduler (see
    /// [`Scheduler::enable_latency_tracking`]).
    pub fn enable_latency_tracking(&mut self) {
        self.scheduler.enable_latency_tracking();
    }

    /// Host a query on this shard. Compatible queries assigned to the same
    /// shard regroup under one master, exactly as in the serial scheduler.
    pub fn assign(&mut self, query: RunningQuery) {
        self.scheduler.add(query);
    }

    /// Compatibility groups hosted here.
    pub fn group_count(&self) -> usize {
        self.scheduler.group_count()
    }

    /// Queries hosted here.
    pub fn query_count(&self) -> usize {
        self.scheduler.query_count()
    }

    /// Push one batch through the shard's groups (see
    /// [`Scheduler::process_batch`]), forwarding every alert.
    pub fn process_batch(&mut self, batch: &EventBatch, sink: &mut dyn AlertSink) {
        for alert in self.scheduler.process_batch(batch) {
            sink.deliver(&alert);
        }
    }

    /// Apply one control message at the current batch boundary. Removal
    /// flushes the departing query's window state through the sink, so a
    /// deregistered query's last alerts are delivered, not lost.
    pub fn apply(&mut self, msg: ControlMsg, sink: &mut dyn AlertSink) {
        match msg {
            ControlMsg::AddQuery(query) => {
                self.scheduler.add(*query);
            }
            ControlMsg::RemoveQuery(id) => {
                if let Some(mut query) = self.scheduler.remove(id) {
                    for alert in query.finish() {
                        sink.deliver(&alert);
                    }
                }
            }
            ControlMsg::Pause(id) => {
                self.scheduler.pause(id);
            }
            ControlMsg::Resume(id) => {
                self.scheduler.resume(id);
            }
            ControlMsg::Snapshot(reply) => {
                // The coordinator may have hung up (engine dropped
                // mid-checkpoint); a lost snapshot is fine then.
                let _ = reply.send(self.scheduler.query_snapshots());
            }
            ControlMsg::Flush(id, reply) => {
                let alerts = self.scheduler.flush_member(id).unwrap_or_default();
                let _ = reply.send(alerts);
            }
            ControlMsg::Sync(reply) => {
                // In-band: everything queued before this is already applied.
                let _ = reply.send(());
            }
        }
    }

    /// End of stream: flush remaining windows and summarize.
    pub fn finish(mut self, sink: &mut dyn AlertSink) -> ShardReport {
        for alert in self.scheduler.finish() {
            sink.deliver(&alert);
        }
        sink.flush();
        ShardReport {
            id: self.id,
            stats: self.scheduler.stats(),
            query_stats: self
                .scheduler
                .queries()
                .map(|q| (q.id(), q.name().to_string(), q.stats()))
                .collect(),
            error_count: self.scheduler.queries().map(|q| q.errors().total()).sum(),
            recent_errors: self
                .scheduler
                .queries()
                .flat_map(|q| {
                    q.errors()
                        .recent()
                        .map(move |e| format!("{}: {e}", q.name()))
                })
                .collect(),
            dropped_alerts: 0,
            dropped_by_query: Vec::new(),
            latency: self.scheduler.latency().cloned(),
        }
    }
}

/// The worker-thread body: drain batches and control messages in arrival
/// order until the runtime closes the channel, then flush and report. The
/// runtime owns thread spawning; this stays a plain function so tests can
/// drive a worker synchronously.
pub(crate) fn run_worker(
    mut shard: Shard,
    messages: Receiver<ShardMsg>,
    mut sink: ChannelSink,
    reports: Sender<ShardReport>,
) {
    while let Ok(msg) = messages.recv() {
        match msg {
            ShardMsg::Events(batch) => shard.process_batch(&batch, &mut sink),
            ShardMsg::Control(control) => shard.apply(control, &mut sink),
        }
    }
    let mut report = shard.finish(&mut sink);
    report.dropped_alerts = sink.dropped;
    report.dropped_by_query = sink.dropped_by_query.into_iter().collect();
    // The runtime may already be gone (engine dropped mid-stream); a lost
    // report is fine then.
    let _ = reports.send(report);
}

// The architectural unlock this module asserts: a shard (scheduler groups
// and everything inside them) can move to another thread.
#[allow(dead_code)]
fn assert_send<T: Send>() {}
const _: fn() = assert_send::<Shard>;
const _: fn() = assert_send::<ShardReport>;
const _: fn() = assert_send::<ShardMsg>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryConfig;
    use crate::sink::CollectSink;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;
    use saql_stream::SharedEvent;
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

    #[test]
    fn shard_processes_batches_and_reports() {
        let mut shard = Shard::new(3);
        shard.assign(rq(
            "q",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
        ));
        assert_eq!(shard.group_count(), 1);
        let mut batch = EventBatch::with_capacity(4);
        batch.push(start(1, 10, "cmd.exe", "osql.exe"));
        batch.push(start(2, 20, "explorer.exe", "notepad.exe"));
        let mut sink = CollectSink::default();
        shard.process_batch(&batch, &mut sink);
        assert_eq!(sink.alerts.len(), 1);
        let report = shard.finish(&mut sink);
        assert_eq!(report.id, 3);
        assert_eq!(report.stats.events, 2);
        assert_eq!(report.query_stats.len(), 1);
        assert_eq!(report.error_count, 0);
    }

    #[test]
    fn worker_drains_channel_then_reports() {
        let mut shard = Shard::new(0);
        shard.assign(rq("q", "proc p start proc q as e\nreturn p, q"));
        let (msg_tx, msg_rx) = crossbeam::channel::bounded::<ShardMsg>(4);
        let (sink, alerts_rx) = ChannelSink::new(64);
        let (report_tx, report_rx) = crossbeam::channel::bounded::<ShardReport>(1);
        let handle = std::thread::spawn(move || run_worker(shard, msg_rx, sink, report_tx));
        let mut batch = EventBatch::with_capacity(2);
        batch.push(start(1, 10, "a.exe", "b.exe"));
        msg_tx.send(ShardMsg::Events(batch)).unwrap();
        drop(msg_tx);
        handle.join().unwrap();
        let alerts: Vec<_> = alerts_rx.into_iter().collect();
        assert_eq!(alerts.len(), 1);
        let report = report_rx.recv().unwrap();
        assert_eq!(report.stats.events, 1);
        assert_eq!(report.dropped_alerts, 0);
    }

    #[test]
    fn control_messages_apply_at_batch_boundaries() {
        let mut id_counter = 0usize;
        let mut rq_id = |name: &str, src: &str| {
            let mut q = rq(name, src);
            q.set_id(QueryId::new(id_counter));
            id_counter += 1;
            q
        };
        let mut shard = Shard::new(0);
        shard.assign(rq_id("a", "proc p start proc q as e\nreturn p, q"));
        let mut sink = CollectSink::default();

        // Add a second compatible query mid-stream: it joins the group.
        shard.apply(
            ControlMsg::AddQuery(Box::new(rq_id("b", "proc p start proc q as e\nreturn q"))),
            &mut sink,
        );
        assert_eq!(shard.group_count(), 1);
        assert_eq!(shard.query_count(), 2);

        let mut batch = EventBatch::with_capacity(2);
        batch.push(start(1, 10, "a.exe", "b.exe"));
        shard.process_batch(&batch, &mut sink);
        assert_eq!(sink.alerts.len(), 2, "both queries fire");

        // Pause `a`, deliver another event: only `b` fires.
        shard.apply(ControlMsg::Pause(QueryId::new(0)), &mut sink);
        let mut batch = EventBatch::with_capacity(2);
        batch.push(start(2, 20, "a.exe", "b.exe"));
        shard.process_batch(&batch, &mut sink);
        assert_eq!(sink.alerts.len(), 3);
        assert_eq!(sink.alerts[2].query, "b");

        // Resume + remove: removal of the last member dissolves the group.
        shard.apply(ControlMsg::Resume(QueryId::new(0)), &mut sink);
        shard.apply(ControlMsg::RemoveQuery(QueryId::new(1)), &mut sink);
        shard.apply(ControlMsg::RemoveQuery(QueryId::new(0)), &mut sink);
        assert_eq!(shard.group_count(), 0);
        assert_eq!(shard.query_count(), 0);
    }

    #[test]
    fn remove_flushes_pending_windows_to_sink() {
        let mut shard = Shard::new(0);
        let mut q = rq(
            "w",
            "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n",
        );
        q.set_id(QueryId::new(5));
        shard.assign(q);
        let mut batch = EventBatch::with_capacity(1);
        batch.push(Arc::new(
            EventBuilder::new(1, "h", 1_000)
                .subject(ProcessInfo::new(1, "x.exe", "u"))
                .sends(saql_model::NetworkInfo::new(
                    "10.0.0.2", 44000, "1.1.1.1", 443, "tcp",
                ))
                .amount(5)
                .build(),
        ));
        let mut sink = CollectSink::default();
        shard.process_batch(&batch, &mut sink);
        assert!(sink.alerts.is_empty(), "window still open");
        shard.apply(ControlMsg::RemoveQuery(QueryId::new(5)), &mut sink);
        assert_eq!(sink.alerts.len(), 1, "removal flushed the open window");
        assert_eq!(sink.alerts[0].query_id, QueryId::new(5));
    }
}
