//! Shards: the unit the runtime executes — one [`Scheduler`] over a subset
//! of the compatibility groups, plus the message protocol that drives it.
//!
//! The unit of distribution is the *compatibility group*, not the query:
//! splitting a group across shards would force every shard to run its own
//! master check for the same shape, duplicating exactly the work the
//! master–dependent-query scheme exists to share. The runtime therefore
//! assigns whole groups round-robin, and every shard observes the full
//! event stream (group state depends on stream time, so windows must
//! advance on every shard regardless of which groups matched).
//!
//! A shard is a plain value: the runtime drives it in place on the caller's
//! thread (`workers == 0`) or moves it onto a worker thread
//! ([`run_worker`]), which is why this module carries the compile-time
//! guarantee that all group state — queries, matchers, window drivers,
//! invariant models — is [`Send`].

use std::sync::mpsc::{Receiver, SyncSender};

use saql_stream::EventBatch;

use crate::alert::Alert;
use crate::query::{QueryId, QuerySnapshot, RunningQuery};
use crate::scheduler::Scheduler;

/// A lifecycle operation applied to a shard between batches — the one path
/// every control-plane call takes, inline or shipped.
///
/// Shipped control messages travel on the same bounded channel as event
/// batches, so each worker observes a *total order* of batches and
/// controls: everything dispatched before the control is processed first,
/// everything after is processed later. That is what makes mid-stream
/// lifecycle changes deterministic — the operation takes effect at an exact
/// stream position, identical to applying it inline at that position.
pub(crate) enum ControlMsg {
    /// Host a new query (it joins an existing compatibility group on this
    /// shard when its compat key matches, sharing that group's master).
    AddQuery(Box<RunningQuery>),
    /// Deregister a query: flush its open windows into the reply, then drop
    /// it (dissolving its group if it was the last member).
    RemoveQuery(QueryId),
    /// Detach a query from the stream until resumed.
    Pause(QueryId),
    /// Re-attach a paused query.
    Resume(QueryId),
    /// Capture every hosted query's dynamic state (engine checkpoints).
    Snapshot,
    /// Flush one query's open windows *in place* (it stays registered) —
    /// the pipeline layered drain.
    Flush(QueryId),
    /// Pure barrier: answered once every batch queued before it has been
    /// processed. A session syncs before punctuating its pipeline stages —
    /// a punctuation must not outrun alerts still being computed.
    Sync,
}

impl ControlMsg {
    /// Whether the sender needs this message's [`Reply`] (or, for
    /// [`Sync`](Self::Sync), its arrival) before going on. Adds, pauses and
    /// resumes answer nothing, so they are shipped without a wait.
    pub(crate) fn awaits_reply(&self) -> bool {
        !matches!(
            self,
            ControlMsg::AddQuery(_) | ControlMsg::Pause(_) | ControlMsg::Resume(_)
        )
    }
}

/// What a shard answers to a [`ControlMsg`]; replies from several shards
/// [`absorb`](Self::absorb) into one.
#[derive(Default)]
pub(crate) struct Reply {
    /// Window alerts flushed by `RemoveQuery` / `Flush`.
    pub alerts: Vec<Alert>,
    /// Per-query state captured by `Snapshot`.
    pub snapshots: Vec<(QueryId, QuerySnapshot)>,
}

impl Reply {
    pub(crate) fn absorb(&mut self, other: Reply) {
        self.alerts.extend(other.alerts);
        self.snapshots.extend(other.snapshots);
    }
}

/// What the runtime ships to a shard worker: event batches interleaved with
/// control messages (and where to send the reply, when one is awaited),
/// processed strictly in arrival order.
pub(crate) enum ShardMsg {
    Events(EventBatch),
    Control(ControlMsg, Option<SyncSender<Reply>>),
}

/// One slice of the engine: a scheduler over a subset of groups.
pub(crate) struct Shard {
    scheduler: Scheduler,
}

impl Shard {
    pub(crate) fn new(record_latency: bool) -> Self {
        let mut scheduler = Scheduler::new();
        if record_latency {
            scheduler.enable_latency_tracking();
        }
        Shard { scheduler }
    }

    /// The shard's scheduler: counters, hosted queries, latency histogram.
    pub(crate) fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Push one batch through the shard's groups (see
    /// [`Scheduler::process_batch`]).
    pub(crate) fn process_batch(&mut self, batch: &EventBatch) -> Vec<Alert> {
        self.scheduler.process_batch(batch)
    }

    /// Apply one control message at the current batch boundary.
    pub(crate) fn apply(&mut self, msg: ControlMsg) -> Reply {
        let mut reply = Reply::default();
        match msg {
            ControlMsg::AddQuery(query) => {
                self.scheduler.add(*query);
            }
            ControlMsg::RemoveQuery(id) => {
                if let Some(mut query) = self.scheduler.remove(id) {
                    reply.alerts = query.finish();
                }
            }
            ControlMsg::Pause(id) => {
                self.scheduler.pause(id);
            }
            ControlMsg::Resume(id) => {
                self.scheduler.resume(id);
            }
            ControlMsg::Snapshot => reply.snapshots = self.scheduler.query_snapshots(),
            ControlMsg::Flush(id) => {
                reply.alerts = self.scheduler.flush_member(id).unwrap_or_default();
            }
            // In-band: everything queued before this is already applied.
            ControlMsg::Sync => {}
        }
        reply
    }

    /// End of stream: flush every remaining window.
    pub(crate) fn finish(&mut self) -> Vec<Alert> {
        self.scheduler.finish()
    }
}

/// The worker-thread body: drain batches and control messages in arrival
/// order until the runtime closes the channel, flush, and hand the shard
/// back through the join handle (its counters are read from it at home).
///
/// Alert sends cannot fail while it matters: the runtime keeps the
/// receiving end until it has seen every worker's sender disconnect.
pub(crate) fn run_worker(
    mut shard: Shard,
    messages: Receiver<ShardMsg>,
    alerts: SyncSender<Alert>,
) -> Shard {
    let forward = |batch: Vec<Alert>| {
        for alert in batch {
            let _ = alerts.send(alert);
        }
    };
    while let Ok(msg) = messages.recv() {
        match msg {
            ShardMsg::Events(batch) => forward(shard.process_batch(&batch)),
            ShardMsg::Control(control, reply_to) => {
                let reply = shard.apply(control);
                match reply_to {
                    // The runtime may have hung up (engine dropped
                    // mid-barrier); a lost reply is fine then.
                    Some(tx) => {
                        let _ = tx.send(reply);
                    }
                    None => forward(reply.alerts),
                }
            }
        }
    }
    forward(shard.finish());
    shard
}

// The architectural unlock this module asserts: a shard (scheduler groups
// and everything inside them) can move to another thread.
#[allow(dead_code)]
fn assert_send<T: Send>() {}
const _: fn() = assert_send::<Shard>;
const _: fn() = assert_send::<ShardMsg>;

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;
    use saql_stream::SharedEvent;
    use std::sync::Arc;

    fn rq(name: &str, src: &str, id: usize) -> RunningQuery {
        let mut q = RunningQuery::compile(name, src).unwrap();
        q.set_id(QueryId::new(id));
        q
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
    fn shard_processes_batches_and_keeps_counters() {
        let mut shard = Shard::new(false);
        shard.apply(ControlMsg::AddQuery(Box::new(rq(
            "q",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
            0,
        ))));
        assert_eq!(shard.scheduler().group_count(), 1);
        let alerts = shard.process_batch(&EventBatch::from_events(vec![
            start(1, 10, "cmd.exe", "osql.exe"),
            start(2, 20, "explorer.exe", "notepad.exe"),
        ]));
        assert_eq!(alerts.len(), 1);
        assert!(shard.finish().is_empty());
        assert_eq!(shard.scheduler().stats().events, 2);
        assert_eq!(shard.scheduler().query_count(), 1);
    }

    #[test]
    fn worker_drains_channel_then_returns_the_shard() {
        let mut shard = Shard::new(false);
        shard.apply(ControlMsg::AddQuery(Box::new(rq(
            "q",
            "proc p start proc q as e\nreturn p, q",
            0,
        ))));
        let (msg_tx, msg_rx) = std::sync::mpsc::sync_channel::<ShardMsg>(4);
        let (alerts_tx, alerts_rx) = std::sync::mpsc::sync_channel::<Alert>(64);
        let handle = std::thread::spawn(move || run_worker(shard, msg_rx, alerts_tx));
        let sent = msg_tx.send(ShardMsg::Events(EventBatch::from_events(vec![start(
            1, 10, "a.exe", "b.exe",
        )])));
        assert!(sent.is_ok());
        // An awaited control answers on its reply channel, in order.
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel::<Reply>(1);
        let sent = msg_tx.send(ShardMsg::Control(ControlMsg::Snapshot, Some(reply_tx)));
        assert!(sent.is_ok());
        assert_eq!(reply_rx.recv().unwrap().snapshots.len(), 1);
        drop(msg_tx);
        let shard = handle.join().unwrap();
        let alerts: Vec<_> = alerts_rx.into_iter().collect();
        assert_eq!(alerts.len(), 1);
        assert_eq!(shard.scheduler().stats().events, 1);
    }

    #[test]
    fn control_messages_apply_at_batch_boundaries() {
        let mut shard = Shard::new(false);
        shard.apply(ControlMsg::AddQuery(Box::new(rq(
            "a",
            "proc p start proc q as e\nreturn p, q",
            0,
        ))));
        // Add a second compatible query mid-stream: it joins the group.
        shard.apply(ControlMsg::AddQuery(Box::new(rq(
            "b",
            "proc p start proc q as e\nreturn q",
            1,
        ))));
        assert_eq!(shard.scheduler().group_count(), 1);
        assert_eq!(shard.scheduler().query_count(), 2);

        let alerts = shard.process_batch(&EventBatch::from_events(vec![start(
            1, 10, "a.exe", "b.exe",
        )]));
        assert_eq!(alerts.len(), 2, "both queries fire");

        // Pause `a`, deliver another event: only `b` fires.
        shard.apply(ControlMsg::Pause(QueryId::new(0)));
        let alerts = shard.process_batch(&EventBatch::from_events(vec![start(
            2, 20, "a.exe", "b.exe",
        )]));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].query, "b");

        // Resume + remove: removal of the last member dissolves the group.
        shard.apply(ControlMsg::Resume(QueryId::new(0)));
        shard.apply(ControlMsg::RemoveQuery(QueryId::new(1)));
        shard.apply(ControlMsg::RemoveQuery(QueryId::new(0)));
        assert_eq!(shard.scheduler().group_count(), 0);
        assert_eq!(shard.scheduler().query_count(), 0);
    }

    #[test]
    fn remove_flushes_pending_windows_into_the_reply() {
        let mut shard = Shard::new(false);
        shard.apply(ControlMsg::AddQuery(Box::new(rq(
            "w",
            "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n",
            5,
        ))));
        let alerts = shard.process_batch(&EventBatch::from_events(vec![Arc::new(
            EventBuilder::new(1, "h", 1_000)
                .subject(ProcessInfo::new(1, "x.exe", "u"))
                .sends(saql_model::NetworkInfo::new(
                    "10.0.0.2", 44000, "1.1.1.1", 443, "tcp",
                ))
                .amount(5)
                .build(),
        )]));
        assert!(alerts.is_empty(), "window still open");
        let reply = shard.apply(ControlMsg::RemoveQuery(QueryId::new(5)));
        assert_eq!(reply.alerts.len(), 1, "removal flushed the open window");
        assert_eq!(reply.alerts[0].query_id, QueryId::new(5));
    }
}
