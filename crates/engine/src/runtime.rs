//! The engine's one execution runtime: [`Shard`]s of scheduler groups,
//! driven in place or on worker threads.
//!
//! ```text
//!   workers == 0     caller ──► shard 0 (every group), applied in place
//!
//!                    ┌── bounded channel ──► worker 0 (groups 0, N, …) ──┐
//!   workers == N ────┼── bounded channel ──► worker 1 (groups 1, …)     ─┼─► merged
//!   (caller = the    └── bounded channel ──► worker N-1 (…)            ──┘   alert
//!    coordinator)                                                           channel
//! ```
//!
//! Serial execution is the zero-worker case of the same runtime, not a
//! second one: the same [`ControlMsg`]s, applied by the same
//! [`Shard::apply`], reach the one inline shard by a function call and
//! worker shards over their channels. Inline, alerts and replies come back
//! by value — no channel, no clone — and every counter is live. With
//! workers, alerts arrive asynchronously on the merged channel (everything
//! is in by [`Runtime::finish`]) and the shards, with their counters, come
//! home when `finish` joins the threads.
//!
//! Design points:
//!
//! * **Groups are the sharding unit.** Queries are grouped by compatibility
//!   key first (preserving the master–dependent sharing win), then whole
//!   groups are dealt round-robin across shards. Two compatible queries
//!   never land on different shards.
//! * **Every shard sees every event.** Windows close on stream time, so a
//!   shard cannot skip events that miss its shapes; each [`EventBatch`] the
//!   caller hands in is broadcast as given — there is no second buffer, so
//!   nothing waits for a batch to fill. Batches carry `Arc<Event>`s, so the
//!   broadcast clones handles, never payloads.
//! * **Non-blocking backpressure.** The coordinator never blocks on a full
//!   shard channel while alerts back up: it drains the merged alert channel
//!   between send retries, so a worker stalled on a full alert channel
//!   cannot deadlock the dispatcher.
//! * **Graceful drain.** [`Runtime::finish`] closes the shard channels,
//!   drains alerts until every worker has hung up, and joins the threads. A
//!   worker-backed runtime cannot restart after that; the inline shard
//!   stays operable.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::Duration;

use saql_analytics::Histogram;
use saql_stream::EventBatch;

use crate::alert::Alert;
use crate::engine::EngineConfig;
use crate::error::EngineError;
use crate::query::{QueryId, QuerySnapshot, QueryStats, RunningQuery};
use crate::scheduler::SchedulerStats;
use crate::shard::{run_worker, ControlMsg, Reply, Shard, ShardMsg};

/// Batches and controls buffered per worker channel before the coordinator
/// backs off.
const BATCH_BACKLOG: usize = 4;
/// Alerts buffered in the merged channel before workers block.
const ALERT_BACKLOG: usize = 4096;
/// How long the coordinator sleeps on one channel before looking at the
/// other (full shard channel ↔ alert channel, reply channel ↔ alert
/// channel).
const POLL: Duration = Duration::from_millis(1);

/// One live compatibility group.
struct Group {
    /// The shard hosting every member.
    owner: usize,
    /// Live members.
    members: usize,
}

/// The worker threads, while the stream is live.
struct Pool {
    shard_txs: Vec<SyncSender<ShardMsg>>,
    alerts_rx: Receiver<Alert>,
    handles: Vec<JoinHandle<Shard>>,
}

pub(crate) struct Runtime {
    /// Worker threads; `0` drives the one shard on the caller's thread.
    workers: usize,
    /// Shards this thread can touch: the inline shard, always; worker
    /// shards once [`finish`](Self::finish) has joined them home. Every
    /// counter is read from here, which is why worker-backed stats surface
    /// after `finish` and inline ones are live.
    home: Vec<Shard>,
    pool: Option<Pool>,
    /// Each live query's compatibility group key.
    routes: HashMap<QueryId, String>,
    groups: HashMap<String, Group>,
    /// Round-robin cursor for dealing fresh groups to shards.
    next_group: usize,
    /// Workers that died: their shards, and so their alerts, are lost.
    faults: Vec<String>,
}

impl Runtime {
    pub(crate) fn new(config: &EngineConfig) -> Self {
        let mut runtime = Runtime {
            workers: config.workers,
            home: Vec::new(),
            pool: None,
            routes: HashMap::new(),
            groups: HashMap::new(),
            next_group: 0,
            faults: Vec::new(),
        };
        if config.workers == 0 {
            runtime.home.push(Shard::new(config.record_latency));
            return runtime;
        }
        let (alerts_tx, alerts_rx) = sync_channel::<Alert>(ALERT_BACKLOG);
        let mut pool = Pool {
            shard_txs: Vec::with_capacity(config.workers),
            alerts_rx,
            handles: Vec::with_capacity(config.workers),
        };
        for _ in 0..config.workers {
            let (shard_tx, shard_rx) = sync_channel::<ShardMsg>(BATCH_BACKLOG);
            let shard = Shard::new(config.record_latency);
            let alerts = alerts_tx.clone();
            pool.handles.push(std::thread::spawn(move || {
                run_worker(shard, shard_rx, alerts)
            }));
            pool.shard_txs.push(shard_tx);
        }
        // Only the workers hold alert senders from here on, so the channel
        // disconnects once the last of them hangs up.
        drop(alerts_tx);
        runtime.pool = Some(pool);
        runtime
    }

    /// Worker threads in use (`0` = inline).
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    fn shards(&self) -> usize {
        self.workers.max(1)
    }

    /// A worker-backed runtime is spent once `finish` joined its threads:
    /// accepting events or queries then would silently lose them. The
    /// inline shard never goes away.
    pub(crate) fn live(&self) -> Result<(), EngineError> {
        if self.workers > 0 && self.pool.is_none() {
            Err(EngineError::EngineFinished)
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    /// Host a compiled query (carrying its control-plane id), before the
    /// first event or mid-stream. A compat key already hosted keeps its
    /// shard, so the newcomer joins the existing group and shares its
    /// master.
    pub(crate) fn add(
        &mut self,
        query: RunningQuery,
        arrived: &mut Vec<Alert>,
    ) -> Result<(), EngineError> {
        self.live()?;
        let key = query.compat_key().to_string();
        let shards = self.shards();
        let next_group = &mut self.next_group;
        let group = self.groups.entry(key.clone()).or_insert_with(|| {
            let owner = *next_group % shards;
            *next_group += 1;
            Group { owner, members: 0 }
        });
        group.members += 1;
        let owner = group.owner;
        self.routes.insert(query.id(), key);
        self.deliver(
            vec![(owner, ControlMsg::AddQuery(Box::new(query)))],
            arrived,
        );
        Ok(())
    }

    /// Deregister a live query at the current stream position and return
    /// the alerts its open windows flushed. Its compatibility group
    /// dissolves if it was the last member, and its per-query stats leave
    /// with it.
    pub(crate) fn remove(
        &mut self,
        id: QueryId,
        arrived: &mut Vec<Alert>,
    ) -> Result<Vec<Alert>, EngineError> {
        let flushed = self.control(id, ControlMsg::RemoveQuery, arrived)?.alerts;
        if let Some(key) = self.routes.remove(&id) {
            if let Some(group) = self.groups.get_mut(&key) {
                group.members -= 1;
                if group.members == 0 {
                    self.groups.remove(&key);
                }
            }
        }
        Ok(flushed)
    }

    /// Apply one per-query control message ([`ControlMsg::Pause`],
    /// [`Resume`](ControlMsg::Resume), [`Flush`](ControlMsg::Flush)) on
    /// the shard owning the query's compatibility group.
    pub(crate) fn control(
        &mut self,
        id: QueryId,
        msg: fn(QueryId) -> ControlMsg,
        arrived: &mut Vec<Alert>,
    ) -> Result<Reply, EngineError> {
        self.live()?;
        let key = self.routes.get(&id).ok_or(EngineError::UnknownQuery(id))?;
        let owner = self.groups[key].owner;
        Ok(self.deliver(vec![(owner, msg(id))], arrived))
    }

    /// Barrier: when this returns, every shard has processed everything
    /// handed in so far and every alert that produced is in `arrived` — the
    /// precondition for watermark punctuation on a derived (pipeline)
    /// stream.
    pub(crate) fn sync(&mut self, arrived: &mut Vec<Alert>) -> Result<(), EngineError> {
        self.broadcast(|| ControlMsg::Sync, arrived).map(drop)
    }

    /// Capture every live query's dynamic state at the current stream
    /// position (engine checkpoints): exactly "everything handed in so far
    /// processed, nothing after", whatever the worker count. Each query
    /// lives on one shard, so it answers exactly once.
    pub(crate) fn snapshots(
        &mut self,
        arrived: &mut Vec<Alert>,
    ) -> Result<HashMap<QueryId, QuerySnapshot>, EngineError> {
        let snaps = self.broadcast(|| ControlMsg::Snapshot, arrived)?.snapshots;
        Ok(snaps.into_iter().collect())
    }

    /// Apply one control message on every shard.
    fn broadcast(
        &mut self,
        msg: fn() -> ControlMsg,
        arrived: &mut Vec<Alert>,
    ) -> Result<Reply, EngineError> {
        self.live()?;
        let msgs = (0..self.shards()).map(|shard| (shard, msg())).collect();
        Ok(self.deliver(msgs, arrived))
    }

    /// Hand control messages to their shards and gather the replies — the
    /// one path every lifecycle operation takes. The inline shard applies
    /// them right here. Worker shards get them in-band behind every batch
    /// already queued; for messages that [await a
    /// reply](ControlMsg::awaits_reply) this then waits for the answers
    /// while draining the alert channel into `arrived` (a worker ahead of
    /// the message may be blocked on a full alert channel, so the barrier
    /// must keep draining to stay deadlock-free). A reply channel that
    /// disconnects early means a worker died with the message;
    /// [`finish`](Self::finish) reports the dead shard.
    fn deliver(&mut self, msgs: Vec<(usize, ControlMsg)>, arrived: &mut Vec<Alert>) -> Reply {
        let mut merged = Reply::default();
        let Some(pool) = &self.pool else {
            for (shard, msg) in msgs {
                merged.absorb(self.home[shard].apply(msg));
            }
            return merged;
        };
        let mut awaited = 0usize;
        let (reply_tx, reply_rx) = sync_channel::<Reply>(msgs.len().max(1));
        for (shard, msg) in msgs {
            let reply_to = msg.awaits_reply().then(|| reply_tx.clone());
            awaited += usize::from(reply_to.is_some());
            pool.send(shard, ShardMsg::Control(msg, reply_to), arrived);
        }
        drop(reply_tx);
        while awaited > 0 {
            match reply_rx.recv_timeout(POLL) {
                Ok(reply) => {
                    merged.absorb(reply);
                    awaited -= 1;
                }
                Err(RecvTimeoutError::Timeout) => arrived.extend(pool.alerts_rx.try_iter()),
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        arrived.extend(pool.alerts_rx.try_iter());
        merged
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Push one batch through every shard. Inline, the returned alerts are
    /// this batch's, in emission order. With workers the batch is broadcast
    /// as given and the return is whatever alerts have *arrived* so far —
    /// they may stem from earlier batches, and this batch's may surface
    /// later; an empty batch just collects (the session's idle rounds do
    /// that, so a quiet stream's tail is not held back).
    pub(crate) fn process_batch(&mut self, batch: &EventBatch) -> Result<Vec<Alert>, EngineError> {
        self.live()?;
        let Some(pool) = &self.pool else {
            return Ok(self.home[0].process_batch(batch));
        };
        let mut arrived = Vec::new();
        if !batch.is_empty() {
            for shard in 0..pool.shard_txs.len() {
                pool.send(shard, ShardMsg::Events(batch.clone()), &mut arrived);
            }
        }
        arrived.extend(pool.alerts_rx.try_iter());
        Ok(arrived)
    }

    /// End of stream: flush every remaining window and return the alerts.
    /// Worker threads drain, flush on their own thread, and are joined —
    /// their shards come home, which is when worker-backed counters become
    /// readable. Idempotent.
    pub(crate) fn finish(&mut self) -> Vec<Alert> {
        let Some(pool) = self.pool.take() else {
            return self.home.iter_mut().flat_map(Shard::finish).collect();
        };
        // Closing the shard channels is the drain signal; the alert channel
        // disconnects when the last worker has flushed and hung up.
        drop(pool.shard_txs);
        let alerts: Vec<Alert> = pool.alerts_rx.into_iter().collect();
        for (i, handle) in pool.handles.into_iter().enumerate() {
            match handle.join() {
                Ok(shard) => self.home.push(shard),
                // A dead worker's groups are missing from the run — that
                // must not pass silently.
                Err(_) => self.faults.push(format!(
                    "shard {i} worker panicked; its alerts and stats are lost"
                )),
            }
        }
        alerts
    }

    // ------------------------------------------------------------------
    // Introspection: views over the shards at home
    // ------------------------------------------------------------------

    /// Compatibility groups across all shards.
    pub(crate) fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Engine-wide scheduler counters. Every shard sees every event, so
    /// `events` merges as a maximum; work counters sum.
    pub(crate) fn stats(&self) -> SchedulerStats {
        let mut total = SchedulerStats::default();
        for shard in &self.home {
            total.absorb_shard(shard.scheduler().stats());
        }
        total
    }

    /// Per-worker `(shard, counters)` — the work-partition audit: summed
    /// master checks equal one shard's, split across workers. The inline
    /// shard *is* the engine ([`stats`](Self::stats)), so it has no row.
    pub(crate) fn shard_stats(&self) -> Vec<(usize, SchedulerStats)> {
        let shards = self.home.iter().take(self.workers);
        shards
            .enumerate()
            .map(|(i, shard)| (i, shard.scheduler().stats()))
            .collect()
    }

    fn queries(&self) -> impl Iterator<Item = &RunningQuery> {
        self.home.iter().flat_map(|s| s.scheduler().queries())
    }

    /// Per-query `(name, stats)`.
    pub(crate) fn query_stats(&self) -> Vec<(String, QueryStats)> {
        self.queries()
            .map(|q| (q.name().to_string(), q.stats()))
            .collect()
    }

    /// Total runtime errors across queries, plus dead workers.
    pub(crate) fn error_count(&self) -> u64 {
        self.faults.len() as u64 + self.queries().map(|q| q.errors().total()).sum::<u64>()
    }

    /// Recent runtime error messages, `name: message` formatted.
    pub(crate) fn recent_errors(&self) -> Vec<String> {
        let of_queries = self.queries().flat_map(|q| {
            q.errors()
                .recent()
                .map(move |e| format!("{}: {e}", q.name()))
        });
        self.faults.iter().cloned().chain(of_queries).collect()
    }

    /// Per-batch latency histogram (amortised ns/event), merged across
    /// shards, when tracking is on. Worker shards overlap in wall-clock
    /// time, so their merge measures per-shard work, not delivery.
    pub(crate) fn latency(&self) -> Option<Histogram> {
        let mut shards = self.home.iter().filter_map(|s| s.scheduler().latency());
        let mut merged = shards.next()?.clone();
        for hist in shards {
            merged.merge(hist);
        }
        Some(merged)
    }
}

impl Pool {
    /// Push one message into a shard's channel, draining arrived alerts
    /// while the channel is full so a stalled worker cannot deadlock the
    /// coordinator.
    fn send(&self, shard: usize, msg: ShardMsg, arrived: &mut Vec<Alert>) {
        let mut item = msg;
        loop {
            match self.shard_txs[shard].try_send(item) {
                Ok(()) => return,
                Err(TrySendError::Full(back)) => {
                    item = back;
                    // Workers are behind: sleep on the alert channel instead
                    // of spinning, so a saturated machine gives this core to
                    // the workers.
                    arrived.extend(self.alerts_rx.recv_timeout(POLL).ok());
                    arrived.extend(self.alerts_rx.try_iter());
                }
                // A worker can only disappear if it panicked; drop its
                // share rather than wedge the stream (finish() reports the
                // dead shard).
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Never leak worker threads: close channels and join.
        if self.pool.is_some() {
            self.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::query::QueryConfig;
    use crate::scheduler::Scheduler;
    use saql_model::event::EventBuilder;
    use saql_model::{NetworkInfo, ProcessInfo};
    use saql_stream::SharedEvent;
    use std::sync::Arc;

    fn rq(name: &str, src: &str) -> RunningQuery {
        RunningQuery::compile(name, src, QueryConfig::default()).unwrap()
    }

    /// A worker-backed engine: the runtime under test behind its facade.
    fn engine(workers: usize, batch_size: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            batch_size,
            ..EngineConfig::default()
        })
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
            let mut par = engine(workers, 16);
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

        let mut par = Engine::new(EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        });
        for (name, src) in sources() {
            par.register(name, src).unwrap();
        }
        par.run(events()).unwrap();
        let got = par.scheduler_stats();
        assert_eq!(got.events, expect.events);
        assert_eq!(got.master_checks, expect.master_checks);
        assert_eq!(got.deliveries, expect.deliveries);
        assert_eq!(got.data_copies, 0);
    }

    #[test]
    fn compatible_queries_stay_on_one_shard() {
        let mut par = Engine::new(EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        });
        for i in 0..8 {
            par.register(
                &format!("q{i}"),
                "proc p start proc q as e\nreturn distinct p, q",
            )
            .unwrap();
        }
        assert_eq!(par.group_count(), 1);
        par.run(vec![start(1, 10, "cmd.exe", "osql.exe")]).unwrap();
        // One group ⇒ exactly one master check per event, same as inline.
        assert_eq!(par.scheduler_stats().master_checks, 1);
        assert_eq!(par.scheduler_stats().deliveries, 8);
    }

    #[test]
    fn finish_without_events_flushes_cleanly() {
        let mut par = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        par.register("q", "proc p start proc q as e\nreturn p")
            .unwrap();
        assert!(par.finish().is_empty());
        assert_eq!(par.scheduler_stats().events, 0);
        // Idempotent.
        assert!(par.finish().is_empty());
    }

    #[test]
    fn incremental_process_delivers_everything_by_finish() {
        let mut par = engine(2, 8);
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
        let mut par = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
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
        let mut par = engine(2, 4);
        par.register(
            "a",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
        )
        .unwrap();
        let mut alerts = Vec::new();
        // Start the stream, then attach a compatible query mid-flight.
        for i in 0..10u64 {
            let event = start(i + 1, (i + 1) * 1_000, "cmd.exe", "osql.exe");
            alerts.extend(par.process(&event).unwrap());
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
            let event = start(i + 1, (i + 1) * 1_000, "cmd.exe", "osql.exe");
            alerts.extend(par.process(&event).unwrap());
        }
        alerts.extend(par.finish());
        let a_count = alerts.iter().filter(|a| a.query == "a").count();
        let b_count = alerts.iter().filter(|a| a.query == "b").count();
        assert_eq!(a_count, 20, "a saw the whole stream");
        assert_eq!(b_count, 10, "b saw exactly the post-registration suffix");
        // One group ⇒ one master check per event, even with the newcomer.
        assert_eq!(par.scheduler_stats().master_checks, 20);
        assert_eq!(par.query_stats().len(), 2);
    }

    #[test]
    fn mid_stream_remove_flushes_windows_and_dissolves_group() {
        let mut par = engine(3, 4);
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
        alerts.extend(par.process(&start(2, 2_000, "a.exe", "b.exe")).unwrap());
        assert_eq!(par.group_count(), 2);
        // Deregister the window query mid-stream: its open window flushes.
        par.deregister(id_w).unwrap();
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
        let mut par = engine(2, 2);
        let id = par
            .register(
                "q",
                "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
            )
            .unwrap();
        let mut alerts = Vec::new();
        alerts.extend(
            par.process(&start(1, 1_000, "cmd.exe", "osql.exe"))
                .unwrap(),
        );
        par.pause(id).unwrap();
        for i in 2..=5u64 {
            let event = start(i, i * 1_000, "cmd.exe", "osql.exe");
            alerts.extend(par.process(&event).unwrap());
        }
        par.resume(id).unwrap();
        alerts.extend(
            par.process(&start(6, 6_000, "cmd.exe", "osql.exe"))
                .unwrap(),
        );
        alerts.extend(par.finish());
        assert_eq!(
            alerts.len(),
            2,
            "events 2..=5 fell in the pause: {alerts:?}"
        );
        assert!(alerts.iter().all(|a| a.query_id == id));
    }

    #[test]
    fn query_stats_surface_after_finish() {
        let mut par = Engine::new(EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        });
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
