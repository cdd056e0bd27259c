//! The concurrent query scheduler: the master–dependent-query scheme.
//!
//! Concurrent queries are divided into groups by *semantic compatibility*
//! (equal [`compat_key`](saql_lang::semantic::CheckedQuery::compat_key):
//! same event-pattern shapes and window). Each group shares a single copy of
//! the stream: only the group's **master check** touches the raw event (one
//! constraint-free shape test per group), and the **dependent** member
//! queries consume only events their master admits — they never re-scan the
//! stream. This is how SAQL keeps per-event work and data copies sublinear
//! in the number of concurrent queries.
//!
//! Execution is batch-at-a-time ([`Scheduler::process_batch`]) and there is
//! no second path: a single event is a one-row batch.
//!
//! (The no-sharing comparison point — one scheduler and one data copy per
//! query — lives in `saql-baseline`.)

use std::collections::HashMap;

use saql_stream::{BatchView, EventBatch, SharedEvent};

use crate::alert::Alert;
use crate::query::{BatchCache, QueryId, QuerySnapshot, RunningQuery};

/// Scheduler execution counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Events pushed through the scheduler.
    pub events: u64,
    /// Master shape checks performed (one per group per event).
    pub master_checks: u64,
    /// Events delivered to member queries (post master admit).
    pub deliveries: u64,
    /// Logical copies of event data made (always 0: members share the Arc).
    pub data_copies: u64,
}

impl SchedulerStats {
    /// Fold one shard's counters into an engine-wide view. Every shard
    /// observes the full event stream (batches are broadcast, also in
    /// key-partitioned mode, so every replica's watermark evolves as one
    /// scheduler's would), so `events` merges as a maximum; the per-group
    /// work counters — checks, deliveries, copies — add up across shards
    /// (group subsets and partitioned row slices are disjoint).
    pub fn absorb_shard(&mut self, shard: SchedulerStats) {
        self.events = self.events.max(shard.events);
        self.master_checks += shard.master_checks;
        self.deliveries += shard.deliveries;
        self.data_copies += shard.data_copies;
    }
}

struct Group {
    key: String,
    members: Vec<RunningQuery>,
    /// The batch's shape-admitted row selection and the predicate columns
    /// members share over it (see [`BatchCache`]).
    cache: BatchCache,
}

/// Master–dependent concurrent query scheduler.
pub struct Scheduler {
    groups: Vec<Group>,
    by_key: HashMap<String, usize>,
    stats: SchedulerStats,
    /// Per-batch processing latency, amortised to nanoseconds per event,
    /// when enabled.
    latency: Option<saql_analytics::Histogram>,
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            groups: Vec::new(),
            by_key: HashMap::new(),
            stats: SchedulerStats::default(),
            latency: None,
        }
    }

    /// Record processing latency: one clock pair per batch, recorded as
    /// that batch's amortised nanoseconds per event (off by default).
    pub fn enable_latency_tracking(&mut self) {
        self.latency
            .get_or_insert_with(saql_analytics::Histogram::new);
    }

    /// The latency histogram (one sample per non-empty batch), if tracking
    /// is enabled.
    pub fn latency(&self) -> Option<&saql_analytics::Histogram> {
        self.latency.as_ref()
    }

    /// Register a running query, grouping it with compatible ones.
    /// Returns `(group index, member index)`.
    pub fn add(&mut self, query: RunningQuery) -> (usize, usize) {
        let key = query.compat_key().to_string();
        let gi = match self.by_key.get(&key) {
            Some(&gi) => gi,
            None => {
                let gi = self.groups.len();
                self.groups.push(Group {
                    key: key.clone(),
                    members: Vec::new(),
                    cache: BatchCache::default(),
                });
                self.by_key.insert(key, gi);
                gi
            }
        };
        self.groups[gi].members.push(query);
        (gi, self.groups[gi].members.len() - 1)
    }

    /// Deregister a query by id, returning it (with its pending window
    /// state intact — the caller decides whether to flush it).
    ///
    /// Group maintenance is the interesting part of removal: taking the
    /// group's first member *promotes* the next dependent to master (all
    /// members share the shape, so any member's shape test is the master
    /// check), and taking the last member *dissolves* the group so later
    /// events no longer pay its master check.
    pub fn remove(&mut self, id: QueryId) -> Option<RunningQuery> {
        for gi in 0..self.groups.len() {
            let Some(mi) = self.groups[gi].members.iter().position(|q| q.id() == id) else {
                continue;
            };
            let query = self.groups[gi].members.remove(mi);
            if self.groups[gi].members.is_empty() {
                let dissolved = self.groups.remove(gi);
                self.by_key.remove(&dissolved.key);
                // Groups after the dissolved one shifted down by one.
                for (i, group) in self.groups.iter().enumerate().skip(gi) {
                    self.by_key.insert(group.key.clone(), i);
                }
            }
            return Some(query);
        }
        None
    }

    /// Detach a query from the stream without removing it (no events, no
    /// time advance, no alerts until [`resume`](Self::resume)). Returns
    /// `false` for an unknown id.
    pub fn pause(&mut self, id: QueryId) -> bool {
        self.set_paused(id, true)
    }

    /// Re-attach a paused query. Stream time catches up on the next event,
    /// closing any windows that came due while detached. Returns `false`
    /// for an unknown id.
    pub fn resume(&mut self, id: QueryId) -> bool {
        self.set_paused(id, false)
    }

    fn set_paused(&mut self, id: QueryId, paused: bool) -> bool {
        for group in &mut self.groups {
            if let Some(q) = group.members.iter_mut().find(|q| q.id() == id) {
                q.set_paused(paused);
                return true;
            }
        }
        false
    }

    /// Whether a query with this id is registered.
    pub fn contains(&self, id: QueryId) -> bool {
        self.queries().any(|q| q.id() == id)
    }

    /// Number of compatibility groups (== master queries == stream copies).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total registered queries.
    pub fn query_count(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }

    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Sizes of each group, keyed by compat key (diagnostics).
    pub fn group_sizes(&self) -> Vec<(String, usize)> {
        self.groups
            .iter()
            .map(|g| (g.key.clone(), g.members.len()))
            .collect()
    }

    /// Iterate over registered queries.
    pub fn queries(&self) -> impl Iterator<Item = &RunningQuery> {
        self.groups.iter().flat_map(|g| g.members.iter())
    }

    /// Capture each registered query's dynamic state, keyed by id (engine
    /// checkpoints). Must be called at a batch boundary — batch-transient
    /// caches are not part of the snapshot.
    pub fn query_snapshots(&self) -> Vec<(QueryId, QuerySnapshot)> {
        self.queries().map(|q| (q.id(), q.snapshot())).collect()
    }

    /// Push one event through every group: a one-row batch.
    pub fn process(&mut self, event: &SharedEvent) -> Vec<Alert> {
        self.process_batch(&EventBatch::from_events(vec![event.clone()]))
    }

    /// Push a batch through every group.
    ///
    /// Phase one (prepare) is selection-driven: each group with an
    /// attached member selects the rows its master's shape mask admits —
    /// the master check, one byte test per row — and, unless that
    /// selection is empty, each attached member resolves its predicate
    /// columns over it (shared through the group's [`BatchCache`] where
    /// fingerprints agree) and precomputes its stateful work over the
    /// survivors. Phase two (drive) walks the batch in stream order,
    /// event-major then group-major then member-major, advancing every
    /// attached member's clock on every event and offering payloads on
    /// admitted rows only — so the ordered alert stream and every counter
    /// are independent of how the stream is cut into batches.
    pub fn process_batch(&mut self, batch: &EventBatch) -> Vec<Alert> {
        let started = self.latency.is_some().then(std::time::Instant::now);
        let view = BatchView::new(batch);
        let n = view.len() as u64;
        self.stats.events += n;
        for group in &mut self.groups {
            let Group { members, cache, .. } = group;
            // Paused members are detached: no events, no time. Pause state
            // cannot change mid-batch (control-plane operations land
            // between engine calls), and a fully-paused group has no one to
            // deliver to, so its master check would be pure waste.
            if members.iter().all(|q| q.is_paused()) {
                cache.clear();
                continue;
            }
            // All members share the shape by construction, so a paused
            // master still answers for the group.
            self.stats.master_checks += n;
            if cache.begin_batch(&view, members[0].shape_mask()) == 0 {
                continue;
            }
            for q in members.iter_mut().filter(|q| !q.is_paused()) {
                self.stats.deliveries += q.prepare_batch(&view, cache);
            }
        }
        let mut alerts = Vec::new();
        for (row, event) in view.events().iter().enumerate() {
            for group in &mut self.groups {
                let Group { members, cache, .. } = group;
                // Time advances for every attached member regardless of
                // shape (windows close on stream time, not on matching
                // events). Pipeline stages run on their upstream's clock
                // (`accepts_time`); everything else on stream time.
                for q in members.iter_mut() {
                    if !q.is_paused() && q.accepts_time(event) {
                        alerts.extend(q.advance_time(event.ts));
                    }
                }
                if !cache.admits(row) {
                    continue;
                }
                for q in members.iter_mut().filter(|q| !q.is_paused()) {
                    alerts.extend(q.process_row(event, row, cache));
                }
            }
        }
        if let (Some(started), Some(hist)) = (started, self.latency.as_mut()) {
            if let Some(per_event) = (started.elapsed().as_nanos() as u64).checked_div(n) {
                hist.record(per_event);
            }
        }
        alerts
    }

    /// Flush one member's open windows in place without removing it (the
    /// layered pipeline drain: upstream stages flush first so their final
    /// alerts can still feed dependents). Returns `None` for an unknown id.
    pub fn flush_member(&mut self, id: QueryId) -> Option<Vec<Alert>> {
        for group in &mut self.groups {
            if let Some(q) = group.members.iter_mut().find(|q| q.id() == id) {
                return Some(q.finish());
            }
        }
        None
    }

    /// End of stream: flush all members — including paused ones, whose
    /// windows still hold whatever they absorbed before detaching.
    pub fn finish(&mut self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for group in &mut self.groups {
            for q in &mut group.members {
                alerts.extend(q.finish());
            }
        }
        alerts
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryConfig;
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

    #[test]
    fn compatible_queries_share_a_group() {
        let mut s = Scheduler::new();
        s.add(rq(
            "a",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1",
        ));
        s.add(rq("b", "proc x start proc y[\"%osql.exe\"] as e\nreturn x"));
        s.add(rq("c", "proc p write ip i as e\nreturn p"));
        assert_eq!(s.query_count(), 3);
        assert_eq!(s.group_count(), 2, "{:?}", s.group_sizes());
    }

    #[test]
    fn master_admits_only_shape_matches() {
        let mut s = Scheduler::new();
        s.add(rq(
            "a",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1",
        ));
        s.add(rq(
            "b",
            "proc p1[\"%excel.exe\"] start proc p2 as e\nreturn p1",
        ));
        // A network event: shape check fails once for the whole group.
        s.process(&send(1, 10, "cmd.exe", "1.1.1.1", 5));
        assert_eq!(s.stats().master_checks, 1);
        assert_eq!(s.stats().deliveries, 0);
        // A process-start event: one check, two deliveries.
        let alerts = s.process(&start(2, 20, "cmd.exe", "osql.exe"));
        assert_eq!(s.stats().master_checks, 2);
        assert_eq!(s.stats().deliveries, 2);
        // Only query `a`'s constraints match.
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].query, "a");
    }

    #[test]
    fn scheduler_results_match_standalone_execution() {
        let sources = [
            ("q1", "proc p1[\"%cmd.exe\"] start proc p2[\"%osql.exe\"] as e\nreturn distinct p1, p2"),
            ("q2", "proc p1[\"%excel.exe\"] start proc p2 as e\nreturn distinct p1, p2"),
            ("q3", "proc p write ip i as evt #time(1 min)\nstate ss { amt := sum(evt.amount) } group by p\nalert ss[0].amt > 100\nreturn p, ss[0].amt"),
        ];
        let events: Vec<SharedEvent> = vec![
            start(1, 1_000, "cmd.exe", "osql.exe"),
            start(2, 2_000, "excel.exe", "cscript.exe"),
            send(3, 3_000, "sqlservr.exe", "10.0.0.9", 500),
            start(4, 61_000, "cmd.exe", "calc.exe"),
            send(5, 62_000, "sqlservr.exe", "10.0.0.9", 50),
            send(6, 200_000, "chrome.exe", "8.8.8.8", 10),
        ];

        let mut standalone_alerts = Vec::new();
        for (name, src) in sources {
            let mut alone = Scheduler::new();
            alone.add(rq(name, src));
            for e in &events {
                standalone_alerts.extend(alone.process(e));
            }
            standalone_alerts.extend(alone.finish());
        }

        let mut s = Scheduler::new();
        for (name, src) in sources {
            s.add(rq(name, src));
        }
        let mut sched_alerts = Vec::new();
        for e in &events {
            sched_alerts.extend(s.process(e));
        }
        sched_alerts.extend(s.finish());

        let norm = |mut v: Vec<Alert>| {
            v.sort_by(|a, b| {
                (a.query.clone(), format!("{a}")).cmp(&(b.query.clone(), format!("{b}")))
            });
            v.into_iter().map(|a| a.to_string()).collect::<Vec<_>>()
        };
        assert_eq!(norm(standalone_alerts), norm(sched_alerts));
    }

    fn rq_id(name: &str, src: &str, id: usize) -> RunningQuery {
        let mut q = rq(name, src);
        q.set_id(QueryId::new(id));
        q
    }

    #[test]
    fn remove_promotes_dependents_and_dissolves_groups() {
        let mut s = Scheduler::new();
        s.add(rq_id("a", "proc p start proc q as e\nreturn p", 0));
        s.add(rq_id("b", "proc p start proc q as e\nreturn q", 1));
        s.add(rq_id("c", "proc p write ip i as e\nreturn p", 2));
        assert_eq!(s.group_count(), 2);
        // Removing the master of the start-group promotes `b`.
        let removed = s.remove(QueryId::new(0)).expect("a is registered");
        assert_eq!(removed.name(), "a");
        assert_eq!(s.group_count(), 2);
        assert_eq!(s.query_count(), 2);
        let alerts = s.process(&start(1, 10, "x.exe", "y.exe"));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].query, "b");
        // Removing the last member dissolves the group: no more master
        // checks for its shape.
        let checks_before = s.stats().master_checks;
        s.remove(QueryId::new(1)).expect("b is registered");
        assert_eq!(s.group_count(), 1);
        s.process(&start(2, 20, "x.exe", "y.exe"));
        // Only the write-group's check remains (and it rejects the shape).
        assert_eq!(s.stats().master_checks, checks_before + 1);
        // The ip-write group keyed map survived the index shift.
        assert!(s.contains(QueryId::new(2)));
        assert!(!s.contains(QueryId::new(1)));
        assert!(s.remove(QueryId::new(7)).is_none());
    }

    #[test]
    fn paused_queries_see_no_events_or_time() {
        let mut s = Scheduler::new();
        s.add(rq_id(
            "w",
            "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n",
            0,
        ));
        assert!(s.pause(QueryId::new(0)));
        // Events and a window boundary pass while paused: nothing happens.
        let mut alerts = Vec::new();
        alerts.extend(s.process(&send(1, 1_000, "x.exe", "1.1.1.1", 5)));
        alerts.extend(s.process(&send(2, 120_000, "x.exe", "1.1.1.1", 5)));
        assert!(alerts.is_empty());
        assert_eq!(s.stats().deliveries, 0);
        assert_eq!(s.stats().master_checks, 0, "fully-paused group skipped");
        // Resume: the query only ever sees post-resume events.
        assert!(s.resume(QueryId::new(0)));
        alerts.extend(s.process(&send(3, 130_000, "x.exe", "1.1.1.1", 5)));
        alerts.extend(s.finish());
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].get("ss[0].n"), Some("1"));
        assert!(!s.pause(QueryId::new(9)), "unknown id");
    }

    #[test]
    fn pause_of_master_keeps_group_running() {
        let mut s = Scheduler::new();
        s.add(rq_id("a", "proc p start proc q as e\nreturn p", 0));
        s.add(rq_id("b", "proc p start proc q as e\nreturn q", 1));
        s.pause(QueryId::new(0));
        let alerts = s.process(&start(1, 10, "x.exe", "y.exe"));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].query, "b");
        assert_eq!(s.stats().master_checks, 1);
        assert_eq!(s.stats().deliveries, 1, "paused member not delivered to");
    }

    #[test]
    fn absorb_shard_takes_max_events_and_sums_work() {
        let mut merged = SchedulerStats {
            events: 100,
            master_checks: 10,
            deliveries: 5,
            data_copies: 0,
        };
        merged.absorb_shard(SchedulerStats {
            events: 40,
            master_checks: 7,
            deliveries: 3,
            data_copies: 1,
        });
        assert_eq!(merged.events, 100, "every shard saw the full stream");
        assert_eq!(merged.master_checks, 17);
        assert_eq!(merged.deliveries, 8);
        assert_eq!(merged.data_copies, 1);
    }

    #[test]
    fn batch_size_changes_neither_alerts_nor_stats() {
        let sources = [
            ("q1", "proc p1[\"%cmd.exe\"] start proc p2[\"%osql.exe\"] as e\nreturn distinct p1, p2"),
            ("q2", "proc p1[\"%excel.exe\"] start proc p2 as e\nreturn distinct p1, p2"),
            ("q3", "proc p write ip i as evt #time(1 min)\nstate ss { amt := sum(evt.amount) } group by p\nalert ss[0].amt > 100\nreturn p, ss[0].amt"),
            ("q4", "proc p write ip i as evt #time(1 min)\nstate ss { amt := sum(evt.amount) } group by p\nalert ss[0].amt > 400\nreturn p"),
        ];
        let events: Vec<SharedEvent> = vec![
            start(1, 1_000, "cmd.exe", "osql.exe"),
            start(2, 2_000, "excel.exe", "cscript.exe"),
            send(3, 3_000, "sqlservr.exe", "10.0.0.9", 500),
            start(4, 61_000, "cmd.exe", "calc.exe"),
            send(5, 62_000, "sqlservr.exe", "10.0.0.9", 50),
            send(6, 200_000, "chrome.exe", "8.8.8.8", 10),
        ];

        let mut per_event = Scheduler::new();
        let mut batched_s = Scheduler::new();
        for (name, src) in sources {
            per_event.add(rq(name, src));
            batched_s.add(rq(name, src));
        }
        let mut expected = Vec::new();
        for e in &events {
            expected.extend(per_event.process(e));
        }
        expected.extend(per_event.finish());

        let mut got = Vec::new();
        for batch in saql_stream::batched(events.clone(), 4) {
            got.extend(batched_s.process_batch(&batch));
        }
        got.extend(batched_s.finish());

        let render = |v: &[Alert]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(render(&expected), render(&got), "ordered alert streams");
        assert_eq!(per_event.stats().events, batched_s.stats().events);
        assert_eq!(
            per_event.stats().master_checks,
            batched_s.stats().master_checks
        );
        assert_eq!(per_event.stats().deliveries, batched_s.stats().deliveries);
    }

    #[test]
    fn window_time_advances_even_without_shape_matches() {
        // A windowed query over network writes must close its window when a
        // later *process* event (shape mismatch) advances stream time.
        let mut s = Scheduler::new();
        s.add(rq(
            "w",
            "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n",
        ));
        s.add(rq("r", "proc p start proc q as e\nreturn p"));
        // One batch: the write, then — 10 minutes later — a process event.
        let alerts = s.process_batch(&EventBatch::from_events(vec![
            send(1, 1_000, "x.exe", "1.1.1.1", 5),
            start(2, 600_000, "a.exe", "b.exe"),
        ]));
        let w_alerts: Vec<_> = alerts.iter().filter(|a| a.query == "w").collect();
        assert_eq!(w_alerts.len(), 1, "window should have closed: {alerts:?}");
    }
}
