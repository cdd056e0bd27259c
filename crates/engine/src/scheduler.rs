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
//! Dispatch routes, it does not broadcast: an event is offered to the
//! groups its shape is indexed under, within a group to the members whose
//! global filter can accept it (`GroupRouter`), and member windows are
//! probed for closing only when the group's deadline gate
//! ([`crate::window`]) says one may be due. The counters keep the
//! broadcast definitions — a master check per attached group per event, a
//! delivery per admitted row per attached member.
//!
//! Execution is batch-at-a-time ([`Scheduler::process_batch`]) and there is
//! no second path: a single event is a one-row batch.
//!
//! (The no-sharing comparison point — one scheduler and one data copy per
//! query — lives in `saql-baseline`.)

use std::collections::HashMap;

use saql_model::{Operation, Timestamp};
use saql_stream::{BatchView, EventBatch, SharedEvent};

use crate::alert::Alert;
use crate::query::{GroupRouter, QueryId, QuerySnapshot, RunningQuery};
use crate::window::{Gate, NEVER};

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
    /// observes the full event stream (batches are broadcast), so `events`
    /// merges as a maximum; the per-group work counters — checks,
    /// deliveries, copies — add up across shards (each group lives on
    /// exactly one shard).
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
    /// The master check: shape codes the group admits (every member's
    /// [`RunningQuery::shape_mask`] is equal by construction of the key).
    mask: u64,
    /// `Some(upstream)` for a group of pipeline stages (the compat key
    /// isolates stages by upstream): its clock ticks on that upstream's
    /// adapted alerts only, so its windows close exactly as in a dedicated
    /// engine fed nothing else — interleaved raw events never close a
    /// stage window early. `None`: the group runs on stream time.
    upstream: Option<String>,
    /// Whether any member is attached (not paused) this batch. Paused
    /// members are detached — no events, no time — and pause state cannot
    /// change mid-batch (control-plane operations land between batches).
    active: bool,
    /// The group's clock this batch and its members' earliest window close.
    gate: Gate,
    /// This batch's selection and its routing to members (see [`GroupRouter`]).
    router: GroupRouter,
    /// Scratch: the members a row is offered to.
    targets: Vec<usize>,
}

impl Group {
    fn attached(&mut self) -> impl Iterator<Item = &mut RunningQuery> {
        self.members.iter_mut().filter(|q| !q.is_paused())
    }

    /// Start a batch: nothing selected, no time seen, the gate watching the
    /// attached members' open windows. Returns the group's deadline on
    /// stream time ([`NEVER`] for a stage group, whose own clock gates it).
    fn begin_batch(&mut self) -> Timestamp {
        self.router.clear();
        let mut gate = Gate::idle();
        let mut active = false;
        for q in self.attached() {
            active = true;
            gate.watch(q.next_close());
        }
        (self.gate, self.active) = (gate, active);
        self.stream_deadline()
    }

    fn stream_deadline(&self) -> Timestamp {
        match self.upstream {
            None => self.gate.deadline,
            Some(_) => NEVER,
        }
    }

    /// One event, stream time `now`: tick the group's clock, close what
    /// came due, and — when the event is `routed` here — offer its payload
    /// to the members whose filter slot accepted it. Returns the group's
    /// deadline on stream time afterwards.
    fn step(
        &mut self,
        event: &SharedEvent,
        row: usize,
        now: Timestamp,
        routed: bool,
        alerts: &mut Vec<Alert>,
    ) -> Timestamp {
        match &self.upstream {
            None => self.gate.now = now,
            // An upstream's adapted alerts always carry the `alert proc`
            // shape the stage's `_in` pattern admits, so every tick of a
            // stage clock arrives routed.
            Some(up) if event.op == Operation::Alert && *event.subject.exe_name == **up => {
                self.gate.now = self.gate.now.max(event.ts);
            }
            Some(_) => {}
        }
        if self.gate.due() {
            let mut gate = Gate {
                deadline: NEVER,
                ..self.gate
            };
            for q in self.attached() {
                q.advance_time(gate.now, alerts);
                gate.watch(q.next_close());
            }
            self.gate = gate;
        }
        if routed {
            let Group {
                members,
                router,
                targets,
                gate,
                ..
            } = self;
            // Member order, so the alert stream does not depend on how
            // members share slots.
            let hits = router.take_hits(row);
            targets.clear();
            for hit in hits.clone() {
                targets.extend_from_slice(router.hit_members(hit));
            }
            if hits.len() > 1 {
                targets.sort_unstable();
            }
            for &mi in targets.iter() {
                let q = &mut members[mi];
                if !q.is_paused() {
                    alerts.extend(q.process_row(event, row, router, gate));
                }
            }
        }
        self.stream_deadline()
    }
}

/// Master–dependent concurrent query scheduler.
pub struct Scheduler {
    groups: Vec<Group>,
    by_key: HashMap<String, usize>,
    /// Shape code → indices of the groups whose mask admits it, ascending:
    /// an event is offered only to these. Maintained by `add`/`remove`.
    by_shape: Vec<Vec<usize>>,
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
            by_shape: vec![Vec::new(); u64::BITS as usize],
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
    pub fn add(&mut self, mut query: RunningQuery) -> (usize, usize) {
        let key = query.compat_key().to_string();
        let gi = match self.by_key.get(&key) {
            Some(&gi) => gi,
            None => {
                let gi = self.groups.len();
                let mask = query.shape_mask();
                self.groups.push(Group {
                    key: key.clone(),
                    members: Vec::new(),
                    mask,
                    upstream: query.pipeline_input().map(str::to_string),
                    active: false,
                    gate: Gate::idle(),
                    router: GroupRouter::default(),
                    targets: Vec::new(),
                });
                self.by_key.insert(key, gi);
                for routed in admitted_by(&mut self.by_shape, mask) {
                    routed.push(gi);
                }
                gi
            }
        };
        let Group {
            members, router, ..
        } = &mut self.groups[gi];
        query.attach(members.len(), router);
        members.push(query);
        (gi, members.len() - 1)
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
            let Group {
                members, router, ..
            } = &mut self.groups[gi];
            let query = members.remove(mi);
            // Later members moved up one position: intern them afresh, so
            // no slot keeps a stale position or the departed filter.
            *router = GroupRouter::default();
            for (i, q) in members.iter_mut().enumerate() {
                q.attach(i, router);
            }
            if members.is_empty() {
                let dissolved = self.groups.remove(gi);
                self.by_key.remove(&dissolved.key);
                // Groups after the dissolved one shifted down by one.
                self.by_shape.iter_mut().for_each(Vec::clear);
                for (i, group) in self.groups.iter().enumerate() {
                    self.by_key.insert(group.key.clone(), i);
                    for routed in admitted_by(&mut self.by_shape, group.mask) {
                        routed.push(i);
                    }
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

    /// Push a batch through the groups that can want it.
    ///
    /// **Prepare** is one pass per level: the batch's shape column is read
    /// once, each row selected into the groups whose mask admits it (the
    /// master check); each group with a selection routes it through its
    /// filter slots (`GroupRouter::route`) and each attached member
    /// precomputes its stateful work over the rows its slot received.
    ///
    /// **Drive** walks the batch in stream order. A row is offered only to
    /// the groups its shape routes to, and within a group only to the
    /// members of the slots that accepted it. Time is gated: `now` is the
    /// batch's running maximum event time, and while it stays below the
    /// earliest window deadline of every stream-time group no window can be
    /// due, so an event costs the routed groups and nothing else; when it
    /// reaches that deadline, every group is visited in order so closes
    /// land where they always did in the alert stream. Order within an
    /// event is group-major, then closes before payloads, then member
    /// order — so the ordered alert stream and every counter are
    /// independent of how the stream is cut into batches.
    pub fn process_batch(&mut self, batch: &EventBatch) -> Vec<Alert> {
        let started = self.latency.is_some().then(std::time::Instant::now);
        let view = BatchView::new(batch);
        let n = view.len() as u64;
        self.stats.events += n;
        let mut deadline = NEVER;
        for group in &mut self.groups {
            deadline = deadline.min(group.begin_batch());
            // All members share the shape by construction, so a paused
            // master still answers for the group — but a fully-paused group
            // has no one to deliver to: its master check would be waste.
            if group.active {
                self.stats.master_checks += n;
            }
        }
        for (row, &code) in view.shape().iter().enumerate() {
            for &gi in &self.by_shape[code as usize] {
                let group = &mut self.groups[gi];
                if group.active {
                    group.router.select(row);
                }
            }
        }
        for group in &mut self.groups {
            let Group {
                members, router, ..
            } = group;
            if router.selected() == 0 {
                continue;
            }
            router.route(&view);
            for q in members.iter_mut().filter(|q| !q.is_paused()) {
                self.stats.deliveries += q.prepare_batch(&view, router);
            }
        }
        let mut alerts = Vec::new();
        let mut now = Timestamp::ZERO;
        for (row, event) in view.events().iter().enumerate() {
            now = now.max(event.ts);
            let routed = &self.by_shape[view.shape()[row] as usize];
            if now < deadline {
                for &gi in routed {
                    let group = &mut self.groups[gi];
                    deadline = deadline.min(group.step(event, row, now, true, &mut alerts));
                }
            } else {
                deadline = NEVER;
                let mut next = 0;
                for (gi, group) in self.groups.iter_mut().enumerate() {
                    let hit = routed.get(next) == Some(&gi);
                    next += hit as usize;
                    deadline = deadline.min(group.step(event, row, now, hit, &mut alerts));
                }
            }
        }
        // Batch boundary: control-plane operations and snapshots land here,
        // and must find every attached member's watermark where advancing
        // it on every event would have left it.
        for group in &mut self.groups {
            if group.upstream.is_none() {
                group.gate.now = now;
            }
            let clock = group.gate.now;
            group.attached().for_each(|q| q.catch_up(clock));
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

/// The routing lists of the shape codes set in `mask`.
fn admitted_by(by_shape: &mut [Vec<usize>], mask: u64) -> impl Iterator<Item = &mut Vec<usize>> {
    by_shape
        .iter_mut()
        .enumerate()
        .filter(move |(code, _)| mask & (1u64 << code) != 0)
        .map(|(_, routed)| routed)
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

    const COUNT_10S: &str = "proc p write ip i as evt #time(10 s)\nstate ss { n := count() } group by p\nreturn p, ss.n";

    fn render(alerts: &[Alert]) -> Vec<String> {
        alerts.iter().map(|a| a.to_string()).collect()
    }

    /// The window gate must follow a window that opens *behind* every open
    /// one: inside the allowed lateness an event lands in an older window,
    /// whose close time is now the group's deadline.
    #[test]
    fn late_event_opening_an_older_window_lowers_the_gate_deadline() {
        let lenient = QueryConfig {
            allowed_lateness: saql_model::Duration::from_secs(5),
            ..QueryConfig::default()
        };
        let events = [
            send(1, 21_000, "x.exe", "1.1.1.1", 5), // opens [20 s, 30 s): due at 35 s
            send(2, 12_000, "y.exe", "1.1.1.1", 5), // opens [10 s, 20 s): due at 25 s
            start(3, 26_000, "a.exe", "b.exe"),     // other shape: closes [10 s, 20 s)
            start(4, 36_000, "a.exe", "b.exe"),     // closes [20 s, 30 s)
        ];
        let scheduler = || {
            let mut s = Scheduler::new();
            s.add(RunningQuery::compile("w", COUNT_10S, lenient).unwrap());
            s
        };
        let mut one_batch = scheduler();
        let batched = one_batch.process_batch(&EventBatch::from_events(events.to_vec()));
        assert_eq!(batched.len(), 2, "{batched:?}");
        assert!(batched[0].to_string().contains("y.exe"), "{batched:?}");
        assert!(batched[1].to_string().contains("x.exe"), "{batched:?}");
        let mut per_event = scheduler();
        let mut expected = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let alerts = per_event.process(e);
            assert_eq!(
                alerts.len(),
                usize::from(i >= 2),
                "one close per later event"
            );
            expected.extend(alerts);
        }
        assert_eq!(render(&batched), render(&expected));
    }

    /// A member paused across its window's end keeps the window while the
    /// rest of its group goes on closing theirs, and closes it on the first
    /// event after `resume` — holding only what it saw before the pause.
    #[test]
    fn pause_across_a_window_boundary_with_the_group_still_running() {
        let mut s = Scheduler::new();
        s.add(rq_id("held", COUNT_10S, 0));
        s.add(rq_id("live", COUNT_10S, 1));
        assert!(s.process(&send(1, 1_000, "x.exe", "1.1.1.1", 5)).is_empty());
        s.pause(QueryId::new(0));
        // Two window ends pass: only `live` closes, and counts, anything.
        let alerts = s.process_batch(&EventBatch::from_events(vec![
            send(2, 2_000, "x.exe", "1.1.1.1", 5),
            send(3, 12_000, "x.exe", "1.1.1.1", 5),
            send(4, 25_000, "x.exe", "1.1.1.1", 5),
        ]));
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert!(alerts.iter().all(|a| a.query == "live"));
        assert_eq!(alerts[0].get("ss.n"), Some("2"));
        s.resume(QueryId::new(0));
        let alerts = s.process(&start(5, 26_000, "a.exe", "b.exe"));
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].query, "held");
        assert_eq!(alerts[0].get("ss.n"), Some("1"), "event 2 was never seen");
        let held = s.queries().find(|q| q.name() == "held").unwrap();
        assert_eq!(held.stats().windows_closed, 1);
        assert_eq!(held.stats().events_seen, 1);
    }

    /// A pipeline stage's clock is its upstream's alerts (punctuations
    /// included) and nothing else: raw events and other queries' alerts,
    /// however far ahead, never close a stage window — also when the
    /// stream-time groups beside it are closing theirs in the same batch.
    #[test]
    fn stage_windows_close_on_upstream_alert_time_only() {
        use crate::alert::AlertOrigin;
        use crate::pipeline::AlertAdapter;
        let upstream_alert = |ts: u64, host: &str| Alert {
            query: "burst".into(),
            query_id: QueryId::new(7),
            ts: Timestamp::from_millis(ts),
            origin: AlertOrigin::Window {
                start: Timestamp::ZERO,
                end: Timestamp::from_millis(ts),
                group: host.into(),
            },
            rows: vec![("host".into(), host.into())],
        };
        let mut burst = AlertAdapter::new("burst", QueryId::new(7));
        let mut other = AlertAdapter::new("other", QueryId::new(8));
        let mut s = Scheduler::new();
        s.add(rq(
            "corr",
            "from query burst #time(10 s)\nstate es { hosts := distinct_count(_in.agentid) }\nreturn es.hosts",
        ));
        s.add(rq("w", COUNT_10S));
        let alerts = s.process_batch(&EventBatch::from_events(vec![
            burst.adapt(&upstream_alert(1_000, "web-1")),
            burst.adapt(&upstream_alert(2_000, "web-2")),
            send(1, 3_000, "x.exe", "1.1.1.1", 5),
            send(2, 50_000, "x.exe", "1.1.1.1", 5), // closes `w`'s first window
            other.adapt(&upstream_alert(60_000, "web-3")), // and its second
            other.punctuation(Timestamp::from_millis(70_000)),
        ]));
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert!(alerts.iter().all(|a| a.query == "w"), "{alerts:?}");
        let corr = |s: &Scheduler| s.queries().find(|q| q.name() == "corr").unwrap().snapshot();
        let window = corr(&s).window.unwrap();
        assert_eq!(window.watermark, Timestamp::from_millis(2_000));
        assert_eq!((window.open, window.closed), (vec![0], 0));
        // Its own upstream's punctuation is what closes it.
        let alerts = s.process(&burst.punctuation(Timestamp::from_millis(10_000)));
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].query, "corr");
        assert_eq!(alerts[0].get("es.hosts"), Some("2"));
        assert_eq!(
            corr(&s).window.unwrap().watermark,
            Timestamp::from_millis(10_000)
        );
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
