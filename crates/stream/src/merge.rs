//! K-way timestamp-ordered merging of per-source event feeds.
//!
//! [`WatermarkMerge`] is the ingestion-grade merge over pull-based
//! [`EventSource`]s: each source carries a *watermark* (a promise that no
//! future event from it will be earlier), events out of order beyond a
//! per-source **bounded lateness** are dropped and counted, and the merged
//! output is released in deterministic `(timestamp, source, seq)` order —
//! an event leaves the merge only once every other live source's watermark
//! has passed it, so the enterprise-wide stream order does not depend on
//! pull timing. This is what [`saql_engine`-side sessions] pump.
//!
//! A bounded-lateness source re-sorts only what arrives out of order: each
//! event at or after the back of the source's sorted run is appended to it,
//! and only a straggler below that back pays for a heap push. Release takes
//! the smaller `(ts, seq)` of the two fronts. How many events wait there is
//! set by the watermark: `max_ts − lateness` by default, or a source's own
//! tighter promise (a [`StoreSource`](crate::source::StoreSource)'s
//! verified segment floor).
//!
//! [`saql_engine`-side sessions]: crate::source::EventSource

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use saql_model::{Duration, Timestamp};

use crate::source::{EventSource, SourcePoll};
use crate::SharedEvent;

/// Handle of a source attached to a [`WatermarkMerge`] (and, by extension,
/// to an engine run session). Ids are assigned in attach order and never
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(usize);

impl SourceId {
    pub fn new(index: usize) -> Self {
        SourceId(index)
    }

    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "src#{}", self.0)
    }
}

/// How much reordering a source is granted before events are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lateness {
    /// Trust the source's arrival order as the stream order: events pass
    /// through FIFO, nothing is ever reordered or dropped, and the source's
    /// watermark follows the highest timestamp seen. This is the contract of
    /// the classic caller-push [`Engine::run`] iterator (which historically
    /// processed events exactly as handed over), so the thin `run` wrappers
    /// attach with this mode.
    ///
    /// [`Engine::run`]: https://docs.rs/ (saql_engine::Engine::run)
    ArrivalOrder,
    /// The source may deliver events up to this much *behind* the furthest
    /// timestamp it has reached; such stragglers are re-sorted into place.
    /// Anything later than the bound is dropped and counted in
    /// [`SourceStats::dropped_late`]. The watermark trails the maximum
    /// timestamp by exactly the bound.
    Bounded(Duration),
}

/// Configuration of a [`WatermarkMerge`].
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// Default lateness bound for sources attached without an explicit
    /// [`Lateness`].
    pub lateness: Duration,
    /// Maximum events pulled from one source per poll round.
    pub pull_batch: usize,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            // One second of trace time: generous for per-host agent feeds
            // (ordered within a host), tight enough to bound buffering.
            lateness: Duration::from_secs(1),
            pull_batch: 256,
        }
    }
}

/// Progress report of one [`WatermarkMerge::poll`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStatus {
    /// Progress was (or can immediately be) made: events were emitted, or a
    /// source produced data still gated by another's watermark.
    Active,
    /// Nothing emitted and every live source reported idle — the merge is
    /// waiting for external input (live feeds); back off before re-polling.
    Idle,
    /// Every source reached end-of-stream and every buffer drained.
    Done,
}

/// Per-source counters and progress, surfaced by
/// [`WatermarkMerge::source_stats`] (and the session API above it).
#[derive(Debug, Clone)]
pub struct SourceStats {
    /// The source's self-reported name.
    pub name: String,
    /// Events released into the merged stream.
    pub events: u64,
    /// Events pulled from the source (released + buffered + dropped).
    pub pulled: u64,
    /// Events dropped for arriving beyond the lateness bound.
    pub dropped_late: u64,
    /// Events pulled but not yet released (gated by other watermarks).
    pub buffered: usize,
    /// The source's current watermark.
    pub watermark: Timestamp,
    /// How far this source's watermark trails the most advanced live
    /// source's (zero when it leads, or when it is done/detached).
    pub lag: Duration,
    /// The source reached end-of-stream.
    pub done: bool,
    /// The source's self-reported failure (corrupt record, read error,
    /// undecodable lines), if any — a failed source otherwise looks like a
    /// clean, short end-of-stream.
    pub failure: Option<String>,
}

/// An event waiting in a reordering buffer: min-heap by `(ts, seq)`.
struct Buffered {
    ts: Timestamp,
    seq: u64,
    event: SharedEvent,
}

impl Buffered {
    fn key(&self) -> (Timestamp, u64) {
        (self.ts, self.seq)
    }
}

impl PartialEq for Buffered {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Buffered {}

impl PartialOrd for Buffered {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Buffered {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest (ts, seq) at the heap top.
        other.key().cmp(&self.key())
    }
}

/// `u64` millisecond watermark with +∞ for finished sources.
const WATERMARK_DONE: u64 = u64::MAX;

struct Slot<'a> {
    /// `None` once detached.
    source: Option<Box<dyn EventSource + 'a>>,
    lateness: Lateness,
    /// Stragglers of a `Lateness::Bounded` slot: the events that arrived
    /// below the back of `fifo`.
    heap: BinaryHeap<Buffered>,
    /// An `ArrivalOrder` slot's pass-through buffer. In a `Bounded` slot, a
    /// sorted run in `(ts, seq)` order: every event at or after its back is
    /// appended, so an in-order feed never touches `heap`.
    fifo: VecDeque<Buffered>,
    /// Highest event timestamp pulled so far.
    max_ts: Option<Timestamp>,
    /// Arrival sequence of the next pulled event.
    next_seq: u64,
    done: bool,
    pulled: u64,
    emitted: u64,
    dropped_late: u64,
    name: String,
    /// Last failure the source reported, captured when it ends or detaches
    /// so degraded feeds stay visible in [`WatermarkMerge::source_stats`]
    /// after the source itself is gone.
    failure: Option<String>,
}

impl Slot<'_> {
    fn buffered(&self) -> usize {
        self.heap.len() + self.fifo.len()
    }

    /// This slot can neither produce nor gate anything anymore.
    fn finished(&self) -> bool {
        (self.done || self.source.is_none()) && self.buffered() == 0
    }

    /// The promise "no future event from me is earlier than this", in
    /// milliseconds ([`WATERMARK_DONE`] once ended/detached).
    fn watermark_ms(&self) -> u64 {
        if self.done || self.source.is_none() {
            return WATERMARK_DONE;
        }
        let seen = match (self.lateness, self.max_ts) {
            (_, None) => 0,
            (Lateness::ArrivalOrder, Some(ts)) => ts.as_millis(),
            (Lateness::Bounded(bound), Some(ts)) => {
                ts.as_millis().saturating_sub(bound.as_millis())
            }
        };
        // A source may know more than its emitted events (floor-gated
        // stores, push channels, paced replays): take the larger promise.
        let hint = self
            .source
            .as_ref()
            .and_then(|s| s.watermark())
            .map_or(0, |ts| ts.as_millis());
        seen.max(hint)
    }

    /// Earliest buffered candidate as a `(ts, seq)` key, if any.
    fn candidate(&self) -> Option<(Timestamp, u64)> {
        let run = self.fifo.front().map(Buffered::key);
        match self.lateness {
            Lateness::ArrivalOrder => run,
            Lateness::Bounded(_) => run
                .into_iter()
                .chain(self.heap.peek().map(Buffered::key))
                .min(),
        }
    }

    fn pop(&mut self) -> Buffered {
        let from_run = match self.lateness {
            Lateness::ArrivalOrder => true,
            Lateness::Bounded(_) => match (self.fifo.front(), self.heap.peek()) {
                (Some(run), Some(straggler)) => run.key() < straggler.key(),
                (run, _) => run.is_some(),
            },
        };
        let popped = if from_run {
            self.fifo.pop_front()
        } else {
            self.heap.pop()
        };
        popped.expect("candidate exists")
    }
}

/// The watermarked K-way merge over pull-based [`EventSource`]s.
///
/// Attach sources (each with its [`Lateness`] contract), then [`poll`]
/// repeatedly: every round pulls a batch from each live source, drops
/// events beyond their lateness bound, and releases buffered events in
/// global `(timestamp, source, seq)` order once no live source could still
/// produce anything earlier. The output order is a pure function of the
/// per-source event sequences — independent of pull interleaving — which is
/// what makes engines agree on multi-source runs whatever their worker
/// count.
///
/// [`poll`]: WatermarkMerge::poll
pub struct WatermarkMerge<'a> {
    slots: Vec<Slot<'a>>,
    config: MergeConfig,
    /// Timestamp of the last released event.
    frontier: Timestamp,
    /// Scratch for source polls.
    scratch: Vec<SharedEvent>,
}

impl<'a> WatermarkMerge<'a> {
    pub fn new(config: MergeConfig) -> Self {
        WatermarkMerge {
            slots: Vec::new(),
            config,
            frontier: Timestamp::ZERO,
            scratch: Vec::new(),
        }
    }

    /// Attach a source under the config's default lateness bound.
    pub fn attach(&mut self, source: Box<dyn EventSource + 'a>) -> SourceId {
        self.attach_with(source, Lateness::Bounded(self.config.lateness))
    }

    /// Attach a source with an explicit ordering contract.
    pub fn attach_with(
        &mut self,
        source: Box<dyn EventSource + 'a>,
        lateness: Lateness,
    ) -> SourceId {
        let id = SourceId(self.slots.len());
        self.slots.push(Slot {
            name: source.name().to_string(),
            source: Some(source),
            lateness,
            heap: BinaryHeap::new(),
            fifo: VecDeque::new(),
            max_ts: None,
            next_seq: 0,
            done: false,
            pulled: 0,
            emitted: 0,
            dropped_late: 0,
            failure: None,
        });
        id
    }

    /// Detach a source mid-stream: its buffered events are discarded, it
    /// stops gating the watermark frontier, and its final stats are
    /// returned. `None` if the id was never attached or already detached.
    pub fn detach(&mut self, id: SourceId) -> Option<SourceStats> {
        let exists = self
            .slots
            .get(id.index())
            .is_some_and(|s| s.source.is_some());
        if !exists {
            return None;
        }
        let stats = self.stats_of(id.index(), self.lead_ms());
        let slot = &mut self.slots[id.index()];
        slot.failure = stats.failure.clone();
        slot.source = None;
        slot.heap.clear();
        slot.fifo.clear();
        Some(stats)
    }

    /// Number of sources still attached and not ended.
    pub fn live_sources(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.source.is_some() && !s.done)
            .count()
    }

    /// Timestamp of the last event released into the merged stream.
    pub fn frontier(&self) -> Timestamp {
        self.frontier
    }

    /// Whether every source ended and every buffer drained.
    pub fn is_done(&self) -> bool {
        self.slots.iter().all(|s| s.finished())
    }

    /// One merge round: pull up to [`MergeConfig::pull_batch`] events from
    /// each live source, then append up to `max` releasable events to `out`
    /// in `(timestamp, source, seq)` order.
    pub fn poll(&mut self, out: &mut Vec<SharedEvent>, max: usize) -> MergeStatus {
        let mut any_ready = false;
        for slot in &mut self.slots {
            if slot.done || slot.source.is_none() {
                continue;
            }
            // Soft back-pressure: stop pulling from a source that has run
            // far ahead of the gating frontier — UNLESS its own watermark is
            // what blocks its buffered events (a Bounded source whose whole
            // buffer sits inside the lateness window). There, pulling more
            // is the only thing that can advance the watermark; capping
            // would livelock the merge. The lateness window itself bounds
            // that buffer for any time-progressing stream.
            let own_blocked = matches!(slot.lateness, Lateness::Bounded(_))
                && slot
                    .candidate()
                    .is_some_and(|(ts, _)| ts.as_millis() > slot.watermark_ms());
            if slot.buffered() >= self.config.pull_batch.saturating_mul(4) && !own_blocked {
                continue;
            }
            self.scratch.clear();
            let source = slot.source.as_mut().expect("checked above");
            let poll = source.poll(&mut self.scratch, self.config.pull_batch);
            match poll {
                SourcePoll::Ready => any_ready = true,
                SourcePoll::End => {
                    any_ready |= !self.scratch.is_empty();
                    slot.done = true;
                    slot.failure = source.failure();
                }
                SourcePoll::Idle => {}
            }
            for event in self.scratch.drain(..) {
                slot.pulled += 1;
                let ts = event.ts;
                if let Lateness::Bounded(bound) = slot.lateness {
                    if let Some(max_ts) = slot.max_ts {
                        // Saturating: a far-future event is not late.
                        if ts.as_millis().saturating_add(bound.as_millis()) < max_ts.as_millis() {
                            slot.dropped_late += 1;
                            continue;
                        }
                    }
                }
                slot.max_ts = Some(slot.max_ts.map_or(ts, |m| m.max(ts)));
                let buffered = Buffered {
                    ts,
                    seq: slot.next_seq,
                    event,
                };
                slot.next_seq += 1;
                match slot.lateness {
                    Lateness::Bounded(_) if slot.fifo.back().is_some_and(|run| ts < run.ts) => {
                        slot.heap.push(buffered)
                    }
                    _ => slot.fifo.push_back(buffered),
                }
            }
        }

        let emitted = self.release(out, max);
        if self.is_done() {
            MergeStatus::Done
        } else if emitted > 0 || any_ready {
            MergeStatus::Active
        } else {
            MergeStatus::Idle
        }
    }

    /// Release buffered events whose timestamp every live source's
    /// watermark has passed, earliest `(ts, source, seq)` first.
    fn release(&mut self, out: &mut Vec<SharedEvent>, max: usize) -> usize {
        let mut emitted = 0;
        while emitted < max {
            // Globally earliest buffered candidate.
            let Some((slot_idx, key)) = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.candidate().map(|(ts, seq)| (i, (ts, i, seq))))
                .min_by_key(|&(_, key)| key)
            else {
                break;
            };
            let ts_ms = key.0.as_millis();
            // Releasable once no live source could still produce anything
            // earlier. An ArrivalOrder slot never gates *itself*: its own
            // order is trusted as given. A Bounded watermark allows a later
            // event *at* it, which sorts first when its source comes first.
            // (Not so an ArrivalOrder one: its watermark is its own latest
            // event, so a quiet feed would hold the tie for good.)
            let gated = self.slots.iter().enumerate().any(|(j, s)| {
                if s.finished() {
                    return false;
                }
                let bounded = matches!(s.lateness, Lateness::Bounded(_));
                if j == slot_idx && !bounded {
                    return false;
                }
                let watermark = s.watermark_ms();
                ts_ms > watermark || (ts_ms == watermark && j < slot_idx && bounded)
            });
            if gated {
                break;
            }
            let slot = &mut self.slots[slot_idx];
            let buffered = slot.pop();
            slot.emitted += 1;
            self.frontier = self.frontier.max(buffered.ts);
            out.push(buffered.event);
            emitted += 1;
        }
        emitted
    }

    /// Stats of every source ever attached, in attach order (detached
    /// sources report their final counters).
    pub fn source_stats(&self) -> Vec<(SourceId, SourceStats)> {
        let lead = self.lead_ms();
        (0..self.slots.len())
            .map(|i| (SourceId(i), self.stats_of(i, lead)))
            .collect()
    }

    /// The highest watermark among live sources: what each one's lag is
    /// measured against.
    fn lead_ms(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.source.is_some() && !s.done)
            .map(|s| s.watermark_ms())
            .max()
            .unwrap_or(0)
    }

    fn stats_of(&self, index: usize, lead: u64) -> SourceStats {
        let slot = &self.slots[index];
        let w = slot.watermark_ms();
        // A finished source's watermark is conceptually +∞; report the
        // highest timestamp it actually reached instead.
        let (watermark, lag) = if w == WATERMARK_DONE {
            (slot.max_ts.unwrap_or(Timestamp::ZERO), Duration::ZERO)
        } else {
            (
                Timestamp::from_millis(w),
                Duration::from_millis(lead.saturating_sub(w)),
            )
        };
        SourceStats {
            name: slot.name.clone(),
            events: slot.emitted,
            pulled: slot.pulled,
            dropped_late: slot.dropped_late,
            buffered: slot.buffered(),
            watermark,
            lag,
            done: slot.done,
            failure: slot
                .source
                .as_ref()
                .and_then(|s| s.failure())
                .or_else(|| slot.failure.clone()),
        }
    }

    /// Drain every remaining event from finite sources into a vector,
    /// yielding the thread on idle rounds (live sources waiting on external
    /// producers).
    pub fn collect_remaining(&mut self) -> Vec<SharedEvent> {
        let mut out = Vec::new();
        loop {
            match self.poll(&mut out, usize::MAX) {
                MergeStatus::Done => return out,
                MergeStatus::Active => {}
                MergeStatus::Idle => std::thread::yield_now(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{push_source, IterSource};
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;
    use std::sync::Arc;

    fn ev(id: u64, host: &str, ts: u64) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, host, ts)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .starts_process(ProcessInfo::new(2, "b.exe", "u"))
                .build(),
        )
    }

    // -----------------------------------------------------------------
    // WatermarkMerge
    // -----------------------------------------------------------------

    fn merge_sources(feeds: Vec<Vec<SharedEvent>>, lateness: Duration) -> Vec<SharedEvent> {
        let mut merge = WatermarkMerge::new(MergeConfig {
            lateness,
            ..MergeConfig::default()
        });
        for (i, feed) in feeds.into_iter().enumerate() {
            merge.attach(Box::new(IterSource::new(format!("feed-{i}"), feed)));
        }
        merge.collect_remaining()
    }

    #[test]
    fn watermark_merge_orders_sorted_feeds() {
        let a = vec![ev(1, "h1", 10), ev(3, "h1", 30), ev(5, "h1", 50)];
        let b = vec![ev(2, "h2", 20), ev(4, "h2", 40)];
        let ts: Vec<u64> = merge_sources(vec![a, b], Duration::ZERO)
            .iter()
            .map(|e| e.ts.as_millis())
            .collect();
        assert_eq!(ts, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn watermark_merge_tie_breaks_by_source_then_seq() {
        // Same timestamps on both sources: source index breaks the tie, and
        // within one source, arrival order (seq).
        let a = vec![ev(11, "h1", 100), ev(12, "h1", 100)];
        let b = vec![ev(21, "h2", 100)];
        let ids: Vec<u64> = merge_sources(vec![a.clone(), b.clone()], Duration::ZERO)
            .iter()
            .map(|e| e.id)
            .collect();
        assert_eq!(ids, vec![11, 12, 21], "source 0 wins ties, seq within");
        let ids_swapped: Vec<u64> = merge_sources(vec![b, a], Duration::ZERO)
            .iter()
            .map(|e| e.id)
            .collect();
        assert_eq!(ids_swapped, vec![21, 11, 12]);
    }

    #[test]
    fn bounded_lateness_reorders_within_bound_and_drops_beyond() {
        // ts 100 arrives, then 60 (40 late, within 50) and 20 (80 late).
        let feed = vec![ev(1, "h", 100), ev(2, "h", 60), ev(3, "h", 20)];
        let mut merge = WatermarkMerge::new(MergeConfig::default());
        let id = merge.attach_with(
            Box::new(IterSource::new("late", feed)),
            Lateness::Bounded(Duration::from_millis(50)),
        );
        let out = merge.collect_remaining();
        let ids: Vec<u64> = out.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 1], "straggler re-sorted, too-late dropped");
        let stats = &merge.source_stats()[id.index()].1;
        assert_eq!(stats.dropped_late, 1);
        assert_eq!(stats.events, 2);
        assert_eq!(stats.pulled, 3);
    }

    #[test]
    fn a_far_future_event_is_not_late() {
        // `ts + lateness` past u64::MAX once wrapped to a small number, and
        // the merge dropped the event as late (a debug build panicked).
        let far = u64::MAX - 615;
        let feed = vec![ev(1, "h", 1_000), ev(2, "h", far), ev(3, "h", far - 10)];
        let mut merge = WatermarkMerge::new(MergeConfig::default());
        let id = merge.attach(Box::new(IterSource::new("far", feed)));
        let ids: Vec<u64> = merge.collect_remaining().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 3, 2]);
        assert_eq!(merge.source_stats()[id.index()].1.dropped_late, 0);
    }

    #[test]
    fn slow_source_gates_release_until_watermark_passes() {
        let (push, source) = push_source("live", 16);
        let mut merge = WatermarkMerge::new(MergeConfig {
            lateness: Duration::ZERO,
            ..MergeConfig::default()
        });
        merge.attach(Box::new(IterSource::new(
            "fast",
            vec![ev(1, "h1", 10), ev(2, "h1", 500)],
        )));
        merge.attach(Box::new(source));
        let mut out = Vec::new();

        // The live source has said nothing: its watermark is 0, gating all.
        assert_eq!(merge.poll(&mut out, usize::MAX), MergeStatus::Active);
        merge.poll(&mut out, usize::MAX);
        assert!(out.is_empty(), "nothing may pass a silent source");

        // An event at ts 100 advances the live watermark to 100.
        assert!(push.push(ev(3, "h2", 100)));
        while out.len() < 2 {
            merge.poll(&mut out, usize::MAX);
        }
        let ids: Vec<u64> = out.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 3], "ts 500 still gated at watermark 100");

        // Ending the live feed releases the rest.
        drop(push);
        merge.poll(&mut out, usize::MAX);
        assert_eq!(out.last().unwrap().id, 2);
        assert_eq!(merge.poll(&mut out, usize::MAX), MergeStatus::Done);
    }

    /// An event at exactly an earlier source's watermark waits: that source
    /// may still deliver one at the same timestamp, which sorts first.
    /// (Released at once, source 1's event overtook source 0's second.)
    #[test]
    fn a_tie_at_an_earlier_sources_watermark_waits_for_it() {
        let mut merge = WatermarkMerge::new(MergeConfig {
            lateness: Duration::ZERO,
            pull_batch: 1,
        });
        merge.attach(Box::new(IterSource::new(
            "a",
            vec![ev(1, "h1", 10), ev(2, "h1", 10)],
        )));
        merge.attach(Box::new(IterSource::new("b", vec![ev(3, "h2", 10)])));
        let ids: Vec<u64> = merge.collect_remaining().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    /// Two push sources with everything enqueued up front, pulled two
    /// events a round: a source's watermark must cover only what the merge
    /// has dequeued from it. (Counted at enqueue, `a`'s watermark was 6
    /// after the first round and `b`'s event 5 overtook 3 and 4.)
    #[test]
    fn push_source_watermark_trails_its_own_queue() {
        let (push_a, a) = push_source("a", 16);
        let (push_b, b) = push_source("b", 16);
        let mut merge = WatermarkMerge::new(MergeConfig {
            lateness: Duration::ZERO,
            pull_batch: 2,
        });
        merge.attach(Box::new(a));
        merge.attach(Box::new(b));
        for ts in [1, 2, 3, 4, 6] {
            assert!(push_a.push(ev(ts, "h1", ts)));
        }
        assert!(push_b.push(ev(5, "h2", 5)));
        drop((push_a, push_b));
        let mut out = Vec::new();
        while merge.poll(&mut out, usize::MAX) != MergeStatus::Done {}
        let merged: Vec<u64> = out.iter().map(|e| e.ts.as_millis()).collect();
        assert_eq!(merged, vec![1, 2, 3, 4, 5, 6], "the single-source order");
    }

    #[test]
    fn detach_stops_gating_and_reports_stats() {
        let (push, source) = push_source("stalled", 4);
        let mut merge = WatermarkMerge::new(MergeConfig {
            lateness: Duration::ZERO,
            ..MergeConfig::default()
        });
        merge.attach(Box::new(IterSource::new("data", vec![ev(1, "h", 50)])));
        let live = merge.attach(Box::new(source));
        let mut out = Vec::new();
        merge.poll(&mut out, usize::MAX);
        assert!(out.is_empty(), "stalled source gates");
        let stats = merge.detach(live).expect("attached");
        assert_eq!(stats.events, 0);
        assert!(merge.detach(live).is_none(), "double detach");
        merge.poll(&mut out, usize::MAX);
        assert_eq!(out.len(), 1, "gate lifted by detach");
        assert!(merge.is_done());
        drop(push);
    }

    #[test]
    fn arrival_order_source_passes_through_unsorted_untouched() {
        // A single trusted source: the merged stream is exactly the arrival
        // order, even though timestamps regress — run()'s historic contract.
        let feed = vec![ev(1, "h", 300), ev(2, "h", 100), ev(3, "h", 200)];
        let mut merge = WatermarkMerge::new(MergeConfig::default());
        let id = merge.attach_with(
            Box::new(IterSource::new("run", feed)),
            Lateness::ArrivalOrder,
        );
        let ids: Vec<u64> = merge.collect_remaining().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(merge.source_stats()[id.index()].1.dropped_late, 0);
    }

    #[test]
    fn merge_order_is_independent_of_poll_granularity() {
        let feeds: Vec<Vec<SharedEvent>> = (0..4)
            .map(|s| {
                (0..50u64)
                    .map(|i| ev(s * 100 + i, "h", s * 3 + i * 17))
                    .collect()
            })
            .collect();
        let reference: Vec<u64> = merge_sources(feeds.clone(), Duration::ZERO)
            .iter()
            .map(|e| e.id)
            .collect();
        for pull_batch in [1usize, 3, 7, 1000] {
            let mut merge = WatermarkMerge::new(MergeConfig {
                lateness: Duration::ZERO,
                pull_batch,
            });
            for (i, feed) in feeds.clone().into_iter().enumerate() {
                merge.attach(Box::new(IterSource::new(format!("f{i}"), feed)));
            }
            let got: Vec<u64> = merge.collect_remaining().iter().map(|e| e.id).collect();
            assert_eq!(got, reference, "pull_batch={pull_batch}");
        }
    }

    #[test]
    fn equal_timestamp_burst_larger_than_buffer_cap_does_not_livelock() {
        // Regression: a Bounded source whose entire (large) buffer sits
        // inside the lateness window used to hit the pull cap with its own
        // watermark stuck behind every buffered event — poll never pulled,
        // never released, and reported Idle forever. 100 events at one
        // timestamp against a 4-event pull batch (cap 16) must all emerge.
        let feed: Vec<SharedEvent> = (0..100).map(|i| ev(i, "h", 5_000)).collect();
        let mut merge = WatermarkMerge::new(MergeConfig {
            lateness: Duration::from_secs(1),
            pull_batch: 4,
        });
        merge.attach(Box::new(IterSource::new("burst", feed)));
        let mut out = Vec::new();
        for _ in 0..200 {
            if merge.poll(&mut out, usize::MAX) == MergeStatus::Done {
                break;
            }
        }
        assert_eq!(out.len(), 100, "burst must fully drain");
        assert!(merge.is_done());
    }

    #[test]
    fn empty_merge_is_done_immediately() {
        let mut merge = WatermarkMerge::new(MergeConfig::default());
        let mut out = Vec::new();
        assert_eq!(merge.poll(&mut out, usize::MAX), MergeStatus::Done);
        assert!(merge.source_stats().is_empty());
    }
}
